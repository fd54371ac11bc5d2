"""Deterministic instance generation for the verification harness.

Streams are counter-based: trial k of seed s draws from a Philox generator
keyed by (s, k), so any trial can be replayed in isolation and identical
specs produce byte-identical matrices.  Orthogonal frames come from the
library's two-pass Gram-Schmidt, so the whole pipeline stays inside plain
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .substrate import Effect, Projection, SymMatrix, span_basis

__all__ = [
    "KINDS",
    "GeneratorSpec",
    "substream",
    "random_orthogonal",
    "random_symmetric",
    "random_effect",
    "random_projection",
    "random_commuting_pair",
    "random_general_pair",
    "random_ordered_pair",
    "random_spectral_pair",
    "random_nested_projections",
    "draw",
]

KINDS = (
    "effect",
    "projection",
    "commuting-pair",
    "general-pair",
    "ordered-pair",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: dimension, instance kind and base seed."""

    dim: int
    kind: str
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def substream(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial of one seed."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Orthogonal frame from two-pass Gram-Schmidt on a Gaussian draw."""
    q, taken = span_basis(rng.standard_normal((dim, dim)))
    if taken.size < dim:
        raise RuntimeError("degenerate Gaussian draw")
    return q


def random_symmetric(rng: np.random.Generator, dim: int) -> SymMatrix:
    s = rng.standard_normal((dim, dim))
    return SymMatrix((s + s.T) / 2.0)


def _effect_from(rng: np.random.Generator, dim: int) -> Effect:
    q = random_orthogonal(rng, dim)
    vals = rng.uniform(0.0, 1.0, dim)
    return Effect(q @ np.diag(vals) @ q.T)


def random_effect(spec: GeneratorSpec, trial: int = 0) -> Effect:
    return _effect_from(substream(spec.seed, trial), spec.dim)


def random_projection(spec: GeneratorSpec, trial: int = 0) -> Projection:
    """Projection of uniform rank 0..dim onto a Haar-ish random frame."""
    rng = substream(spec.seed, trial)
    q = random_orthogonal(rng, spec.dim)
    rank = int(rng.integers(0, spec.dim + 1))
    block = q[:, :rank]
    return Projection(block @ block.T)


def random_commuting_pair(
    spec: GeneratorSpec, trial: int = 0, ordered: bool = False
) -> tuple[SymMatrix, SymMatrix]:
    """Pair diagonal in a shared frame; ordered=True adds a nonnegative
    spectral shift so the first sits below the second."""
    rng = substream(spec.seed, trial)
    q = random_orthogonal(rng, spec.dim)
    va = rng.uniform(-1.0, 1.0, spec.dim)
    if ordered:
        vb = va + rng.uniform(0.0, 1.0, spec.dim)
    else:
        vb = rng.uniform(-1.0, 1.0, spec.dim)
    a = SymMatrix(q @ np.diag(va) @ q.T)
    b = SymMatrix(q @ np.diag(vb) @ q.T)
    return a, b


def random_general_pair(
    spec: GeneratorSpec, trial: int = 0
) -> tuple[SymMatrix, SymMatrix]:
    rng = substream(spec.seed, trial)
    return random_symmetric(rng, spec.dim), random_symmetric(rng, spec.dim)


def random_ordered_pair(
    spec: GeneratorSpec, trial: int = 0
) -> tuple[SymMatrix, SymMatrix]:
    """Numerically ordered pair: b = a + s^2 with a Gaussian s."""
    rng = substream(spec.seed, trial)
    a = random_symmetric(rng, spec.dim)
    s = random_symmetric(rng, spec.dim)
    b = SymMatrix(a.mat + (s.mat @ s.mat) / np.sqrt(spec.dim))
    return a, b


def random_spectral_pair(
    spec: GeneratorSpec, trial: int = 0, spread: float = 0.5
) -> tuple[SymMatrix, SymMatrix]:
    """Spectrally ordered pair sharing one projection chain.

    Start from a random effect and push each breakpoint up by an ascending
    nonnegative shift; the frame and cumulative ranks are untouched, so
    every resolution value of the second element stays below the first's.
    """
    from .resolution import StepResolution, reconstruct, resolution_of

    rng = substream(spec.seed, trial)
    a = _effect_from(rng, spec.dim)
    res = resolution_of(a)
    shifts = np.sort(rng.uniform(0.0, spread, len(res.breakpoints)))
    bps = tuple(b + s for b, s in zip(res.breakpoints, shifts))
    lifted = StepResolution(bps, res.frame, res.ranks, tie_tol=res.tie_tol)
    return a, reconstruct(lifted)


def random_nested_projections(
    spec: GeneratorSpec, trial: int = 0
) -> tuple[Projection, Projection]:
    """(p, q) with p below q: p spans a random rotation of part of q's range."""
    rng = substream(spec.seed, trial)
    frame = random_orthogonal(rng, spec.dim)
    q_rank = int(rng.integers(0, spec.dim + 1))
    basis = frame[:, :q_rank]
    q = Projection(basis @ basis.T)
    if q_rank == 0:
        return Projection(np.zeros((spec.dim, spec.dim))), q
    rot = random_orthogonal(rng, q_rank)
    p_rank = int(rng.integers(0, q_rank + 1))
    cols = basis @ rot[:, :p_rank]
    return Projection(cols @ cols.T), q


def draw(spec: GeneratorSpec, trial: int = 0):
    """Dispatch on spec.kind; pairs come back as tuples."""
    if spec.kind == "effect":
        return random_effect(spec, trial)
    if spec.kind == "projection":
        return random_projection(spec, trial)
    if spec.kind == "commuting-pair":
        return random_commuting_pair(spec, trial)
    if spec.kind == "general-pair":
        return random_general_pair(spec, trial)
    if spec.kind == "ordered-pair":
        return random_ordered_pair(spec, trial)
    raise ValueError(f"unknown kind {spec.kind!r}")
