"""Spectral resolutions as finite right-continuous step functions.

A resolution is stored as ascending breakpoints with the cumulative spectral
projection at each one; between breakpoints the function is constant, below
the first it is 0 and from the last on it is the identity.  Evaluation
treats eigenvalues within tie_tol of the probe as lying on the <= side,
so boundary behaviour matches the convention that an eigenvalue exactly at
the probe belongs to the projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .substrate import (
    DEFAULT_POLICY,
    Projection,
    SymMatrix,
    TolerancePolicy,
    chain_clusters,
    cluster_spectrum,
    eig,
)

__all__ = [
    "StepResolution",
    "resolution_of",
    "eigenprojection",
    "reconstruct",
    "affine",
    "negate",
    "step_approximant",
    "merged_breakpoints",
]


@dataclass(frozen=True)
class StepResolution:
    """Right-continuous family of nested projections with finitely many
    jumps.  The identity and nesting tests guard the library's derived
    resolutions against drift, so they run under the default policy."""

    breakpoints: tuple[float, ...]
    projections: tuple[Projection, ...]
    tie_tol: float = 0.0

    def __post_init__(self):
        if len(self.breakpoints) != len(self.projections):
            raise ValueError("breakpoints and projections must align")
        if not self.breakpoints:
            raise ValueError("a resolution needs at least one breakpoint")
        bps = tuple(float(b) for b in self.breakpoints)
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "projections", tuple(self.projections))
        n = self.projections[0].dim
        if not DEFAULT_POLICY.agree(self.projections[-1].mat, np.eye(n), n):
            raise ValueError("final projection must be the identity")
        for p, q in zip(self.projections, self.projections[1:]):
            if not DEFAULT_POLICY.within(p.mat, q.mat, n):
                raise ValueError("projections must be nested (monotone in lambda)")

    @property
    def dim(self) -> int:
        return self.projections[0].dim

    @property
    def lower(self) -> float:
        """Smallest breakpoint; the resolution is 0 strictly below it."""
        return self.breakpoints[0]

    @property
    def upper(self) -> float:
        """Largest breakpoint; the resolution is the identity from it on."""
        return self.breakpoints[-1]

    def at(self, lam: float) -> Projection:
        """Cumulative projection at lam, ties within tie_tol included."""
        idx = -1
        for i, b in enumerate(self.breakpoints):
            if b <= lam + self.tie_tol:
                idx = i
            else:
                break
        if idx < 0:
            return Projection(np.zeros((self.dim, self.dim)))
        return self.projections[idx]

    def jumps(self) -> list[tuple[float, Projection]]:
        """Breakpoints with the projection gained at each one."""
        out = []
        prev = np.zeros((self.dim, self.dim))
        for b, p in zip(self.breakpoints, self.projections):
            out.append((b, Projection(p.mat - prev)))
            prev = p.mat
        return out


def _resolution_cache(a: SymMatrix) -> dict:
    cache = getattr(a, "_res_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(a, "_res_cache", cache)
    return cache


def resolution_of(
    a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> StepResolution:
    """Spectral resolution of a: at each probe, the projector onto the span
    of eigenvectors whose (clustered) eigenvalue does not exceed it.

    Equals the complement of the carrier of the positive part of a - lam at
    every probe lam; the final cumulative projection is the exact identity.
    """
    es = eig(a, policy)
    cut = policy.grouping_cut(es)
    cache = _resolution_cache(a)
    hit = cache.get(cut)
    if hit is not None:
        return hit
    clusters = cluster_spectrum(es, cut)
    bps = []
    projs = []
    running = np.zeros((a.dim, a.dim))
    for i, (value, p) in enumerate(clusters):
        running = running + p.mat
        bps.append(value)
        if i == len(clusters) - 1:
            projs.append(Projection(np.eye(a.dim)))
        else:
            projs.append(Projection(running))
    res = StepResolution(tuple(bps), tuple(projs), tie_tol=cut)
    cache[cut] = res
    return res


def eigenprojection(
    a: SymMatrix, lam: float, policy: TolerancePolicy = DEFAULT_POLICY
) -> Projection:
    """Projection onto the eigenspace at lam; zero when lam misses the
    spectrum by more than the cut.  Equals the jump of the resolution."""
    es = eig(a, policy)
    cut = policy.grouping_cut(es)
    for value, p in cluster_spectrum(es, cut):
        if policy.near(value, lam, cut):
            return p
    return Projection(np.zeros((a.dim, a.dim)))


def reconstruct(res: StepResolution, kind: type[SymMatrix] = SymMatrix) -> SymMatrix:
    """Sum of breakpoint * jump recovers the original matrix, built as kind."""
    total = np.zeros((res.dim, res.dim))
    for value, jump in res.jumps():
        total = total + value * jump.mat
    return kind(total)


def affine(res: StepResolution, alpha: float, beta: float) -> StepResolution:
    """Resolution of alpha * a + beta from the resolution of a; alpha > 0."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    bps = tuple(alpha * b + beta for b in res.breakpoints)
    return StepResolution(bps, res.projections, tie_tol=alpha * res.tie_tol)


def negate(res: StepResolution) -> StepResolution:
    """Resolution of -a from the resolution of a.

    The jump at lam moves to -lam and cumulative sums rebuild in reversed
    order; the identity tail is preserved exactly.
    """
    jumps = res.jumps()
    n = res.dim
    bps = []
    projs = []
    running = np.zeros((n, n))
    for i, (value, jump) in enumerate(reversed(jumps)):
        running = running + jump.mat
        bps.append(-value)
        if i == len(jumps) - 1:
            projs.append(Projection(np.eye(n)))
        else:
            projs.append(Projection(running))
    return StepResolution(tuple(bps), tuple(projs), tie_tol=res.tie_tol)


def step_approximant(
    e: SymMatrix, n: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> SymMatrix:
    """n-th staircase approximant 1 - (1/n) * sum of the resolution at k/n
    for k = 0..n-1; within 1/n of e in operator norm for effects."""
    if n < 1:
        raise ValueError("n must be at least 1")
    res = resolution_of(e, policy)
    total = np.zeros((e.dim, e.dim))
    for k in range(n):
        total = total + res.at(k / n).mat
    return SymMatrix(np.eye(e.dim) - total / n)


def merged_breakpoints(
    resolutions: list[StepResolution], tie_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Union of breakpoints, chain-clustered so near-coincident values from
    different operands collapse into one cluster.  Returns the cluster edge
    arrays (lows, highs) and the tie tolerance; exact midpoints between
    adjacent cluster edges separate every member breakpoint correctly even
    when a cluster is wider than the inter-cluster gap."""
    if not resolutions:
        raise ValueError("need at least one resolution")
    tie = max(r.tie_tol for r in resolutions) if tie_tol is None else tie_tol
    return (*merge_grid([r.breakpoints for r in resolutions], tie), tie)


def merge_grid(breakpoints, tie: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster edges (lows, highs) of the union of the breakpoint lists,
    chained within tie."""
    merged = np.sort(np.concatenate([np.asarray(b, dtype=float) for b in breakpoints]))
    ranges = chain_clusters(merged, tie)
    return merged[[s for s, _ in ranges]], merged[[e - 1 for _, e in ranges]]


def grid_counts(
    resolutions: list[StepResolution], tie_tol: float | None = None
) -> tuple[np.ndarray, list[list[int]]]:
    """Upper edges of the merged grid's clusters and, per resolution, how
    many of its breakpoints lie at or below each cluster.  Counts are taken
    below the midpoint to the next cluster, so breakpoints match cluster by
    cluster within the tie tolerance and a tie never admits a neighbouring
    jump on one side only."""
    lows, highs, _ = merged_breakpoints(resolutions, tie_tol)
    bounds = (highs[:-1] + lows[1:]) / 2.0
    counts = []
    for r in resolutions:
        below = np.searchsorted(r.breakpoints, bounds, side="right").tolist()
        counts.append([*below, len(r.breakpoints)])
    return highs, counts
