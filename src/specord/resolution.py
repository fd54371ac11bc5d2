"""Spectral resolutions as finite right-continuous step functions.

A resolution is a flag of nested subspaces: ascending breakpoints, one
orthonormal frame of eigenvectors in ascending order, and the cumulative
rank at each breakpoint.  The cumulative projection at a breakpoint projects
onto the frame's first columns up to its rank; between breakpoints the
function is constant, below the first it is 0 and from the last on it is
the identity.  Evaluation treats eigenvalues within tie_tol of the probe as
lying on the <= side, so boundary behaviour matches the convention that an
eigenvalue exactly at the probe belongs to the projection.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .substrate import (
    DEFAULT_POLICY,
    Projection,
    SymMatrix,
    TolerancePolicy,
    chain_clusters,
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
]


@dataclass(frozen=True, eq=False)
class StepResolution:
    """Right-continuous family of nested projections with finitely many
    jumps, stored as a flag: breakpoints, an n x n orthonormal frame and
    strictly ascending cumulative ranks ending at n.  Nesting holds by
    construction; the orthonormality test guards the library's derived
    resolutions against drift, so it runs under the default policy.
    Projection matrices are built on first use and kept."""

    breakpoints: tuple[float, ...]
    frame: np.ndarray
    ranks: tuple[int, ...]
    tie_tol: float = 0.0

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        ranks = tuple(int(r) for r in self.ranks)
        frame = np.asarray(self.frame, dtype=float)
        if not bps:
            raise ValueError("a resolution needs at least one breakpoint")
        if len(ranks) != len(bps):
            raise ValueError("breakpoints and ranks must align")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
            raise ValueError(f"expected a square frame, got shape {frame.shape}")
        n = frame.shape[0]
        if ranks[-1] != n or any(r <= q for q, r in zip((0, *ranks), ranks)):
            raise ValueError(f"ranks must ascend strictly from 1 or more to {n}")
        if not DEFAULT_POLICY.agree(frame.T @ frame, np.eye(n), n):
            raise ValueError("frame must be orthonormal")
        if frame.flags.writeable:
            frame = frame.copy()
            frame.flags.writeable = False
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "_spans", {})

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def lower(self) -> float:
        """Smallest breakpoint; the resolution is 0 strictly below it."""
        return self.breakpoints[0]

    @property
    def upper(self) -> float:
        """Largest breakpoint; the resolution is the identity from it on."""
        return self.breakpoints[-1]

    @property
    def projections(self) -> tuple[Projection, ...]:
        """Cumulative projection at each breakpoint; the last is the exact
        identity."""
        return tuple(self._span(0, r) for r in self.ranks)

    def rank_at(self, lam: float) -> int:
        """Cumulative rank at lam, ties within tie_tol included."""
        idx = bisect_right(self.breakpoints, lam + self.tie_tol)
        return self.ranks[idx - 1] if idx else 0

    def at(self, lam: float) -> Projection:
        """Cumulative projection at lam, ties within tie_tol included."""
        return self._span(0, self.rank_at(lam))

    def jumps(self) -> list[tuple[float, Projection]]:
        """Breakpoints with the projection gained at each one: the span of
        that breakpoint's frame columns."""
        edges = zip(self.breakpoints, (0, *self.ranks), self.ranks)
        return [(b, self._span(lo, hi)) for b, lo, hi in edges]

    def per_column(self, values) -> np.ndarray:
        """One value per breakpoint, repeated over its frame columns."""
        return np.repeat(values, np.diff((0, *self.ranks)))

    def _span(self, lo: int, hi: int) -> Projection:
        """Projection onto frame columns lo..hi-1, built once: all columns
        give the exact identity, none the exact zero."""
        p = self._spans.get((lo, hi))
        if p is None:
            block = self.frame[:, lo:hi]
            n = self.dim
            p = Projection(np.eye(n) if hi - lo == n else block @ block.T)
            self._spans[(lo, hi)] = p
        return p


def _resolution_cache(a: SymMatrix) -> dict:
    cache = getattr(a, "_res_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(a, "_res_cache", cache)
    return cache


def resolution_of(
    a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> StepResolution:
    """Spectral resolution of a: eig's eigenvectors as the frame, each
    cluster of eigenvalues chained within the grouping cut one breakpoint
    (the cluster mean).

    Equals the complement of the carrier of the positive part of a - lam at
    every probe lam; the final cumulative projection is the exact identity.
    """
    es = eig(a, policy)
    cut = policy.grouping_cut(es)
    cache = _resolution_cache(a)
    hit = cache.get(cut)
    if hit is not None:
        return hit
    vals = es.eigenvalues
    ranges = chain_clusters(vals, cut)
    bps = tuple(float(np.mean(vals[s:e])) for s, e in ranges)
    ranks = tuple(e for _, e in ranges)
    res = StepResolution(bps, es.eigenvectors, ranks, tie_tol=cut)
    cache[cut] = res
    return res


def eigenprojection(
    a: SymMatrix, lam: float, policy: TolerancePolicy = DEFAULT_POLICY
) -> Projection:
    """Projection onto the eigenspace at lam; zero when lam misses the
    spectrum by more than the cut.  Equals the jump of the resolution."""
    res = resolution_of(a, policy)
    for value, jump in res.jumps():
        if policy.near(value, lam, res.tie_tol):
            return jump
    return Projection(np.zeros((a.dim, a.dim)))


def reconstruct(res: StepResolution, kind: type[SymMatrix] = SymMatrix) -> SymMatrix:
    """Q diag(each column's breakpoint) Q^T recovers the original matrix,
    built as kind."""
    q = res.frame
    return kind((q * res.per_column(res.breakpoints)) @ q.T)


def affine(res: StepResolution, alpha: float, beta: float) -> StepResolution:
    """Resolution of alpha * a + beta from the resolution of a; alpha > 0."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    bps = tuple(alpha * b + beta for b in res.breakpoints)
    return StepResolution(bps, res.frame, res.ranks, tie_tol=alpha * res.tie_tol)


def negate(res: StepResolution) -> StepResolution:
    """Resolution of -a from the resolution of a: the frame's columns in
    reverse order, the jump at lam moved to -lam."""
    n = res.dim
    ranks = tuple(n - r for r in reversed((0, *res.ranks[:-1])))
    bps = tuple(-b for b in reversed(res.breakpoints))
    return StepResolution(bps, res.frame[:, ::-1], ranks, tie_tol=res.tie_tol)


def step_approximant(
    e: SymMatrix, n: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> SymMatrix:
    """n-th staircase approximant 1 - (1/n) * sum of the resolution at k/n
    for k = 0..n-1; within 1/n of e in operator norm for effects.  Each
    frame column carries 1 - (its count of probes)/n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    res = resolution_of(e, policy)
    counts = np.zeros(e.dim)
    for k in range(n):
        counts[: res.rank_at(k / n)] += 1.0
    q = res.frame
    return SymMatrix((q * (1.0 - counts / n)) @ q.T)


def merge_grid(breakpoints, tie: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster edges (lows, highs) of the union of the breakpoint lists,
    chained within tie."""
    merged = np.sort(np.concatenate([np.asarray(b, dtype=float) for b in breakpoints]))
    ranges = chain_clusters(merged, tie)
    return merged[[s for s, _ in ranges]], merged[[e - 1 for _, e in ranges]]


def grid_counts(
    breakpoints: list, tie: float
) -> tuple[np.ndarray, list[list[int]]]:
    """Upper edges of the clusters of the merged grid of the breakpoint
    lists (chained within tie) and, per list, how many of its breakpoints
    lie at or below each cluster.  Counts are taken below the midpoint to
    the next cluster, so breakpoints match cluster by cluster within the tie
    tolerance and a tie never admits a neighbouring jump on one side only."""
    lows, highs = merge_grid(breakpoints, tie)
    bounds = (highs[:-1] + lows[1:]) / 2.0
    counts = []
    for bps in breakpoints:
        below = np.searchsorted(bps, bounds, side="right").tolist()
        counts.append([*below, len(bps)])
    return highs, counts
