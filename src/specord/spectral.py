"""Spectral order and the lattice operations it induces.

a is spectrally below b when every cumulative projection of b sits below the
matching projection of a on the merged breakpoint grid: both operands'
breakpoints, chain-clustered, each operand's cumulative selected by counting
its breakpoints up to the midpoints between grid clusters, so tie tolerances
cannot leak a neighbouring jump into the wrong probe.

Suprema and infima come from one Gram-Schmidt pass over the members'
eigenvectors, each tagged with the grid cluster of its eigenvalue: every
grid point's meet (sup) or join (inf) of cumulative projections is a prefix
of that pass.  The result is certified against that orthonormal block, and
decomposed afresh only where the certificate's margin is thin.
"""

from __future__ import annotations

import math

import numpy as np

from .resolution import (
    StepResolution,
    grid_counts,
    merge_grid,
    reconstruct,
    resolution_of,
)
from .substrate import (
    DEFAULT_POLICY,
    Effect,
    EigenSystem,
    Projection,
    SymMatrix,
    TolerancePolicy,
    chain_clusters,
    eig,
    frobenius,
)

__all__ = [
    "spectral_leq",
    "resolution_leq",
    "spectral_join",
    "spectral_meet",
    "family_sup",
    "family_inf",
]

# Built and fresh projections either coincide (drift ~1e-14 where the gaps
# are wide) or differ in rank (Frobenius gap >= 1); anything past this, and
# past what a thin gap lets roundoff move a projection, is real drift.
_CANONICAL_TOL = 1e-6


def resolution_leq(
    ra: StepResolution, rb: StepResolution, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Spectral comparison straight off two resolutions: at every merged
    grid cluster, b's cumulative projection must lie inside a's."""
    if ra.dim != rb.dim:
        raise ValueError(f"dimension mismatch: {ra.dim} vs {rb.dim}")
    _, (ca, cb) = grid_counts([ra, rb])
    pairs = zip(_cumulatives(ra, ca), _cumulatives(rb, cb))
    return all(policy.within(pb, pa) for pa, pb in pairs)


def _cumulatives(r: StepResolution, counts: list[int]) -> list[np.ndarray]:
    """r's cumulative projection matrix after each count of breakpoints."""
    zero = np.zeros((r.dim, r.dim))
    return [zero if c == 0 else r.projections[c - 1].mat for c in counts]


def spectral_leq(
    a: SymMatrix, b: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """True when b's resolution is below a's at every merged breakpoint."""
    return resolution_leq(resolution_of(a, policy), resolution_of(b, policy), policy)


def _assert_canonical(
    built: StepResolution,
    result: SymMatrix,
    policy: TolerancePolicy,
    block: np.ndarray,
    values: np.ndarray,
):
    """Demand that result's own resolution is the built one; guards against
    drift in the lattice pipeline.

    built's projections are prefixes of block's orthonormal columns; values
    holds each column's breakpoint, then the breakpoint of the columns block
    leaves out (n values in all).  Three measurements certify result with
    no eigensolver: the orthogonality drift of block, the residual of result
    on each column block and on the complement I - block block^T, and the
    gaps between neighbouring breakpoints.  By Weyl's inequality every
    eigenvalue of result lies within the combined residual r of its
    breakpoint, so where every gap clears the grouping cut by 2r a fresh
    resolution clusters as built; by the Davis-Kahan sin-theta theorem each
    of its projections then lies within 3 drift + sqrt(2) r / (gap - r) of
    the built one.  The certificate accepts when that is at most half of
    _CANONICAL_TOL, leaving the other half to a fresh run's own error;
    otherwise result is decomposed afresh and the two resolutions are
    compared cluster by cluster.
    """
    r = result.mat
    n, k = block.shape
    rb = r @ block
    residual = frobenius(rb - block * values[:k])
    if k < n:
        rest = values[k]
        residual += frobenius(r - (rb - rest * block) @ block.T - rest * np.eye(n))
    drift = frobenius(block.T @ block - np.eye(k))
    bps = np.asarray(built.breakpoints)
    scale = float(np.max(np.abs(bps)))
    # block's orthonormal polar factor lies within drift of block, which
    # moves the residual by at most 4 (||R|| + scale) drift
    residual += 4.0 * (frobenius(r) + scale) * drift
    gaps = np.diff(bps)
    ordered = np.sort(values)
    levels = ordered[np.concatenate([[True], ordered[1:] != ordered[:-1]])]
    ranks = np.searchsorted(ordered, bps, side="right").tolist()
    certified = (
        np.array_equal(levels, bps)
        and [p.rank for p in built.projections] == ranks
        and policy.separates(gaps, residual, scale, built.tie_tol)
        # every gap now exceeds 2 r, so the Davis-Kahan bound is finite
        and 3.0 * drift
        + math.sqrt(2.0) * residual / (np.min(gaps, initial=math.inf) - residual)
        <= _CANONICAL_TOL / 2.0
    )
    if not certified:
        fresh = resolution_of(result, policy)
        _compare_fresh(built, fresh, eig(result, policy), frobenius(r))


def _compare_fresh(
    built: StepResolution, fresh: StepResolution, es: EigenSystem, norm: float
):
    """Compare built with the fresh resolution of the result (norm its
    Frobenius norm, es its eigensystem) cluster by cluster: breakpoints are
    matched within the wider tie tolerance, and at each matched cluster the
    cumulative projections may differ by _CANONICAL_TOL plus what the fresh
    run's own backward error can move its projection across the eigenvalue
    gap there (Davis-Kahan); a thin gap amplifies that error."""
    vals = es.eigenvalues
    noise = 4.0 * norm * (es.recon + es.orth)
    ranks = [0, *(p.rank for p in fresh.projections)]
    highs, (cb, cf) = grid_counts([built, fresh], max(built.tie_tol, fresh.tie_tol))
    pairs = zip(_cumulatives(built, cb), _cumulatives(fresh, cf))
    for lam, c, (p, q) in zip(highs, cf, pairs):
        k = ranks[c]
        split = vals[k] - vals[k - 1] if 0 < k < vals.size else math.inf
        moved = math.sqrt(2.0) * noise / (split - noise) if split > noise else math.inf
        gap = frobenius(p - q)
        if gap > _CANONICAL_TOL + 3.0 * es.orth + moved:
            raise RuntimeError(
                f"lattice canonicalization drift {gap:.3e} at lambda={float(lam)!r}"
            )


def _frame(a: SymMatrix, policy: TolerancePolicy):
    """a's eigenvectors, each one's breakpoint (its cluster's mean) and the
    cut, clustered exactly as resolution_of clusters them."""
    es = eig(a, policy)
    vals = es.eigenvalues
    cut = policy.grouping_cut(es)
    bps = np.empty(vals.size)
    for s, e in chain_clusters(vals, cut):
        bps[s:e] = float(np.mean(vals[s:e]))
    return es.eigenvectors, bps, cut


def _lattice_bound(
    mats: list[SymMatrix],
    policy: TolerancePolicy,
    upper: bool,
    kind: type[SymMatrix] = SymMatrix,
) -> SymMatrix:
    """Spectral sup (upper) or inf of a family, built as kind.

    Members go in canonical byte order, exact duplicates dropped, so the
    result does not depend on how the family is listed.  The sup's
    cumulative at grid cluster i is I minus the span of the eigenvectors
    tagged above i, and its jumps land on cluster right edges; the inf's is
    the span of those tagged at or below i, jumping at left edges.
    """
    unique = {a.mat.tobytes(): a for a in mats}
    mats = [unique[key] for key in sorted(unique)]
    n = mats[0].dim
    if any(a.dim != n for a in mats):
        raise ValueError(f"dimension mismatch: {[a.dim for a in mats]}")
    frames = [_frame(a, policy) for a in mats]
    tie = max(cut for _, _, cut in frames)
    lows, highs = merge_grid([bps for _, bps, _ in frames], tie)
    bounds = (highs[:-1] + lows[1:]) / 2.0
    top = lows.size - 1
    vecs = np.hstack([v for v, _, _ in frames])
    # an eigenvector's tag: the grid cluster its breakpoint falls in
    tags = np.concatenate([np.searchsorted(bounds, bps) for _, bps, _ in frames])
    # Tags top-down for the sup, bottom-up for the inf, ties by member and
    # column; each vector is orthogonalized twice against the accepted block.
    visit = np.argsort(-tags if upper else tags, kind="stable")
    visit = visit[tags[visit] > 0] if upper else visit[tags[visit] < top]
    block, accepted = np.empty((n, n)), []
    for j in visit.tolist():
        if len(accepted) == n:
            break
        b = block[:, : len(accepted)]
        u = vecs[:, j]
        for _ in range(2):
            u = u - b @ (b.T @ u)
        residual = float(np.linalg.norm(u))
        if policy.clears(residual):
            block[:, len(accepted)] = u / residual
            accepted.append(tags[j])
    accepted = np.asarray(accepted, dtype=int)
    edges = highs if upper else lows
    bps, projs, prev = [], [], 0
    for i, lam in enumerate(edges):
        k = int(np.count_nonzero(accepted > i if upper else accepted <= i))
        rank = n - k if upper else (n if i == top else k)
        if rank == prev:
            continue
        prev = rank
        span = block[:, :k] @ block[:, :k].T
        p = np.eye(n) - span if upper else span
        bps.append(float(lam))
        projs.append(Projection(np.eye(n) if rank == n else p))
    built = StepResolution(tuple(bps), tuple(projs), tie_tol=tie)
    result = reconstruct(built, kind)
    # each accepted column's breakpoint, then that of the columns left out
    rest = np.full(n - accepted.size, edges[0] if upper else edges[top])
    values = np.concatenate([edges[accepted], rest])
    _assert_canonical(built, result, policy, block[:, : accepted.size], values)
    return result


def spectral_join(
    a: SymMatrix, b: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> SymMatrix:
    """Least upper bound in the spectral order."""
    return _lattice_bound([a, b], policy, upper=True)


def spectral_meet(
    a: SymMatrix, b: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> SymMatrix:
    """Greatest lower bound in the spectral order."""
    return _lattice_bound([a, b], policy, upper=False)


def family_sup(
    effects: list[Effect], policy: TolerancePolicy = DEFAULT_POLICY
) -> Effect:
    """Supremum of a finite family of effects; agrees with spectral_join
    bit-for-bit on two-element families."""
    if not effects:
        raise ValueError("family must be nonempty")
    return _lattice_bound(list(effects), policy, upper=True, kind=Effect)


def family_inf(
    effects: list[Effect], policy: TolerancePolicy = DEFAULT_POLICY
) -> Effect:
    """Infimum of a finite family of effects."""
    if not effects:
        raise ValueError("family must be nonempty")
    return _lattice_bound(list(effects), policy, upper=False, kind=Effect)
