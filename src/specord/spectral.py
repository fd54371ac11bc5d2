"""Spectral order and the lattice operations it induces.

a is spectrally below b when every cumulative projection of b sits below the
matching projection of a on the merged breakpoint grid: both operands'
breakpoints, chain-clustered, each operand's cumulative selected by counting
its breakpoints up to the midpoints between grid clusters, so tie tolerances
cannot leak a neighbouring jump into the wrong probe.

Suprema and infima come from one Gram-Schmidt pass over the members'
frame columns, each tagged with the grid cluster of its eigenvalue: every
grid point's meet (sup) or join (inf) of cumulative projections is a prefix
of that pass.  The result is certified against that orthonormal block, and
decomposed afresh only where the certificate's margin is thin.
"""

from __future__ import annotations

import math

import numpy as np

from .resolution import StepResolution, grid_counts, merge_grid, resolution_of
from .substrate import (
    DEFAULT_POLICY,
    SymMatrix,
    TolerancePolicy,
    eig,
    frobenius,
    span_basis,
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
    grid cluster, b's cumulative projection must lie inside a's, that is,
    b's frame columns up to its cumulative rank must be orthogonal to a's
    frame columns past a's."""
    if ra.dim != rb.dim:
        raise ValueError(f"dimension mismatch: {ra.dim} vs {rb.dim}")
    tie = max(ra.tie_tol, rb.tie_tol)
    _, (ca, cb) = grid_counts([ra.breakpoints, rb.breakpoints], tie)
    rank_a, rank_b = (0, *ra.ranks), (0, *rb.ranks)
    return all(
        policy.orthogonal(rb.frame[:, : rank_b[j]], ra.frame[:, rank_a[i] :])
        for i, j in zip(ca, cb)
    )


def spectral_leq(
    a: SymMatrix, b: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """True when b's resolution is below a's at every merged breakpoint."""
    return resolution_leq(resolution_of(a, policy), resolution_of(b, policy), policy)


def _assert_canonical(
    result: SymMatrix,
    policy: TolerancePolicy,
    block: np.ndarray,
    values: np.ndarray,
    tie: float,
):
    """Demand that result's own resolution is the one block and values
    describe; guards against drift in the lattice pipeline.

    block holds orthonormal columns and values each column's breakpoint,
    then the breakpoint of the columns block leaves out (n values in all).
    The cumulative at each distinct value spans the columns at or below it,
    so the breakpoints and ranks follow from values.  Three measurements
    certify result with no eigensolver: the orthogonality drift of block,
    the residual of result on each column and on the complement
    I - block block^T, and the gaps between neighbouring breakpoints.  By
    Weyl's inequality every eigenvalue of result lies within the combined
    residual r of its breakpoint, so where every gap clears the grouping cut
    by 2r a fresh resolution clusters alike; by the Davis-Kahan sin-theta
    theorem each of its projections then lies within 3 drift +
    sqrt(2) r / (gap - r) of the described one.  The certificate accepts
    when that is at most half of _CANONICAL_TOL, leaving the other half to a
    fresh run's own error; otherwise result is decomposed afresh and the two
    resolutions are compared cluster by cluster.
    """
    r = result.mat
    n, k = block.shape
    rb = r @ block
    residual = frobenius(rb - block * values[:k])
    if k < n:
        rest = values[k]
        residual += frobenius(r - (rb - rest * block) @ block.T - rest * np.eye(n))
    drift = frobenius(block.T @ block - np.eye(k))
    ordered = np.sort(values)
    bps = ordered[np.concatenate([[True], ordered[1:] != ordered[:-1]])]
    scale = float(np.max(np.abs(bps)))
    # block's orthonormal polar factor lies within drift of block, which
    # moves the residual by at most 4 (||R|| + scale) drift
    residual += 4.0 * (frobenius(r) + scale) * drift
    gaps = np.diff(bps)
    certified = (
        policy.separates(gaps, residual, scale, tie)
        # every gap now exceeds 2 r, so the Davis-Kahan bound is finite
        and 3.0 * drift
        + math.sqrt(2.0) * residual / (np.min(gaps, initial=math.inf) - residual)
        <= _CANONICAL_TOL / 2.0
    )
    if not certified:
        _compare_fresh(result, policy, block, values, bps, tie)


def _compare_fresh(
    result: SymMatrix,
    policy: TolerancePolicy,
    block: np.ndarray,
    values: np.ndarray,
    bps: np.ndarray,
    tie: float,
):
    """Compare the resolution block and values describe (breakpoints bps,
    tie tolerance tie) with the fresh resolution of result, cluster by
    cluster.  Breakpoints are matched within the wider tie tolerance, or
    within the fresh run's own backward error when that is wider (tol_eig =
    0 leaves both ties at 0); at each matched cluster the cumulative
    projections may differ by _CANONICAL_TOL plus what that error can move
    the fresh projection across the eigenvalue gap there (Davis-Kahan); a
    thin gap amplifies it."""
    fresh = resolution_of(result, policy)
    es = eig(result, policy)
    vals = es.eigenvalues
    n, k = block.shape
    noise = 4.0 * frobenius(result.mat) * (es.recon + es.orth)
    ranks = (0, *fresh.ranks)
    match = max(tie, fresh.tie_tol, noise)
    highs, (cb, cf) = grid_counts([bps, fresh.breakpoints], match)
    for lam, i, c in zip(highs, cb, cf):
        # the described cumulative spans the columns at or below bps[i - 1]
        below = values <= (bps[i - 1] if i else -math.inf)
        if k < n and below[k]:
            above = block[:, ~below[:k]]
            p = np.eye(n) - above @ above.T
        else:
            p = block[:, below[:k]] @ block[:, below[:k]].T
        j = ranks[c]
        q = fresh.frame[:, :j]
        split = vals[j] - vals[j - 1] if 0 < j < n else math.inf
        moved = math.sqrt(2.0) * noise / (split - noise) if split > noise else math.inf
        gap = frobenius(p - q @ q.T)
        if gap > _CANONICAL_TOL + 3.0 * es.orth + moved:
            raise RuntimeError(
                f"lattice canonicalization drift {gap:.3e} at lambda={float(lam)!r}"
            )


def _lattice_bound(
    mats: list[SymMatrix], policy: TolerancePolicy, upper: bool
) -> SymMatrix:
    """Spectral sup (upper) or inf of a family of symmetric matrices.

    Members go in canonical byte order, exact duplicates dropped, so the
    result does not depend on how the family is listed.  The sup's
    cumulative at grid cluster i is I minus the span of the eigenvectors
    tagged above i, and its jumps land on cluster right edges; the inf's is
    the span of those tagged at or below i, jumping at left edges.  Both
    come from one Gram-Schmidt block B whose columns carry their edge v:
    the result is rest I + B diag(v - rest) B^T, rest being the edge of the
    columns B leaves out (0 where B leaves none out).  _assert_canonical
    certifies it from B, so it comes back with no decomposition of its own.
    """
    unique = {a.mat.tobytes(): a for a in mats}
    mats = [unique[key] for key in sorted(unique)]
    n = mats[0].dim
    if any(a.dim != n for a in mats):
        raise ValueError(f"dimension mismatch: {[a.dim for a in mats]}")
    rs = [resolution_of(a, policy) for a in mats]
    tie = max(r.tie_tol for r in rs)
    lows, highs = merge_grid([r.breakpoints for r in rs], tie)
    bounds = (highs[:-1] + lows[1:]) / 2.0
    top = lows.size - 1
    vecs = np.hstack([r.frame for r in rs])
    # an eigenvector's tag: the grid cluster its breakpoint falls in
    tags = np.concatenate(
        [r.per_column(np.searchsorted(bounds, r.breakpoints)) for r in rs]
    )
    # Tags top-down for the sup, bottom-up for the inf, ties by member and
    # column.
    visit = np.argsort(-tags if upper else tags, kind="stable")
    visit = visit[tags[visit] > 0] if upper else visit[tags[visit] < top]
    block, taken = span_basis(vecs[:, visit], policy)
    edges = highs if upper else lows
    values = edges[tags[visit[taken]]]
    # where B leaves no column out, rest is 0, so a result that is zero
    # carries no roundoff of an edge's scale
    rest = (edges[0] if upper else edges[top]) if values.size < n else 0.0
    result = SymMatrix(rest * np.eye(n) + (block * (values - rest)) @ block.T)
    values = np.concatenate([values, np.full(n - values.size, rest)])
    _assert_canonical(result, policy, block, values, tie)
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
    mats: list[SymMatrix], policy: TolerancePolicy = DEFAULT_POLICY
) -> SymMatrix:
    """Supremum of a finite family of symmetric matrices, effects or not;
    agrees with spectral_join bit-for-bit on two-element families."""
    if not mats:
        raise ValueError("family must be nonempty")
    return _lattice_bound(list(mats), policy, upper=True)


def family_inf(
    mats: list[SymMatrix], policy: TolerancePolicy = DEFAULT_POLICY
) -> SymMatrix:
    """Infimum of a finite family of symmetric matrices; agrees with
    spectral_meet bit-for-bit on two-element families."""
    if not mats:
        raise ValueError("family must be nonempty")
    return _lattice_bound(list(mats), policy, upper=False)
