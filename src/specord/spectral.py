"""Spectral order and the lattice operations it induces.

a is spectrally below b when every cumulative projection of b sits below the
matching projection of a on the merged breakpoint grid: both operands'
breakpoints, chain-clustered, each operand's cumulative selected by counting
its breakpoints up to the midpoints between grid clusters, so tie tolerances
cannot leak a neighbouring jump into the wrong probe.

Suprema and infima come from one Gram-Schmidt pass over the members'
eigenvectors, each tagged with the grid cluster of its eigenvalue: every
grid point's meet (sup) or join (inf) of cumulative projections is a prefix
of that pass.  The result is checked against a fresh resolution of itself.
"""

from __future__ import annotations

import numpy as np

from .resolution import (
    StepResolution,
    merge_grid,
    merged_breakpoints,
    reconstruct,
    resolution_of,
)
from .substrate import (
    DEFAULT_POLICY,
    Effect,
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

# Projections from independent eigenruns either coincide (drift ~1e-14) or
# differ in rank (Frobenius gap >= 1); anything past this is real drift.
_CANONICAL_TOL = 1e-6


def resolution_leq(
    ra: StepResolution, rb: StepResolution, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Spectral comparison straight off two resolutions: at every merged
    grid cluster, b's cumulative projection must lie inside a's."""
    if ra.dim != rb.dim:
        raise ValueError(f"dimension mismatch: {ra.dim} vs {rb.dim}")
    lows, highs, _ = merged_breakpoints([ra, rb])
    bounds = (highs[:-1] + lows[1:]) / 2.0
    zero = np.zeros((ra.dim, ra.dim))

    def cumulatives(r):
        counts = np.searchsorted(np.asarray(r.breakpoints), bounds, side="right")
        counts = [*counts, len(r.breakpoints)]
        return [zero if c == 0 else r.projections[c - 1].mat for c in counts]

    pairs = zip(cumulatives(ra), cumulatives(rb))
    return all(policy.within(pb, pa) for pa, pb in pairs)


def spectral_leq(
    a: SymMatrix, b: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """True when b's resolution is below a's at every merged breakpoint."""
    return resolution_leq(resolution_of(a, policy), resolution_of(b, policy), policy)


def _assert_canonical(
    built: StepResolution, result: SymMatrix, policy: TolerancePolicy
):
    """Re-derive the resolution from the reconstructed matrix and demand it
    matches the built one; guards against drift in the lattice pipeline."""
    fresh = resolution_of(result, policy)
    probes = sorted(set(built.breakpoints) | set(fresh.breakpoints))
    for lam in probes:
        gap = frobenius(built.at(lam).mat - fresh.at(lam).mat)
        if gap > _CANONICAL_TOL:
            raise RuntimeError(
                f"lattice canonicalization drift {gap:.3e} at lambda={lam!r}"
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
    bps, projs, prev = [], [], 0
    for i, lam in enumerate(highs if upper else lows):
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
    # Built as kind directly, the guard reuses the decomposition that an
    # Effect's validation cached: one Jacobi run per bound.
    result = reconstruct(built, kind)
    _assert_canonical(built, result, policy)
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
