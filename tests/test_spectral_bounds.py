"""Spectral sup/inf against independent references.

The references use numpy.linalg (eigh, svd) only; the library's own
eigensolver, clustering and spanning are not involved.
"""

import itertools

import numpy as np
import pytest

from specord.spectral import family_inf, family_sup, spectral_join, spectral_meet
from specord.substrate import DEFAULT_POLICY, Effect

TOL_EIG = DEFAULT_POLICY.tol_eig
# Rank cut on singular values of stacked orthonormal eigenvector blocks.
SVD_CUT = 1e-9
# Bound inclusion slack: projections from independent eigensolvers coincide
# to ~1e-12 or differ in rank by a whole unit.
TOL_BOUND = 1e-6


def _clustered(mat):
    """eigh eigenvectors with the mean of each one's chained cluster."""
    vals, vecs = np.linalg.eigh(mat)
    cut = TOL_EIG * max(1.0, float(np.max(np.abs(vals))))
    edges = [0] + [i for i in range(1, vals.size) if vals[i] - vals[i - 1] > cut]
    edges.append(vals.size)
    column_bps = np.concatenate(
        [np.full(e - s, vals[s:e].mean()) for s, e in zip(edges, edges[1:])]
    )
    return vecs, column_bps, cut


def _span_projection(columns):
    """Projection onto the column span, its rank read off the SVD."""
    if columns.shape[1] == 0:
        return np.zeros((columns.shape[0],) * 2)
    u, sv, _ = np.linalg.svd(columns, full_matrices=False)
    basis = u[:, sv > SVD_CUT]
    return basis @ basis.T


def reference_bound(mats, upper):
    """Spectral sup (upper) or inf on the merged grid: at each grid cluster
    the meet (sup) or join (inf) of the members' cumulative projections."""
    frames = [_clustered(m) for m in mats]
    tie = max(cut for _, _, cut in frames)
    merged = np.sort(np.concatenate([bps for _, bps, _ in frames]))
    edges = [0] + [i for i in range(1, merged.size) if merged[i] - merged[i - 1] > tie]
    edges.append(merged.size)
    lows = merged[edges[:-1]]
    highs = merged[[e - 1 for e in edges[1:]]]
    bounds = (highs[:-1] + lows[1:]) / 2.0
    tags = [np.searchsorted(bounds, bps, side="left") for _, bps, _ in frames]
    n = mats[0].shape[0]
    result, prev = np.zeros((n, n)), np.zeros((n, n))
    grid = highs if upper else lows
    for i, lam in enumerate(grid):
        if i == grid.size - 1:
            p = np.eye(n)
        elif upper:
            # meet of cumulatives = complement of the join of complements
            cols = np.hstack([vecs[:, t > i] for (vecs, _, _), t in zip(frames, tags)])
            p = np.eye(n) - _span_projection(cols)
        else:
            cols = np.hstack([vecs[:, t <= i] for (vecs, _, _), t in zip(frames, tags)])
            p = _span_projection(cols)
        result += lam * (p - prev)
        prev = p
    return result


def _random_effect(rng, dim, few_level):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    if few_level:
        vals = rng.choice([0.125, 0.375, 0.625, 0.875], size=dim)
    else:
        vals = rng.uniform(0.02, 0.98, dim)
    m = (q * vals) @ q.T
    return (m + m.T) / 2.0


@pytest.mark.parametrize("dim", range(3, 9))
def test_family_bounds_match_lapack_reference(dim):
    rng = np.random.default_rng(100 + dim)
    families = [
        [_random_effect(rng, dim, few_level=k % 2 == 1) for _ in range(size)]
        for size, count in ((2, 10), (3, 4))
        for k in range(count)
    ]
    for mats in families:
        effects = [Effect(m) for m in mats]
        sup = family_sup(effects).mat
        inf = family_inf(effects).mat
        assert np.linalg.norm(sup - reference_bound(mats, upper=True)) <= 1e-9
        assert np.linalg.norm(inf - reference_bound(mats, upper=False)) <= 1e-9


def _cumulative(vals, vecs, lam):
    block = vecs[:, vals <= lam]
    return block @ block.T


def eigh_spectral_leq(a, b, tol=TOL_BOUND):
    """a <=s b: b's cumulative projection sits inside a's at every level."""
    va, qa = np.linalg.eigh(a)
    vb, qb = np.linalg.eigh(b)
    tie = TOL_EIG * max(1.0, float(np.max(np.abs(va))), float(np.max(np.abs(vb))))
    for lam in np.union1d(va, vb):
        pa = _cumulative(va, qa, lam + tie)
        pb = _cumulative(vb, qb, lam + tie)
        if np.linalg.norm(pb - pb @ pa) > tol:
            return False
    return True


def lattice_pair(seed, kind, n=64):
    """One n=64 effect pair of the lattice benchmark: generator
    SeedSequence([seed, 100 + stream]), stream 0 generic and 2 commuting,
    QR frames with the sign of diag(R) folded in, values uniform(0.02, 0.98)."""
    stream = {"generic": 0, "commuting": 2}[kind]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 100 + stream]))

    def frame():
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)

    def sym(q, vals):
        m = (q * vals) @ q.T
        return (m + m.T) / 2.0

    if kind == "commuting":
        q = frame()
        va, vb = rng.uniform(0.02, 0.98, n), rng.uniform(0.02, 0.98, n)
        return sym(q, va), sym(q, vb), (q * np.maximum(va, vb)) @ q.T
    a = sym(frame(), rng.uniform(0.02, 0.98, n))
    b = sym(frame(), rng.uniform(0.02, 0.98, n))
    return a, b, None


@pytest.mark.parametrize(
    "seed,kind", [(0, "commuting"), (11, "generic"), (39, "commuting")]
)
def test_n64_join_regressions(seed, kind):
    # These joins once failed: seed 11 built a non-nested resolution, and
    # seeds 0 and 39 missed the pointwise max by 1e-4 and 7e-3.
    a, b, pointwise = lattice_pair(seed, kind)
    j = spectral_join(Effect(a), Effect(b)).mat
    assert eigh_spectral_leq(a, j) and eigh_spectral_leq(b, j)
    if pointwise is not None:
        assert np.linalg.norm(j - pointwise) <= DEFAULT_POLICY.tol_recon * 64


@pytest.mark.parametrize("dim", [4, 8])
def test_bounds_bitwise_invariant_under_operand_order(dim):
    rng = np.random.default_rng(dim)

    def draw(k):
        return Effect(_random_effect(rng, dim, few_level=k % 2 == 1))

    for k in range(10):
        a, b = draw(k), draw(k)
        assert np.array_equal(spectral_join(a, b).mat, spectral_join(b, a).mat)
        assert np.array_equal(spectral_meet(a, b).mat, spectral_meet(b, a).mat)
        # exact duplicates are dropped
        assert np.array_equal(family_sup([a, b, a]).mat, family_sup([a, b]).mat)
    for k in range(10):
        fam = [draw(k) for _ in range(3)]
        sups = [family_sup(list(p)).mat for p in itertools.permutations(fam)]
        infs = [family_inf(list(p)).mat for p in itertools.permutations(fam)]
        assert all(np.array_equal(s, sups[0]) for s in sups)
        assert all(np.array_equal(i, infs[0]) for i in infs)
