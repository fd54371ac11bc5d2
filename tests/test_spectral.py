import numpy as np
import pytest

from specord.core import commutes, numerical_leq
from specord.resolution import resolution_of
from specord.spectral import (
    family_inf,
    family_sup,
    resolution_leq,
    spectral_join,
    spectral_leq,
    spectral_meet,
)
from specord.substrate import Effect, Projection, SymMatrix, frobenius, identity


def sym(rng, dim, scale=1.0):
    s = rng.standard_normal((dim, dim)) * scale
    return SymMatrix((s + s.T) / 2.0)


def effect(rng, dim):
    s = rng.standard_normal((dim, dim))
    m = (s + s.T) / 2.0
    vals = np.linalg.eigvalsh(m)
    return Effect((m - vals[0] * np.eye(dim)) / (vals[-1] - vals[0]))


def test_reflexive_and_shift():
    a = SymMatrix(np.diag([0.3, 0.8]))
    assert spectral_leq(a, a)
    # adding a positive scalar shifts every breakpoint right
    assert spectral_leq(a, a + 0.5)
    assert not spectral_leq(a + 0.5, a)


def test_diagonal_order_is_entrywise():
    a = SymMatrix(np.diag([1.0, 5.0]))
    b = SymMatrix(np.diag([2.0, 7.0]))
    c = SymMatrix(np.diag([2.0, 4.0]))
    assert spectral_leq(a, b)
    assert not spectral_leq(b, a)
    assert not spectral_leq(a, c) and not spectral_leq(c, a)


def test_strictly_stronger_than_numerical():
    # frozen witness: a <= b numerically but the resolutions cross
    a = SymMatrix(np.diag([1.0, 0.0]))
    b = SymMatrix(np.array([[1.5, 0.5], [0.5, 0.5]]))
    assert numerical_leq(a, b)
    assert not commutes(a, b)
    assert not spectral_leq(a, b)


def test_spectral_implies_numerical():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        a, b = sym(rng, dim), sym(rng, dim)
        m = spectral_meet(a, b)
        assert spectral_leq(m, a) and spectral_leq(m, b)
        assert numerical_leq(m, a) and numerical_leq(m, b)


def test_commuting_diagonal_meet_join_oracle():
    # commuting pairs: meet and join act entrywise on shared eigenvalues
    a = SymMatrix(np.diag([1.0, 5.0, -2.0]))
    b = SymMatrix(np.diag([3.0, 4.0, -2.0]))
    assert np.allclose(spectral_meet(a, b).mat, np.diag([1.0, 4.0, -2.0]), atol=1e-9)
    assert np.allclose(spectral_join(a, b).mat, np.diag([3.0, 5.0, -2.0]), atol=1e-9)


def test_commuting_equivalence_with_numerical():
    rng = np.random.default_rng(1)
    for _ in range(15):
        dim = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        d1 = np.sort(rng.uniform(-1, 1, dim))
        d2 = np.sort(rng.uniform(-1, 1, dim))
        a = SymMatrix(q @ np.diag(d1) @ q.T)
        b = SymMatrix(q @ np.diag(d2) @ q.T)
        assert spectral_leq(a, b) == numerical_leq(a, b)
        assert spectral_leq(b, a) == numerical_leq(b, a)


def test_projection_operand_reduces_to_numerical():
    rng = np.random.default_rng(2)
    for _ in range(15):
        dim = int(rng.integers(2, 5))
        e = effect(rng, dim)
        qmat, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        k = int(rng.integers(0, dim + 1))
        p = Projection(qmat[:, :k] @ qmat[:, :k].T)
        assert spectral_leq(p, e) == numerical_leq(p, e)
        assert spectral_leq(e, p) == numerical_leq(e, p)


def test_meet_join_bounds_and_universal():
    rng = np.random.default_rng(3)
    for _ in range(12):
        dim = int(rng.integers(2, 5))
        a, b = sym(rng, dim), sym(rng, dim)
        m, j = spectral_meet(a, b), spectral_join(a, b)
        assert spectral_leq(m, a) and spectral_leq(m, b)
        assert spectral_leq(a, j) and spectral_leq(b, j)
        # any spectral lower bound sits below the meet
        shift = float(np.linalg.eigvalsh(m.mat)[0])
        low = spectral_meet(m, sym(rng, dim, 0.3) + (shift - 2.0))
        assert spectral_leq(low, m)
        assert spectral_leq(j, spectral_join(j, sym(rng, dim, 0.3) + 2.0))


def test_idempotent_and_absorbing():
    rng = np.random.default_rng(4)
    a, b = sym(rng, 4), sym(rng, 4)
    assert frobenius(spectral_meet(a, a).mat - a.mat) <= 1e-7
    assert frobenius(spectral_join(a, a).mat - a.mat) <= 1e-7
    m = spectral_meet(a, b)
    assert frobenius(spectral_meet(m, a).mat - m.mat) <= 1e-6


def test_binary_ops_agree_with_family_ops_exactly():
    rng = np.random.default_rng(5)
    for _ in range(10):
        e, f = effect(rng, 4), effect(rng, 4)
        assert np.array_equal(spectral_meet(e, f).mat, family_inf([e, f]).mat)
        assert np.array_equal(spectral_join(e, f).mat, family_sup([e, f]).mat)


def test_lattice_ops_do_not_decompose_their_result(monkeypatch):
    from specord import substrate

    rng = np.random.default_rng(6)
    e, f = effect(rng, 4), effect(rng, 4)
    runs = []
    jacobi = substrate._jacobi
    monkeypatch.setattr(substrate, "_jacobi", lambda m: runs.append(1) or jacobi(m))
    # The guard certifies the result from the lattice's own block, so no op
    # runs a Jacobi on it.
    for op in (
        lambda: spectral_join(e, f),
        lambda: family_sup([e, f]),
        lambda: spectral_meet(e, f),
        lambda: family_inf([e, f]),
    ):
        runs.clear()
        op()
        assert len(runs) == 0


def test_family_ops_take_any_symmetric_members():
    # A itself, not only its effect algebra, is a lattice under the
    # spectral order: indefinite members need no effect wrapper.
    rng = np.random.default_rng(8)
    for _ in range(6):
        a, b, c = sym(rng, 4, 3.0), sym(rng, 4, 3.0), sym(rng, 4, 3.0)
        assert np.array_equal(family_sup([a, b]).mat, spectral_join(a, b).mat)
        assert np.array_equal(family_inf([a, b]).mat, spectral_meet(a, b).mat)
        hi, lo = family_sup([a, b, c]), family_inf([a, b, c])
        assert type(hi) is SymMatrix and type(lo) is SymMatrix
        for x in (a, b, c):
            assert spectral_leq(x, hi) and spectral_leq(lo, x)


def test_family_bounds():
    rng = np.random.default_rng(6)
    for _ in range(8):
        dim = int(rng.integers(2, 5))
        fam = [effect(rng, dim) for _ in range(int(rng.integers(1, 5)))]
        lo, hi = family_inf(fam), family_sup(fam)
        for e in fam:
            assert spectral_leq(lo, e)
            assert spectral_leq(e, hi)
    with pytest.raises(ValueError):
        family_inf([])
    with pytest.raises(ValueError):
        family_sup([])


def test_family_singleton_and_extremes():
    e = Effect(np.diag([0.25, 0.75]))
    assert frobenius(family_inf([e]).mat - e.mat) <= 1e-9
    assert frobenius(family_sup([e]).mat - e.mat) <= 1e-9
    one = Effect(np.eye(2))
    zero = Effect(np.zeros((2, 2)))
    fam = [e, zero, one]
    assert frobenius(family_inf(fam).mat - zero.mat) <= 1e-9
    assert frobenius(family_sup(fam).mat - one.mat) <= 1e-9


def test_effects_closed_under_family_ops():
    rng = np.random.default_rng(7)
    for _ in range(6):
        fam = [effect(rng, 3) for _ in range(3)]
        for out in (family_inf(fam), family_sup(fam)):
            vals = np.linalg.eigvalsh(out.mat)
            assert vals[0] >= -1e-9 and vals[-1] <= 1.0 + 1e-9


def test_resolution_leq_matches_matrix_level():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = sym(rng, 3), sym(rng, 3)
        assert resolution_leq(resolution_of(a), resolution_of(b)) == spectral_leq(a, b)


def test_projections_meet_join_match_lattice():
    from specord.lattice import join as pjoin
    from specord.lattice import meet as pmeet

    rng = np.random.default_rng(9)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        qmat, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        p = Projection(qmat[:, :1] @ qmat[:, :1].T)
        q = Projection(qmat[:, 1:2] @ qmat[:, 1:2].T)
        assert frobenius(spectral_meet(p, q).mat - pmeet(p, q).mat) <= 1e-7
        assert frobenius(spectral_join(p, q).mat - pjoin(p, q).mat) <= 1e-7


def test_dimension_mismatch():
    a, b = SymMatrix(np.eye(2)), SymMatrix(np.eye(3))
    for op in (spectral_leq, spectral_meet, spectral_join):
        with pytest.raises(ValueError):
            op(a, b)


def _cayley(k4):
    """Orthogonal (I - K)(I + K)^-1 for K = k4 / 4 skew."""
    k = np.asarray(k4, dtype=float) / 4.0
    eye = np.eye(k.shape[0])
    return (eye - k) @ np.linalg.inv(eye + k)


def test_join_across_a_tie_straddle_does_not_raise():
    # Both operands have eigenvalues 1/4 and 5/8, b's 1e-9 (= tol_eig)
    # higher, so the join has breakpoints about tie_tol apart.  Probing each
    # resolution at probe + tie_tol admits one of them on one side only
    # (drift 1.0 at 5/8), so the guard matches breakpoints cluster by
    # cluster instead.
    qa = _cayley([[0, -2, 0, 1], [2, 0, 2, 3], [0, -2, 0, -1], [-1, -3, 1, 0]])
    qb = _cayley([[0, 0, 3, -1], [0, 0, 1, -1], [-3, -1, 0, 3], [1, 1, -3, 0]])
    a = SymMatrix(qa @ np.diag(np.array([3, 1, 5, 2]) / 8) @ qa.T)
    b = SymMatrix(qb @ np.diag(np.array([6, 2, 5, 2]) / 8) @ qb.T + 1e-9 * np.eye(4))
    spectral_join(a, b)


def test_meet_across_a_near_tie_allows_for_the_fresh_runs_error(monkeypatch):
    # b's levels sit 1.5e-9 above a's shared 1/4 and 3/8, past the grouping
    # cut (tol_eig times 7/8), so the meet splits breakpoints 1.5e-9 apart.
    # Jacobi's backward error over that gap moves a fresh decomposition's
    # projection 1.4e-5 from the built one.  The certificate's Davis-Kahan
    # margin is too thin to vouch for a fresh run here, so the guard falls
    # back, and the fallback allows for the fresh run's error instead of
    # raising at 1e-6.
    from specord import spectral

    fresh = []
    real = spectral._compare_fresh
    monkeypatch.setattr(spectral, "_compare_fresh", lambda *a: fresh.append(1) or real(*a))
    qa = _cayley([[0, -3, 0, 0, 1], [3, 0, -3, 2, 0], [0, 3, 0, 0, -1],
                  [0, -2, 0, 0, -3], [-1, 0, 1, 3, 0]])
    qb = _cayley([[0, 3, 2, 2, 1], [-3, 0, 0, 3, -3], [-2, 0, 0, -2, 0],
                  [-2, -3, 2, 0, 2], [-1, 3, 0, -2, 0]])
    a = SymMatrix(qa @ np.diag(np.array([3, 7, 2, 3, 2]) / 8) @ qa.T)
    b = SymMatrix(qb @ np.diag(np.array([3, 6, 2, 3, 0]) / 8) @ qb.T + 1.5e-9 * np.eye(5))
    spectral_meet(a, b)
    assert fresh


def test_roundoff_zero_meets_are_scalars_and_compare_as_their_scalars():
    # Two rank-one projections in general position at n = 2 meet in 0.  The
    # pass's block spans the plane, so the result is c B B^T with c the low
    # grid edge (an eigenvalue of the operands, 0 up to roundoff): one
    # breakpoint of full rank at every scale, and two such meets compare as
    # the numbers c do, so each pair is ordered at least one way.
    def line(t):
        v = np.array([np.cos(t), np.sin(t)])
        return Projection(np.outer(v, v))

    angles = [(0.3, 1.1), (0.7, 0.4), (1.9, 2.2), (0.1, 0.05)]
    pairs = [(line(t), line(t + d)) for t, d in angles]
    meets = [spectral_meet(p, q) for p, q in pairs]
    scalars = []
    for (p, q), m in zip(pairs, meets):
        assert frobenius(m.mat) < 1e-15
        res = resolution_of(m)
        assert len(res.breakpoints) == 1 and tuple(res.ranks) == (2,)
        scalars.append(float(res.breakpoints[0]))
        assert spectral_leq(m, p) and spectral_leq(m, q)
    for x, cx in zip(meets, scalars):
        for y, cy in zip(meets, scalars):
            assert spectral_leq(x, y) == (cx <= cy)
