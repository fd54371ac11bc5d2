import numpy as np
import pytest

from specord.lattice import orthocomplement
from specord.resolution import resolution_of
from specord.substrate import (
    DEFAULT_POLICY,
    ConvergenceError,
    Effect,
    Projection,
    SymMatrix,
    TolerancePolicy,
    eig,
    frobenius,
    from_diag,
    identity,
    is_psd,
    nullspace_projection,
    operator_norm,
    projection_onto_span,
    zeros,
)


def test_symmatrix_symmetrizes_and_freezes():
    a = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert np.allclose(a.mat, [[1.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ValueError):
        a.mat[0, 0] = 9.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_symmatrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SymMatrix(np.zeros(3))
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="0x0"):
        SymMatrix(np.zeros((0, 0)))
    # finite entries whose symmetric part overflows
    with pytest.raises(ValueError, match="finite"):
        SymMatrix(np.full((2, 2), 1e308))


def test_scalar_shift_is_identity_multiple():
    a = SymMatrix(np.array([[1.0, 0.5], [0.5, 2.0]]))
    shifted = a + 3.0
    assert np.allclose(shifted.mat, a.mat + 3.0 * np.eye(2))
    assert np.allclose((5.0 - a).mat, 5.0 * np.eye(2) - a.mat)
    assert np.allclose((a * 2.0).mat, 2.0 * a.mat)
    assert np.allclose((-a).mat, -a.mat)


def test_effect_validation():
    Effect(np.diag([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        Effect(np.diag([0.0, 1.5]))
    with pytest.raises(ValueError):
        Effect(np.diag([-0.2, 0.5]))


def test_projection_validation_and_rank():
    p = Projection(np.diag([1.0, 0.0, 1.0]))
    assert p.rank == 2
    assert orthocomplement(p).rank == 1
    with pytest.raises(ValueError):
        Projection(np.diag([0.5, 0.0]))


def test_eig_hand_oracle_2x2():
    # [[0,1],[1,0]] has eigenvalues -1, +1 with known eigenvectors
    a = SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    es = eig(a)
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(es.eigenvectors), [[s, s], [s, s]], atol=1e-12)


def test_eig_matches_lapack_and_reconstructs():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 5, 9):
        for _ in range(20):
            s = rng.standard_normal((dim, dim))
            a = SymMatrix((s + s.T) / 2.0)
            es = eig(a)
            lapack = np.linalg.eigvalsh(a.mat)
            assert np.allclose(es.eigenvalues, lapack, atol=1e-10)
            recon = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.T
            assert frobenius(recon - a.mat) <= 1e-8 * (1.0 + operator_norm(a))
            assert frobenius(
                es.eigenvectors.T @ es.eigenvectors - np.eye(dim)
            ) <= 1e-10


def test_eig_deterministic_bytes():
    rng = np.random.default_rng(11)
    s = rng.standard_normal((6, 6))
    m = (s + s.T) / 2.0
    one = eig(SymMatrix(m.copy()))
    two = eig(SymMatrix(m.copy()))
    assert one.eigenvalues.tobytes() == two.eigenvalues.tobytes()
    assert one.eigenvectors.tobytes() == two.eigenvectors.tobytes()


def test_eig_cached_on_instance():
    a = SymMatrix(np.diag([2.0, 1.0]))
    assert eig(a) is eig(a)


def test_eig_sign_canonicalization():
    es = eig(SymMatrix(np.diag([3.0, -1.0])))
    # largest-magnitude component of each eigenvector is positive
    for j in range(2):
        k = int(np.argmax(np.abs(es.eigenvectors[:, j])))
        assert es.eigenvectors[k, j] > 0.0


def test_resolution_groups_repeats():
    a = SymMatrix(np.diag([1.0, 1.0 + 1e-12, 2.0]))
    res = resolution_of(a)
    assert res.ranks == (2, 3)
    assert abs(res.breakpoints[0] - 1.0) < 1e-9 and abs(res.breakpoints[1] - 2.0) < 1e-12
    total = sum(p.mat for _, p in res.jumps())
    assert np.allclose(total, np.eye(3))


def test_cluster_zero_tol_exact_repeats_only():
    a = SymMatrix(np.diag([1.0, 1.0, 1.0 + 1e-12]))
    assert resolution_of(a, TolerancePolicy(tol_eig=0.0)).ranks == (2, 3)


def test_projection_onto_span_hand_oracle():
    p = projection_onto_span([np.array([1.0, 1.0])])
    assert np.allclose(p.mat, [[0.5, 0.5], [0.5, 0.5]])
    q = projection_onto_span([], dim=3)
    assert q.rank == 0
    with pytest.raises(ValueError):
        projection_onto_span([])


def test_projection_onto_span_matches_svd_rank():
    rng = np.random.default_rng(3)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim + 2))
        cols = [rng.standard_normal(dim) for _ in range(k)]
        p = projection_onto_span(cols, dim=dim)
        stacked = np.column_stack(cols)
        rank = np.linalg.matrix_rank(stacked, tol=1e-10)
        assert p.rank == rank
        for v in cols:
            assert np.linalg.norm(p.mat @ v - v) <= 1e-9 * (1 + np.linalg.norm(v))


def test_projection_onto_span_keeps_small_amplitudes():
    # a direction present at 1e-6 is real and must not be dropped
    base = np.array([1.0, 0.0, 0.0])
    tilted = np.array([1.0, 1e-6, 0.0])
    p = projection_onto_span([base, tilted], dim=3)
    assert p.rank == 2


def test_nullspace_projection_matches_svd():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        r = int(rng.integers(0, dim + 1))
        s = rng.standard_normal((dim, r)) if r else np.zeros((dim, 0))
        a = SymMatrix(s @ s.T)
        n = nullspace_projection(a)
        assert n.rank == dim - np.linalg.matrix_rank(a.mat, tol=1e-10)
        assert frobenius(a.mat @ n.mat) <= 1e-8 * (1.0 + operator_norm(a))


def test_operator_norm_and_psd():
    a = SymMatrix(np.diag([-3.0, 2.0]))
    assert operator_norm(a) == 3.0
    assert not is_psd(a)
    assert is_psd(SymMatrix(np.diag([0.0, 2.0])))
    assert is_psd(a + 3.0)


def test_identity_zeros_from_diag():
    assert identity(3).rank == 3
    assert zeros(3).rank == 0
    d = from_diag([1.0, 2.0])
    assert np.allclose(d.mat, np.diag([1.0, 2.0]))


def test_eig_trivial_cases():
    es = eig(SymMatrix(np.diag([2.0, 1.0])))
    assert np.array_equal(es.eigenvalues, [1.0, 2.0])
    # eigenvectors of a diagonal matrix are a permutation of the identity
    assert np.array_equal(np.abs(es.eigenvectors), np.eye(2)[:, [1, 0]])
    es = eig(identity(3))
    assert np.array_equal(es.eigenvalues, np.ones(3))


def test_operator_norm_trivia():
    assert operator_norm(zeros(3)) == 0.0
    assert abs(operator_norm(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))) - 1.0) < 1e-12
    assert is_psd(SymMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])))


def test_nullspace_hand_oracles():
    assert np.allclose(nullspace_projection(from_diag([0.0, 3.0])).mat, np.diag([1.0, 0.0]))
    assert np.array_equal(nullspace_projection(identity(2)).mat, np.zeros((2, 2)))
    # kernel of the all-ones matrix is the antidiagonal direction
    n = nullspace_projection(SymMatrix(np.ones((2, 2))))
    assert np.allclose(n.mat, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_span_single_axis():
    assert np.array_equal(projection_onto_span([np.array([1.0, 0.0])]).mat, np.diag([1.0, 0.0]))


def test_cluster_exact_repeats():
    jumps = resolution_of(from_diag([1.0, 1.0, 2.0])).jumps()
    assert [p.rank for _, p in jumps] == [2, 1]


def test_full_and_empty_selections_are_exact():
    from specord.substrate import carrier

    assert np.array_equal(carrier(identity(3)).mat, np.eye(3))
    assert np.array_equal(carrier(zeros(3)).mat, np.zeros((3, 3)))


def test_convergence_error_carries_details():
    err = ConvergenceError(1e-3, 42)
    assert err.residual == 1e-3 and err.sweeps == 42


def test_policy_eig_cut_scales():
    pol = TolerancePolicy()
    assert pol.eig_cut(0.5) == pol.tol_eig
    assert pol.eig_cut(10.0) == 10.0 * pol.tol_eig
    assert DEFAULT_POLICY.tol_proj == 1e-8


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("field", ["tol_eig", "tol_psd", "tol_proj", "tol_recon"])
def test_policy_rejects_nonfinite_and_negative(field, bad):
    with pytest.raises(ValueError, match=field):
        TolerancePolicy(**{field: bad})
    # zero stays legal: it asks for exact comparisons
    assert getattr(TolerancePolicy(**{field: 0.0}), field) == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_frobenius_across_the_float_range():
    a = np.random.default_rng(5).standard_normal((5, 5))
    unit = frobenius(a)
    for scale in (1e-300, 1e-200, 1e200, 1e300):
        assert frobenius(scale * a) == pytest.approx(unit * scale, rel=1e-14)
    # exact powers of two scale the norm exactly
    for j in (-600, 600):
        assert frobenius(np.ldexp(a, j)) == np.ldexp(unit, j)
    assert frobenius(np.zeros((3, 3))) == 0.0
