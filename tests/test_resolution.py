import numpy as np
import pytest

from specord.resolution import (
    StepResolution,
    affine,
    eigenprojection,
    merge_grid,
    negate,
    reconstruct,
    resolution_of,
    step_approximant,
)
from specord.substrate import Effect, Projection, SymMatrix, frobenius, operator_norm


def sym(rng, dim, scale=1.0):
    s = rng.standard_normal((dim, dim)) * scale
    return SymMatrix((s + s.T) / 2.0)


def test_resolution_of_projection():
    p = SymMatrix(np.diag([1.0, 0.0, 1.0]))
    res = resolution_of(p)
    assert res.breakpoints == (0.0, 1.0)
    assert np.allclose(res.at(-0.5).mat, np.zeros((3, 3)))
    assert np.allclose(res.at(0.0).mat, np.diag([0.0, 1.0, 0.0]))
    assert np.allclose(res.at(0.5).mat, np.diag([0.0, 1.0, 0.0]))
    assert np.allclose(res.at(1.0).mat, np.eye(3))
    assert np.allclose(res.at(7.0).mat, np.eye(3))


def test_resolution_matches_lapack_cumulative():
    rng = np.random.default_rng(0)
    for _ in range(15):
        dim = int(rng.integers(2, 6))
        a = sym(rng, dim)
        res = resolution_of(a)
        vals, vecs = np.linalg.eigh(a.mat)
        for lam in np.linspace(vals[0] - 0.5, vals[-1] + 0.5, 9):
            keep = vals <= lam + res.tie_tol
            oracle = vecs[:, keep] @ vecs[:, keep].T
            assert frobenius(res.at(lam).mat - oracle) <= 1e-7


def test_resolution_final_is_exact_identity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = sym(rng, 4)
        res = resolution_of(a)
        assert np.array_equal(res.projections[-1].mat, np.eye(4))


def test_resolution_nested_and_cached():
    a = SymMatrix(np.diag([3.0, 1.0, 2.0]))
    res = resolution_of(a)
    assert resolution_of(a) is res
    for i in range(1, len(res.projections)):
        p, q = res.projections[i - 1], res.projections[i]
        assert frobenius(p.mat @ q.mat - p.mat) <= 1e-12


def test_step_resolution_validation():
    eye = np.eye(2)
    StepResolution((0.0, 1.0), eye, (1, 2))
    with pytest.raises(ValueError):
        StepResolution((1.0, 0.0), eye, (1, 2))  # not ascending
    with pytest.raises(ValueError):
        StepResolution((0.0, 1.0), eye, (2,))  # misaligned
    with pytest.raises(ValueError):
        StepResolution((0.0,), eye, (1,))  # final not identity
    with pytest.raises(ValueError):
        StepResolution((0.0, 1.0, 2.0), np.eye(3), (2, 1, 3))  # not nested
    with pytest.raises(ValueError):
        StepResolution((0.0, 1.0), np.array([[1.0, 0.5], [0.0, 1.0]]), (1, 2))  # frame
    with pytest.raises(ValueError):
        StepResolution((0.0,), np.ones((2, 3)), (2,))  # frame not square


def test_jumps_partition_identity():
    a = SymMatrix(np.diag([1.0, 1.0, 4.0, -2.0]))
    res = resolution_of(a)
    jumps = res.jumps()
    assert [round(b, 12) for b, _ in jumps] == [-2.0, 1.0, 4.0]
    assert [p.rank for _, p in jumps] == [1, 2, 1]
    assert np.allclose(sum(p.mat for _, p in jumps), np.eye(4))


def test_eigenprojection():
    a = SymMatrix(np.diag([2.0, 2.0, 5.0]))
    assert np.allclose(eigenprojection(a, 2.0).mat, np.diag([1.0, 1.0, 0.0]))
    assert eigenprojection(a, 3.7).rank == 0


def test_reconstruct_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(15):
        dim = int(rng.integers(2, 7))
        a = sym(rng, dim)
        back = reconstruct(resolution_of(a))
        assert frobenius(back.mat - a.mat) <= 1e-8 * (1.0 + operator_norm(a))


def test_affine_transform():
    a = SymMatrix(np.diag([1.0, 3.0]))
    res = affine(resolution_of(a), 2.0, -1.0)
    oracle = resolution_of(SymMatrix(np.diag([1.0, 5.0])))
    assert np.allclose(res.breakpoints, oracle.breakpoints)
    for lam in (-2.0, 1.0, 2.0, 5.0, 9.0):
        assert np.allclose(res.at(lam).mat, oracle.at(lam).mat)
    with pytest.raises(ValueError):
        affine(res, -1.0, 0.0)


def test_negate_hand_oracle():
    a = SymMatrix(np.diag([1.0, -2.0]))
    res = negate(resolution_of(a))
    assert np.allclose(res.breakpoints, (-1.0, 2.0))
    # -a = diag(-1, 2): cumulative at -1 keeps only the first axis
    assert np.allclose(res.at(-1.0).mat, np.diag([1.0, 0.0]))
    oracle = resolution_of(SymMatrix(np.diag([-1.0, 2.0])))
    for lam in (-3.0, -1.0, 0.0, 2.0, 4.0):
        assert np.allclose(res.at(lam).mat, oracle.at(lam).mat)


def test_negate_random_matches_direct():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = sym(rng, 4)
        res = negate(resolution_of(a))
        direct = resolution_of(-a)
        assert np.allclose(res.breakpoints, direct.breakpoints, atol=1e-9)
        probes = np.concatenate([res.breakpoints, [res.lower - 1.0, res.upper + 1.0]])
        for lam in probes:
            assert frobenius(res.at(lam).mat - direct.at(lam).mat) <= 1e-7


def test_step_approximant_within_one_over_n():
    rng = np.random.default_rng(4)
    for _ in range(8):
        s = rng.standard_normal((4, 4))
        m = (s + s.T) / 2.0
        vals = np.linalg.eigvalsh(m)
        e = Effect((m - vals[0] * np.eye(4)) / (vals[-1] - vals[0]))
        for n in (1, 2, 5, 16):
            approx = step_approximant(e, n)
            assert operator_norm(e - approx) <= 1.0 / n + 1e-9
    with pytest.raises(ValueError):
        step_approximant(Effect(np.diag([0.5, 0.5])), 0)


def test_eval_between_breakpoints():
    res = resolution_of(SymMatrix(np.diag([1.0, 2.0])))
    assert np.allclose(res.at(1.5).mat, np.diag([1.0, 0.0]))


def test_reconstruct_hand_cases():
    assert np.allclose(
        reconstruct(StepResolution((2.5,), np.eye(2), (2,))).mat, 2.5 * np.eye(2)
    )
    # the second axis at 0, the first at 1
    res = StepResolution((0.0, 1.0), np.eye(2)[:, ::-1], (1, 2))
    assert np.allclose(reconstruct(res).mat, np.diag([1.0, 0.0]))


def test_affine_identity_map():
    res = resolution_of(SymMatrix(np.diag([0.0, 1.0])))
    same = affine(res, 1.0, 0.0)
    assert same.breakpoints == res.breakpoints
    scaled = affine(res, 2.0, 1.0)
    assert scaled.breakpoints == (1.0, 3.0)


def test_negate_trivia():
    res = negate(resolution_of(SymMatrix(np.diag([1.0, 2.0]))))
    assert res.breakpoints == (-2.0, -1.0)
    scalar = negate(resolution_of(SymMatrix(0.7 * np.eye(2))))
    assert scalar.breakpoints == (-0.7,)


def test_step_approximant_exact_cases():
    p = Projection(np.diag([1.0, 0.0, 1.0]))
    for n in (1, 2, 7):
        # projections are their own staircase at every resolution
        assert np.allclose(step_approximant(p, n).mat, p.mat, atol=1e-12)
    half = Effect(0.5 * np.eye(2))
    assert np.allclose(step_approximant(half, 2).mat, half.mat, atol=1e-12)
    e = Effect(np.diag([0.3, 0.7]))
    assert operator_norm(e - step_approximant(e, 10)) <= 0.1 + 1e-12


def test_merged_breakpoints_clusters():
    r1 = resolution_of(SymMatrix(np.diag([0.0, 1.0])))
    r2 = resolution_of(SymMatrix(np.diag([1.0 + 1e-12, 2.0])))
    lows, highs = merge_grid([r1.breakpoints, r2.breakpoints], 1e-9)
    assert np.allclose(lows, [0.0, 1.0, 2.0])
    assert np.allclose(highs, [0.0, 1.0 + 1e-12, 2.0])
    with pytest.raises(ValueError):
        merge_grid([], 1e-9)


def test_merged_breakpoints_chain():
    # 0, 0.5e-9, 1.0e-9 chain into a single cluster under tie 1e-9
    lows, highs = merge_grid([(0.0,), (5e-10,), (1e-9,)], 1e-9)
    assert lows.size == 1 and highs[0] == 1e-9


@pytest.fixture
def projections_built(monkeypatch):
    """Counts Projection constructions."""
    built = []
    real = SymMatrix.__post_init__

    def counting(self, policy):
        if type(self) is Projection:
            built.append(1)
        real(self, policy)

    monkeypatch.setattr(SymMatrix, "__post_init__", counting)
    return built


def test_frames_build_no_projection(projections_built, monkeypatch):
    from specord import spectral

    fell_back = []
    monkeypatch.setattr(spectral, "_compare_fresh", lambda *a: fell_back.append(a))
    rng = np.random.default_rng(5)
    for n in (2, 4, 7):
        a, b = sym(rng, n), sym(rng, n)
        e, f = (Effect(x.mat @ x.mat / operator_norm(x) ** 2) for x in (a, b))
        resolution_of(a)
        spectral.spectral_leq(a, b)
        spectral.spectral_leq(b, a)
        spectral.spectral_join(e, f)
        spectral.spectral_meet(e, f)
    assert projections_built == [] and fell_back == []
    res = resolution_of(a)
    res.at(res.lower)
    assert len(projections_built) == 1


def test_negate_and_affine_reuse_the_frame():
    rng = np.random.default_rng(6)
    for n in (1, 3, 6):
        res = resolution_of(sym(rng, n))
        twice = negate(negate(res))
        assert twice.frame.tobytes() == res.frame.tobytes()
        assert np.shares_memory(twice.frame, res.frame)
        assert twice.breakpoints == res.breakpoints and twice.ranks == res.ranks
        assert affine(res, 0.5, 3.0).frame is res.frame


def test_projections_match_running_sums_of_cluster_projectors():
    from specord.substrate import chain_clusters, eig

    rng = np.random.default_rng(7)
    for n in (2, 4, 6, 9):
        for a in (sym(rng, n), SymMatrix(np.diag(rng.integers(0, 3, n).astype(float)))):
            es = eig(a)
            res = resolution_of(a)
            running = np.zeros((n, n))
            clusters = chain_clusters(es.eigenvalues, res.tie_tol)
            assert len(clusters) == len(res.projections)
            for (s, e), p in zip(clusters, res.projections):
                block = es.eigenvectors[:, s:e]
                running = running + block @ block.T
                assert frobenius(p.mat - running) <= 1e-13
