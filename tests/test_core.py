import numpy as np
import pytest

from specord.core import (
    abs_val,
    carrier,
    commutes,
    in_bicommutant,
    inverse,
    jordan_product,
    neg_part,
    numerical_compare,
    numerical_leq,
    pos_part,
    quadratic_map,
    sqrt_psd,
)
from specord.substrate import Projection, SymMatrix, eig, frobenius, identity


def sym(rng, dim, scale=1.0):
    s = rng.standard_normal((dim, dim)) * scale
    return SymMatrix((s + s.T) / 2.0)


def test_jordan_product_hand_oracle():
    p = Projection(np.diag([1.0, 0.0]))
    q = Projection(np.array([[0.5, 0.5], [0.5, 0.5]]))
    # (pq + qp) / 2 computed by hand
    assert np.allclose(jordan_product(p, q).mat, [[0.5, 0.25], [0.25, 0.0]])


def test_jordan_product_commutative_bilinear():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, c = sym(rng, 4), sym(rng, 4), sym(rng, 4)
        assert np.allclose(jordan_product(a, b).mat, jordan_product(b, a).mat)
        left = jordan_product(a, b + c).mat
        assert np.allclose(left, jordan_product(a, b).mat + jordan_product(a, c).mat)


def test_quadratic_map_oracle_and_positivity():
    a = SymMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    b = SymMatrix(np.diag([2.0, 3.0]))
    assert np.allclose(quadratic_map(a, b).mat, a.mat @ b.mat @ a.mat)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, s = sym(rng, 3), rng.standard_normal((3, 3))
        psd = SymMatrix(s @ s.T)
        out = quadratic_map(a, psd)
        assert np.linalg.eigvalsh(out.mat)[0] >= -1e-10


def test_sqrt_psd_matches_lapack():
    rng = np.random.default_rng(2)
    for _ in range(15):
        s = rng.standard_normal((4, 4))
        a = SymMatrix(s @ s.T)
        r = sqrt_psd(a)
        assert frobenius(r.mat @ r.mat - a.mat) <= 1e-8 * (1 + frobenius(a.mat))
        vals, vecs = np.linalg.eigh(a.mat)
        oracle = vecs @ np.diag(np.sqrt(np.clip(vals, 0, None))) @ vecs.T
        assert np.allclose(r.mat, oracle, atol=1e-8)
    with pytest.raises(ValueError):
        sqrt_psd(SymMatrix(np.diag([-1.0, 1.0])))


def test_abs_and_parts_decomposition():
    a = SymMatrix(np.diag([3.0, -2.0, 0.0]))
    assert np.allclose(abs_val(a).mat, np.diag([3.0, 2.0, 0.0]))
    assert np.allclose(pos_part(a).mat, np.diag([3.0, 0.0, 0.0]))
    assert np.allclose(neg_part(a).mat, np.diag([0.0, 2.0, 0.0]))
    rng = np.random.default_rng(3)
    for _ in range(15):
        a = sym(rng, 5)
        plus, minus = pos_part(a), neg_part(a)
        assert np.allclose(a.mat, plus.mat - minus.mat)
        assert frobenius(plus.mat @ minus.mat) <= 1e-9
        assert np.linalg.eigvalsh(plus.mat)[0] >= -1e-10
        assert np.linalg.eigvalsh(minus.mat)[0] >= -1e-10


def test_carrier_properties():
    a = SymMatrix(np.diag([2.0, 0.0, -1.0]))
    c = carrier(a)
    assert np.allclose(c.mat, np.diag([1.0, 0.0, 1.0]))
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = sym(rng, 4)
        c = carrier(a)
        # carrier fixes a under compression
        assert frobenius(c.mat @ a.mat @ c.mat - a.mat) <= 1e-8


def test_inverse_hand_oracle():
    a = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    # inverse of [[2,1],[1,2]] is (1/3) [[2,-1],[-1,2]]
    assert np.allclose(inverse(a).mat, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0)
    assert np.allclose(inverse(a).mat @ a.mat, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        inverse(SymMatrix(np.diag([1.0, 0.0])))


def test_commutes():
    d1 = SymMatrix(np.diag([1.0, 2.0]))
    d2 = SymMatrix(np.diag([5.0, -1.0]))
    flip = SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert commutes(d1, d2)
    assert not commutes(d1, flip)
    assert commutes(flip, identity(2))


def test_bicommutant_membership():
    a = SymMatrix(np.diag([1.0, 1.0, 2.0]))
    # block structure of a: anything diagonal constant on the repeated block
    assert in_bicommutant(SymMatrix(np.diag([5.0, 5.0, -3.0])), a)
    assert not in_bicommutant(SymMatrix(np.diag([5.0, 4.0, -3.0])), a)
    # everything is in the bicommutant of the identity's scalar span? no:
    # the bicommutant of the identity is the scalars
    assert in_bicommutant(identity(3) * 2.0, identity(3))
    assert not in_bicommutant(SymMatrix(np.diag([1.0, 0.0, 0.0])), identity(3))


def test_bicommutant_polynomials_of_a():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = sym(rng, 4)
        sq = jordan_product(a, a)
        assert in_bicommutant(sq, a)
        assert in_bicommutant(abs_val(a), a)
        b = sym(rng, 4)
        if not commutes(a, b):
            assert not in_bicommutant(b, a)


def test_numerical_leq():
    a = SymMatrix(np.diag([0.0, 1.0]))
    b = SymMatrix(np.diag([0.5, 1.0]))
    assert numerical_leq(a, b)
    assert not numerical_leq(b, a)
    # non-diagonal witness: b - a indefinite
    c = SymMatrix(np.array([[0.2, 0.6], [0.6, 0.2]]))
    assert not numerical_leq(a, c) and not numerical_leq(c, a)
    assert numerical_leq(a, a)


def test_hand_oracle_grab_bag():
    p = Projection(np.diag([1.0, 0.0]))
    b = SymMatrix(np.array([[1.0, 2.0], [2.0, 5.0]]))
    assert np.allclose(quadratic_map(p, b).mat, [[1.0, 0.0], [0.0, 0.0]])

    assert np.allclose(sqrt_psd(SymMatrix(np.diag([4.0, 9.0]))).mat, np.diag([2.0, 3.0]))
    assert np.array_equal(sqrt_psd(SymMatrix(np.zeros((2, 2)))).mat, np.zeros((2, 2)))
    r1 = SymMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(sqrt_psd(r1).mat, r1.mat, atol=1e-12)  # its own root
    assert np.allclose(carrier(r1).mat, r1.mat, atol=1e-12)
    assert np.array_equal(carrier(SymMatrix(np.zeros((2, 2)))).mat, np.zeros((2, 2)))

    psd = SymMatrix(np.diag([2.0, 0.0]))
    assert np.allclose(pos_part(psd).mat, psd.mat)
    assert np.allclose(neg_part(psd).mat, np.zeros((2, 2)))

    assert np.allclose(inverse(SymMatrix(np.diag([2.0, 4.0]))).mat, np.diag([0.5, 0.25]))
    assert np.allclose(inverse(identity(2)).mat, np.eye(2))

    assert not commutes(SymMatrix(np.diag([1.0, 0.0])), r1)
    assert not numerical_leq(SymMatrix(np.diag([1.0, 0.0])), r1)
    assert not numerical_leq(r1, SymMatrix(np.diag([1.0, 0.0])))

    rng = np.random.default_rng(6)
    a = sym(rng, 4)
    assert in_bicommutant(carrier(a), a)


def test_dimension_mismatch_raises():
    a = SymMatrix(np.eye(2))
    b = SymMatrix(np.eye(3))
    for op in (jordan_product, quadratic_map, commutes, in_bicommutant, numerical_leq):
        with pytest.raises(ValueError):
            op(a, b)


def test_numerical_compare_matches_two_decompositions():
    # eig(a - b) is -eig(b - a) reversed bit for bit, so one decomposition
    # decides both directions; ties and pairs delta * I apart included.
    rng = np.random.default_rng(31)
    pairs = []
    for n in (2, 3, 5, 6, 9, 16):
        for _ in range(6):
            x = rng.standard_normal((n, n))
            a = SymMatrix((x + x.T) / 2.0)
            y = rng.standard_normal((n, n))
            pairs.append((a, SymMatrix((y + y.T) / 2.0)))
            pairs.append((a, a))
            for delta in (1e-12, 1e-9, 2e-9, 1e-3):
                pairs.append((a, SymMatrix(a.mat + delta * np.eye(n))))
            d = rng.integers(0, 3, n).astype(float)
            pairs.append((SymMatrix(np.diag(d)), SymMatrix(np.diag(d[::-1]))))
    for a, b in pairs:
        fwd, bwd = numerical_compare(a, b)
        assert (fwd, bwd) == (numerical_leq(a, b), numerical_leq(b, a))
        assert np.array_equal(eig(a - b).eigenvalues, -eig(b - a).eigenvalues[::-1])
