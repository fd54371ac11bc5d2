import numpy as np
import pytest

from specord.core import carrier
from specord.lattice import orthocomplement
from specord.orders import (
    OrderTag,
    brouwer_complement,
    check_bz,
    check_involution,
    demorgan_carrier_checks,
    kleene_complement,
    leq,
)
from specord.substrate import Effect, Projection, SymMatrix, frobenius


def effect(rng, dim):
    s = rng.standard_normal((dim, dim))
    m = (s + s.T) / 2.0
    vals = np.linalg.eigvalsh(m)
    return Effect((m - vals[0] * np.eye(dim)) / (vals[-1] - vals[0]))


def test_order_tags_and_leq_dispatch():
    assert OrderTag.NUMERICAL.value == "numerical"
    assert OrderTag.SPECTRAL.value == "spectral"
    a = SymMatrix(np.diag([1.0, 0.0]))
    b = SymMatrix(np.array([[1.5, 0.5], [0.5, 0.5]]))
    assert leq(a, b, OrderTag.NUMERICAL)
    assert not leq(a, b, OrderTag.SPECTRAL)
    with pytest.raises(ValueError):
        leq(a, b, "numerical")


def test_kleene_complement():
    e = Effect(np.diag([0.25, 1.0]))
    assert np.allclose(kleene_complement(e).mat, np.diag([0.75, 0.0]))
    twice = kleene_complement(kleene_complement(e))
    assert np.array_equal(twice.mat, e.mat)


def test_brouwer_complement_oracle():
    # e = diag(0.5, 0, 0.3): carrier spans axes 0 and 2
    e = Effect(np.diag([0.5, 0.0, 0.3]))
    assert np.allclose(brouwer_complement(e).mat, np.diag([0.0, 1.0, 0.0]))
    # half the identity has full carrier, so the complement vanishes
    half = Effect(np.eye(2) * 0.5)
    assert brouwer_complement(half).rank == 0
    # on projections both complements coincide
    p = Projection(np.diag([1.0, 0.0]))
    assert np.allclose(brouwer_complement(p).mat, orthocomplement(p).mat)


def test_meet_with_brouwer_complement_vanishes():
    from specord.core import quadratic_map
    from specord.spectral import spectral_meet

    rng = np.random.default_rng(9)
    for t in range(8):
        e = effect(rng, 4)
        if t % 2:
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            p = Projection(q[:, :2] @ q[:, :2].T)
            e = Effect(quadratic_map(p, e).mat)
            m = spectral_meet(e, SymMatrix(brouwer_complement(e).mat))
            # proper carrier: meet collapses to rounding noise, far below tol
            assert frobenius(m.mat) <= 1e-14
        else:
            # full-rank effect (spectrum in [1/4, 3/4]): complement and meet
            # are both exact 0
            e = Effect(0.5 * e.mat + 0.25 * np.eye(4))
            br = brouwer_complement(e)
            assert np.array_equal(br.mat, np.zeros((4, 4)))
            m = spectral_meet(e, SymMatrix(br.mat))
            assert np.array_equal(m.mat, np.zeros((4, 4)))


def test_brouwer_below_kleene():
    rng = np.random.default_rng(0)
    for _ in range(10):
        e = effect(rng, 4)
        br = brouwer_complement(e)
        kl = kleene_complement(e)
        # e~ <= e' numerically whenever e is an effect
        assert np.linalg.eigvalsh(kl.mat - br.mat)[0] >= -1e-9


def test_check_involution_passes_both_orders():
    rng = np.random.default_rng(1)
    sample = [(effect(rng, 3), effect(rng, 3)) for _ in range(12)]
    for order in OrderTag:
        report = check_involution(sample, order)
        assert report.passed, [f.check for f in report.failures]
        assert any("i2 premise" in n for n in report.notes)


def test_check_involution_flags_broken_complement(monkeypatch):
    rng = np.random.default_rng(2)
    sample = [(effect(rng, 3), effect(rng, 3)) for _ in range(10)]

    def broken(a):
        return SymMatrix(np.eye(a.dim) - 2.0 * a.mat)

    monkeypatch.setattr("specord.orders.kleene_complement", broken)
    report = check_involution(sample, OrderTag.NUMERICAL)
    assert not report.passed
    assert any(f.check == "i1-period-two" for f in report.failures)


def test_check_bz_passes_both_orders():
    rng = np.random.default_rng(3)
    effects = [effect(rng, 3) for _ in range(8)]
    # include a rank-deficient effect so the carrier is proper
    effects.append(Effect(np.diag([0.7, 0.0, 0.2])))
    for order in OrderTag:
        report = check_bz(effects, order)
        assert report.passed, [f.check for f in report.failures]
    with pytest.raises(ValueError):
        check_bz([], OrderTag.SPECTRAL)


def test_demorgan_commuting_diagonal_oracle():
    e = Effect(np.diag([0.5, 0.0, 0.8]))
    f = Effect(np.diag([0.2, 0.6, 0.0]))
    report = demorgan_carrier_checks(e, f)
    assert report.passed, [fl.check for fl in report.failures]
    # carrier(min(e, f)) = carrier(e) ^ carrier(f) on these diagonals
    m = np.minimum(np.diag(e.mat), np.diag(f.mat))
    assert np.allclose(
        carrier(SymMatrix(np.diag(m))).mat, np.diag([1.0, 0.0, 0.0])
    )


def test_demorgan_noncommuting_notes():
    e = Effect(np.diag([1.0, 0.0]))
    f = Effect(np.array([[0.5, 0.25], [0.25, 0.5]]))
    report = demorgan_carrier_checks(e, f)
    assert report.passed, [fl.check for fl in report.failures]
    assert any("does not commute" in n for n in report.notes)


def test_demorgan_random_effects():
    rng = np.random.default_rng(4)
    for _ in range(6):
        report = demorgan_carrier_checks(effect(rng, 3), effect(rng, 3))
        assert report.passed, [fl.check for fl in report.failures]


def test_kleene_reverses_spectral_order():
    rng = np.random.default_rng(5)
    from specord.spectral import spectral_join, spectral_leq

    for _ in range(8):
        e, f = effect(rng, 3), effect(rng, 3)
        big = spectral_join(e, f)
        ce = kleene_complement(e)
        cbig = kleene_complement(big)
        assert spectral_leq(e, big)
        assert spectral_leq(cbig, ce)
