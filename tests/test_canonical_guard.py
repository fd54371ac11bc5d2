"""The lattice canonicalization guard: its residual certificate, the fresh
decomposition it falls back to, and the corruptions it must catch."""

import numpy as np
import pytest

from specord import spectral
from specord.resolution import StepResolution, resolution_of
from specord.spectral import family_inf, family_sup, spectral_join, spectral_meet
from specord.substrate import DEFAULT_POLICY, Effect, SymMatrix, TolerancePolicy, frobenius


def _effect(rng, n, levels=None):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.random(n) if levels is None else rng.choice(levels, n)
    return Effect((q * vals) @ q.T)


@pytest.fixture
def fresh_calls(monkeypatch):
    """Records each fresh decomposition the guard falls back to."""
    calls = []
    real = spectral._compare_fresh
    monkeypatch.setattr(
        spectral, "_compare_fresh", lambda *a: calls.append(1) or real(*a)
    )
    return calls


def _capture(monkeypatch, fresh_calls, op, *args):
    """Run op and return the arguments of its guard call, (result, policy,
    block, values, tie), plus whether the guard fell back to a fresh
    decomposition of the result."""
    seen = {}
    guard = spectral._assert_canonical
    monkeypatch.setattr(spectral, "_assert_canonical", lambda *a: seen.update(a=a) or guard(*a))
    fresh_calls.clear()
    op(*args)
    monkeypatch.setattr(spectral, "_assert_canonical", guard)
    return seen["a"], bool(fresh_calls)


def _described(block, values, tie):
    """The resolution that block and values describe, as a StepResolution:
    block's columns and an orthonormal basis of the columns it leaves out,
    in ascending order of value."""
    n, k = block.shape
    u, _, _ = np.linalg.svd(block, full_matrices=True)
    frame = np.hstack([block, u[:, k:]])[:, np.argsort(values, kind="stable")]
    bps, counts = np.unique(values, return_counts=True)
    return StepResolution(tuple(bps), frame, tuple(np.cumsum(counts)), tie_tol=tie)


def _rebuilt(block, values):
    """The matrix block and values describe: rest I + B diag(v - rest) B^T."""
    n, k = block.shape
    rest = values[k] if k < n else 0.0
    return SymMatrix(rest * np.eye(n) + (block * (values[:k] - rest)) @ block.T)


def _probe_check(result, block, values, tie):
    """The reference check an accepted certificate must imply: a fresh
    resolution probed at the union of breakpoints through
    StepResolution.at agrees with the described one."""
    built, fresh = _described(block, values, tie), resolution_of(result)
    for lam in sorted(set(built.breakpoints) | set(fresh.breakpoints)):
        assert frobenius(built.at(lam).mat - fresh.at(lam).mat) <= spectral._CANONICAL_TOL


@pytest.fixture
def certified_join(monkeypatch, fresh_calls):
    rng = np.random.default_rng(12)
    a, b = _effect(rng, 6), _effect(rng, 6, levels=[0.0, 0.5, 1.0])
    args, fell_back = _capture(monkeypatch, fresh_calls, spectral_join, a, b)
    fresh_calls.clear()
    assert not fell_back
    return args


def test_generic_ops_are_certified_without_a_fresh_decomposition(monkeypatch, fresh_calls):
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 6, 9):
        for levels in (None, [0.0, 0.25, 1.0]):
            a, b = _effect(rng, n, levels), _effect(rng, n, levels)
            for op, args in (
                (spectral_join, (a, b)),
                (spectral_meet, (a, b)),
                (family_sup, ([a, b],)),
                (family_inf, ([a, b],)),
            ):
                _, fell_back = _capture(monkeypatch, fresh_calls, op, *args)
                assert not fell_back, (op.__name__, n, levels)


def test_an_accepted_certificate_implies_the_probe_check(monkeypatch, fresh_calls):
    # Whenever the certificate accepts, a fresh decomposition probed through
    # StepResolution.at agrees with the described resolution within
    # _CANONICAL_TOL.
    rng = np.random.default_rng(19)
    accepted = 0
    for n in (3, 4, 5, 8, 12):
        for levels in (None, [0.0, 0.5, 1.0], [0.25, 0.5]):
            a, b = _effect(rng, n, levels), _effect(rng, n, levels)
            for op in (spectral_join, spectral_meet):
                (result, _, block, values, tie), fell_back = _capture(
                    monkeypatch, fresh_calls, op, a, b
                )
                if not fell_back:
                    accepted += 1
                    _probe_check(result, block, values, tie)
    assert accepted >= 25


def test_rotated_block_column_raises(certified_join):
    result, policy, block, values, tie = certified_join
    i = 0
    j = int(np.flatnonzero(values[: block.shape[1]] != values[i])[0])
    c, s = np.cos(1e-3), np.sin(1e-3)
    rotated = block.copy()
    rotated[:, i] = c * block[:, i] + s * block[:, j]
    rotated[:, j] = c * block[:, j] - s * block[:, i]
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(result, policy, rotated, values, tie)


def test_changed_rank_raises(certified_join):
    result, policy, block, values, tie = certified_join
    bps = np.unique(values)
    k = block.shape[1]
    # one column moves up to the next breakpoint: that cumulative loses rank
    moved = values.copy()
    i = int(np.flatnonzero(values[:k] < bps[-1])[0])
    moved[i] = bps[np.searchsorted(bps, values[i]) + 1]
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(result, policy, block, moved, tie)
    # one column moves down to the previous breakpoint: that cumulative gains
    # rank
    moved = values.copy()
    i = int(np.flatnonzero(values[:k] > bps[0])[0])
    moved[i] = bps[np.searchsorted(bps, values[i]) - 1]
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(result, policy, block, moved, tie)


def test_breakpoints_closer_than_the_cut_raise(certified_join, fresh_calls):
    result, policy, block, values, tie = certified_join
    bps = np.unique(values)
    close = bps[1] + 0.5 * tie
    moved = np.where(values == bps[2], close, values)
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(result, policy, block, moved, tie)
    # The same squeezed values with a result rebuilt from them leave a thin
    # margin: the certificate declines, and the fresh decomposition, which
    # merges the two breakpoints, agrees cluster by cluster.
    fresh_calls.clear()
    spectral._assert_canonical(_rebuilt(block, moved), policy, block, moved, tie)
    assert fresh_calls


def test_certificate_needs_a_grouping_margin(certified_join, fresh_calls):
    # tol_eig = 0 leaves the certificate no grouping margin: the guard
    # decomposes the result instead, and the resolutions agree.
    result, _, block, values, tie = certified_join
    spectral._assert_canonical(result, DEFAULT_POLICY, block, values, tie)
    assert not fresh_calls
    exact = TolerancePolicy(tol_eig=0.0)
    spectral._assert_canonical(result, exact, block, values, tie)
    assert fresh_calls


def test_values_off_the_breakpoints_raise(certified_join):
    # A result whose column sits 0.4 gap below the breakpoint its value
    # gives: every cumulative still counts it there, but the result has an
    # eigenvalue no breakpoint accounts for.
    result, policy, block, values, tie = certified_join
    bps = np.unique(values)
    i = int(np.flatnonzero(values[: block.shape[1]] == bps[2])[0])
    b = block[:, i]
    shifted = SymMatrix(result.mat - 0.4 * (bps[2] - bps[1]) * np.outer(b, b))
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(shifted, policy, block, values, tie)


def test_a_block_that_is_not_orthonormal_is_not_certified(monkeypatch, fresh_calls):
    rng = np.random.default_rng(21)
    a, b = _effect(rng, 6), _effect(rng, 6)
    (result, policy, block, values, tie), _ = _capture(
        monkeypatch, fresh_calls, spectral_join, a, b
    )
    assert block.shape[1] == 6  # no left-out columns to betray the scaling
    scaled = block.copy()
    scaled[:, 0] *= 1.0 + 1e-4
    fresh_calls.clear()
    # the fallback builds the described cumulatives from the scaled block
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(result, policy, scaled, values, tie)
    assert fresh_calls


def test_left_out_columns_are_certified_too(monkeypatch, fresh_calls):
    # Both operands vanish on the same 2-dimensional subspace, which the
    # join's block leaves out; moving one of its eigenvalues must raise.
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = Effect((q * [0.0, 0.0, 0.5, 1.0, 1.0, 0.5]) @ q.T)
    b = Effect((q * [0.0, 0.0, 1.0, 0.5, 0.5, 1.0]) @ q.T)
    (result, policy, block, values, tie), fell_back = _capture(
        monkeypatch, fresh_calls, spectral_join, a, b
    )
    assert not fell_back and block.shape[1] == 4
    c = rng.standard_normal(6)
    c -= block @ (block.T @ c)
    c /= np.linalg.norm(c)
    bumped = SymMatrix(result.mat + 1e-3 * np.outer(c, c))
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(bumped, policy, block, values, tie)


def test_zero_tie_tolerance_pairs_breakpoints_within_roundoff():
    # Under tol_eig = 0 every tie is 0, and the fresh decomposition's
    # eigenvalues sit roundoff away from the described breakpoints; the
    # fallback pairs them within the fresh run's own backward error.
    exact = TolerancePolicy(tol_eig=0.0)
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b = _effect(rng, 6), _effect(rng, 6)
        for op in (spectral_join, spectral_meet):
            assert frobenius(op(a, b, exact).mat - op(a, b).mat) <= 1e-12
