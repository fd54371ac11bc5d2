"""The lattice canonicalization guard: its residual certificate, the fresh
decomposition it falls back to, and the corruptions it must catch."""

import numpy as np
import pytest

from specord import spectral
from specord.resolution import StepResolution, reconstruct, resolution_of
from specord.spectral import family_inf, family_sup, spectral_join, spectral_meet
from specord.substrate import (
    DEFAULT_POLICY,
    Effect,
    Projection,
    SymMatrix,
    TolerancePolicy,
    frobenius,
)


def _effect(rng, n, levels=None):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.random(n) if levels is None else rng.choice(levels, n)
    return Effect((q * vals) @ q.T)


@pytest.fixture
def fresh_calls(monkeypatch):
    """Records each fresh decomposition the guard falls back to."""
    calls = []
    real = spectral.resolution_of
    monkeypatch.setattr(
        spectral, "resolution_of", lambda a, policy: calls.append(1) or real(a, policy)
    )
    return calls


def _capture(monkeypatch, fresh_calls, op, *args):
    """Run op and return the arguments of its guard call, plus whether the
    guard fell back to a fresh decomposition of the result."""
    seen = {}
    guard = spectral._assert_canonical
    monkeypatch.setattr(spectral, "_assert_canonical", lambda *a: seen.update(a=a) or guard(*a))
    fresh_calls.clear()
    op(*args)
    monkeypatch.setattr(spectral, "_assert_canonical", guard)
    return seen["a"], bool(fresh_calls)


def _from_frame(built, block, values, breakpoints=None):
    """The resolution whose cumulative at each breakpoint spans the block
    columns with values at or below it, plus the left-out columns when
    their value is; what _lattice_bound builds from its block."""
    n, k = block.shape
    bps = built.breakpoints if breakpoints is None else breakpoints
    projs = []
    for lam in bps:
        above = block[:, values[:k] > lam]
        p = np.eye(n) - above @ above.T
        if k < n and values[k] > lam:
            p = p - (np.eye(n) - block @ block.T)
        projs.append(Projection(p))
    return StepResolution(tuple(bps), tuple(projs), tie_tol=built.tie_tol)


def _probe_check(built, result):
    """The reference check an accepted certificate must imply: a fresh
    resolution probed at the union of breakpoints through
    StepResolution.at."""
    fresh = resolution_of(result)
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
    # StepResolution.at agrees with the built resolution within
    # _CANONICAL_TOL.
    rng = np.random.default_rng(19)
    accepted = 0
    for n in (3, 4, 5, 8, 12):
        for levels in (None, [0.0, 0.5, 1.0], [0.25, 0.5]):
            a, b = _effect(rng, n, levels), _effect(rng, n, levels)
            for op in (spectral_join, spectral_meet):
                (built, result, *_), fell_back = _capture(
                    monkeypatch, fresh_calls, op, a, b
                )
                if not fell_back:
                    accepted += 1
                    _probe_check(built, result)
    assert accepted >= 25


def test_rotated_block_column_raises(certified_join):
    built, result, policy, block, values = certified_join
    i = 0
    j = int(np.flatnonzero(values[: block.shape[1]] != values[i])[0])
    c, s = np.cos(1e-3), np.sin(1e-3)
    rotated = block.copy()
    rotated[:, i] = c * block[:, i] + s * block[:, j]
    rotated[:, j] = c * block[:, j] - s * block[:, i]
    drifted = _from_frame(built, rotated, values)
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(drifted, result, policy, rotated, values)


def test_changed_rank_raises(certified_join):
    built, result, policy, block, values = certified_join
    bps = np.asarray(built.breakpoints)
    # one column moves up to the next breakpoint: that cumulative loses rank
    moved = values.copy()
    i = int(np.flatnonzero(values[: block.shape[1]] < bps[-1])[0])
    moved[i] = bps[np.searchsorted(bps, values[i]) + 1]
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(
            _from_frame(built, block, moved), result, policy, block, moved
        )
    # a built projection loses rank while its frame does not
    projs = list(built.projections)
    projs[1] = projs[0]
    lower = StepResolution(built.breakpoints, tuple(projs), tie_tol=built.tie_tol)
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(lower, result, policy, block, values)


def test_breakpoints_closer_than_the_cut_raise(certified_join, fresh_calls):
    built, result, policy, block, values = certified_join
    bps = list(built.breakpoints)
    close = bps[1] + 0.5 * built.tie_tol
    moved = np.where(values == bps[2], close, values)
    squeezed = _from_frame(built, block, moved, [*bps[:2], close, *bps[3:]])
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(squeezed, result, policy, block, moved)
    # The same squeezed resolution with a result rebuilt from it leaves a
    # thin margin: the certificate declines, and the fresh decomposition,
    # which merges the two breakpoints, agrees cluster by cluster.
    fresh_calls.clear()
    spectral._assert_canonical(squeezed, reconstruct(squeezed), policy, block, moved)
    assert fresh_calls


def test_certificate_needs_a_grouping_margin(certified_join, fresh_calls):
    # tol_eig = 0 leaves the certificate no grouping margin: the guard
    # decomposes the result instead, and the resolutions agree.
    built, result, _, block, values = certified_join
    spectral._assert_canonical(built, result, DEFAULT_POLICY, block, values)
    assert not fresh_calls
    exact = TolerancePolicy(tol_eig=0.0)
    spectral._assert_canonical(built, result, exact, block, values)
    assert fresh_calls


def test_values_off_the_breakpoints_raise(certified_join):
    # A result whose column sits 0.4 gap below its built breakpoint: every
    # rank still counts it there, but the breakpoint is not one of values.
    built, result, policy, block, values = certified_join
    bps = np.asarray(built.breakpoints)
    i = int(np.flatnonzero(values[: block.shape[1]] == bps[2])[0])
    moved = values.copy()
    moved[i] = bps[2] - 0.4 * (bps[2] - bps[1])
    b = block[:, i]
    shifted = SymMatrix(result.mat + (moved[i] - values[i]) * np.outer(b, b))
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(built, shifted, policy, block, moved)


def test_a_block_that_is_not_orthonormal_is_not_certified(monkeypatch, fresh_calls):
    rng = np.random.default_rng(21)
    a, b = _effect(rng, 6), _effect(rng, 6)
    (built, result, policy, block, values), _ = _capture(
        monkeypatch, fresh_calls, spectral_join, a, b
    )
    assert block.shape[1] == 6  # no left-out columns to betray the scaling
    scaled = block.copy()
    scaled[:, 0] *= 1.0 + 1e-4
    fresh_calls.clear()
    spectral._assert_canonical(built, result, policy, scaled, values)
    assert fresh_calls


def test_left_out_columns_are_certified_too(monkeypatch, fresh_calls):
    # Both operands vanish on the same 2-dimensional subspace, which the
    # join's block leaves out; moving one of its eigenvalues must raise.
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = Effect((q * [0.0, 0.0, 0.5, 1.0, 1.0, 0.5]) @ q.T)
    b = Effect((q * [0.0, 0.0, 1.0, 0.5, 0.5, 1.0]) @ q.T)
    (built, result, policy, block, values), fell_back = _capture(
        monkeypatch, fresh_calls, spectral_join, a, b
    )
    assert not fell_back and block.shape[1] == 4
    c = rng.standard_normal(6)
    c -= block @ (block.T @ c)
    c /= np.linalg.norm(c)
    bumped = SymMatrix(result.mat + 1e-3 * np.outer(c, c))
    with pytest.raises(RuntimeError, match="canonicalization drift"):
        spectral._assert_canonical(built, bumped, policy, block, values)
