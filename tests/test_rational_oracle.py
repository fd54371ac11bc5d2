"""The spectral sup/inf against an exact rational oracle.

Operands are Q diag(lambda) Q^T + delta I with Q the Cayley transform
(I - K)(I + K)^-1 of a small rational skew matrix K and every lambda a
multiple of 1/8, so each cumulative projection is exactly rational: the
span of a prefix of Q's columns.  The oracle merges the operands' exact
breakpoints within the tie tolerance as the library does, takes the meet
(sup) or join (inf) of the members' cumulative projections at each merged
cluster by exact elimination, and sums the jumps at the clusters' right
(sup) or left (inf) edges.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from specord import spectral
from specord.generators import GeneratorSpec, random_general_pair, random_spectral_pair
from specord.resolution import grid_counts, resolution_of
from specord.spectral import (
    family_inf,
    family_sup,
    resolution_leq,
    spectral_join,
    spectral_meet,
)
from specord.substrate import DEFAULT_POLICY, Effect, frobenius

_TIE = Fraction(DEFAULT_POLICY.tol_eig)


def _mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _t(x):
    return [list(col) for col in zip(*x)]


def _eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _inverse(x):
    n = len(x)
    aug = [list(row) + e for row, e in zip(x, _eye(n))]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        lead = aug[c][c]
        aug[c] = [v / lead for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _span(cols, n):
    """Exact orthogonal projection onto the span of the columns."""
    basis, reduced = [], []
    for col in cols:
        v = list(col)
        for b, piv in reduced:
            if v[piv] != 0:
                f = v[piv] / b[piv]
                v = [x - f * y for x, y in zip(v, b)]
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is not None:
            reduced.append((v, piv))
            basis.append(list(col))
    if not basis:
        return [[Fraction(0)] * n for _ in range(n)]
    nb = _t(basis)
    return _mul(_mul(nb, _inverse(_mul(basis, nb))), basis)


def _cayley(rng, n):
    k = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k[i][j] = Fraction(int(rng.integers(-3, 4)), 4)
            k[j][i] = -k[i][j]
    eye = _eye(n)
    minus = [[e - x for e, x in zip(re, rk)] for re, rk in zip(eye, k)]
    plus = [[e + x for e, x in zip(re, rk)] for re, rk in zip(eye, k)]
    return _mul(minus, _inverse(plus))


class _Member:
    """Exact Q diag(levels) Q^T + shift I with its frame."""

    def __init__(self, q, levels, shift):
        self.q, self.n = q, len(q)
        self.values = [Fraction(int(v), 8) + shift for v in levels]
        scaled = [[x * v for x, v in zip(row, self.values)] for row in q]
        self.mat = _mul(scaled, _t(q))
        self.float = Effect(np.array([[float(x) for x in row] for row in self.mat]))

    def columns(self, keep):
        qt = _t(self.q)
        return [qt[i] for i, v in enumerate(self.values) if keep(v)]


def _oracle(members, upper):
    n = members[0].n
    merged = sorted({v for m in members for v in m.values})
    clusters, start = [], 0
    for i in range(1, len(merged) + 1):
        if i == len(merged) or merged[i] - merged[i - 1] > _TIE:
            clusters.append((merged[start], merged[i - 1]))
            start = i
    total = [[Fraction(0)] * n for _ in range(n)]
    prev = [[Fraction(0)] * n for _ in range(n)]
    for low, high in clusters:
        if upper:  # meet of cumulatives: complement of the span of those above
            above = [c for m in members for c in m.columns(lambda v: v > high)]
            span = _span(above, n)
            cum = [[e - s for e, s in zip(re, rs)] for re, rs in zip(_eye(n), span)]
        else:
            cum = _span([c for m in members for c in m.columns(lambda v: v <= high)], n)
        value = high if upper else low
        for i in range(n):
            for j in range(n):
                total[i][j] += value * (cum[i][j] - prev[i][j])
        prev = cum
    return np.array([[float(x) for x in row] for row in total])


@pytest.fixture
def paths(monkeypatch):
    """Counts ops that fell back to a fresh decomposition of the result."""
    seen = {"fallback": 0, "certified": 0}
    calls = []
    real = spectral._compare_fresh
    monkeypatch.setattr(spectral, "_compare_fresh", lambda *a: calls.append(1) or real(*a))

    def run(op, *args):
        calls.clear()
        out = op(*args)
        seen["fallback" if calls else "certified"] += 1
        return out

    run.seen = seen
    return run


def test_sup_and_inf_match_the_exact_oracle(paths):
    rng = np.random.default_rng(1846)
    for n in (3, 4, 5, 6):
        for delta in (0.0, 5e-10, 1e-9, 2e-9):
            shift = Fraction(delta)
            a = _Member(_cayley(rng, n), rng.integers(0, 9, n), Fraction(0))
            b = _Member(_cayley(rng, n), rng.integers(0, 8, n), shift)
            c = _Member(_cayley(rng, n), rng.integers(0, 9, n), Fraction(0))
            # At delta = tol_eig the float grouping of a's and b's shared
            # levels is a knife edge; either choice moves jumps by delta.
            tol = 1e-11 + (math.sqrt(n) * delta if shift == _TIE else 0.0)
            cases = [
                (spectral_join, (a.float, b.float), [a, b], True),
                (spectral_meet, (a.float, b.float), [a, b], False),
                (family_sup, ([a.float, b.float, c.float],), [a, b, c], True),
                (family_inf, ([a.float, b.float, c.float],), [a, b, c], False),
            ]
            for op, args, members, upper in cases:
                err = frobenius(paths(op, *args).mat - _oracle(members, upper))
                assert err <= tol, (op.__name__, n, delta, err)
    assert paths.seen["fallback"] > 0 and paths.seen["certified"] > 0


def _matrix_leq(ra, rb):
    """resolution_leq in matrix form: at every merged grid cluster,
    ||pb - pb pa|| <= tol_proj for the cumulative projection matrices."""
    n = ra.dim
    _, (ca, cb) = grid_counts([ra.breakpoints, rb.breakpoints], max(ra.tie_tol, rb.tie_tol))

    def cumulative(r, c):
        return r.projections[c - 1].mat if c else np.zeros((n, n))

    return all(
        DEFAULT_POLICY.within(cumulative(rb, j), cumulative(ra, i)) for i, j in zip(ca, cb)
    )


def test_frame_blocks_agree_with_the_matrix_form():
    # 100 near-tie Cayley pairs, a against a + delta I and against an
    # unrelated member, and 100 generated pairs
    rng = np.random.default_rng(1847)
    pairs = []
    for t in range(25):
        n = 3 + t % 4
        for delta in (0.0, 5e-10, 1e-9, 2e-9):
            q, levels = _cayley(rng, n), rng.integers(0, 8, n)
            a = _Member(q, levels, Fraction(0)).float
            b = _Member(q, levels, Fraction(delta)).float
            c = _Member(_cayley(rng, n), rng.integers(0, 8, n), Fraction(delta)).float
            pairs += [(a, b)] if t % 2 else [(a, c)]
    for t in range(50):
        n = 2 + t % 5
        pairs.append(random_spectral_pair(GeneratorSpec(n, "effect", 3), t))
        pairs.append(random_general_pair(GeneratorSpec(n, "general-pair", 3), t))
    assert len(pairs) == 200
    verdicts = set()
    for a, b in pairs:
        ra, rb = resolution_of(a), resolution_of(b)
        for x, y in ((ra, rb), (rb, ra)):
            verdict = resolution_leq(x, y)
            assert verdict == _matrix_leq(x, y)
            verdicts.add(verdict)
    assert verdicts == {True, False}
