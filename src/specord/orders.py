"""Order dispatch plus the involutive and complementation structure on
effects: Kleene complement, Brouwer complement, and the checks for their
axioms and for the De Morgan carrier laws.

Every law is an entry of COMPLEMENT_CHECKS with the suite registry's
signature, (witnesses, order, policy) -> (magnitude, tol), or None where the
law's premise does not hold.  `specord.suites.CHECKS` merges the dict, so a
failure's witnesses replay through `specord.suites.replay`.  `evaluate` runs
(check, witnesses) draws through a registry into a report; the suites and
the three checkers here share it.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from enum import Enum
from functools import partial

import numpy as np

from .core import carrier, commutes, numerical_leq, sqrt_psd
from .lattice import join as proj_join
from .lattice import meet as proj_meet
from .lattice import orthocomplement, proj_leq
from .report import VerificationReport
from .resolution import merged_breakpoints, resolution_of
from .spectral import spectral_join, spectral_leq, spectral_meet
from .substrate import (
    DEFAULT_POLICY,
    Effect,
    Projection,
    SymMatrix,
    TolerancePolicy,
    eig,
    frobenius,
)

__all__ = [
    "OrderTag",
    "leq",
    "kleene_complement",
    "brouwer_complement",
    "check_involution",
    "check_bz",
    "demorgan_carrier_checks",
]


class OrderTag(Enum):
    NUMERICAL = "numerical"
    SPECTRAL = "spectral"


def leq(
    a: SymMatrix,
    b: SymMatrix,
    order: OrderTag,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> bool:
    """Comparator dispatch; the spectral order refines the numerical one."""
    if order is OrderTag.NUMERICAL:
        return numerical_leq(a, b, policy)
    if order is OrderTag.SPECTRAL:
        return spectral_leq(a, b, policy)
    raise ValueError(f"unknown order: {order!r}")


def kleene_complement(a: SymMatrix) -> SymMatrix:
    """1 - a; an involution on effects reversing both orders."""
    return SymMatrix(np.eye(a.dim) - a.mat)


def brouwer_complement(
    e: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> Projection:
    """Kleene complement of the carrier; the largest projection killing e."""
    return orthocomplement(carrier(e, policy))


# ---------------------------------------------------------------------------
# running checks; shared with the suites


def psd_deficit(x: SymMatrix, policy: TolerancePolicy) -> float:
    """How far x is from positive semidefinite; 0 when it is."""
    return max(0.0, -float(eig(x, policy).eigenvalues[0]))


def evaluate(report, registry, draws, order, policy, premises=()) -> Counter:
    """Run each (check, witnesses) draw through registry[check], looked up
    at call time, and add a failure wherever the magnitude exceeds the
    tolerance.  Each check named in premises gets a note counting the draws
    on which its premise held.  Sets report.elapsed; returns the per-check
    premise counts."""
    start = time.perf_counter()
    ran, held = Counter(), Counter()
    for check, witnesses in draws:
        ran[check] += 1
        result = registry[check](witnesses, order, policy)
        if result is None:
            continue
        held[check] += 1
        magnitude, tol = result
        if magnitude > tol:
            report.add(check, magnitude, witnesses)
    for check in premises:
        label = check.split("-")[0]
        report.notes.append(
            f"{label} premise held on {held[check]}/{ran[check]} pairs"
        )
    report.elapsed = time.perf_counter() - start
    return held


def _bool(ok: bool) -> float:
    return 0.0 if ok else 1.0


def _violation(a, b, order: OrderTag, policy) -> float:
    """How far a <= b fails: the PSD deficit of b - a numerically, 1 or 0
    spectrally."""
    if order is OrderTag.NUMERICAL:
        return psd_deficit(b - a, policy)
    return _bool(spectral_leq(a, b, policy))


# ---------------------------------------------------------------------------
# Kleene axioms on a sampled pair: period two (i1), antitonicity (i2) and
# regularity (r); i2 and r apply only where their premises hold.


def _ck_period_two(w, order, policy):
    (a,) = w
    twice = kleene_complement(kleene_complement(a))
    return frobenius(twice.mat - a.mat), policy.tol_proj * (1.0 + frobenius(a.mat))


def _ck_antitone(w, order, policy):
    a, b = w
    if not leq(a, b, order, policy):
        return None
    ca, cb = kleene_complement(a), kleene_complement(b)
    return _violation(cb, ca, order, policy), policy.tol_psd


def _ck_regularity(w, order, policy):
    a, b = w
    ca, cb = kleene_complement(a), kleene_complement(b)
    if not (leq(a, ca, order, policy) and leq(b, cb, order, policy)):
        return None
    return _violation(a, cb, order, policy), policy.tol_psd


# ---------------------------------------------------------------------------
# Brouwer-Zadeh axioms for e~ = complement of the carrier, on an effect e and
# a sample partner g.  (2a) nothing sits below both e and e~: under the
# spectral order the meet is computed outright; under either order the
# candidate f = e~ g e~ <= e~ must annihilate e and collapse whenever it also
# sits below e.  (2b) e <= e~~.  (2c) the map is antitone.  (3) the two
# complements interlock: (e~)-Kleene = e~~.


def _candidate(e, g, policy) -> SymMatrix:
    br = brouwer_complement(e, policy).mat
    return SymMatrix(br @ g.mat @ br)


def _ck_bz_meet(w, order, policy):
    (e,) = w
    if order is not OrderTag.SPECTRAL:
        return None
    m = spectral_meet(e, SymMatrix(brouwer_complement(e, policy).mat), policy)
    return frobenius(m.mat), policy.tol_proj * e.dim


def _ck_bz_annihilates(w, order, policy):
    e, g = w
    f = _candidate(e, g, policy)
    return frobenius(f.mat @ e.mat), policy.tol_proj * (1.0 + frobenius(g.mat))


def _ck_bz_forces_zero(w, order, policy):
    e, g = w
    f = _candidate(e, g, policy)
    if not leq(f, e, order, policy):
        return None
    return frobenius(f.mat), policy.tol_proj * e.dim


def _ck_bz_below_double(w, order, policy):
    (e,) = w
    br2 = brouwer_complement(brouwer_complement(e, policy), policy)
    return _violation(e, SymMatrix(br2.mat), order, policy), policy.tol_psd


def _ck_bz_antitone(w, order, policy):
    e, g = w
    if order is OrderTag.NUMERICAL:
        half = sqrt_psd(kleene_complement(e), policy)
        big = Effect(e.mat + half.mat @ g.mat @ half.mat)
    else:
        big = Effect(spectral_join(e, g, policy).mat)
    ok = proj_leq(
        brouwer_complement(big, policy), brouwer_complement(e, policy), policy
    )
    return _bool(ok), 0.5


def _ck_bz_interlock(w, order, policy):
    (e,) = w
    br = brouwer_complement(e, policy)
    br2 = brouwer_complement(br, policy)
    return frobenius(kleene_complement(br).mat - br2.mat), policy.tol_proj


def _ck_bz_double_carrier(w, order, policy):
    (e,) = w
    br2 = brouwer_complement(brouwer_complement(e, policy), policy)
    return frobenius(br2.mat - carrier(e, policy).mat), policy.tol_proj


def _ck_bz_projection(w, order, policy):
    (e,) = w
    p = carrier(e, policy)
    mag = frobenius(brouwer_complement(p, policy).mat - orthocomplement(p).mat)
    return mag, policy.tol_proj


def _ck_positivity_bridge(w, order, policy, shift):
    """The two orders agree on positivity of g^2 (shift False) or g - 1/2."""
    (g,) = w
    x = g - 0.5 if shift else SymMatrix(g.mat @ g.mat)
    zero = SymMatrix(np.zeros((g.dim, g.dim)))
    return _bool(numerical_leq(zero, x, policy) == spectral_leq(zero, x, policy)), 0.5


def _ck_carrier_monotone(w, order, policy):
    g, e = w
    sq = SymMatrix(g.mat @ g.mat)
    bigger = SymMatrix(sq.mat + e.mat @ e.mat)
    ok = proj_leq(carrier(sq, policy), carrier(bigger, policy), policy)
    return _bool(ok), 0.5


# ---------------------------------------------------------------------------
# De Morgan carrier laws on a pair of effects (e, f).  Spectral meet/join
# carriers factor through the projection lattice; the resolution identity is
# probed at every merged breakpoint; the Kleene complement swaps meet and
# join.  The commuting variant applies only when the pair commutes.


def _ck_dm_carrier(w, order, policy, meet):
    e, f = w
    op, proj_op = (spectral_meet, proj_meet) if meet else (spectral_join, proj_join)
    lhs = carrier(op(e, f, policy), policy)
    rhs = proj_op(carrier(e, policy), carrier(f, policy), policy)
    return frobenius(lhs.mat - rhs.mat), policy.tol_proj * e.dim


def _ck_dm_resolution(w, order, policy, meet):
    e, f = w
    re, rf = resolution_of(e, policy), resolution_of(f, policy)
    rm = resolution_of(spectral_meet(e, f, policy), policy)
    rj = resolution_of(spectral_join(e, f, policy), policy)
    _, grid, _ = merged_breakpoints([re, rf, rm, rj])
    worst = 0.0
    for lam in grid:
        pe, pf = re.at(float(lam)), rf.at(float(lam))
        if meet:
            gap = rm.at(float(lam)).mat - proj_join(pe, pf, policy).mat
        else:
            gap = rj.at(float(lam)).mat - proj_meet(pe, pf, policy).mat
        worst = max(worst, frobenius(gap))
    return worst, policy.tol_proj * e.dim


def _ck_dm_kleene(w, order, policy, meet):
    e, f = w
    op, dual = spectral_meet, spectral_join
    if not meet:
        op, dual = dual, op
    lhs = kleene_complement(op(e, f, policy))
    rhs = dual(kleene_complement(e), kleene_complement(f), policy)
    return frobenius(lhs.mat - rhs.mat), policy.tol_proj * e.dim


def _ck_dm_commuting(w, order, policy, meet):
    e, f = w
    if not commutes(e, f, policy):
        return None
    q = eig(e + math.pi * f, policy).eigenvectors
    de = np.diag(q.T @ e.mat @ q)
    df = np.diag(q.T @ f.mat @ q)
    synthetic = SymMatrix(
        q @ np.diag(np.minimum(de, df) if meet else np.maximum(de, df)) @ q.T
    )
    proj_op = proj_meet if meet else proj_join
    rhs = proj_op(carrier(e, policy), carrier(f, policy), policy)
    mag = frobenius(carrier(synthetic, policy).mat - rhs.mat)
    return mag, policy.tol_proj * e.dim


COMPLEMENT_CHECKS = {
    "i1-period-two": _ck_period_two,
    "i2-antitone": _ck_antitone,
    "r-regularity": _ck_regularity,
    "bz-2a-meet": _ck_bz_meet,
    "bz-2a-annihilates": _ck_bz_annihilates,
    "bz-2a-forces-zero": _ck_bz_forces_zero,
    "bz-2b-below-double": _ck_bz_below_double,
    "bz-2c-antitone": _ck_bz_antitone,
    "bz-3-interlock": _ck_bz_interlock,
    "bz-double-is-carrier": _ck_bz_double_carrier,
    "bz-projection-complement": _ck_bz_projection,
    "positivity-bridge": partial(_ck_positivity_bridge, shift=False),
    "positivity-bridge-shifted": partial(_ck_positivity_bridge, shift=True),
    "carrier-monotone": _ck_carrier_monotone,
    "dm-meet-carrier": partial(_ck_dm_carrier, meet=True),
    "dm-join-carrier": partial(_ck_dm_carrier, meet=False),
    "dm-resolution-meet": partial(_ck_dm_resolution, meet=True),
    "dm-resolution-join": partial(_ck_dm_resolution, meet=False),
    "dm-kleene-meet": partial(_ck_dm_kleene, meet=True),
    "dm-kleene-join": partial(_ck_dm_kleene, meet=False),
    "dm-commuting-meet-carrier": partial(_ck_dm_commuting, meet=True),
    "dm-commuting-join-carrier": partial(_ck_dm_commuting, meet=False),
}

# The Kleene checks whose premise counts the involution reports note.
KLEENE_PREMISES = ("i2-antitone", "r-regularity")


def involution_draws(a: SymMatrix, b: SymMatrix) -> list:
    return [("i1-period-two", [a]), ("i2-antitone", [a, b]), ("r-regularity", [a, b])]


def bz_draws(effects: list[Effect]):
    """Each effect e, with the next one (cyclically) as its partner g."""
    for i, e in enumerate(effects):
        g = effects[(i + 1) % len(effects)]
        for check in (
            "bz-2a-meet",
            "bz-2b-below-double",
            "bz-3-interlock",
            "bz-double-is-carrier",
            "bz-projection-complement",
        ):
            yield check, [e]
        for check in ("bz-2a-annihilates", "bz-2a-forces-zero", "bz-2c-antitone"):
            yield check, [e, g]
        yield "positivity-bridge", [g]
        yield "positivity-bridge-shifted", [g]
        yield "carrier-monotone", [g, e]


def demorgan_draws(e: Effect, f: Effect) -> list:
    return [(check, [e, f]) for check in COMPLEMENT_CHECKS if check.startswith("dm-")]


def check_involution(
    sample: list[tuple[SymMatrix, SymMatrix]],
    order: OrderTag,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Kleene axioms over sampled pairs; the i2 and r premise hit counts
    land in the notes."""
    dim = sample[0][0].dim if sample else 0
    report = VerificationReport("involution", order.value, dim, len(sample), 0)
    draws = (d for a, b in sample for d in involution_draws(a, b))
    evaluate(report, COMPLEMENT_CHECKS, draws, order, policy, KLEENE_PREMISES)
    return report


def check_bz(
    effects: list[Effect],
    order: OrderTag,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Brouwer-Zadeh axioms, pairing each effect with the next as partner."""
    if not effects:
        raise ValueError("sample must be nonempty")
    report = VerificationReport("bz", order.value, effects[0].dim, len(effects), 0)
    evaluate(report, COMPLEMENT_CHECKS, bz_draws(effects), order, policy)
    return report


def demorgan_carrier_checks(
    e: Effect, f: Effect, policy: TolerancePolicy = DEFAULT_POLICY
) -> VerificationReport:
    """Carrier versions of the De Morgan laws for one pair of effects; a
    note says when the pair does not commute."""
    report = VerificationReport("demorgan-carrier", "both", e.dim, 1, 0)
    held = evaluate(
        report, COMPLEMENT_CHECKS, demorgan_draws(e, f), OrderTag.SPECTRAL, policy
    )
    if not held["dm-commuting-meet-carrier"]:
        report.notes.append("commuting meet/join not applicable: pair does not commute")
    return report
