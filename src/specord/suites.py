"""Named verification suites over one registry of replayable checks.

A check is a pure function of its witness matrices, the order tag and the
policy.  It returns (magnitude, tol), or None where its premise does not
hold; a magnitude above tol is a failure.  CHECKS holds every law any suite
checks, the Kleene, Brouwer-Zadeh and De Morgan laws of
`orders.COMPLEMENT_CHECKS` included, so replaying any failure's witnesses
through `replay` reproduces its magnitude.

A suite is a recipe: the (check, witnesses) pairs it draws from
deterministic instances (one substream per trial), and whether it reads the
order.  Only `kleene` (its sample depends on the order) and `bz` (several of
its laws compare in the given order) do; every other suite gives the same
report, apart from `order` and `elapsed`, under both orders, so
`specord verify --order both` runs it once.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import dyadic as dy
from .core import (
    abs_val,
    carrier,
    commutes,
    in_bicommutant,
    inverse,
    jordan_product,
    neg_part,
    numerical_leq,
    pos_part,
    sqrt_psd,
)
from .generators import (
    random_commuting_pair,
    random_effect,
    random_general_pair,
    random_orthogonal,
    random_projection,
    random_spectral_pair,
    random_symmetric,
    substream,
    GeneratorSpec,
)
from .lattice import join, meet, orthocomplement, proj_leq
from .orders import (
    COMPLEMENT_CHECKS,
    KLEENE_PREMISES,
    OrderTag,
    _bool,
    bz_draws,
    demorgan_draws,
    evaluate,
    involution_draws,
    kleene_complement,
    numerically_above,
    psd_deficit,
)
from .report import VerificationReport
from .resolution import (
    eigenprojection,
    negate,
    affine,
    reconstruct,
    resolution_of,
    step_approximant,
)
from .spectral import (
    family_inf,
    family_sup,
    spectral_join,
    spectral_leq,
    spectral_meet,
)
from .substrate import (
    DEFAULT_POLICY,
    Effect,
    Projection,
    SymMatrix,
    TolerancePolicy,
    eig,
    frobenius,
    operator_norm,
    projection_onto_span,
)

__all__ = ["SUITE_NAMES", "run_suite", "reads_order", "replay", "CHECKS"]


def _scale(a: SymMatrix) -> float:
    return 1.0 + frobenius(a.mat)


# ---------------------------------------------------------------------------
# substrate checks


def _ck_eig_roundtrip(w, order, policy):
    (a,) = w
    es = eig(a, policy)
    mag = frobenius(
        es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.T - a.mat
    )
    return mag, policy.tol_recon * (1.0 + operator_norm(a, policy))


def _ck_eig_orthogonal(w, order, policy):
    (a,) = w
    es = eig(a, policy)
    mag = frobenius(es.eigenvectors.T @ es.eigenvectors - np.eye(a.dim))
    return mag, policy.tol_recon


def _ck_cluster_partition(w, order, policy):
    (a,) = w
    jumps = [p for _, p in resolution_of(a, policy).jumps()]
    total = np.zeros((a.dim, a.dim))
    worst = 0.0
    for i, p in enumerate(jumps):
        total += p.mat
        for q in jumps[i + 1 :]:
            worst = max(worst, frobenius(p.mat @ q.mat))
    worst = max(worst, frobenius(total - np.eye(a.dim)))
    return worst, policy.tol_proj * a.dim


def _ck_cluster_reconstruct(w, order, policy):
    (a,) = w
    res = resolution_of(a, policy)
    total = np.zeros((a.dim, a.dim))
    for value, p in res.jumps():
        total += value * p.mat
    mag = frobenius(total - a.mat)
    return mag, policy.tol_recon * _scale(a) + res.tie_tol * a.dim


def _ck_span_projector(w, order, policy):
    (a,) = w
    cols = [a.mat[:, j] for j in range(min(a.dim, 3))]
    p = projection_onto_span(cols, dim=a.dim, policy=policy)
    worst = frobenius(p.mat @ p.mat - p.mat)
    for v in cols:
        norm = float(np.linalg.norm(v))
        if policy.clears(norm, scale=norm):
            worst = max(worst, float(np.linalg.norm(p.mat @ v - v)) / norm)
    return worst, policy.tol_proj * a.dim


def _ck_norm_square(w, order, policy):
    (a,) = w
    sq = jordan_product(a, a)
    mag = abs(operator_norm(sq, policy) - operator_norm(a, policy) ** 2)
    return mag, policy.tol_recon * (1.0 + operator_norm(a, policy) ** 2)


def _ck_psd_shift(w, order, policy):
    (a,) = w
    bound = operator_norm(a, policy)
    zero = SymMatrix(np.zeros((a.dim, a.dim)))
    ok = numerical_leq(zero, a + (bound + 1.0), policy)
    ok = ok and not numerical_leq(zero, a - (bound + 1.0), policy)
    return _bool(ok), 0.5


# ---------------------------------------------------------------------------
# algebra axiom checks


def _ck_sa_square_psd(w, order, policy):
    (a,) = w
    sq = jordan_product(a, a)
    mag = psd_deficit(sq, policy)
    return mag, policy.tol_psd * (1.0 + operator_norm(a, policy) ** 2)


def _ck_sa_quadratic_psd(w, order, policy):
    a, s = w
    b = jordan_product(s, s)
    q = SymMatrix(a.mat @ b.mat @ a.mat)
    mag = psd_deficit(q, policy)
    return mag, policy.tol_psd * (1.0 + operator_norm(a, policy) ** 2) * (
        1.0 + operator_norm(b, policy)
    )


def _ck_sa_parts(w, order, policy):
    (a,) = w
    plus, minus = pos_part(a, policy), neg_part(a, policy)
    worst = frobenius(plus.mat - minus.mat - a.mat)
    worst = max(worst, frobenius(plus.mat @ minus.mat))
    worst = max(worst, psd_deficit(plus, policy))
    worst = max(worst, psd_deficit(minus, policy))
    worst = max(worst, _bool(commutes(plus, a, policy)))
    worst = max(worst, _bool(in_bicommutant(plus, a, policy)))
    return worst, policy.tol_proj * _scale(a) ** 2


def _ck_sa_sqrt(w, order, policy):
    (s,) = w
    p = jordan_product(s, s)
    r = sqrt_psd(p, policy)
    worst = frobenius(jordan_product(r, r).mat - p.mat) / _scale(p)
    worst = max(worst, psd_deficit(r, policy))
    worst = max(worst, _bool(in_bicommutant(r, p, policy)))
    return worst, policy.tol_recon * s.dim


def _ck_sa_carrier(w, order, policy):
    a, extra = w
    c = carrier(a, policy)
    worst = frobenius(a.mat @ c.mat - a.mat) / _scale(a)
    q = join(c, _projection_from(extra, policy), policy)
    worst = max(worst, frobenius(a.mat @ q.mat - a.mat) / _scale(a))
    worst = max(worst, _bool(proj_leq(c, q, policy)))
    worst = max(worst, _bool(in_bicommutant(c, a, policy)))
    return worst, policy.tol_proj * a.dim


def _ck_sa_inverse(w, order, policy):
    (a,) = w
    bound = operator_norm(a, policy)
    shifted = a + (bound + 1.0)
    inv = inverse(shifted, policy)
    worst = frobenius(shifted.mat @ inv.mat - np.eye(a.dim))
    worst = max(worst, _bool(in_bicommutant(inv, shifted, policy)))
    cond = (2.0 * bound + 1.0) / 1.0
    return worst, policy.tol_recon * a.dim * (1.0 + cond)


def _ck_sa_bicommutant(w, order, policy):
    (a,) = w
    ok = in_bicommutant(jordan_product(a, a), a, policy)
    ok = ok and in_bicommutant(abs_val(a, policy), a, policy)
    ok = ok and in_bicommutant(carrier(a, policy), a, policy)
    ok = ok and in_bicommutant(SymMatrix(np.eye(a.dim)), a, policy)
    return _bool(ok), 0.5


def _ck_sa_commuting_pospart(w, order, policy):
    a, b = w
    if not (commutes(a, b, policy) and numerical_leq(a, b, policy)):
        return None
    mag = psd_deficit(pos_part(b, policy) - pos_part(a, policy), policy)
    return mag, policy.tol_psd * _scale(a) * _scale(b)


# ---------------------------------------------------------------------------
# resolution checks


def _ck_res_defining(w, order, policy):
    (a,) = w
    res = resolution_of(a, policy)
    probes = [res.lower - 1.0, res.upper + 1.0]
    probes.append(res.breakpoints[len(res.breakpoints) // 2])
    if len(res.breakpoints) > 1:
        probes.append((res.breakpoints[0] + res.breakpoints[1]) / 2.0)
    worst = 0.0
    for lam in probes:
        direct = res.at(lam)
        other = orthocomplement(carrier(pos_part(a - lam, policy), policy))
        worst = max(worst, frobenius(direct.mat - other.mat))
    return worst, policy.tol_proj * a.dim


def _ck_res_order_split(w, order, policy):
    (a,) = w
    res = resolution_of(a, policy)
    probes = list(res.breakpoints) + [res.lower - 1.0, res.upper + 1.0]
    worst = 0.0
    for lam in probes:
        p = res.at(lam)
        shifted = a - lam
        low = SymMatrix(p.mat @ shifted.mat @ p.mat)
        high = SymMatrix(
            (np.eye(a.dim) - p.mat) @ shifted.mat @ (np.eye(a.dim) - p.mat)
        )
        worst = max(worst, float(eig(low, policy).eigenvalues[-1]))
        worst = max(worst, psd_deficit(high, policy))
    return worst, policy.tol_psd * (1.0 + operator_norm(a, policy)) * a.dim


def _ck_res_monotone(w, order, policy):
    (a,) = w
    res = resolution_of(a, policy)
    worst = 0.0
    for i in range(1, len(res.projections)):
        p, q = res.projections[i - 1], res.projections[i]
        worst = max(worst, frobenius(p.mat - p.mat @ q.mat))
    return worst, policy.tol_proj * a.dim


def _ck_res_bounds(w, order, policy):
    (a,) = w
    res = resolution_of(a, policy)
    worst = frobenius(res.at(res.lower - 1.0).mat)
    worst = max(worst, frobenius(res.at(res.upper + 1.0).mat - np.eye(a.dim)))
    worst = max(worst, _bool(res.at(res.lower).rank >= 1))
    return worst, policy.tol_proj * a.dim


def _ck_res_right_continuity(w, order, policy):
    (a,) = w
    res = resolution_of(a, policy)
    bps = res.breakpoints
    worst = 0.0
    for i, lam in enumerate(bps):
        right = (lam + bps[i + 1]) / 2.0 if i + 1 < len(bps) else lam + 1.0
        worst = max(worst, frobenius(res.at(lam).mat - res.at(right).mat))
    return worst, policy.tol_proj * a.dim


def _ck_res_reconstruct(w, order, policy):
    (a,) = w
    res = resolution_of(a, policy)
    mag = frobenius(reconstruct(res).mat - a.mat)
    cut = policy.grouping_cut(eig(a, policy))
    return mag, policy.tol_recon * _scale(a) + cut * a.dim


def _ck_res_jump(w, order, policy):
    (a,) = w
    res = resolution_of(a, policy)
    worst = 0.0
    for lam, gained in res.jumps():
        d = eigenprojection(a, lam, policy)
        worst = max(worst, frobenius(d.mat - gained.mat))
    miss = eigenprojection(a, res.upper + 1.0, policy)
    worst = max(worst, frobenius(miss.mat))
    return worst, policy.tol_proj * a.dim


def _ck_res_affine(w, order, policy):
    (a,) = w
    alpha, beta = 0.75, -0.4
    mapped = affine(resolution_of(a, policy), alpha, beta)
    fresh = resolution_of(alpha * a + beta, policy)
    probes = sorted(set(mapped.breakpoints) | set(fresh.breakpoints))
    worst = max(frobenius(mapped.at(l).mat - fresh.at(l).mat) for l in probes)
    return worst, policy.tol_proj * a.dim


def _ck_res_negate(w, order, policy):
    (a,) = w
    res = resolution_of(a, policy)
    flipped = negate(res)
    fresh = resolution_of(-a, policy)
    probes = sorted(set(flipped.breakpoints) | set(fresh.breakpoints))
    worst = max(frobenius(flipped.at(l).mat - fresh.at(l).mat) for l in probes)
    for lam in flipped.breakpoints:
        direct = fresh.at(lam)
        mirrored = (
            np.eye(a.dim)
            - res.at(-lam).mat
            + eigenprojection(a, -lam, policy).mat
        )
        worst = max(worst, frobenius(direct.mat - mirrored))
    return worst, policy.tol_proj * a.dim


def _ck_res_commuting(w, order, policy):
    a, b = w
    ra, rb = resolution_of(a, policy), resolution_of(b, policy)
    resolutions_commute = all(
        policy.agree(p.mat @ q.mat, q.mat @ p.mat, a.dim)
        for p in ra.projections
        for q in rb.projections
    )
    return _bool(commutes(a, b, policy) == resolutions_commute), 0.5


def _ck_res_approximant(w, order, policy):
    (e,) = w
    worst = 0.0
    for n in (1, 2, 5, 10):
        approx = step_approximant(e, n, policy)
        gap = operator_norm(e - approx, policy)
        worst = max(worst, gap - 1.0 / n)
        worst = max(worst, _bool(commutes(approx, e, policy)))
    return worst, policy.tol_recon * e.dim


# ---------------------------------------------------------------------------
# order checks


# Exact power-of-two scales from far below to far above unit scale.
_SCALE_EXPONENTS = (-600, -40, 0, 40, 600)


def _ck_spectral_implies_numerical(w, order, policy):
    a, b = w
    if not spectral_leq(a, b, policy):
        return 1.0, 0.5
    mag = psd_deficit(b - a, policy)
    return mag, policy.tol_psd * _scale(a) * _scale(b)


def _ck_scale_covariance(w, order, policy):
    """Scaling a pair by 2^j scales a's breakpoints by 2^j and keeps its
    cumulative ranks and the spectral verdict; the magnitude is the number
    of distinct outcomes over the scales, less one."""
    a, b = w
    outcomes = set()
    for j in _SCALE_EXPONENTS:
        s = 2.0**j
        sa = s * a
        res = resolution_of(sa, policy)
        bps = tuple(x / s for x in res.breakpoints)
        outcomes.add((bps, res.ranks, spectral_leq(sa, s * b, policy)))
    return float(len(outcomes) - 1), 0.5


def _ck_random_order_agreement(w, order, policy):
    a, b = w
    if spectral_leq(a, b, policy) and not numerical_leq(a, b, policy):
        return 1.0, 0.5
    return 0.0, 0.5


def _ck_commuting_forward(w, order, policy):
    a, b = w
    if not (commutes(a, b, policy) and numerical_leq(a, b, policy)):
        return 1.0, 0.5
    return _bool(spectral_leq(a, b, policy)), 0.5


def _ck_commuting_iff(w, order, policy):
    a, b = w
    if not commutes(a, b, policy):
        return 1.0, 0.5
    return _bool(spectral_leq(a, b, policy) == numerical_leq(a, b, policy)), 0.5


def _ck_projection_pair(w, order, policy):
    p_raw, e = w
    p = _projection_from(p_raw, policy)
    ok = spectral_leq(p, e, policy) == numerical_leq(p, e, policy)
    ok = ok and spectral_leq(e, p, policy) == numerical_leq(e, p, policy)
    return _bool(ok), 0.5


# ---------------------------------------------------------------------------
# lattice checks


def _projection_from(a: SymMatrix, policy) -> Projection:
    """Deterministic projection derived from any symmetric witness: the
    projector onto its nonnegative-eigenvalue eigenspaces."""
    res = resolution_of(a, policy)
    return orthocomplement(res.at(-policy.eig_cut(1.0) * 2.0))


def _ck_oml_orthomodular(w, order, policy):
    p_raw, q_raw = w
    p, q = _projection_from(p_raw, policy), _projection_from(q_raw, policy)
    small = meet(p, q, policy)
    rebuilt = join(small, meet(q, orthocomplement(small), policy), policy)
    return frobenius(rebuilt.mat - q.mat), policy.tol_proj * p.dim


def _ck_oml_demorgan(w, order, policy):
    p_raw, q_raw = w
    p, q = _projection_from(p_raw, policy), _projection_from(q_raw, policy)
    worst = frobenius(
        orthocomplement(meet(p, q, policy)).mat
        - join(orthocomplement(p), orthocomplement(q), policy).mat
    )
    worst = max(
        worst,
        frobenius(
            orthocomplement(join(p, q, policy)).mat
            - meet(orthocomplement(p), orthocomplement(q), policy).mat
        ),
    )
    return worst, policy.tol_proj * p.dim


def _ck_proj_order_agree(w, order, policy):
    p_raw, q_raw = w
    p, q = _projection_from(p_raw, policy), _projection_from(q_raw, policy)
    direct = proj_leq(p, q, policy)
    ok = direct == spectral_leq(p, q, policy)
    ok = ok and direct == numerical_leq(p, q, policy)
    return _bool(ok), 0.5


def _ck_lattice_bounds(w, order, policy):
    p_raw, q_raw = w
    p, q = _projection_from(p_raw, policy), _projection_from(q_raw, policy)
    m, j = meet(p, q, policy), join(p, q, policy)
    ok = proj_leq(m, p, policy) and proj_leq(m, q, policy)
    ok = ok and proj_leq(p, j, policy) and proj_leq(q, j, policy)
    return _bool(ok), 0.5


def _ck_lattice_universal(w, order, policy):
    p_raw, q_raw, s_raw = w
    p, q = _projection_from(p_raw, policy), _projection_from(q_raw, policy)
    s = _projection_from(s_raw, policy)
    m, j = meet(p, q, policy), join(p, q, policy)
    below = meet(p, meet(q, s, policy), policy)
    ok = proj_leq(below, m, policy)
    above = join(p, join(q, s, policy), policy)
    ok = ok and proj_leq(j, above, policy)
    return _bool(ok), 0.5


def _ck_lattice_commuting(w, order, policy):
    # Two spectral projectors of one matrix: drop the bottom cluster for p,
    # the top cluster for q.  They commute by construction and generically
    # overlap without nesting.
    (a,) = w
    res = resolution_of(a, policy)
    p = orthocomplement(res.at(res.breakpoints[0]))
    q = res.at(res.breakpoints[-2]) if len(res.breakpoints) > 1 else res.at(res.upper)
    if not commutes(p, q, policy):
        return 1.0, 0.5
    worst = frobenius(meet(p, q, policy).mat - p.mat @ q.mat)
    worst = max(
        worst, frobenius(join(p, q, policy).mat - (p.mat + q.mat - p.mat @ q.mat))
    )
    return worst, policy.tol_proj * a.dim


def _ck_spectral_bounds(w, order, policy):
    a, b = w
    m = spectral_meet(a, b, policy)
    j = spectral_join(a, b, policy)
    ok = spectral_leq(m, a, policy) and spectral_leq(m, b, policy)
    ok = ok and spectral_leq(a, j, policy) and spectral_leq(b, j, policy)
    return _bool(ok), 0.5


def _ck_spectral_universal(w, order, policy):
    a, b, x = w
    m = spectral_meet(a, b, policy)
    j = spectral_join(a, b, policy)
    ok = spectral_leq(spectral_meet(m, x, policy), m, policy)
    ok = ok and spectral_leq(j, spectral_join(j, x, policy), policy)
    ok = ok and spectral_leq(family_inf([a, b, x], policy), m, policy)
    ok = ok and spectral_leq(j, family_sup([a, b, x], policy), policy)
    return _bool(ok), 0.5


def _ck_binary_family_agree(w, order, policy):
    a, b = w
    same = np.array_equal(
        spectral_join(a, b, policy).mat, family_sup([a, b], policy).mat
    )
    same = same and np.array_equal(
        spectral_meet(a, b, policy).mat, family_inf([a, b], policy).mat
    )
    return _bool(same), 0.5


def _ck_spectral_idempotent(w, order, policy):
    (a,) = w
    cut = policy.grouping_cut(eig(a, policy))
    worst = frobenius(spectral_meet(a, a, policy).mat - a.mat)
    worst = max(worst, frobenius(spectral_join(a, a, policy).mat - a.mat))
    return worst, policy.tol_recon * _scale(a) + cut * a.dim


def _ck_monotone_transform(w, order, policy):
    a, b = w
    if not spectral_leq(a, b, policy):
        return 1.0, 0.5
    alpha, beta = 0.6, 0.2
    ok = spectral_leq(alpha * a + beta, alpha * b + beta, policy)
    return _bool(ok), 0.5


def _ck_effect_closure(w, order, policy):
    a, b = w
    worst = 0.0
    for result in (spectral_meet(a, b, policy), spectral_join(a, b, policy)):
        worst = max(worst, psd_deficit(result, policy))
        worst = max(worst, float(eig(result, policy).eigenvalues[-1]) - 1.0)
    return worst, policy.tol_psd * a.dim


# ---------------------------------------------------------------------------
# sigma-lattice checks


def _ck_family_bounds(w, order, policy):
    sup = family_sup(w, policy)
    inf = family_inf(w, policy)
    ok = all(spectral_leq(m, sup, policy) for m in w)
    ok = ok and all(spectral_leq(inf, m, policy) for m in w)
    return _bool(ok), 0.5


def _ck_family_extremal(w, order, policy):
    members = w[:-1]  # w is the members plus one competitor
    ok = spectral_leq(family_sup(members, policy), family_sup(w, policy), policy)
    ok = ok and spectral_leq(
        family_inf(w, policy), family_inf(members, policy), policy
    )
    return _bool(ok), 0.5


def _ck_family_singleton(w, order, policy):
    (e,) = w
    cut = policy.eig_cut(1.0)
    worst = frobenius(family_sup([e], policy).mat - e.mat)
    worst = max(worst, frobenius(family_inf([e], policy).mat - e.mat))
    return worst, policy.tol_recon * _scale(e) + cut * e.dim


def _ck_family_monotone(w, order, policy):
    part = w[: max(1, len(w) // 2)]
    ok = spectral_leq(family_sup(part, policy), family_sup(w, policy), policy)
    ok = ok and spectral_leq(family_inf(w, policy), family_inf(part, policy), policy)
    return _bool(ok), 0.5


# ---------------------------------------------------------------------------
# kleene extras


def _ck_complement_closure(w, order, policy):
    (e,) = w
    c = kleene_complement(e)
    mag = max(psd_deficit(c, policy), float(eig(c, policy).eigenvalues[-1]) - 1.0)
    return mag, policy.tol_psd


# ---------------------------------------------------------------------------
# dyadic checks


def _ck_dyadic_sandwich(w, order, policy):
    (e,) = w
    steps = 20
    ps = dy.dyadic_expand(e, steps, policy)
    partial = np.zeros((e.dim, e.dim))
    worst = 0.0
    for n, p in enumerate(ps, start=1):
        partial = partial + (2.0**-n) * p.mat
        gap = SymMatrix(e.mat - partial)
        worst = max(worst, psd_deficit(gap, policy))
        worst = max(worst, psd_deficit(2.0**-n - gap, policy))
    return worst, policy.tol_psd * e.dim + policy.eig_cut(1.0)


def _ck_dyadic_path_agree(w, order, policy):
    (e,) = w
    steps = 8
    ps = dy.dyadic_expand(e, steps, policy)
    residual = e
    worst = 0.0
    for n in range(steps):
        p = dy.dyadic_step(residual, n, policy)
        worst = max(worst, frobenius(p.mat - ps[n].mat))
        residual = SymMatrix(residual.mat - (2.0 ** -(n + 1)) * p.mat)
    return worst, policy.tol_proj * e.dim


def _ck_dyadic_commute(w, order, policy):
    (e,) = w
    ps = dy.dyadic_expand(e, 10, policy)
    worst = 0.0
    for i, p in enumerate(ps):
        worst = max(worst, frobenius(p.mat @ e.mat - e.mat @ p.mat))
        for q in ps[i + 1 :]:
            worst = max(worst, frobenius(p.mat @ q.mat - q.mat @ p.mat))
    return worst, policy.tol_proj * e.dim


def _ck_dyadic_residual(w, order, policy):
    (e,) = w
    steps = 30
    ps = dy.dyadic_expand(e, steps, policy)
    partial = np.zeros((e.dim, e.dim))
    for n, p in enumerate(ps, start=1):
        partial = partial + (2.0**-n) * p.mat
    gap = operator_norm(SymMatrix(e.mat - partial), policy)
    return max(0.0, gap - 2.0**-steps), policy.tol_psd + policy.eig_cut(1.0)


def _ck_dyadic_carrier(w, order, policy):
    (e,) = w
    es = eig(e, policy)
    positive = es.eigenvalues[~policy.kernel(es) & (es.eigenvalues > 0.0)]
    if positive.size:
        needed = min(dy._MAX_STEPS, int(np.floor(np.log2(1.0 / positive.min()))) + 1)
    else:
        needed = 1
    reached = dy.carrier_via_join(e, needed, policy)
    target = carrier(e, policy)
    worst = frobenius(reached.mat - target.mat)
    shorter = dy.carrier_via_join(e, max(1, needed // 2), policy)
    worst = max(worst, _bool(proj_leq(shorter, target, policy)))
    return worst, policy.tol_proj * e.dim


# ---------------------------------------------------------------------------
# modularity checks


def _ck_modular_law(w, order, policy):
    e_raw, f_raw, g_raw = w
    g = _projection_from(g_raw, policy)
    e = meet(g, _projection_from(e_raw, policy), policy)
    f = _projection_from(f_raw, policy)
    lhs = meet(join(e, f, policy), g, policy)
    rhs = join(e, meet(f, g, policy), policy)
    return frobenius(lhs.mat - rhs.mat), policy.tol_proj * g.dim


CHECKS = {
    "eig-roundtrip": _ck_eig_roundtrip,
    "eig-orthogonal": _ck_eig_orthogonal,
    "cluster-partition": _ck_cluster_partition,
    "cluster-reconstruct": _ck_cluster_reconstruct,
    "span-projector": _ck_span_projector,
    "norm-square": _ck_norm_square,
    "psd-shift": _ck_psd_shift,
    "sa-square-psd": _ck_sa_square_psd,
    "sa-quadratic-psd": _ck_sa_quadratic_psd,
    "sa-parts": _ck_sa_parts,
    "sa-sqrt": _ck_sa_sqrt,
    "sa-carrier": _ck_sa_carrier,
    "sa-inverse": _ck_sa_inverse,
    "sa-bicommutant": _ck_sa_bicommutant,
    "sa-commuting-pospart": _ck_sa_commuting_pospart,
    "res-defining": _ck_res_defining,
    "res-order-split": _ck_res_order_split,
    "res-monotone": _ck_res_monotone,
    "res-bounds": _ck_res_bounds,
    "res-right-continuity": _ck_res_right_continuity,
    "res-reconstruct": _ck_res_reconstruct,
    "res-jump": _ck_res_jump,
    "res-affine": _ck_res_affine,
    "res-negate": _ck_res_negate,
    "res-commuting": _ck_res_commuting,
    "res-approximant": _ck_res_approximant,
    "spectral-implies-numerical": _ck_spectral_implies_numerical,
    "random-order-agreement": _ck_random_order_agreement,
    "scale-covariance": _ck_scale_covariance,
    "commuting-forward": _ck_commuting_forward,
    "commuting-iff": _ck_commuting_iff,
    "projection-pair": _ck_projection_pair,
    "oml-orthomodular": _ck_oml_orthomodular,
    "oml-demorgan": _ck_oml_demorgan,
    "proj-order-agree": _ck_proj_order_agree,
    "lattice-bounds": _ck_lattice_bounds,
    "lattice-universal": _ck_lattice_universal,
    "lattice-commuting": _ck_lattice_commuting,
    "spectral-bounds": _ck_spectral_bounds,
    "spectral-universal": _ck_spectral_universal,
    "binary-family-agree": _ck_binary_family_agree,
    "spectral-idempotent": _ck_spectral_idempotent,
    "monotone-transform": _ck_monotone_transform,
    "effect-closure": _ck_effect_closure,
    "family-bounds": _ck_family_bounds,
    "family-extremal": _ck_family_extremal,
    "family-singleton": _ck_family_singleton,
    "family-monotone": _ck_family_monotone,
    "complement-closure": _ck_complement_closure,
    "dyadic-sandwich": _ck_dyadic_sandwich,
    "dyadic-path-agree": _ck_dyadic_path_agree,
    "dyadic-commute": _ck_dyadic_commute,
    "dyadic-residual": _ck_dyadic_residual,
    "dyadic-carrier": _ck_dyadic_carrier,
    "modular-law": _ck_modular_law,
    **COMPLEMENT_CHECKS,
}


def replay(
    check: str,
    witnesses,
    order: OrderTag = OrderTag.SPECTRAL,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> tuple[float, float] | None:
    """Re-run a registry check on stored witnesses; returns (magnitude, tol),
    or None where the check's premise does not hold."""
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    return CHECKS[check](list(witnesses), order, policy)


# ---------------------------------------------------------------------------
# suite recipes: each yields the (check, witnesses) draws of a whole run


def _substrate(dim, trials, seed, order, policy):
    for t in range(trials):
        rng = substream(seed, t)
        a = random_symmetric(rng, dim)
        for check in (
            "eig-roundtrip",
            "eig-orthogonal",
            "cluster-partition",
            "cluster-reconstruct",
            "span-projector",
            "norm-square",
            "psd-shift",
        ):
            yield check, [a]


def _sa_axioms(dim, trials, seed, order, policy):
    spec = GeneratorSpec(dim=dim, kind="commuting-pair", seed=seed)
    for t in range(trials):
        rng = substream(seed, t)
        a = random_symmetric(rng, dim)
        s = random_symmetric(rng, dim)
        yield "sa-square-psd", [a]
        yield "sa-quadratic-psd", [a, s]
        yield "sa-parts", [a]
        yield "sa-sqrt", [s]
        yield "sa-carrier", [a, s]
        yield "sa-inverse", [a]
        yield "sa-bicommutant", [a]
        ca, cb = random_commuting_pair(spec, t, ordered=True)
        yield "sa-commuting-pospart", [ca, cb]


def _resolution(dim, trials, seed, order, policy):
    pair_spec = GeneratorSpec(dim=dim, kind="commuting-pair", seed=seed)
    eff_spec = GeneratorSpec(dim=dim, kind="effect", seed=seed)
    for t in range(trials):
        rng = substream(seed, t)
        a = random_symmetric(rng, dim)
        for check in (
            "res-defining",
            "res-order-split",
            "res-monotone",
            "res-bounds",
            "res-right-continuity",
            "res-reconstruct",
            "res-jump",
            "res-affine",
            "res-negate",
        ):
            yield check, [a]
        ca, cb = random_commuting_pair(pair_spec, t)
        yield "res-commuting", [ca, cb]
        ga, gb = random_general_pair(GeneratorSpec(dim, "general-pair", seed), t)
        yield "res-commuting", [ga, gb]
        e = random_effect(eff_spec, t)
        yield "res-approximant", [e]


def _order_implication(dim, trials, seed, order, policy):
    spec = GeneratorSpec(dim=dim, kind="effect", seed=seed)
    gen_spec = GeneratorSpec(dim=dim, kind="general-pair", seed=seed)
    for t in range(trials):
        a, b = random_spectral_pair(spec, t)
        yield "spectral-implies-numerical", [a, b]
        yield "monotone-transform", [a, b]
        ga, gb = random_general_pair(gen_spec, t)
        yield "random-order-agreement", [ga, gb]
        yield "scale-covariance", [ga, gb]


def _commuting(dim, trials, seed, order, policy):
    spec = GeneratorSpec(dim=dim, kind="commuting-pair", seed=seed)
    proj_spec = GeneratorSpec(dim=dim, kind="projection", seed=seed)
    eff_spec = GeneratorSpec(dim=dim, kind="effect", seed=seed)
    for t in range(trials):
        a, b = random_commuting_pair(spec, t, ordered=True)
        yield "commuting-forward", [a, b]
        c, d = random_commuting_pair(spec, t + trials)
        yield "commuting-iff", [c, d]
        p = random_projection(proj_spec, t)
        e = random_effect(eff_spec, t)
        yield "projection-pair", [p, e]


def _lattice(dim, trials, seed, order, policy):
    for t in range(trials):
        rng = substream(seed, t)
        p_raw = random_symmetric(rng, dim)
        q_raw = random_symmetric(rng, dim)
        s_raw = random_symmetric(rng, dim)
        for check in (
            "oml-orthomodular",
            "oml-demorgan",
            "proj-order-agree",
            "lattice-bounds",
        ):
            yield check, [p_raw, q_raw]
        yield "lattice-commuting", [p_raw]
        yield "lattice-universal", [p_raw, q_raw, s_raw]
        eff_spec = GeneratorSpec(dim=dim, kind="effect", seed=seed)
        a = random_effect(eff_spec, 2 * t)
        b = random_effect(eff_spec, 2 * t + 1)
        x = random_effect(GeneratorSpec(dim, "effect", seed + 1), t)
        yield "spectral-bounds", [a, b]
        yield "spectral-universal", [a, b, x]
        yield "binary-family-agree", [a, b]
        yield "spectral-idempotent", [a]
        yield "effect-closure", [a, b]


def _sigma(dim, trials, seed, order, policy):
    spec = GeneratorSpec(dim=dim, kind="effect", seed=seed)
    for t in range(trials):
        members = [random_effect(spec, 5 * t + i) for i in range(5)]
        x = random_effect(GeneratorSpec(dim, "effect", seed + 1), t)
        yield "family-bounds", members
        yield "family-extremal", members + [x]
        yield "family-singleton", [members[0]]
        yield "binary-family-agree", members[:2]
        yield "family-monotone", members


def _kleene(dim, trials, seed, order, policy):
    eff_spec = GeneratorSpec(dim=dim, kind="effect", seed=seed)
    for t in range(trials):
        e = random_effect(eff_spec, 2 * t)
        f = random_effect(eff_spec, 2 * t + 1)
        if order is OrderTag.SPECTRAL:
            lo, hi = random_spectral_pair(eff_spec, t, spread=0.3)
            lo, hi = 0.7 * lo, 0.7 * hi
        else:
            lo, hi = e, numerically_above(e, f, policy)
        yield from involution_draws(lo, hi)
        yield from involution_draws(0.5 * e, 0.5 * f)
        yield "complement-closure", [e]


def _bz(dim, trials, seed, order, policy):
    spec = GeneratorSpec(dim=dim, kind="effect", seed=seed)
    effects = [random_effect(spec, t) for t in range(trials)]
    for t in range(0, trials, 3):
        rng = substream(seed + 7, t)
        q = random_projection(GeneratorSpec(dim, "projection", seed + 3), t)
        scale = float(rng.uniform(0.2, 1.0))
        effects.append(Effect(scale * q.mat))
    yield from bz_draws(effects)


def _demorgan(dim, trials, seed, order, policy):
    spec = GeneratorSpec(dim=dim, kind="effect", seed=seed)
    for t in range(trials):
        if t % 3 == 2:
            rng = substream(seed + 11, t)
            q = random_orthogonal(rng, dim)
            e = Effect(q @ np.diag(rng.uniform(0, 1, dim)) @ q.T)
            f = Effect(q @ np.diag(rng.uniform(0, 1, dim)) @ q.T)
        else:
            e = random_effect(spec, 2 * t)
            f = random_effect(spec, 2 * t + 1)
        yield from demorgan_draws(e, f)


def _dyadic(dim, trials, seed, order, policy):
    spec = GeneratorSpec(dim=dim, kind="effect", seed=seed)
    for t in range(trials):
        e = random_effect(spec, t)
        for check in (
            "dyadic-sandwich",
            "dyadic-path-agree",
            "dyadic-commute",
            "dyadic-residual",
            "dyadic-carrier",
        ):
            yield check, [e]


def _modularity(dim, trials, seed, order, policy):
    for t in range(trials):
        rng = substream(seed, t)
        e_raw = random_symmetric(rng, dim)
        f_raw = random_symmetric(rng, dim)
        g_raw = random_symmetric(rng, dim)
        yield "modular-law", [e_raw, f_raw, g_raw]


class _Suite(NamedTuple):
    draws: Callable  # (dim, trials, seed, order, policy), yields (check, witnesses)
    reads_order: bool = False
    premises: tuple[str, ...] = ()  # checks whose premise counts become notes


_SUITES = {
    "substrate": _Suite(_substrate),
    "sa-axioms": _Suite(_sa_axioms),
    "resolution-props": _Suite(_resolution),
    "order-implication": _Suite(_order_implication),
    "commuting-equivalence": _Suite(_commuting),
    "lattice-laws": _Suite(_lattice),
    "sigma-lattice": _Suite(_sigma),
    "kleene": _Suite(_kleene, reads_order=True, premises=KLEENE_PREMISES),
    "bz": _Suite(_bz, reads_order=True),
    "demorgan": _Suite(_demorgan),
    "dyadic": _Suite(_dyadic),
    "modularity": _Suite(_modularity),
}

SUITE_NAMES = tuple(_SUITES)


def reads_order(name: str) -> bool:
    """Whether the named suite's report depends on the order it runs under;
    the others give the same report, apart from order and elapsed, under
    both."""
    return _SUITES[name].reads_order


def run_suite(
    name: str,
    dim: int,
    trials: int,
    seed: int,
    order: OrderTag = OrderTag.SPECTRAL,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Run one named suite; deterministic in (name, dim, trials, seed, order)."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    suite = _SUITES[name]
    report = VerificationReport(name, order.value, dim, trials, seed)
    draws = suite.draws(dim, trials, seed, order, policy)
    evaluate(report, CHECKS, draws, order, policy, suite.premises)
    return report
