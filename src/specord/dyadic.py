"""Dyadic projection decomposition of effects.

An effect expands as a binary series e = sum 2^-j p_j of commuting
projections: at each step the projector onto the part of the residual
exceeding the next power of two is split off.  Residual eigenvalues exactly
at the threshold round down (bit 0), matching the resolution boundary
convention.  Production code walks the resolution's breakpoints directly
and masks its frame columns; the matrix-level single step is the public
primitive and the two routes agree.
"""

from __future__ import annotations

import numpy as np

from .lattice import family_join, orthocomplement
from .resolution import resolution_of
from .substrate import (
    DEFAULT_POLICY,
    Effect,
    Projection,
    SymMatrix,
    TolerancePolicy,
    eig,
)

__all__ = ["dyadic_step", "dyadic_expand", "dyadic_residual", "carrier_via_join"]

_MAX_STEPS = 52


def dyadic_step(
    b: SymMatrix, n: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> Projection:
    """One extraction step: for 0 <= b <= 2^-n, the projection p with
    0 <= b - 2^-(n+1) p <= 2^-(n+1); p commutes with b."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    vals = eig(b, policy).eigenvalues
    if not policy.spectrum_within(vals, 2.0 ** (-n)):
        raise ValueError(
            f"operand spectrum [{vals[0]:.3e}, {vals[-1]:.3e}] leaves [0, 2^-{n}]"
        )
    lam = 2.0 ** (-(n + 1))
    return orthocomplement(resolution_of(b, policy).at(lam))


def _bit_rows(values: list[float], steps: int, policy: TolerancePolicy):
    """Dyadic bit patterns of values: row j marks the values whose
    remainder clears 2^-j, which then leaves their remainder."""
    bits = []
    residuals = list(values)
    for j in range(1, steps + 1):
        lam = 2.0 ** (-j)
        row = []
        for i, r in enumerate(residuals):
            row.append(policy.clears(r, lam))
            if row[-1]:
                residuals[i] = r - lam
        bits.append(row)
    return bits


def dyadic_expand(
    e: Effect, steps: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> list[Projection]:
    """First `steps` projections of the dyadic series of e.

    Partial sums obey the sandwich 0 <= e - sum_{j<=n} 2^-j p_j <= 2^-n,
    so the series converges to e at rate 2^-steps.
    """
    if not 1 <= steps <= _MAX_STEPS:
        raise ValueError(f"steps must lie in 1..{_MAX_STEPS}")
    vals = eig(e, policy).eigenvalues
    if not policy.spectrum_within(vals, 1.0):
        raise ValueError(
            f"operand spectrum [{vals[0]:.3e}, {vals[-1]:.3e}] leaves [0, 1]"
        )
    res = resolution_of(e, policy)
    q = res.frame
    out = []
    for row in _bit_rows(list(res.breakpoints), steps, policy):
        # each bit projects onto the frame columns of the clusters it picks
        block = q[:, res.per_column(row)]
        out.append(Projection(block @ block.T))
    return out


def dyadic_residual(
    e: Effect, steps: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> float:
    """Operator norm of e minus the first `steps` terms of its dyadic series,
    with no matrix work: on each eigenvector of e the remainder has the
    eigenvalue lambda - sum_j bit_j 2^-j, the bits being those of lambda's
    cluster."""
    res = resolution_of(e, policy)
    rows = np.array(_bit_rows(list(res.breakpoints), steps, policy), dtype=float)
    # sums of distinct powers of two down to 2^-52 are exact in any order
    taken = 2.0 ** -np.arange(1.0, steps + 1) @ rows
    vals = eig(e, policy).eigenvalues
    return float(np.max(np.abs(vals - res.per_column(taken))))


def carrier_via_join(
    e: Effect, steps: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> Projection:
    """Join of the first `steps` dyadic projections; climbs to the carrier
    once 2^-steps drops below the smallest positive eigenvalue of e."""
    ps = dyadic_expand(e, steps, policy)
    return family_join(ps, dim=e.dim, policy=policy)
