"""Orthomodular lattice of projections.

Joins span the stacked columns of the operands; meets are complements of
joins of complements.  Every operation rebuilds an exact projector from an
orthonormal basis, so chains of lattice operations do not accumulate drift.
"""

from __future__ import annotations

import numpy as np

from .substrate import (
    DEFAULT_POLICY,
    Projection,
    TolerancePolicy,
    projection_onto_span,
)

__all__ = [
    "proj_leq",
    "meet",
    "join",
    "family_meet",
    "family_join",
    "orthocomplement",
    "modular_check",
    "position_pprime",
]


def proj_leq(
    p: Projection, q: Projection, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Range inclusion: ||p - pq|| <= tol_proj (Frobenius)."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return policy.within(p.mat, q.mat)


def orthocomplement(p: Projection) -> Projection:
    return Projection(np.eye(p.dim) - p.mat)


def meet(
    p: Projection, q: Projection, policy: TolerancePolicy = DEFAULT_POLICY
) -> Projection:
    """Projection onto range(p) intersect range(q)."""
    return family_meet([p, q], policy=policy)


def join(
    p: Projection, q: Projection, policy: TolerancePolicy = DEFAULT_POLICY
) -> Projection:
    """Projection onto range(p) + range(q)."""
    return family_join([p, q], policy=policy)


def family_meet(
    ps: list[Projection],
    dim: int | None = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Projection:
    """Meet of finitely many projections; the empty meet is the identity.

    Computed as the complement of the join of the complements, so spanning
    decisions happen at amplitude scale in one code path.
    """
    if not ps:
        if dim is None:
            raise ValueError("dim is required for an empty family")
        return Projection(np.eye(dim))
    return orthocomplement(family_join([orthocomplement(p) for p in ps], policy=policy))


def family_join(
    ps: list[Projection],
    dim: int | None = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Projection:
    """Join of finitely many projections; the empty join is zero."""
    if not ps:
        if dim is None:
            raise ValueError("dim is required for an empty family")
        return Projection(np.zeros((dim, dim)))
    n = ps[0].dim
    columns = []
    for p in ps:
        if p.dim != n:
            raise ValueError(f"dimension mismatch: {p.dim} vs {n}")
        columns.extend(p.mat[:, j] for j in range(n))
    return projection_onto_span(columns, dim=n, policy=policy)


def modular_check(
    e: Projection,
    f: Projection,
    g: Projection,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> bool:
    """Modular law (e v f) ^ g = e v (f ^ g), which needs e <= g."""
    if not proj_leq(e, g, policy):
        raise ValueError("modular law requires e <= g")
    lhs = meet(join(e, f, policy), g, policy)
    rhs = join(e, meet(f, g, policy), policy)
    return policy.agree(lhs.mat, rhs.mat, e.dim)


def position_pprime(
    p: Projection, q: Projection, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Generic position: p ^ q' = 0 and p' ^ q = 0."""
    a = meet(p, orthocomplement(q), policy)
    b = meet(orthocomplement(p), q, policy)
    return a.rank == 0 and b.rank == 0
