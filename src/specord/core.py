"""Synaptic operations: Jordan product, quadratic compression, functional
calculus (square root, absolute value, positive/negative parts), carriers,
inverses and commutant membership.

All operations stay inside the algebra of real symmetric matrices; products
that would leave it (plain matrix products of non-commuting operands) only
appear inside symmetrized combinations.
"""

from __future__ import annotations

import numpy as np

from .resolution import resolution_of
from .substrate import (
    DEFAULT_POLICY,
    SymMatrix,
    TolerancePolicy,
    carrier,
    eig,
    frobenius,
    nullspace_projection,
)

__all__ = [
    "jordan_product",
    "quadratic_map",
    "sqrt_psd",
    "abs_val",
    "pos_part",
    "neg_part",
    "carrier",
    "nullspace_projection",
    "inverse",
    "commutes",
    "in_bicommutant",
    "numerical_leq",
    "numerical_compare",
]


def jordan_product(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Symmetrized product (ab + ba) / 2."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return SymMatrix((a.mat @ b.mat + b.mat @ a.mat) / 2.0)


def quadratic_map(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Compression aba; positivity-preserving in b."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return SymMatrix(a.mat @ b.mat @ a.mat)


def _rebuild(a: SymMatrix, f, policy: TolerancePolicy) -> np.ndarray:
    es = eig(a, policy)
    return es.eigenvectors @ np.diag(f(es.eigenvalues)) @ es.eigenvectors.T


def sqrt_psd(a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> SymMatrix:
    """Unique PSD square root of a PSD operand."""
    es = eig(a, policy)
    if not policy.spectrum_within(es.eigenvalues):
        raise ValueError(
            f"not positive semidefinite: smallest eigenvalue {es.eigenvalues[0]:.3e}"
        )
    return SymMatrix(_rebuild(a, lambda v: np.sqrt(np.clip(v, 0.0, None)), policy))


def abs_val(a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> SymMatrix:
    """|a|, the PSD square root of a^2."""
    return SymMatrix(_rebuild(a, np.abs, policy))


def pos_part(a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> SymMatrix:
    """a+ = (|a| + a) / 2."""
    return SymMatrix((abs_val(a, policy).mat + a.mat) / 2.0)


def neg_part(a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> SymMatrix:
    """a- = (|a| - a) / 2, so a = a+ - a- and a+ a- = 0."""
    return SymMatrix((abs_val(a, policy).mat - a.mat) / 2.0)


def inverse(a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> SymMatrix:
    """Inverse within the algebra; rejects operands singular within the cut."""
    if np.any(policy.kernel(eig(a, policy))):
        raise ValueError("matrix is singular within tolerance")
    return SymMatrix(_rebuild(a, lambda v: 1.0 / v, policy))


def commutes(
    a: SymMatrix, b: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """True when ||ab - ba|| <= tol_proj * (1 + ||a|| ||b||), Frobenius."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return policy.commute(a.mat, b.mat)


def in_bicommutant(
    b: SymMatrix, a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Whether b lies in the bicommutant of a.

    In finite dimension the bicommutant of a symmetric a is the span of its
    spectral projections, so membership reduces to b being reconstructible
    from its compressions to the eigenspaces of a: on each cluster of a's
    frame columns, the mean of b's diagonal there.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    res = resolution_of(a, policy)
    q = res.frame
    sizes = np.diff((0, *res.ranks))
    diagonal = np.sum(q * (b.mat @ q), axis=0)
    coeff = np.add.reduceat(diagonal, (0, *res.ranks[:-1])) / sizes
    recon = (q * res.per_column(coeff)) @ q.T
    return policy.agree(b.mat, recon, 1.0 + frobenius(b.mat))


def numerical_leq(
    a: SymMatrix, b: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Loewner comparison: b - a positive semidefinite within tol_psd."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return policy.spectrum_within(eig(b - a, policy).eigenvalues)


def numerical_compare(
    a: SymMatrix, b: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[bool, bool]:
    """(a <= b, b <= a) in the Loewner order from one decomposition of b - a.
    a - b is its exact negation, and Jacobi applies the same rotations to a
    negated matrix, so the ascending spectrum of a - b is -vals[::-1] bit
    for bit."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    vals = eig(b - a, policy).eigenvalues
    return policy.spectrum_within(vals), policy.spectrum_within(-vals[::-1])
