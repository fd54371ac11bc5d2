"""Symmetric-matrix substrate: domain types, a deterministic eigensolver,
eigenvalue chaining, Gram-Schmidt spanning and subspace projections.

Everything downstream (resolutions, lattices, orders) is built on the
primitives in this module.  The eigensolver is a Jacobi iteration rather
than a LAPACK call so that results are bit-identical across runs and
platforms for identical input bytes.  It first scales the input by an exact
power of two, which keeps it accurate across the whole float range.  Below
n = 6 each sweep is the row-cyclic loop, one 2x2 rotation at a time over
Python floats, whose bytes equal those of the same updates made on numpy
columns; from n = 6 up it is the Brent-Luk round-robin ordering, whose
n - 1 rounds each apply n/2 disjoint rotations as whole-array numpy
operations.  Neither rotation loop calls BLAS (the round-robin one uses
indexing and elementwise ufuncs only), so their bytes do not depend on the
BLAS kernel numpy dispatches to.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, fields

import numpy as np

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "SymMatrix",
    "Effect",
    "Projection",
    "EigenSystem",
    "ConvergenceError",
    "eig",
    "projection_onto_span",
    "carrier",
    "nullspace_projection",
    "operator_norm",
    "is_psd",
    "frobenius",
    "identity",
    "zeros",
    "from_diag",
]

# Convergence is declared when the off-diagonal Frobenius mass drops below
# this fraction of the input's Frobenius norm.
_JACOBI_REL_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 100
# From this size up a sweep runs as round-robin rounds of whole-array
# rotations; below it the per-round numpy overhead loses to the scalar loop.
_ROUND_MIN_DIM = 6
# Round-robin schedules by dimension, built on first use.
_SCHEDULES: dict[int, list[tuple[np.ndarray, ...]]] = {}


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical tolerances, each finite and nonnegative, and the only code
    that compares against them: tol_eig in eig_cut, grouping_cut, near,
    kernel, clears and separates; tol_psd in spectrum_within; tol_proj in
    agree, within, orthogonal, idempotent and commute; tol_recon in healthy.

    Eigenvalues group relative to the operand at every scale (grouping_cut,
    tol_eig * max |lambda|), so the spectral order sees the same structure
    in 2^j a as in a.  The rank cut (kernel), span acceptance and dyadic
    bits floor it instead (eig_cut, tol_eig * max(1, scale)): below unit
    scale they are absolute, so roundoff in a derived matrix is not read as
    rank.  tol_psd, tol_proj and tol_recon are absolute.
    """

    tol_eig: float = 1e-9
    tol_psd: float = 1e-9
    tol_proj: float = 1e-8
    tol_recon: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{f.name} must be finite and nonnegative, got {value!r}"
                )

    def eig_cut(self, scale: float) -> float:
        """Floored eigenvalue tolerance for an operand of norm scale."""
        return self.tol_eig * max(1.0, scale)

    def grouping_cut(self, es: EigenSystem) -> float:
        """Eigenvalue-grouping tolerance of the operand es decomposes,
        relative to its scale: tol_eig * max |lambda|."""
        return self.tol_eig * float(np.max(np.abs(es.eigenvalues)))

    def near(self, value: float, lam: float, cut: float) -> bool:
        """value is the eigenvalue lam under the grouping cut cut."""
        return abs(value - lam) <= cut

    def kernel(self, es: EigenSystem) -> np.ndarray:
        """Rank cut: mask of es's eigenvalues within eig_cut(max |lambda|) of 0."""
        mags = np.abs(es.eigenvalues)
        return mags <= self.eig_cut(float(np.max(mags)))

    def clears(self, value, level: float = 0.0, scale: float = 1.0) -> bool:
        """Span acceptance and dyadic bits: value > level + eig_cut(scale)."""
        return value > level + self.eig_cut(scale)

    def separates(
        self, gaps: np.ndarray, spread: float, scale: float, tie: float
    ) -> bool:
        """Residual certificate of a resolution whose operand has every
        eigenvalue within spread of its breakpoint (largest |breakpoint|
        scale, neighbouring breakpoints gaps apart): any grouping cut that
        operand can get, and tie, join each breakpoint's eigenvalues and
        split at every gap."""
        lo = min(self.tol_eig * (scale - spread), tie)
        hi = max(self.tol_eig * (scale + spread), tie)
        return bool(2.0 * spread <= lo and np.all(gaps > hi + 2.0 * spread))

    def spectrum_within(self, vals: np.ndarray, upper: float = math.inf) -> bool:
        """Ascending spectrum vals in [0, upper] within tol_psd (PSD by default)."""
        return bool(vals[0] >= -self.tol_psd and vals[-1] <= upper + self.tol_psd)

    def agree(self, x: np.ndarray, y: np.ndarray, scale: float = 1.0) -> bool:
        """||x - y|| <= tol_proj * scale."""
        return frobenius(x - y) <= self.tol_proj * scale

    def within(self, p: np.ndarray, q: np.ndarray) -> bool:
        """Range containment of projections: p agrees with pq."""
        return self.agree(p, p @ q)

    def orthogonal(self, x: np.ndarray, y: np.ndarray) -> bool:
        """Orthonormal blocks x and y span orthogonal subspaces:
        ||x^T y|| <= tol_proj.  This is within(p, q) for p = x x^T and
        q = I - y y^T, since ||p (I - q)|| = ||x^T y||."""
        return frobenius(x.T @ y) <= self.tol_proj

    def idempotent(self, p: np.ndarray) -> bool:
        """||p^2 - p|| <= tol_proj."""
        return float(np.linalg.norm(p @ p - p)) <= self.tol_proj

    def commute(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Commutation: ab agrees with ba at scale 1 + ||a|| ||b||."""
        return self.agree(a @ b, b @ a, 1.0 + frobenius(a) * frobenius(b))

    def healthy(self, es: EigenSystem) -> bool:
        """eig's reconstruction and orthogonality within tol_recon."""
        return es.recon <= self.tol_recon and es.orth <= self.tol_recon


DEFAULT_POLICY = TolerancePolicy()


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the off-diagonal threshold."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = residual
        self.sweeps = sweeps
        super().__init__(
            f"Jacobi sweep did not converge: off-diagonal residual "
            f"{residual:.3e} after {sweeps} sweeps"
        )


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix, symmetrized and frozen on construction.
    Subclasses validate under the init-only policy given at construction.

    Scalar addition and subtraction follow the operator-algebra convention:
    ``a + t`` means ``a + t * identity``, not entrywise shift.
    """

    mat: np.ndarray
    policy: InitVar[TolerancePolicy] = DEFAULT_POLICY

    def __post_init__(self, policy):
        m = np.asarray(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] == 0:
            raise ValueError("expected a matrix of size at least 1x1, got 0x0")
        m = (m + m.T) / 2.0
        # tested after symmetrizing, since m + m.T can overflow
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries and their symmetric part must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        self._validate(policy)

    def _validate(self, policy: TolerancePolicy):
        pass

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __add__(self, other):
        if isinstance(other, SymMatrix):
            _check_dims(self, other)
            return SymMatrix(self.mat + other.mat)
        if isinstance(other, (int, float)):
            return SymMatrix(self.mat + float(other) * np.eye(self.dim))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SymMatrix):
            _check_dims(self, other)
            return SymMatrix(self.mat - other.mat)
        if isinstance(other, (int, float)):
            return SymMatrix(self.mat - float(other) * np.eye(self.dim))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return SymMatrix(float(other) * np.eye(self.dim) - self.mat)
        return NotImplemented

    def __neg__(self):
        return SymMatrix(-self.mat)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return SymMatrix(self.mat * float(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        kind = type(self).__name__
        rows = np.array2string(self.mat, precision=6, suppress_small=True)
        return f"{kind}(dim={self.dim},\n{rows})"


# The policy is not stored: drop the default that would read back as one.
del SymMatrix.policy


@dataclass(frozen=True, eq=False)
class Effect(SymMatrix):
    """Symmetric matrix with spectrum in [0, 1] within tol_psd."""

    def _validate(self, policy: TolerancePolicy):
        vals = eig(self, policy).eigenvalues
        if not policy.spectrum_within(vals, 1.0):
            raise ValueError(
                f"not an effect: spectrum [{vals[0]:.3e}, {vals[-1]:.3e}] leaves [0, 1]"
            )


@dataclass(frozen=True, eq=False)
class Projection(Effect):
    """Idempotent effect.  Validation checks ||p^2 - p|| only; idempotency
    within tolerance already pins the spectrum near {0, 1}."""

    def _validate(self, policy: TolerancePolicy):
        if not policy.idempotent(self.mat):
            drift = float(np.linalg.norm(self.mat @ self.mat - self.mat))
            raise ValueError(f"not idempotent: ||p^2 - p|| = {drift:.3e}")

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.mat))))


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns, and the
    solver's health: the Jacobi sweeps run, the final off-diagonal residual
    (in the input's units), and the reconstruction residual (relative to
    1 + the spectral radius) and orthogonality residual that eig validates
    against tol_recon."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int
    residual: float
    recon: float
    orth: float


def _check_dims(a: SymMatrix, b: SymMatrix):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def identity(dim: int) -> Projection:
    return Projection(np.eye(dim))


def zeros(dim: int) -> Projection:
    return Projection(np.zeros((dim, dim)))


def from_diag(values) -> SymMatrix:
    return SymMatrix(np.diag(np.asarray(values, dtype=float)))


# Below this norm numpy's sum of squares may have lost digits to underflow.
_FROBENIUS_TINY = 2.0**-460


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm, right across the float range: where numpy's sum of
    squares overflows (numpy warns) or underflows, m is scaled by an exact
    power of two first and the norm unscaled after."""
    norm = float(np.linalg.norm(m, ord="fro"))
    if norm == math.inf or (norm < _FROBENIUS_TINY and m.any()):
        k = int(np.frexp(np.max(np.abs(m)))[1])
        norm = math.ldexp(float(np.linalg.norm(np.ldexp(m, -k), ord="fro")), k)
    return norm


def _offdiag_norm(m: np.ndarray) -> float:
    """Frobenius mass strictly off the diagonal, summed directly (no
    cancellation against the full norm)."""
    tmp = m.copy()
    np.fill_diagonal(tmp, 0.0)
    return frobenius(tmp)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Jacobi diagonalization.  Returns (diagonal matrix, rotations, sweeps,
    final off-diagonal residual).

    Every sweep visits the pairs in a fixed order, so the result is a
    deterministic function of the input bytes.  The sweep is tested for
    convergence before it runs, so a diagonal input takes 0 sweeps.
    """
    n = a.shape[0]
    m = a.copy()
    q = np.eye(n)
    threshold = _JACOBI_REL_TOL * frobenius(m)
    sweep = _round_sweep if n >= _ROUND_MIN_DIM else _cyclic_sweep
    for sweeps in range(_JACOBI_MAX_SWEEPS + 1):
        off = _offdiag_norm(m)
        if off <= threshold:
            return m, q, sweeps, off
        if sweeps < _JACOBI_MAX_SWEEPS:
            sweep(m, q)
    raise ConvergenceError(off, _JACOBI_MAX_SWEEPS)


def _cyclic_sweep(m: np.ndarray, q: np.ndarray):
    """One row-cyclic sweep, one 2x2 rotation at a time, in place.  The
    rotations run over Python lists of floats: at these sizes numpy's
    per-call overhead outweighs the arithmetic.  Each value is computed by the
    same correctly rounded IEEE operations, in the same order, as a
    whole-column numpy update would, so the bytes are those of that update."""
    n = m.shape[0]
    a = m.tolist()
    v = q.tolist()
    for p in range(n - 1):
        for r in range(p + 1, n):
            apq = a[p][r]
            if apq == 0.0:
                continue
            theta = (a[r][r] - a[p][p]) / (2.0 * apq)
            if abs(theta) > 1e154:
                t = 1.0 / (2.0 * theta)
            else:
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for row in a:
                x, y = row[p], row[r]
                row[p] = c * x - s * y
                row[r] = s * x + c * y
            row_p, row_r = a[p], a[r]
            a[p] = [c * x - s * y for x, y in zip(row_p, row_r)]
            a[r] = [s * x + c * y for x, y in zip(row_p, row_r)]
            a[p][r] = 0.0
            a[r][p] = 0.0
            for row in v:
                x, y = row[p], row[r]
                row[p] = c * x - s * y
                row[r] = s * x + c * y
    m[...] = a
    q[...] = v


def _round_sweep(m: np.ndarray, q: np.ndarray):
    """One round-robin sweep, in place: each round's disjoint pairs rotate
    together.  Disjoint rotations commute and none touches another's 2x2
    block, so every angle comes from the round's starting matrix.  A round
    is one permutation-form update, new column j = c_j * column j + s_j *
    column partner(j), with c = 1, s = 0 at an odd n's idle index; then the
    same for rows and for q.  Only indexing and elementwise ufuncs run
    here, no BLAS kernel."""
    n = m.shape[0]
    diag = m.diagonal()
    for p, r, pr, partner in _schedule(n):
        apq = m[p, r]
        live = apq != 0.0
        # A pair with apq == 0 gets t = 0, the identity rotation.
        theta = (diag[r] - diag[p]) / (2.0 * np.where(live, apq, 1.0))
        big = np.abs(theta) > 1e154
        if big.any():
            small = np.where(big, 0.0, theta)
            t = np.where(
                big,
                1.0 / (2.0 * np.where(big, theta, 1.0)),
                np.copysign(1.0, small) / (np.abs(small) + np.sqrt(small * small + 1.0)),
            )
        else:
            root = np.sqrt(theta * theta + 1.0)
            t = np.copysign(1.0, theta) / (np.abs(theta) + root)
        t = np.where(live, t, 0.0)
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c
        # new p = c*p - s*r and new r = c*r + s*p, for columns, then rows
        cv = np.ones(n)
        sv = np.zeros(n)
        cv[pr] = np.concatenate([c, c])
        sv[pr] = np.concatenate([-s, s])
        _permuted_update(m, m[:, partner], cv, sv)
        _permuted_update(m, m[partner, :], cv[:, None], sv[:, None])
        m[p, r] = 0.0
        m[r, p] = 0.0
        _permuted_update(q, q[:, partner], cv, sv)


def _permuted_update(a: np.ndarray, partners: np.ndarray, cv, sv):
    """a = a * cv + partners * sv in place; partners is a fresh copy."""
    a *= cv
    partners *= sv
    a += partners


def _schedule(n: int) -> list[tuple[np.ndarray, ...]]:
    """The round-robin (chess-tournament) rounds over n indices, built once
    per n: n - 1 rounds of n/2 disjoint (p, r) pairs, p < r, that together
    cover every pair once; odd n gets one idle index per round.  Each round
    is (p, r, p then r, partner), where partner swaps each p with its r and
    maps the idle index to itself."""
    rounds = _SCHEDULES.get(n)
    if rounds is None:
        size = n + n % 2
        ring = list(range(size))
        rounds = []
        for _ in range(size - 1):
            pairs = sorted(
                (min(x, y), max(x, y))
                for x, y in zip(ring[: size // 2], ring[::-1])
                if max(x, y) < n
            )
            p, r = np.array(pairs).T
            partner = np.arange(n)
            partner[p], partner[r] = r, p
            rounds.append((p, r, np.concatenate([p, r]), partner))
            ring = [ring[0], ring[-1], *ring[1:-1]]
        _SCHEDULES[n] = rounds
    return rounds


def eig(a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> EigenSystem:
    """Full eigendecomposition, ascending, with canonical eigenvector signs.

    The decomposition is cached on the (immutable) operand, so repeated
    spectral queries against the same object cost one factorization.
    Reconstruction and orthogonality are validated against tol_recon
    (the policy carries no separate orthogonality knob) on every call, the
    cached ones included, so a stricter policy never reuses a looser verdict.
    """
    es = getattr(a, "_eig_cache", None)
    if es is None:
        es = _decompose(a.mat)
        object.__setattr__(a, "_eig_cache", es)
    if not policy.healthy(es):
        raise ConvergenceError(max(es.recon, es.orth), es.sweeps)
    return es


def _decompose(mat: np.ndarray) -> EigenSystem:
    # Prescaling by 2^-k brings the largest entry into [0.5, 1), so the
    # Frobenius sums neither underflow nor overflow.  It is exact for normal
    # entries: the eigenvectors are those of mat bit for bit, and unscaling
    # the eigenvalues is exact too.
    k = int(np.frexp(np.max(np.abs(mat)))[1])
    scaled = np.ldexp(mat, -k)
    try:
        d, q, sweeps, off = _jacobi(scaled)
    except ConvergenceError as err:
        raise ConvergenceError(math.ldexp(err.residual, k), err.sweeps) from None
    vals = np.diag(d).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = q[:, order].copy()
    for j in range(vecs.shape[1]):
        kmax = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[kmax, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    scale = 1.0 + float(np.max(np.abs(vals)))
    recon = frobenius(vecs @ np.diag(vals) @ vecs.T - scaled) / scale
    orth = frobenius(vecs.T @ vecs - np.eye(mat.shape[0]))
    vals = np.ldexp(vals, k)
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return EigenSystem(vals, vecs, sweeps, math.ldexp(off, k), recon, orth)


def chain_clusters(vals: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Index ranges [start, stop) of ascending vals chained within tol:
    neighbours at most tol apart share a cluster."""
    if vals.size == 0:
        return []
    edges = [0, *(np.flatnonzero(np.diff(vals) > tol) + 1).tolist(), vals.size]
    return list(zip(edges[:-1], edges[1:]))


def span_basis(
    columns: np.ndarray, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the span of the columns, and the indices of the
    columns that joined it: two-pass classical Gram-Schmidt in column order.

    A column joins when its residual after two passes against the accepted
    block, u - B (B^T u) each, clears eig_cut(1).  Deciding by residual
    amplitude, not by gram eigenvalues, keeps a direction present at 1e-6
    visible: a gram matrix would square it into eigensolver noise.  Stops
    once the basis spans the whole space.
    """
    n, m = columns.shape
    block = np.empty((n, n))
    taken = []
    for j in range(m):
        if len(taken) == n:
            break
        b = block[:, : len(taken)]
        u = columns[:, j]
        for _ in range(2):
            u = u - b @ (b.T @ u)
        residual = float(np.linalg.norm(u))
        if policy.clears(residual):
            block[:, len(taken)] = u / residual
            taken.append(j)
    return block[:, : len(taken)], np.asarray(taken, dtype=int)


def projection_onto_span(
    vectors, dim: int | None = None, policy: TolerancePolicy = DEFAULT_POLICY
) -> Projection:
    """Orthogonal projection onto the span of the given vectors, spanned by
    span_basis in the input order.  Vectors longer than 1 are scaled down
    first; shorter ones are taken raw, so sub-cut content stays invisible
    rather than amplified."""
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if dim is None:
        if not vecs:
            raise ValueError("dim is required for an empty vector list")
        dim = vecs[0].size
    for v in vecs:
        if v.size != dim:
            raise ValueError(f"dimension mismatch: {v.size} vs {dim}")
    cols = np.column_stack(vecs) if vecs else np.empty((dim, 0))
    block, _ = span_basis(cols / np.maximum(np.linalg.norm(cols, axis=0), 1.0), policy)
    if block.shape[1] == dim:
        return Projection(np.eye(dim))
    return Projection(block @ block.T)


def carrier(a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> Projection:
    """Smallest projection fixing a: projector onto the span of eigenvectors
    outside the policy's kernel.  Complementary to nullspace_projection."""
    es = eig(a, policy)
    return _eigenspace_projection(es, ~policy.kernel(es), a.dim)


def _eigenspace_projection(es: EigenSystem, keep: np.ndarray, dim: int) -> Projection:
    # full and empty selections snap to the exact identity / zero matrix
    if bool(np.all(keep)):
        return Projection(np.eye(dim))
    if not bool(np.any(keep)):
        return Projection(np.zeros((dim, dim)))
    block = es.eigenvectors[:, keep]
    return Projection(block @ block.T)


def nullspace_projection(
    a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY
) -> Projection:
    """Projection onto the kernel: eigenvectors in the policy's kernel."""
    es = eig(a, policy)
    return _eigenspace_projection(es, policy.kernel(es), a.dim)


def operator_norm(a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Largest absolute eigenvalue."""
    es = eig(a, policy)
    return float(np.max(np.abs(es.eigenvalues)))


def is_psd(a: SymMatrix, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True when the smallest eigenvalue clears -tol_psd."""
    return policy.spectrum_within(eig(a, policy).eigenvalues)
