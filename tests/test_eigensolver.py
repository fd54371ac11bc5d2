"""The Jacobi eigensolver against numpy.linalg.eigh, on both of its sweep
schedules (row-cyclic below n = 6, round-robin from n = 6 up), across the
float range, and under its cache and health contract."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import specord
from specord import substrate
from specord.substrate import (
    DEFAULT_POLICY,
    ConvergenceError,
    SymMatrix,
    TolerancePolicy,
    eig,
    frobenius,
)


def _sym(rng, n):
    x = rng.standard_normal((n, n))
    return (x + x.T) / 2.0


def _rotated(rng, levels):
    q, _ = np.linalg.qr(rng.standard_normal((len(levels), len(levels))))
    return (q * np.asarray(levels, dtype=float)) @ q.T


def _inputs(rng, n):
    """Generic, diagonal with repeated entries (apq == 0 with equal
    diagonals), block-diagonal and few-level inputs of size n."""
    yield _sym(rng, n)
    yield np.diag(rng.integers(0, 3, n).astype(float))
    block = np.zeros((n, n))
    h = n // 2
    block[:h, :h] = _sym(rng, h)
    block[h:, h:] = _sym(rng, n - h)
    yield block
    yield _rotated(rng, rng.choice([0.0, 0.25, 1.0], n))


def _assert_close_to_eigh(a, es):
    ref = np.linalg.eigvalsh(a)
    norm = max(frobenius(a), 1.0)
    assert np.max(np.abs(es.eigenvalues - ref)) <= 1e-12 * norm
    vecs, vals = es.eigenvectors, es.eigenvalues
    tol = DEFAULT_POLICY.tol_recon
    assert frobenius(vecs @ np.diag(vals) @ vecs.T - a) <= tol * (1.0 + np.max(np.abs(vals)))
    assert frobenius(vecs.T @ vecs - np.eye(a.shape[0])) <= tol


@pytest.mark.parametrize("n", [6, 7, 9, 16, 33, 64])
def test_round_path_matches_eigh_and_repeats_bytes(n):
    assert n >= substrate._ROUND_MIN_DIM
    rng = np.random.default_rng(100 + n)
    for a in _inputs(rng, n):
        one = eig(SymMatrix(a.copy()))
        _assert_close_to_eigh(a, one)
        two = eig(SymMatrix(a.copy()))
        assert one.eigenvalues.tobytes() == two.eigenvalues.tobytes()
        assert one.eigenvectors.tobytes() == two.eigenvectors.tobytes()


def test_round_schedule_covers_every_pair_once_in_disjoint_rounds():
    for n in (6, 7, 9, 16):
        rounds = substrate._schedule(n)
        assert len(rounds) == n - 1 + n % 2
        seen = set()
        for p, r, _, _ in rounds:
            assert len(set(p.tolist()) | set(r.tolist())) == 2 * p.size == 2 * (n // 2)
            seen.update(zip(p.tolist(), r.tolist()))
        assert seen == {(i, j) for i in range(n) for j in range(i + 1, n)}


@pytest.mark.parametrize("n", [2, 5, 8, 17])
@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300])
def test_eig_matches_eigh_across_the_float_range(n, scale):
    rng = np.random.default_rng(n)
    a = _sym(rng, n) * scale
    es = eig(SymMatrix(a))
    ref = np.linalg.eigvalsh(a)
    radius = np.max(np.abs(ref))
    assert np.max(np.abs(es.eigenvalues - ref)) <= 1e-12 * radius


@pytest.mark.parametrize("n", [4, 8])
def test_power_of_two_scaling_is_bitwise(n):
    a = SymMatrix(_sym(np.random.default_rng(7), n))
    base = eig(a)
    for j in (600, -600):
        es = eig(SymMatrix(np.ldexp(a.mat, j)))
        assert es.eigenvalues.tobytes() == np.ldexp(base.eigenvalues, j).tobytes()
        assert es.eigenvectors.tobytes() == base.eigenvectors.tobytes()
        assert es.residual == np.ldexp(base.residual, j)


def test_cache_hit_is_validated_under_the_callers_policy(monkeypatch):
    runs = []
    jacobi = substrate._jacobi
    monkeypatch.setattr(substrate, "_jacobi", lambda m: runs.append(1) or jacobi(m))
    a = SymMatrix(_sym(np.random.default_rng(3), 5))
    loose = eig(a, TolerancePolicy(tol_recon=1.0))
    with pytest.raises(ConvergenceError):
        eig(a, TolerancePolicy(tol_recon=0.0))
    with pytest.raises(ConvergenceError):
        eig(SymMatrix(a.mat.copy()), TolerancePolicy(tol_recon=0.0))
    assert eig(a) is loose
    assert len(runs) == 2


@pytest.mark.parametrize("n", [3, 8])
def test_diagonal_input_takes_no_sweeps(n):
    es = eig(SymMatrix(np.diag(np.arange(n, 0, -1.0))))
    assert es.sweeps == 0 and es.residual == 0.0
    assert es.recon == 0.0 and es.orth == 0.0


def test_health_fields_at_n64():
    a = _sym(np.random.default_rng(64), 64)
    es = eig(SymMatrix(a))
    assert es.sweeps > 0
    assert es.residual <= substrate._JACOBI_REL_TOL * frobenius(a)
    assert max(es.recon, es.orth) <= DEFAULT_POLICY.tol_recon


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in str(
        blas.get("openblas configuration", "")
    )


_DIGEST_CHILD = """
import hashlib
import numpy as np
from specord.substrate import SymMatrix, eig
h = hashlib.sha256()
rng = np.random.default_rng(2024)
for n in (8, 64):
    x = rng.standard_normal((n, n))
    es = eig(SymMatrix((x + x.T) / 2.0))
    h.update(es.eigenvalues.tobytes())
    h.update(es.eigenvectors.tobytes())
print(h.hexdigest())
"""


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS")
def test_eig_bytes_do_not_depend_on_the_openblas_kernel():
    src = os.path.dirname(os.path.dirname(specord.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for core in ("Haswell", "SkylakeX", "Nehalem"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": core,
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", _DIGEST_CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def _numpy_cyclic_sweep(m, q):
    """The row-cyclic sweep as whole-column numpy updates: the reference the
    Python-float sweep must match byte for byte."""
    n = m.shape[0]
    for p in range(n - 1):
        for r in range(p + 1, n):
            apq = m[p, r]
            if apq == 0.0:
                continue
            theta = (m[r, r] - m[p, p]) / (2.0 * apq)
            if abs(theta) > 1e154:
                t = 1.0 / (2.0 * theta)
            else:
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            col_p = m[:, p].copy()
            col_r = m[:, r].copy()
            m[:, p] = c * col_p - s * col_r
            m[:, r] = s * col_p + c * col_r
            row_p = m[p, :].copy()
            row_r = m[r, :].copy()
            m[p, :] = c * row_p - s * row_r
            m[r, :] = s * row_p + c * row_r
            m[p, r] = 0.0
            m[r, p] = 0.0
            qp = q[:, p].copy()
            qr = q[:, r].copy()
            q[:, p] = c * qp - s * qr
            q[:, r] = s * qp + c * qr


# frobenius warns where numpy's sum of squares overflows at 2^600, then rescales
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("n", range(2, substrate._ROUND_MIN_DIM))
def test_cyclic_sweep_bytes_match_the_numpy_reference(n, monkeypatch):
    rng = np.random.default_rng(500 + n)
    cases = [a for _ in range(10) for a in _inputs(rng, n)]
    cases += [np.ldexp(a, j) for a in cases[:8] for j in (600, -600)]
    for a in cases:
        d, q, sweeps, off = substrate._jacobi(a)
        with monkeypatch.context() as mp:
            mp.setattr(substrate, "_cyclic_sweep", _numpy_cyclic_sweep)
            ref_d, ref_q, ref_sweeps, ref_off = substrate._jacobi(a)
        assert d.tobytes() == ref_d.tobytes()
        assert q.tobytes() == ref_q.tobytes()
        assert (sweeps, off.hex()) == (ref_sweeps, ref_off.hex())


@pytest.mark.parametrize("n", [4, 8])
def test_sweep_limit_raises_convergence_error(n, monkeypatch):
    # n = 4 runs the row-cyclic sweep, n = 8 the round-robin one
    monkeypatch.setattr(substrate, "_JACOBI_MAX_SWEEPS", 1)
    a = np.ldexp(_sym(np.random.default_rng(n), n), 40)
    k = int(np.frexp(np.max(np.abs(a)))[1])
    with pytest.raises(ConvergenceError) as raw:
        substrate._jacobi(np.ldexp(a, -k))
    assert raw.value.sweeps == 1 and raw.value.residual > 0.0
    with pytest.raises(ConvergenceError) as err:
        eig(SymMatrix(a))
    assert err.value.sweeps == 1
    assert err.value.residual == math.ldexp(raw.value.residual, k)


def test_nan_health_fails_validation():
    a = SymMatrix(np.diag([1.0, 2.0]))
    object.__setattr__(a, "_eig_cache", dataclasses.replace(eig(a), recon=math.nan))
    with pytest.raises(ConvergenceError):
        eig(a)


# SHA-256 of eig's eigenvalues, eigenvectors and sweep count on the inputs
# below, recorded with the round sweep's earlier form, which gathered the
# rotated columns and scattered them back.  The residual is left out: it is
# a Frobenius norm, whose sum numpy hands to the BLAS.
_PINNED_EIG_DIGESTS = {
    6: "f8d7f14d62c6425af2a655f6e7fee339d4d970112c74e8cc4740f39453a2940c",
    7: "9a1df789bd56f778657dae7638212b403fd267d44017d5f28735c3d061916b7c",
    9: "7a4979540e351dcfd7d2951bbb9a1d42f3cb666483952321f9aa76fbc707d0a2",
    16: "4842bf2f42743cefbc9e2c3fb2e2f55a30161f468f42061bc7e07f17f7747f4c",
    33: "d2af69db853932df30552a062b77287dcd3b8ab4de0d02c1f9385c3c9a0b1bda",
    64: "c3eb258072d25c03513f5cf5546d3d8266b9d549a7fd1167d504466a837530bf",
}


def _pinned_inputs(rng, n):
    """Generic, exact zeros, near-diagonal and few-level inputs, built
    with elementwise numpy only."""
    x = rng.standard_normal((n, n))
    s = (x + x.T) / 2.0
    yield s
    z = s.copy()
    z[rng.random((n, n)) < 0.5] = 0.0
    yield (z + z.T) / 2.0
    yield np.diag(rng.standard_normal(n)) + 1e-9 * s
    v = rng.standard_normal(n)
    h = np.eye(n) - 2.0 * np.outer(v, v) / np.sum(v * v)
    levels = rng.choice([0.0, 0.25, 1.0], n)
    yield np.sum((h * levels)[:, :, None] * h[None, :, :], axis=1)


@pytest.mark.parametrize("n", sorted(_PINNED_EIG_DIGESTS))
def test_round_sweep_bytes_are_pinned(n):
    digest = hashlib.sha256()
    for a in _pinned_inputs(np.random.default_rng(2600 + n), n):
        es = eig(SymMatrix(a))
        digest.update(es.eigenvalues.tobytes())
        digest.update(es.eigenvectors.tobytes())
        digest.update(str(es.sweeps).encode())
    assert digest.hexdigest() == _PINNED_EIG_DIGESTS[n]
