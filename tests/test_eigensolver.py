"""The Jacobi eigensolver against numpy.linalg.eigh, on both of its sweep
schedules (row-cyclic below n = 6, round-robin from n = 6 up), across the
float range, and under its cache and health contract."""

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
