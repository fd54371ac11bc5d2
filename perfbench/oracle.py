"""Independent output checks, built on numpy.linalg.eigh.

specord keeps LAPACK out of the library; here it is the reference.  Each
check takes an op and the bytes it produced and returns None when the output
is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json

import numpy as np

# The library's default TolerancePolicy, restated so that no specord code
# decides whether specord's output is right.
TOL_EIG = 1e-9
TOL_PSD = 1e-9
TOL_PROJ = 1e-8
TOL_RECON = 1e-8
# Inclusion slack for lattice bounds: projections from independent
# eigensolvers coincide to ~1e-12 or differ in rank by a whole unit.
TOL_BOUND = 1e-6


def _cut(vals: np.ndarray) -> float:
    return TOL_EIG * max(1.0, float(np.max(np.abs(vals))))


def _clusters(vals: np.ndarray, cut: float) -> list[tuple[int, int]]:
    """Index ranges of consecutive eigenvalues chained within cut."""
    edges = [0] + [i for i in range(1, vals.size) if vals[i] - vals[i - 1] > cut]
    return list(zip(edges, edges[1:] + [vals.size]))


def _cumulative(vals, vecs, lam):
    block = vecs[:, vals <= lam]
    return block @ block.T


def spectral_leq(a: np.ndarray, b: np.ndarray, tol: float = TOL_PROJ) -> bool:
    """a <=s b: b's spectral projection sits inside a's at every level."""
    va, qa = np.linalg.eigh(a)
    vb, qb = np.linalg.eigh(b)
    tie = max(_cut(va), _cut(vb))
    for lam in np.union1d(va, vb):
        pa = _cumulative(va, qa, lam + tie)
        pb = _cumulative(vb, qb, lam + tie)
        if np.linalg.norm(pb - pb @ pa) > tol:
            return False
    return True


def numerical_leq(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.linalg.eigvalsh(b - a)[0] >= -TOL_PSD)


def verdict(a: np.ndarray, b: np.ndarray, order: str) -> str:
    leq = spectral_leq if order == "spectral" else numerical_leq
    if leq(a, b):
        return "leq"
    if leq(b, a):
        return "geq"
    return "incomparable"


def _check_verify(op, payload):
    reports = json.loads(payload)
    if not reports:
        return "no reports"
    failed = [f"{r['suite']}/{r['order']}" for r in reports if not r["passed"]]
    if failed:
        return f"suites failed: {', '.join(failed)}"
    orders = {r["order"] for r in reports}
    if orders != {"numerical", "spectral"}:
        return f"orders run: {sorted(orders)}"
    return None


def _check_resolve(op, payload):
    m = op.check["matrix"]
    n = m.shape[0]
    out = json.loads(payload)
    vals = np.linalg.eigvalsh(m)
    cut = _cut(vals)
    groups = _clusters(vals, cut)
    bps = np.asarray(out["breakpoints"], dtype=float)
    if bps.size != len(groups):
        return f"{bps.size} breakpoints, eigh gives {len(groups)} clusters"
    want = np.array([vals[i:j].mean() for i, j in groups])
    scale = 1.0 + float(np.max(np.abs(vals)))
    if np.max(np.abs(bps - want)) > TOL_RECON * scale:
        return f"breakpoints off by {np.max(np.abs(bps - want)):.3e}"
    projs = [np.asarray(p, dtype=float) for p in out["projections"]]
    ranks = np.rint([np.trace(p) for p in projs]).astype(int)
    if list(ranks) != [j for _, j in groups]:
        return f"cumulative ranks {list(ranks)} do not match eigh"
    total = np.zeros((n, n))
    prev = np.zeros((n, n))
    for value, p in zip(bps, projs):
        total += value * (p - prev)
        prev = p
    err = np.linalg.norm(total - m)
    if err > TOL_RECON * (1.0 + np.linalg.norm(m)) + cut * n:
        return f"reconstruction error {err:.3e}"
    return None


def _check_compare(op, payload):
    got = payload.decode().strip()
    want = verdict(op.check["left"], op.check["right"], op.check["order"])
    return None if got == want else f"verdict {got!r}, eigh says {want!r}"


def _check_decompose(op, payload):
    e = op.check["matrix"]
    n = e.shape[0]
    bits = json.loads(payload)["bits"]
    if len(bits) != op.check["steps"]:
        return f"{len(bits)} bits for {op.check['steps']} steps"
    partial = np.zeros((n, n))
    for j, bit in enumerate(bits, start=1):
        p = np.asarray(bit["projection"], dtype=float)
        if np.linalg.norm(p @ p - p) > TOL_PROJ * n:
            return f"bit {j} is not a projection"
        if np.linalg.norm(p @ e - e @ p) > TOL_PROJ * n:
            return f"bit {j} does not commute with the input"
        partial += 2.0**-j * p
        spec = np.linalg.eigvalsh(e - partial)
        if spec[0] < -TOL_PROJ or spec[-1] > 2.0**-j + TOL_PROJ:
            return f"sandwich 0 <= e - s_{j} <= 2^-{j} broken: [{spec[0]:.3e}, {spec[-1]:.3e}]"
    return None


def _check_lattice(op, payload):
    out = json.loads(payload)
    r = np.asarray(out["entries"], dtype=float)
    a, b = op.check["left"], op.check["right"]
    if r.shape != a.shape:
        return f"result shape {r.shape}"
    spec = np.linalg.eigvalsh(r)
    if spec[0] < -TOL_PSD or spec[-1] > 1.0 + TOL_PSD:
        return f"result spectrum [{spec[0]:.3e}, {spec[-1]:.3e}] leaves [0, 1]"
    if op.check["pair"] == "commuting":
        pick = np.minimum if op.kind == "meet" else np.maximum
        q = op.check["frame"]
        vals = pick(op.check["left_values"], op.check["right_values"])
        err = np.linalg.norm(r - (q * vals) @ q.T)
        if err > TOL_RECON * a.shape[0]:
            return f"differs from pointwise {pick.__name__} by {err:.3e}"
    for operand in (a, b):
        low, high = (r, operand) if op.kind == "meet" else (operand, r)
        if not spectral_leq(low, high, TOL_BOUND):
            return f"{op.kind} does not bound an operand spectrally"
    return None


CHECKS = {
    "verify": _check_verify,
    "resolve": _check_resolve,
    "compare_spectral": _check_compare,
    "compare_numerical": _check_compare,
    "decompose": _check_decompose,
    "meet": _check_lattice,
    "join": _check_lattice,
}


def check(op, payload: bytes) -> str | None:
    """None when the op's output is right, else why it is wrong."""
    try:
        return CHECKS[op.kind](op, payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
