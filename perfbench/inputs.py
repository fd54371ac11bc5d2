"""Workload inputs, made from the seed with numpy alone.

Nothing here imports specord: the matrices reach the program only as JSON
files, so a change to `specord.generators` cannot change what is measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Workload parameters.  "tiny" runs every code path in a second or two and
# exists for the benchmark's own tests.
SIZES = {
    "full": {
        "verify-dim4": {"dim": 4, "trials": 20},
        "lattice-n64": {"dim": 64},
        "spectrum-n64": {"dim": 64, "steps": 16, "copies": 2},
    },
    "tiny": {
        "verify-dim4": {"dim": 2, "trials": 2},
        "lattice-n64": {"dim": 6},
        "spectrum-n64": {"dim": 6, "steps": 4, "copies": 2},
    },
}
WORKLOADS = tuple(SIZES["full"])

# Distinct eigenvalues of a few-level spectrum: short merged grids and
# repeated eigenvalues, next to the generic spectra's long grids.
_LEVELS = 6


@dataclass(frozen=True)
class Op:
    """One CLI invocation, repeated identically in every pass."""

    name: str
    kind: str
    argv: tuple[str, ...]
    out: str | None = None
    check: dict = field(default_factory=dict, compare=False)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _frame(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _sym(q: np.ndarray, vals: np.ndarray) -> np.ndarray:
    m = (q * vals) @ q.T
    return (m + m.T) / 2.0


def _generic_values(rng, n):
    return rng.uniform(0.02, 0.98, n)


def _few_level_values(rng, n):
    levels = np.linspace(0.1, 0.9, _LEVELS) + rng.uniform(-0.03, 0.03, _LEVELS)
    return levels[rng.permutation(np.arange(n) % _LEVELS)]


def _write(path: Path, mat: np.ndarray) -> str:
    n = mat.shape[0]
    path.write_text(json.dumps({"dim": n, "entries": mat.tolist()}) + "\n")
    return str(path)


def _verify_ops(seed, params, run_dir):
    report = str(run_dir / "report.json")
    argv = (
        "verify", "--order", "both",
        "--dim", str(params["dim"]), "--trials", str(params["trials"]),
        "--seed", str(seed), "--report", report,
    )
    return [Op("verify", "verify", argv, report)]


def _lattice_ops(seed, params, run_dir):
    """meet and join on one pair of each spectrum kind."""
    n = params["dim"]
    ops = []
    for stream, kind in enumerate(("generic", "few-level", "commuting")):
        rng = _rng(seed, 100 + stream)
        check = {"pair": kind}
        if kind == "commuting":
            q = _frame(rng, n)
            va, vb = _generic_values(rng, n), _generic_values(rng, n)
            a, b = _sym(q, va), _sym(q, vb)
            check.update(frame=q, left_values=va, right_values=vb)
        else:
            draw = _generic_values if kind == "generic" else _few_level_values
            a = _sym(_frame(rng, n), draw(rng, n))
            b = _sym(_frame(rng, n), draw(rng, n))
        left = _write(run_dir / f"{kind}-a.json", a)
        right = _write(run_dir / f"{kind}-b.json", b)
        check.update(left=a, right=b)
        for op in ("meet", "join"):
            out = str(run_dir / f"{op}-{kind}.out.json")
            ops.append(Op(f"{op}/{kind}", op, (op, left, right, "--out", out), out, check))
    return ops


def _spectrum_ops(seed, params, run_dir):
    """resolve and decompose on single effects, compare on three kinds of
    pair.  Several draws of each average out how Jacobi's sweep count
    varies from one input to the next."""
    n = params["dim"]
    effects, pairs = {}, {}
    for copy in range(params["copies"]):
        rng = _rng(seed, 200 + copy)
        effects[f"generic-{copy}"] = _sym(_frame(rng, n), _generic_values(rng, n))
        effects[f"few-level-{copy}"] = _sym(_frame(rng, n), _few_level_values(rng, n))
        q = _frame(rng, n)
        low = rng.uniform(0.02, 0.75, n)
        pairs[f"commuting-{copy}"] = (_sym(q, low), _sym(q, low + rng.uniform(0.02, 0.2, n)))
        base = _sym(_frame(rng, n), _generic_values(rng, n))
        bump = _sym(_frame(rng, n), rng.uniform(0.05, 0.3, n))
        # b = a + (positive definite): numerically ordered, spectrally not;
        # passed reversed so the numerical verdict is "geq".
        pairs[f"ordered-{copy}"] = (base + bump, base)
        pairs[f"generic-{copy}"] = tuple(
            _sym(_frame(rng, n), _generic_values(rng, n)) for _ in range(2))
    paths = {kind: _write(run_dir / f"{kind}-e.json", e) for kind, e in effects.items()}
    ops = []
    for kind, e in effects.items():
        out = str(run_dir / f"resolve-{kind}.out.json")
        ops.append(Op(f"resolve/{kind}", "resolve", ("resolve", paths[kind], "--out", out),
                      out, {"matrix": e}))
    for kind, (a, b) in pairs.items():
        left = _write(run_dir / f"{kind}-l.json", a)
        right = _write(run_dir / f"{kind}-r.json", b)
        for order in ("spectral", "numerical"):
            ops.append(Op(f"compare_{order}/{kind}", f"compare_{order}",
                          ("compare", left, right, "--order", order), None,
                          {"left": a, "right": b, "order": order}))
    steps = params["steps"]
    for kind, e in effects.items():
        out = str(run_dir / f"decompose-{kind}.out.json")
        ops.append(Op(f"decompose/{kind}", "decompose",
                      ("decompose", paths[kind], "--steps", str(steps), "--out", out),
                      out, {"matrix": e, "steps": steps}))
    return ops


_BUILDERS = {
    "verify-dim4": _verify_ops,
    "lattice-n64": _lattice_ops,
    "spectrum-n64": _spectrum_ops,
}


def generate(workload: str, seed: int, size: str, run_dir) -> list[Op]:
    """Write the workload's input files into run_dir and return its ops in
    pass order.  The same (workload, seed, size) writes the same bytes."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, SIZES[size][workload], run_dir)
