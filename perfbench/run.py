"""specord benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload lattice-n64 --seed 1 --seconds 20 --trace 0

One caller runs one op at a time through `specord.cli.main(argv)` in this
process, with stdout captured.  The inputs come from perfbench/inputs.py and
reach the program only as JSON files.  Passes over the workload's op list
repeat until --seconds have gone by (at least three); wall_s sums each op's
median latency over the passes.  After the timed
section every output is checked against numpy.linalg.eigh (oracle.py) and
against the same op's output in the first pass (determinism).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same untimed
checks, then one more pass with spans around every specord layer and prints
the per-layer metrics; the spans and the layer table go to .bench_out/.
The last line of stdout is the JSON result.  specord is imported from the
src/ directory next to perfbench/, and nothing else is read or written
outside this checkout.
"""

from __future__ import annotations

import os

# Single-threaded by construction: fixed before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

import numpy as np  # noqa: E402

from perfbench import inputs, oracle, spans  # noqa: E402

# Performance claims are re-checked on this seed too, besides the seeds they
# were measured on.
RECHECK_SEED = 1709
MIN_PASSES = 3
SETUP_REPS = 7
OP_KINDS = ("verify", "meet", "join", "resolve", "compare_spectral",
            "compare_numerical", "decompose")
# The verification suites and orders, fixed here so that the metric names
# do not follow renames in the program.
SUITES = (
    "substrate", "sa-axioms", "resolution-props", "order-implication",
    "commuting-equivalence", "lattice-laws", "sigma-lattice", "kleene", "bz",
    "demorgan", "dyadic", "modularity",
)
ORDERS = ("numerical", "spectral")

# Imports specord and writes the inputs in a fresh interpreter; prints the
# seconds that took.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import specord.cli
from perfbench import inputs
inputs.generate(sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6])
print(time.perf_counter() - t0)
"""


@dataclass
class Outcome:
    code: int | None
    elapsed: float
    digest: str = ""
    payload: bytes | None = None
    error: str | None = None

    @property
    def ran(self) -> bool:
        return self.error is None and self.code == 0


def read_output(op: inputs.Op, stdout: str) -> bytes:
    """The bytes an op produced: its --out file, the verify report without
    timings, or stdout."""
    if op.kind == "verify":
        reports = json.loads(Path(op.out).read_text())
        for r in reports:
            r.pop("elapsed", None)
        return json.dumps(reports, sort_keys=True).encode()
    if op.out is not None:
        return Path(op.out).read_bytes()
    return stdout.encode()


def run_op(cli, op: inputs.Op, keep: bool) -> Outcome:
    if op.out is not None:
        Path(op.out).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:
        elapsed = time.perf_counter() - t0
        return Outcome(None, elapsed, error=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    if code != 0:
        return Outcome(code, elapsed, error=f"exit {code}: {err.getvalue().strip()[:200]}")
    try:
        payload = read_output(op, out.getvalue())
    except (OSError, ValueError) as exc:
        return Outcome(code, elapsed, error=f"no readable output: {exc}")
    digest = hashlib.sha256(payload).hexdigest()
    return Outcome(code, elapsed, digest, payload if keep else None)


def run_pass(cli, ops, keep: bool, tracer: spans.Tracer | None = None) -> list[Outcome]:
    gc.collect()
    if tracer is None:
        return [run_op(cli, op, keep) for op in ops]
    results = []
    for op in ops:
        with tracer.span(f"bench.op.{op.kind}"):
            results.append(run_op(cli, op, keep))
    return results


def gate(ops, passes) -> list[list[str | None]]:
    """Why each op of each pass failed, or None.  The first pass's outputs
    go to the oracle; every pass must reproduce them byte for byte."""
    ref = passes[0]
    wrong = [oracle.check(op, r.payload) if r.ran else None for op, r in zip(ops, ref)]
    verdicts = []
    for outcomes in passes:
        row = []
        for i, r in enumerate(outcomes):
            if not r.ran:
                row.append(r.error)
            elif wrong[i] is not None:
                row.append(f"output check: {wrong[i]}")
            elif r.digest != ref[i].digest:
                row.append("output differs from the first pass")
            else:
                row.append(None)
        verdicts.append(row)
    return verdicts


def measure_setup(workload, seed, size, run_dir) -> list[float]:
    """Seconds to import specord and write the inputs, in fresh interpreters."""
    times = []
    for k in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(ROOT),
             workload, str(seed), size, str(run_dir / f"setup-{k}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "params": inputs.SIZES[args.size][args.workload],
        "size": args.size,
        "seed": args.seed,
        "recheck_seed": RECHECK_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def op_stats(ops, passes) -> dict[str, float]:
    """Median latency and sample count per op kind, absent kinds as 0."""
    samples = {kind: [] for kind in OP_KINDS}
    for outcomes in passes:
        for op, r in zip(ops, outcomes):
            samples[op.kind].append(r.elapsed * 1e3)
    out = {}
    for kind, xs in samples.items():
        out[f"{kind}_p50_ms"] = statistics.median(xs) if xs else 0.0
        out[f"{kind}_samples"] = len(xs)
    return out


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    table = tracer.table()
    counts = tracer.counts

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def layer_self(layer):
        return sum(row["self_s"] for n, row in table.items()
                   if n.split(".", 1)[0] == layer)

    m: dict[str, float] = {}
    eig_calls, hits = calls("substrate.eig"), counts["substrate.eig.cache_hits"]
    m["substrate.eig.calls"] = eig_calls
    m["substrate.eig.cache_hits"] = hits
    m["substrate.eig.hit_ratio"] = hits / eig_calls if eig_calls else 0.0
    m["substrate.eig.self_s"] = own("substrate.eig")
    misses = eig_calls - hits
    m["substrate.eig.miss_ms"] = own("substrate.eig") * 1e3 / misses if misses else 0.0
    m["substrate.eig.errors"] = counts["substrate.eig.errors"]
    construct = [f"substrate.construct.{c}" for c in ("SymMatrix", "Effect", "Projection")]
    for name in construct:
        m[f"{name}.calls"] = calls(name)
    m["substrate.construct.self_s"] = sum(own(n) for n in construct)
    pos = "substrate.projection_onto_span"
    cols, rank = counts[f"{pos}.columns_in"], counts[f"{pos}.rank_out"]
    m[f"{pos}.calls"] = calls(pos)
    m[f"{pos}.columns_in"] = cols
    m[f"{pos}.rank_out"] = rank
    m[f"{pos}.useful_ratio"] = rank / cols if cols else 0.0
    m[f"{pos}.self_s"] = own(pos)
    for name in ("substrate.cluster_spectrum", "resolution.resolution_of",
                 "resolution.StepResolution", "lattice.family_join",
                 "lattice.family_meet", "spectral.spectral_join",
                 "spectral.spectral_meet", "spectral.spectral_leq",
                 "spectral.family_sup", "spectral.family_inf",
                 "dyadic.dyadic_expand"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
    m["resolution.resolution_of.cache_hits"] = counts["resolution.resolution_of.cache_hits"]
    m["spectral.assert_canonical.calls"] = calls("spectral.assert_canonical")
    m["spectral.assert_canonical.total_s"] = table.get(
        "spectral.assert_canonical", {}).get("total_s", 0.0)
    for layer in ("core", "orders", "generators", "suites", "cli", "matio"):
        m[f"{layer}.self_s"] = layer_self(layer)
    for suite in SUITES:
        for order in ORDERS:
            row = table.get(f"suites.run_suite.{suite}.{order}", {})
            m[f"suites.{suite}.{order}.total_s"] = row.get("total_s", 0.0)
    m["suites.checks.calls"] = calls("suites.check")
    return m


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def run(args) -> dict:
    """Run one workload; returns the result object printed last."""
    if not (SRC / "specord" / "__init__.py").is_file():
        raise FileNotFoundError(f"no specord sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import specord.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"specord imported from {cli.__file__}, not {SRC}")
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = measure_setup(args.workload, args.seed, args.size, run_dir)
        ops = inputs.generate(args.workload, args.seed, args.size, run_dir / "inputs")
        passes = []
        t0 = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
            passes.append(run_pass(cli, ops, keep=not passes))
        walls = [sum(r.elapsed for r in outcomes) for outcomes in passes]
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                traced = run_pass(cli, ops, keep=False, tracer=tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = gate(ops, passes + ([traced] if tracer else []))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(row) for row in verdicts)
    failures = [(ops[i].name, why) for row in verdicts for i, why in enumerate(row) if why]
    # One pass's time as the sum of each op's median over passes, so that a
    # stall in one op of one pass does not move the figure.
    wall_s = sum(statistics.median(r.elapsed for r in col) for col in zip(*passes))
    stats = op_stats(ops, passes)
    for name, why in dict(failures).items():
        print(f"FAILED {name}: {why}")
    print(f"gate failed_frac {len(failures) / attempted:.4f} "
          f"({len(failures)}/{attempted} ops, {len(passes)} passes)")
    print("pass wall_s " + " ".join(f"{w:.4f}" for w in walls))
    for kind in OP_KINDS:
        if stats[f"{kind}_samples"]:
            print(f"op {kind} p50 {stats[f'{kind}_p50_ms']:.2f} ms "
                  f"(n={stats[f'{kind}_samples']})")
    if tracer is None:
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall_s,
                   "peak_rss_mb": peak_rss_mb}
    else:
        traced_wall = sum(r.elapsed for r in traced)
        metrics = layer_metrics(tracer)
        metrics.update(stats)
        metrics["failed_frac"] = len(failures) / attempted
        metrics["trace.overhead_s"] = traced_wall - wall_s
        write_trace(args, tracer, metrics)
    for name, value in metrics.items():
        print(f"metric {name} {value} {unit_of(name)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }


def write_trace(args, tracer: spans.Tracer, metrics: dict) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}"
    np.savez_compressed(f"{stem}-spans.npz", **tracer.arrays())
    table = tracer.table()
    layers = {}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        agg = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
        agg["calls"] += row["calls"]
        agg["self_s"] += row["self_s"]
    Path(f"{stem}-layers.json").write_text(json.dumps(
        {"layers": layers, "spans": table, "counts": dict(tracer.counts),
         "metrics": metrics}, indent=1, sort_keys=True) + "\n")
    rel = stem.relative_to(ROOT)
    print(f"trace {len(tracer.start)} spans -> {rel}-spans.npz, {rel}-layers.json")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="tiny runs each path briefly, for the tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
