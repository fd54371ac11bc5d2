"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, run, spans

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace=0, seed=3):
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace), "--size", "tiny"])
    return run.run(args)


def specord_bindings() -> dict:
    """id of every object bound in a specord namespace, the check registry
    and the wrapped class attributes."""
    import specord.resolution
    import specord.substrate
    import specord.suites

    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "specord" or name.startswith("specord."):
            for attr, val in vars(mod).items():
                seen[(name, attr)] = id(val)
    for key, fn in specord.suites.CHECKS.items():
        seen[("CHECKS", key)] = id(fn)
    sub = specord.substrate
    for cls in (sub.SymMatrix, sub.Effect, sub.Projection,
                specord.resolution.StepResolution):
        for attr, val in vars(cls).items():
            seen[(cls.__name__, attr)] = id(val)
    return seen


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_every_workload_is_declared():
    assert [w["name"] for w in BENCH["workloads"]] == list(inputs.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric():
    notes = json.loads((ROOT / "perfbench" / "expectations.json").read_text())
    names = {m["name"] for m in BENCH["per_layer"]}
    assert set(notes["layer_map"]) == names
    e2e = {m["name"] for m in BENCH["end_to_end"]} | names
    for moves in notes["layer_map"].values():
        assert moves and all(m["metric"] in e2e and m["workload"] in inputs.WORKLOADS
                             for m in moves)
    assert notes["recheck_seed"] == run.RECHECK_SEED


def test_traced_run_restores_every_binding():
    import specord.lattice
    import specord.spectral
    import specord.substrate

    family_join = specord.lattice.family_join
    eig = specord.substrate.eig
    before = specord_bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        assert specord.spectral.family_join is not family_join
        assert specord.substrate.eig is not eig
        assert specord.spectral.family_join.__wrapped__ is family_join
    assert bench("lattice-n64", trace=1)["correct"]
    after = specord_bindings()
    assert {k: after.get(k) for k in before} == before
    assert specord.spectral.family_join is family_join
    assert specord.substrate.eig is eig


@pytest.mark.parametrize("workload", ["lattice-n64", "spectrum-n64"])
def test_self_times_of_an_op_sum_to_its_root_span(workload, tmp_path):
    import specord.cli as cli

    ops = inputs.generate(workload, 5, "tiny", tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        outcomes = run.run_pass(cli, ops, keep=False, tracer=tracer)
    assert all(r.ran for r in outcomes)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    start = np.frombuffer(tracer.start)
    end = np.frombuffer(tracer.end)
    own = tracer.self_times()
    roots = list(np.flatnonzero(parent == -1)) + [parent.size]
    assert len(roots) - 1 == len(ops)
    resolution = time.get_clock_info("perf_counter").resolution
    for lo, hi in zip(roots, roots[1:]):
        assert hi - lo > 2
        assert abs(own[lo:hi].sum() - (end[lo] - start[lo])) <= max(resolution, 1e-12)
        assert np.all(own[lo:hi] >= -resolution)


def _scale_entries(payload: bytes) -> bytes:
    obj = json.loads(payload)
    obj["entries"] = (0.5 * np.asarray(obj["entries"])).tolist()
    return json.dumps(obj).encode()


def _shift_breakpoint(payload: bytes) -> bytes:
    obj = json.loads(payload)
    obj["breakpoints"][0] += 0.01
    return json.dumps(obj).encode()


def _drop_bit(payload: bytes) -> bytes:
    obj = json.loads(payload)
    p = obj["bits"][0]["projection"]
    obj["bits"][0]["projection"] = np.zeros_like(np.asarray(p)).tolist()
    return json.dumps(obj).encode()


def _flip_verdict(payload: bytes) -> bytes:
    flips = {"leq": "geq", "geq": "incomparable", "incomparable": "leq"}
    return (flips[payload.decode().strip()] + "\n").encode()


def _fail_report(payload: bytes) -> bytes:
    reports = json.loads(payload)
    reports[0]["passed"] = False
    return json.dumps(reports).encode()


@pytest.mark.parametrize("workload, op_name, corrupt", [
    ("lattice-n64", "meet/commuting", _scale_entries),
    ("lattice-n64", "join/generic", _scale_entries),
    ("spectrum-n64", "resolve/generic-0", _shift_breakpoint),
    ("spectrum-n64", "decompose/few-level-1", _drop_bit),
    ("spectrum-n64", "compare_spectral/commuting-0", _flip_verdict),
    ("spectrum-n64", "compare_numerical/ordered-1", _flip_verdict),
    ("verify-dim4", "verify", _fail_report),
])
def test_output_gate_fails_a_corrupted_output(monkeypatch, capsys, tmp_path,
                                              workload, op_name, corrupt):
    original = run.read_output

    def corrupted(op, stdout):
        payload = original(op, stdout)
        return corrupt(payload) if op.name == op_name else payload

    monkeypatch.setattr(run, "read_output", corrupted)
    result = bench(workload)
    assert not result["correct"]
    passes = result["attempted"] // len(inputs.generate(workload, 3, "tiny", tmp_path))
    assert result["failed"] == passes
    assert f"FAILED {op_name}: output check" in capsys.readouterr().out


def test_determinism_gate_fails_an_output_that_changes(monkeypatch, capsys):
    original = run.read_output
    calls = []

    def drifting(op, stdout):
        payload = original(op, stdout)
        if op.name == "join/few-level":
            calls.append(op.name)
            if len(calls) == 2:
                return payload + b" "
        return payload

    monkeypatch.setattr(run, "read_output", drifting)
    result = bench("lattice-n64")
    assert not result["correct"] and result["failed"] == 1
    assert "FAILED join/few-level: output differs from the first pass" in capsys.readouterr().out


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in ("lattice-n64", "spectrum-n64"):
        inputs.generate(workload, 11, "tiny", tmp_path / "a")
        inputs.generate(workload, 11, "tiny", tmp_path / "b")
        inputs.generate(workload, 12, "tiny", tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum-n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
