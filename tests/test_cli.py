import json

import numpy as np
import pytest

from specord.cli import main
from specord.matio import load_matrix, save_matrix
from specord.substrate import SymMatrix


def write(tmp_path, name, mat):
    path = tmp_path / name
    save_matrix(SymMatrix(np.asarray(mat, dtype=float)), path)
    return str(path)


@pytest.fixture
def diag_pair(tmp_path):
    a = write(tmp_path, "a.json", np.diag([0.2, 0.6]))
    b = write(tmp_path, "b.json", np.diag([0.4, 0.9]))
    return a, b


def test_resolve_prints_json(tmp_path, capsys):
    path = write(tmp_path, "m.json", np.diag([1.0, 3.0]))
    assert main(["resolve", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 2
    assert payload["lower"] == 1.0 and payload["upper"] == 3.0
    assert payload["breakpoints"] == [1.0, 3.0]
    assert payload["projections"][1] == [[1.0, 0.0], [0.0, 1.0]]


def test_resolve_out_file(tmp_path, capsys):
    path = write(tmp_path, "m.json", np.diag([2.0, 2.0]))
    out = tmp_path / "res.json"
    assert main(["resolve", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["breakpoints"] == [2.0]


def test_compare_tokens(diag_pair, capsys):
    a, b = diag_pair
    assert main(["compare", a, b]) == 0
    assert capsys.readouterr().out.strip() == "leq"
    assert main(["compare", b, a]) == 0
    assert capsys.readouterr().out.strip() == "geq"
    assert main(["compare", a, a, "--order", "numerical"]) == 0
    assert capsys.readouterr().out.strip() == "leq"


def test_compare_incomparable(tmp_path, capsys):
    a = write(tmp_path, "a.json", np.diag([1.0, 0.0]))
    b = write(tmp_path, "b.json", np.diag([0.0, 1.0]))
    assert main(["compare", a, b]) == 0
    assert capsys.readouterr().out.strip() == "incomparable"


def test_compare_spectral_vs_numerical_divergence(tmp_path, capsys):
    # numerically ordered but spectrally incomparable witness
    a = write(tmp_path, "a.json", np.diag([1.0, 0.0]))
    b = write(tmp_path, "b.json", [[1.5, 0.5], [0.5, 0.5]])
    assert main(["compare", a, b, "--order", "numerical"]) == 0
    assert capsys.readouterr().out.strip() == "leq"
    assert main(["compare", a, b, "--order", "spectral"]) == 0
    assert capsys.readouterr().out.strip() == "incomparable"


def test_meet_join_roundtrip(diag_pair, tmp_path, capsys):
    a, b = diag_pair
    out = tmp_path / "m.json"
    assert main(["meet", a, b, "--out", str(out)]) == 0
    m, _ = load_matrix(out)
    assert np.allclose(m.mat, np.diag([0.2, 0.6]), atol=1e-9)
    assert main(["join", a, b]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 2
    assert np.allclose(payload["entries"], np.diag([0.4, 0.9]), atol=1e-9)


def test_meet_rejects_non_effect(tmp_path, capsys):
    a = write(tmp_path, "a.json", np.diag([2.0, 0.0]))
    b = write(tmp_path, "b.json", np.diag([0.5, 0.5]))
    assert main(["meet", a, b]) == 2
    assert "error:" in capsys.readouterr().err


def test_decompose(tmp_path, capsys):
    path = write(tmp_path, "e.json", np.diag([0.75, 0.0]))
    assert main(["decompose", path, "--steps", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["steps"] == 8
    assert [b["rank"] for b in payload["bits"]][:3] == [1, 0, 1]
    assert payload["bits"][0]["weight"] == 0.5
    assert payload["residual_norm"] <= 2.0**-8 + 1e-12


def test_missing_file_is_exit_2(capsys):
    assert main(["resolve", "/nonexistent/m.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["resolve", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_asymmetric_input_notes_on_stderr(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[0.0, 1.0], [0.0, 0.0]]}))
    assert main(["resolve", str(path)]) == 0
    err = capsys.readouterr().err
    assert "symmetrized" in err


def test_verify_single_suite_pass(capsys):
    code = main(["verify", "--suite", "kleene", "--dim", "3", "--trials", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kleene" in out and "PASS" in out
    assert "order=spectral" in out


def test_verify_both_orders_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--suite",
            "substrate",
            "--suite",
            "dyadic",
            "--dim",
            "3",
            "--trials",
            "3",
            "--order",
            "both",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 4  # two suites x two orders
    payload = json.loads(report.read_text())
    assert [r["suite"] for r in payload] == [
        "substrate",
        "substrate",
        "dyadic",
        "dyadic",
    ]
    assert all(r["passed"] for r in payload)


def test_verify_reports_violations_with_exit_1(capsys):
    # an impossibly tight policy turns numerical noise into violations
    code = main(
        [
            "--tol-proj",
            "1e-18",
            "--tol-psd",
            "1e-18",
            "--tol-eig",
            "1e-18",
            "verify",
            "--suite",
            "substrate",
            "--dim",
            "3",
            "--trials",
            "2",
        ]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["compare", "only-one-path"])
    assert exc.value.code == 2


def test_tolerance_flags_feed_policy(tmp_path, capsys):
    # with a huge tol-proj every comparison collapses to leq
    a = write(tmp_path, "a.json", np.diag([1.0, 0.0]))
    b = write(tmp_path, "b.json", np.diag([0.0, 1.0]))
    assert main(["--tol-proj", "10.0", "compare", a, b]) == 0
    assert capsys.readouterr().out.strip() == "leq"


def test_module_entrypoint():
    import os
    import subprocess
    import sys

    import specord

    # the child imports the same specord as this process
    src = os.path.dirname(os.path.dirname(specord.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "specord", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "resolve" in proc.stdout and "verify" in proc.stdout


@pytest.mark.parametrize(
    "flag, value", [("--tol-eig", "nan"), ("--tol-psd", "inf"), ("--tol-proj", "-5")]
)
def test_invalid_tolerance_is_exit_2(tmp_path, capsys, flag, value):
    path = write(tmp_path, "e.json", np.diag([0.25, 0.75]))
    assert main([flag, value, "resolve", path]) == 2
    assert main([flag, value, "compare", path, path, "--order", "numerical"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite and nonnegative" in captured.err


def test_verify_both_runs_order_free_suites_once(tmp_path, monkeypatch, capsys):
    import specord.cli
    from specord.suites import SUITE_NAMES

    calls = []
    real = specord.cli.run_suite

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr("specord.cli.run_suite", counting)
    report = tmp_path / "report.json"
    argv = ["verify", "--order", "both", "--dim", "3", "--trials", "2"]
    assert main(argv + ["--report", str(report)]) == 0
    capsys.readouterr()
    # ten order-free suites once, kleene and bz once per order
    assert len(calls) == 14
    assert sorted(n for n in SUITE_NAMES if calls.count(n) == 2) == ["bz", "kleene"]
    payload = json.loads(report.read_text())
    assert [(r["suite"], r["order"]) for r in payload] == [
        (name, order) for name in SUITE_NAMES for order in ("numerical", "spectral")
    ]
    for numerical, spectral in zip(payload[::2], payload[1::2]):
        if numerical["suite"] in ("kleene", "bz"):
            continue
        for r in (numerical, spectral):
            r.pop("order")
            r.pop("elapsed")
        assert json.dumps(numerical, sort_keys=True) == json.dumps(
            spectral, sort_keys=True
        )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "obj, message",
    [
        ({"dim": 0, "entries": []}, "dim must be at least 1"),
        ({"dim": 2, "entries": [[1e308, 1e308], [1e308, 1e308]]}, "must be finite"),
    ],
)
def test_empty_and_overflowing_inputs_are_exit_2(tmp_path, capsys, obj, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    assert main(["resolve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_tight_modularity_reports_a_law_failure(capsys):
    # at this policy rounding fails the modular law: a law result, exit 1, not a usage error
    argv = ["--tol-proj", "1e-18", "verify", "--suite", "modularity", "--dim", "3", "--trials", "3"]
    assert main(argv) == 1
    assert "FAIL" in capsys.readouterr().out


def test_overflow_on_load_prints_only_the_error(tmp_path):
    import os
    import subprocess
    import sys

    import specord

    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[1e308, 1e308], [1e308, 1e308]]}))
    src = os.path.dirname(os.path.dirname(specord.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "specord", "resolve", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: matrix entries and their symmetric part must be finite\n"
    )


def test_tol_psd_decides_whether_an_effect_loads(tmp_path, capsys):
    # spectrum [0, 1 + 5e-9]: outside [0, 1] at the default tol_psd of 1e-9
    loose = write(tmp_path, "e.json", np.diag([0.0, 1.0 + 5e-9]))
    other = write(tmp_path, "f.json", np.diag([0.5, 0.25]))
    assert main(["meet", loose, other]) == 2
    assert "not an effect" in capsys.readouterr().err
    assert main(["--tol-psd", "1e-8", "meet", loose, other]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 2


def _effect_matrix(rng, n):
    x = rng.standard_normal((n, n))
    m = (x + x.T) / 2.0
    vals = np.linalg.eigvalsh(m)
    return (m - vals[0] * np.eye(n)) / (vals[-1] - vals[0])


def test_jacobi_runs_per_cli_op(tmp_path, capsys, monkeypatch):
    # The spectral sup/inf is certified from its own block, not decomposed
    # again, and one decomposition of b - a decides both numerical verdicts.
    from specord import substrate

    rng = np.random.default_rng(88)
    a = write(tmp_path, "a.json", _effect_matrix(rng, 8))
    b = write(tmp_path, "b.json", _effect_matrix(rng, 8))
    runs = []
    jacobi = substrate._jacobi
    monkeypatch.setattr(substrate, "_jacobi", lambda m: runs.append(1) or jacobi(m))
    expected = {
        ("resolve", a): 1,
        ("compare", a, b): 2,
        ("compare", a, b, "--order", "numerical"): 1,
        ("meet", a, b): 2,
        ("join", a, b): 2,
        ("decompose", a): 1,
    }
    for argv, count in expected.items():
        runs.clear()
        assert main(list(argv)) == 0
        assert len(runs) == count, argv
    capsys.readouterr()


@pytest.mark.parametrize("n", [4, 16, 64])
def test_decompose_residual_norm_is_the_operator_norm(n, tmp_path, capsys):
    e = _effect_matrix(np.random.default_rng(n), n)
    path = write(tmp_path, "e.json", e)
    assert main(["decompose", path, "--steps", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    partial = sum(bit["weight"] * np.asarray(bit["projection"]) for bit in payload["bits"])
    e = load_matrix(path)[0].mat
    ref = np.linalg.norm(e - partial, 2)
    assert abs(payload["residual_norm"] - ref) <= 1e-12
    assert payload["residual_norm"] <= 2.0**-12 + 1e-12


# SHA-256 of the verify report (--order both --dim 4 --trials 20) with each
# suite's elapsed time dropped, recorded before resolutions were stored as
# frames.  The report holds verdicts, notes and failing witnesses only, so
# its bytes do not depend on the BLAS kernel.
_REPORT_DIGESTS = {
    1: "92af033d2fa68903087658df4d25286b347abe45b6c555247afa6eaa517689f0",
    1709: "9af999b1655a746134f71be2e8ce738632e46c99247ae244077b6c676ade456d",
}


@pytest.mark.parametrize("seed", sorted(_REPORT_DIGESTS))
def test_verify_report_bytes_are_pinned(seed, tmp_path, capsys):
    import hashlib

    path = tmp_path / "report.json"
    argv = ["verify", "--order", "both", "--dim", "4", "--trials", "20"]
    assert main([*argv, "--seed", str(seed), "--report", str(path)]) == 0
    reports = json.loads(path.read_text())
    for report in reports:
        del report["elapsed"]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == _REPORT_DIGESTS[seed]
