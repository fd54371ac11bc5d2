"""Command-line interface.

Subcommands:
  resolve     print the step resolution of a symmetric matrix
  compare     order two matrices (numerical or spectral)
  meet, join  spectral lattice operations on effects
  decompose   dyadic projection expansion of an effect
  verify      run named verification suites

Exit codes: 0 success, 1 violations or computational failures detected,
2 usage or input-format errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .dyadic import dyadic_expand
from .matio import load_matrix, matrix_to_dict, save_matrix
from .orders import OrderTag, leq
from .report import VerificationReport
from .resolution import resolution_of
from .spectral import spectral_join, spectral_meet
from .substrate import DEFAULT_POLICY, Effect, SymMatrix, TolerancePolicy
from .suites import SUITE_NAMES, reads_order, run_suite

__all__ = ["main", "build_parser"]

_ASYM_WARN = 1e-12


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specord",
        description="Spectral-order toolkit for real symmetric matrices.",
    )
    parser.add_argument("--tol-eig", type=float, default=None, metavar="T")
    parser.add_argument("--tol-psd", type=float, default=None, metavar="T")
    parser.add_argument("--tol-proj", type=float, default=None, metavar="T")
    sub = parser.add_subparsers(dest="command", required=True)

    p_resolve = sub.add_parser("resolve", help="step resolution of a matrix")
    p_resolve.add_argument("matrix")
    p_resolve.add_argument("--out", default=None)

    p_compare = sub.add_parser("compare", help="order two matrices")
    p_compare.add_argument("left")
    p_compare.add_argument("right")
    p_compare.add_argument(
        "--order", choices=["numerical", "spectral"], default="spectral"
    )

    for name in ("meet", "join"):
        p_op = sub.add_parser(name, help=f"spectral {name} of two effects")
        p_op.add_argument("left")
        p_op.add_argument("right")
        p_op.add_argument("--order", choices=["spectral"], default="spectral")
        p_op.add_argument("--out", default=None)

    p_dec = sub.add_parser("decompose", help="dyadic expansion of an effect")
    p_dec.add_argument("matrix")
    p_dec.add_argument("--steps", type=int, default=16)
    p_dec.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument(
        "--suite",
        action="append",
        choices=list(SUITE_NAMES) + ["all"],
        default=None,
        help="suite name; repeatable; defaults to all",
    )
    p_ver.add_argument("--dim", type=int, default=4)
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--order", choices=["numerical", "spectral", "both"], default="spectral"
    )
    p_ver.add_argument("--report", default=None, help="write JSON reports here")
    return parser


def _policy_from(args) -> TolerancePolicy:
    kwargs = {}
    if args.tol_eig is not None:
        kwargs["tol_eig"] = args.tol_eig
    if args.tol_psd is not None:
        kwargs["tol_psd"] = args.tol_psd
    if args.tol_proj is not None:
        kwargs["tol_proj"] = args.tol_proj
    return TolerancePolicy(**kwargs) if kwargs else DEFAULT_POLICY


def _load(path: str) -> SymMatrix:
    a, asym = load_matrix(path)
    if asym > _ASYM_WARN:
        print(
            f"note: {path} was not exactly symmetric "
            f"(asymmetry {asym:.3e}); symmetrized",
            file=sys.stderr,
        )
    return a


def _load_effect(path: str) -> Effect:
    return Effect(_load(path).mat)


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _cmd_resolve(args, policy) -> int:
    a = _load(args.matrix)
    res = resolution_of(a, policy)
    payload = {
        "dim": res.dim,
        "lower": res.lower,
        "upper": res.upper,
        "tie_tol": res.tie_tol,
        "breakpoints": list(res.breakpoints),
        "projections": [p.mat.tolist() for p in res.projections],
    }
    _emit(payload, args.out)
    return 0


def _cmd_compare(args, policy) -> int:
    a = _load(args.left)
    b = _load(args.right)
    order = OrderTag(args.order)
    forward = leq(a, b, order, policy)
    backward = leq(b, a, order, policy)
    if forward:
        print("leq")
    elif backward:
        print("geq")
    else:
        print("incomparable")
    return 0


def _cmd_meet_join(args, policy, op) -> int:
    a = _load_effect(args.left)
    b = _load_effect(args.right)
    result = op(a, b, policy)
    if args.out is None:
        _emit(matrix_to_dict(result), None)
    else:
        save_matrix(result, args.out)
    return 0


def _cmd_decompose(args, policy) -> int:
    e = _load_effect(args.matrix)
    bits = dyadic_expand(e, args.steps, policy)
    partial = np.zeros((e.dim, e.dim))
    payload = {"dim": e.dim, "steps": args.steps, "bits": []}
    for n, p in enumerate(bits, start=1):
        partial = partial + (2.0**-n) * p.mat
        payload["bits"].append(
            {
                "index": n,
                "weight": 2.0**-n,
                "rank": p.rank,
                "projection": p.mat.tolist(),
            }
        )
    payload["residual_norm"] = float(np.linalg.norm(e.mat - partial, 2))
    _emit(payload, args.out)
    return 0


def _cmd_verify(args, policy) -> int:
    chosen = args.suite or ["all"]
    if "all" in chosen:
        names = list(SUITE_NAMES)
    else:
        names = list(dict.fromkeys(chosen))
    orders = (
        [OrderTag.NUMERICAL, OrderTag.SPECTRAL]
        if args.order == "both"
        else [OrderTag(args.order)]
    )
    reports: list[VerificationReport] = []
    for name in names:
        rep = None
        for order in orders:
            if rep is None or reads_order(name):
                rep = run_suite(name, args.dim, args.trials, args.seed, order, policy)
            else:
                # an order-free suite runs once; its report stands for each order
                rep = dataclasses.replace(rep, order=order.value)
            reports.append(rep)
            status = "PASS" if rep.passed else f"FAIL ({len(rep.failures)})"
            print(
                f"{rep.suite:22s} order={rep.order:9s} dim={rep.dim} "
                f"trials={rep.trials} seed={rep.seed} "
                f"elapsed={rep.elapsed:.2f}s {status}"
            )
    if args.report is not None:
        with open(args.report, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        policy = _policy_from(args)
        if args.command == "resolve":
            return _cmd_resolve(args, policy)
        if args.command == "compare":
            return _cmd_compare(args, policy)
        if args.command == "meet":
            return _cmd_meet_join(args, policy, spectral_meet)
        if args.command == "join":
            return _cmd_meet_join(args, policy, spectral_join)
        if args.command == "decompose":
            return _cmd_decompose(args, policy)
        if args.command == "verify":
            return _cmd_verify(args, policy)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"computational failure: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
