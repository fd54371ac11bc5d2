"""Every tolerance decision goes through TolerancePolicy, and constructors
validate under the policy they are given."""

import ast
from pathlib import Path

import numpy as np
import pytest

import specord
from specord.resolution import StepResolution
from specord.substrate import Effect, Projection, TolerancePolicy

_COMPARE = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


_CUTS = ("eig_cut", "grouping_cut")

# StepResolution's orthonormality test guards derived resolutions, so it
# reads DEFAULT_POLICY by design.
_GUARD_READS = {("StepResolution", "__post_init__")}


def _reads_tolerance(node, tainted) -> bool:
    """Whether node reads a tol_* field, an eig_cut(...) or grouping_cut(...)
    value, or a local name assigned from one."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr.startswith("tol_"):
            return True
        if isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) in _CUTS:
            return True
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
    return False


def _tolerance_comparisons(tree) -> list[int]:
    """Lines outside TolerancePolicy that order-compare a tolerance."""
    policy = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "TolerancePolicy"
        for node in ast.walk(cls)
    }
    lines = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if id(fn) in policy:
            continue
        assigns = [node for node in ast.walk(fn) if isinstance(node, ast.Assign)]
        tainted: set[str] = set()
        grew = True
        while grew:
            grew = False
            for node in assigns:
                if _reads_tolerance(node.value, tainted):
                    names = {
                        n.id
                        for target in node.targets
                        for n in ast.walk(target)
                        if isinstance(n, ast.Name)
                    }
                    grew |= not names <= tainted
                    tainted |= names
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, _COMPARE) for op in node.ops
            ):
                if _reads_tolerance(node, tainted):
                    lines.append(node.lineno)
    return sorted(set(lines))


def _default_policy_reads(tree) -> list[int]:
    """Lines that read DEFAULT_POLICY other than as a default argument value
    (a function default or an InitVar field's default) or in a guard listed
    in _GUARD_READS."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if (cls.name, getattr(fn, "name", None)) in _GUARD_READS:
                    allowed.update(id(node) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            allowed.update(id(d) for d in node.args.defaults + node.args.kw_defaults)
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.annotation, ast.Subscript)
            and getattr(node.annotation.value, "id", None) == "InitVar"
        ):
            allowed.add(id(node.value))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id == "DEFAULT_POLICY"
        and isinstance(node.ctx, ast.Load)
        and id(node) not in allowed
    ]


def test_scanner_flags_what_it_should():
    tree = ast.parse(
        "def f(x, policy=DEFAULT_POLICY):\n"
        "    cut = policy.eig_cut(1.0)\n"
        "    a = x > policy.tol_psd\n"
        "    b = x <= cut\n"
        "    c = x == cut\n"
        "    d = [v for v in x if v > policy.grouping_cut(es)]\n"
        "    return DEFAULT_POLICY.tol_proj\n"
        "class TolerancePolicy:\n"
        "    def ok(self, x):\n"
        "        return x > self.tol_psd\n"
        "class M:\n"
        "    policy: InitVar[TolerancePolicy] = DEFAULT_POLICY\n"
        "class StepResolution:\n"
        "    def __post_init__(self):\n"
        "        DEFAULT_POLICY.within(p, q)\n"
        "    def at(self, lam):\n"
        "        return DEFAULT_POLICY\n"
    )
    assert _tolerance_comparisons(tree) == [3, 4, 6]
    assert _default_policy_reads(tree) == [7, 17]


def test_every_tolerance_decision_is_a_policy_method():
    bad = []
    for path in sorted(Path(specord.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for n in _tolerance_comparisons(tree):
            bad.append(f"{path.name}:{n} compares a tolerance")
        for n in _default_policy_reads(tree):
            bad.append(f"{path.name}:{n} reads DEFAULT_POLICY")
    assert bad == []


def test_effect_validates_under_its_policy():
    mat = np.diag([0.0, 1.0 + 5e-9])
    with pytest.raises(ValueError, match="not an effect"):
        Effect(mat)
    assert Effect(mat, TolerancePolicy(tol_psd=1e-8)).dim == 2
    with pytest.raises(ValueError, match="not an effect"):
        Effect(np.diag([-1e-10, 0.5]), TolerancePolicy(tol_psd=0.0))


def test_projection_validates_under_its_policy():
    nearly = np.diag([1.0 + 1e-7, 0.0])
    with pytest.raises(ValueError, match="not idempotent"):
        Projection(nearly)
    assert Projection(nearly, TolerancePolicy(tol_proj=1e-6)).rank == 1
    with pytest.raises(ValueError, match="not idempotent"):
        Projection(np.diag([1.0 + 1e-12, 0.0]), TolerancePolicy(tol_proj=0.0))


def test_validating_policy_is_not_stored():
    loose = TolerancePolicy(tol_psd=1e-8)
    assert not hasattr(Effect(np.eye(2), loose), "policy")
    assert not hasattr(Projection(np.eye(2)), "policy")


def test_step_resolution_guards_at_the_default_tolerance():
    # the frame is orthonormal to 1e-7 here, outside 1e-8 * n, and to 1e-9
    # in the accepted case, inside it
    def frame(eps):
        return np.array([[1.0, eps], [0.0, 1.0]])

    with pytest.raises(ValueError, match="orthonormal"):
        StepResolution((0.0, 1.0), frame(1e-7), (1, 2))
    assert StepResolution((0.0, 1.0), frame(1e-9), (1, 2)).dim == 2
    with pytest.raises(ValueError, match="ranks"):
        StepResolution((0.0,), frame(1e-9), (1,))
