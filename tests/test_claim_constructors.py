"""Every claim is made by ``report.check``, ``report.identity`` or
``report.asserted``, so one rule turns a verdict and a note into a status:
``report`` defines no other claim constructor, and no other ``src/`` module
builds a ``Claim`` itself, except the functions listed with their reasons."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "liecenter"

CONSTRUCTORS = {"check", "identity", "asserted"}

# (module, function) -> why its one claim is built as ``Claim`` directly
DIRECT = {
    ("charp", "_signed_claim"): '"sign +1" is verified with a note, which check would make derived-with-note',
    ("pbw", "z_lift_audit"): "the naive lift is verified with a note, which check would make derived-with-note",
    ("charp", "frobenius_membership_suite"): "non-member is verified with its witness, which check would drop",
}


def is_claim(func):
    return isinstance(func, ast.Name) and func.id == "Claim" or isinstance(func, ast.Attribute) and func.attr == "Claim"


def claim_calls(path):
    """{top-level name: number of ``Claim(...)`` calls in it} for one module;
    code outside any definition counts under ``<module>``."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        n = sum(isinstance(c, ast.Call) and is_claim(c.func) for c in ast.walk(node))
        if n:
            name = getattr(node, "name", "<module>")
            out[name] = out.get(name, 0) + n
    return out


def test_only_the_listed_functions_build_claims_outside_report():
    found = {
        (path.stem, name): n
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "report"
        for name, n in claim_calls(path).items()
    }
    assert found == dict.fromkeys(DIRECT, 1), "make the claim with report.check, identity or asserted"


def test_report_defines_only_the_three_constructors():
    tree = ast.parse((SRC / "report.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    constructors = {
        f.name
        for f in functions
        if ast.unparse(f.returns or ast.Constant(None)) == "Claim"
        or any(isinstance(c, ast.Call) and is_claim(c.func) for c in ast.walk(f))
    }
    assert constructors == CONSTRUCTORS
    assert {"verified", "noted", "failed"}.isdisjoint(f.name for f in functions)
