"""Every module-level function and class in ``src/`` has a reference in
``src/`` other than its definition, so code nothing calls does not linger.
The exceptions are the plain references the tests compare the fast kernels
against (ROADMAP, "Small items")."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "liecenter"

REFERENCES = {
    "straighten_word": "the plain rewriting engine behind the PBW kernel tests",
    "commutator_u": "the full-product commutator, kept with straighten_word",
    "poisson_bracket": "the Leibniz-rule Poisson bracket behind the ad_apply tests",
}


def definitions_and_names():
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [
            (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined, named


def test_every_src_definition_is_referenced():
    defined, named = definitions_and_names()
    assert len(defined) > 100
    unreferenced = sorted(f"{module}.{name}" for module, name in defined if name not in named)
    assert unreferenced == sorted(
        f"{module}.{name}" for module, name in defined if name in REFERENCES
    ), "no src/ reference: delete it, or list it as a reference"


def test_the_references_exist():
    defined, _ = definitions_and_names()
    assert set(REFERENCES) <= {name for _, name in defined}
