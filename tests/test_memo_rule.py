"""Everything derived from a table is stored on it by one rule,
``liealg.per_table``: no other ``src/`` function reads or writes a
table's ``.memo``, except those listed with their reasons."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "liecenter"

# (module, function) -> why it touches ``.memo`` itself
DIRECT = {
    ("liealg", "per_table"): "the rule",
    ("liealg", "StructureTable.__init__"): "creates the memo",
    ("pbw", "_mul_mono_letter"): (
        "the letter-product cache: one f4-nil char-0 run makes about 47k calls"
        " and 20k lookups, where a call per lookup would cost more than the product"
    ),
}


def memo_users():
    """The (module, top-level function or method) pairs that name ``.memo``;
    code outside any definition counts as ``<module>``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for part in node.body if isinstance(node, ast.ClassDef) else [node]:
                if any(isinstance(n, ast.Attribute) and n.attr == "memo" for n in ast.walk(part)):
                    name = getattr(part, "name", "<module>")
                    found.add((path.stem, f"{node.name}.{name}" if part is not node else name))
    return found


def test_only_per_table_touches_the_memo():
    assert memo_users() == set(DIRECT), "store a derived result with liealg.per_table"
