"""The public API carries no name that only tests use."""

import ast
from pathlib import Path

import wtomo

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "perfbench")


def used_names(path: Path) -> set[str]:
    """Every identifier a module uses as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_has_a_caller():
    init = ROOT / "src" / "wtomo" / "__init__.py"
    used = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            if path != init:
                used |= used_names(path)
    assert sorted(set(wtomo.__all__) - used) == []
