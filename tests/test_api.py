"""The public API carries no name, no parameter with a default and no
dataclass field that only tests use."""

import ast
import dataclasses
import inspect
from pathlib import Path

import wtomo

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "perfbench")
INIT = ROOT / "src" / "wtomo" / "__init__.py"


def caller_trees() -> list[ast.AST]:
    """The parsed modules of CALLER_DIRS, except the package's __init__."""
    return [
        ast.parse(path.read_text(), filename=str(path))
        for d in CALLER_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
        if path != INIT
    ]


def used_names(tree: ast.AST) -> set[str]:
    """Every identifier a module uses as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def passed_parameters(tree: ast.AST, name: str, params: list[str]) -> set[str]:
    """The params that some call of name (a bare name or an attribute) in a
    module passes, by keyword or by position; *args and **kwargs pass every
    parameter they could reach."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "id", None) != name and getattr(func, "attr", None) != name:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        passed.update(params if starred else params[:len(node.args)])
        for kw in node.keywords:
            passed.update(params if kw.arg is None else {kw.arg})
    return passed


def read_attributes(tree: ast.AST) -> set[str]:
    """Every attribute a module reads (obj.name in a load context)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_has_a_caller():
    used = set().union(*map(used_names, caller_trees()))
    assert sorted(set(wtomo.__all__) - used) == []


def test_every_public_default_has_a_caller():
    trees = caller_trees()
    unused = []
    for name in wtomo.__all__:
        func = getattr(wtomo, name)
        if not inspect.isfunction(func):
            continue
        params = inspect.signature(func).parameters
        passed = set().union(*(passed_parameters(t, name, list(params)) for t in trees))
        unused += [
            f"{name}.{p.name}"
            for p in params.values()
            if p.default is not p.empty and p.name not in passed
        ]
    assert unused == []


def test_every_public_field_has_a_reader():
    read = set().union(*map(read_attributes, caller_trees()))
    unread = [
        f"{name}.{field.name}"
        for name in wtomo.__all__
        if dataclasses.is_dataclass(getattr(wtomo, name))
        for field in dataclasses.fields(getattr(wtomo, name))
        if field.name not in read
    ]
    assert unread == []


# one reader and at most one writer per file format: the functions the CLI
# and a run directory use
IO_API = {"save_density", "load_density", "load_counts_file", "save_calibration",
          "load_calibration", "load_readout_model", "save_reconstruction", "write_outputs"}


def test_io_names_only_the_files_the_cli_and_a_run_directory_use():
    tree = ast.parse((ROOT / "src" / "wtomo" / "io.py").read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert sorted(name for name in defined if not name.startswith("_")) == sorted(IO_API)
    used = set().union(*map(used_names, caller_trees()))
    assert sorted(IO_API - used) == []
