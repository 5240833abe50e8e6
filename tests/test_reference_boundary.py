"""The reference engines stay out of the production API.

``repro.reference`` holds the oracles the equivalence suites and
benches compare against. Production code runs one engine per layer,
so (a) no module outside ``repro/reference/`` imports it, and (b) no
public function, method or constructor outside it takes an ``engine``
or ``batch`` switch that could select an oracle.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
REFERENCE = PACKAGE / "reference"
SWITCHES = {"engine", "batch"}


def _production_modules() -> list[Path]:
    return sorted(
        path
        for path in PACKAGE.rglob("*.py")
        if REFERENCE not in path.parents
    )


def _imports_reference(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(
            name == "repro.reference" or name.startswith("repro.reference.")
            for name in names
        ):
            return True
    return False


def _public_callables(tree: ast.Module):
    """(qualified name, def) of module-level functions and the methods
    of module-level classes whose names are public (constructors
    included)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    yield f"{node.name}.{item.name}", item


def _parameter_names(function: ast.FunctionDef) -> set[str]:
    args = function.args
    return {
        arg.arg
        for arg in args.posonlyargs + args.args + args.kwonlyargs
    }


def test_reference_engines_stay_out_of_production():
    importers = []
    switches = []
    for path in _production_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        if _imports_reference(tree):
            importers.append(module)
        for name, function in _public_callables(tree):
            found = _parameter_names(function) & SWITCHES
            if found:
                switches.append(f"{module}.{name}({', '.join(sorted(found))}=)")
    assert importers == []
    assert switches == []
