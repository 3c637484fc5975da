"""No module of the package, its tests or its demos imports a name that it
never uses. No linter is installed, so this scan is the gate: a name counts
as used when the module reads it anywhere (a string annotation included) or
lists it in `__all__`, and an import statement marked `# noqa: F401` is
exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for part in ("src", "tests", "demos") for path in (ROOT / part).rglob("*.py"))


def _annotation_names(tree: ast.Module) -> set[str]:
    """The names read by the string annotations of `tree`."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {name.id for a in annotations
            if isinstance(a, ast.Constant) and isinstance(a.value, str)
            for name in ast.walk(ast.parse(a.value, mode="eval")) if isinstance(name, ast.Name)}


def _exported(tree: ast.Module) -> set[str]:
    return {element.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for element in node.value.elts if isinstance(element, ast.Constant)}


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never uses, in order of import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_names(tree) | _exported(tree)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_unused_and_exempt_imports():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from a import (b,\n    c)  # noqa: F401\nfrom d import e as f, g\n"
              "__all__ = ['g']\ndef h(x: 'sys.T') -> None:\n    return os\n")
    assert unused_imports(source) == ["f"]
