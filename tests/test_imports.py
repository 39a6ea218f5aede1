"""Package modules share public names only: a `_`-prefixed name stays
inside the module that defines it."""

import ast
from pathlib import Path

import e6poly

PACKAGE = Path(e6poly.__file__).parent


def _package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "e6poly"


def test_no_module_imports_a_private_name_from_another():
    private = [
        f"{path.stem} <- {node.module}.{alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and _package_import(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
