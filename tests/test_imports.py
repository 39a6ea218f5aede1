"""Package modules share public names only: a `_`-prefixed name stays
inside the module that defines it.  Nothing is imported unused, and
every module-level definition is named by some other code."""

import ast
from collections import Counter
from pathlib import Path

import e6poly

PACKAGE = Path(e6poly.__file__).parent
SCRIPTS = PACKAGE.parents[1] / "scripts"


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


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds in its module."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level `__all__` list or tuple."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in getattr(node.value, "elts", ())
        if isinstance(elt, ast.Constant)
    }


def test_no_module_keeps_an_unused_import():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        unused += [
            f"{path.stem}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for name in _bound_names(node)
            if name not in used
        ]
    assert unused == []


def _named(node: ast.AST) -> Counter:
    """How often each name occurs in `node`, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_module_level_definition_is_referenced():
    # a def or class named nowhere in the package or the scripts but in
    # its own body is dead code
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    scripts = [ast.parse(path.read_text()) for path in sorted(SCRIPTS.glob("*.py"))]
    total = sum(map(_named, [*modules.values(), *scripts]), Counter())
    dead = [
        f"{path.stem}.{node.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and total[node.name] == _named(node)[node.name]
    ]
    assert dead == []


def test_singular_sits_below_the_kernel_and_invariant_layers():
    # decomp and invariants read the scan and the weight blocks; the scan
    # reads neither of them, nor the command line
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "singular.py").read_text())):
        if isinstance(node, ast.ImportFrom) and _package_import(node):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert not imported & {"decomp", "invariants", "cli"}


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "numpy")


def test_numpy_is_imported_only_after_the_blas_pin():
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it: a
    # module that imported numpy before rootsys sets it would start the
    # idle worker thread again
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]
    importers = [path.stem for path in paths
                 if any(map(_imports_numpy, ast.walk(ast.parse(path.read_text()))))]
    assert importers == ["rootsys"]
    tree = ast.parse((PACKAGE / "rootsys.py").read_text())
    (pin,) = [node.lineno for node in tree.body if isinstance(node, ast.Expr)
              and ast.unparse(node) == "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"]
    assert all(pin < node.lineno for node in ast.walk(tree) if _imports_numpy(node))
