"""The public API holds only what code outside the unit tests uses, and no
module imports a name it does not use.

No linter is a dependency, so both checks read the sources with ``ast``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "circmaxent"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def identifiers(node):
    """Every name a node reads: bare names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def imported_names(tree):
    """Names bound by the module's imports, ``from __future__`` aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return out


def modules():
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def test_every_export_has_a_user():
    exported = imported_names(parse(PACKAGE / "__init__.py"))
    # (name a top-level statement defines, or None; the names it reads)
    statements = []
    for path in modules():
        for stmt in parse(path).body:
            defines = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            statements.append((defines, identifiers(stmt)))
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= identifiers(parse(path))
    acceptance = imported_names(parse(ROOT / "tests" / "test_acceptance.py"))
    unused = sorted(
        name for name in exported
        if name not in bench | acceptance
        and not any(name in ids for defines, ids in statements if defines != name)
    )
    assert unused == [], f"exported but used only by unit tests: {unused}"


def test_no_unused_imports():
    unused = []
    for path in modules():
        tree = parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported_names(tree) - read)]
    assert unused == [], f"imported but never used: {unused}"
