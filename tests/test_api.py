"""The public API holds only what code outside the unit tests uses, down to
the fields and methods of its classes, no module imports a name it does not
use, every status ``solve`` sets has a CLI exit code and ``feas`` verdict,
data are tested for positive definiteness in one place, each admission
rule and the Newton system are defined in one module, and the baselines
import nothing from the solver they check.
The acceptance criteria are pinned to their first version by a hash.

No linter is a dependency, so the checks read the sources with ``ast``.
"""

import ast
import hashlib
import pathlib

from circmaxent.cli import _STATUS

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


def test_every_field_and_method_has_a_reader():
    # names are matched, not types: a field that shares its name with an
    # attribute read elsewhere (``PatternGraph.n`` and ``band.n``) passes
    read = set()
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        read |= {node.attr for node in ast.walk(parse(path))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = []
    for path in modules():
        for cls in parse(path).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    members.append((cls.name, stmt.target.id))
                elif isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    members.append((cls.name, stmt.name))
    assert members
    unread = [f"{cls}.{name}" for cls, name in members if name not in read]
    assert unread == [], f"fields or methods read only by unit tests: {unread}"


def test_no_unused_imports():
    unused = []
    for path in modules():
        tree = parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported_names(tree) - read)]
    assert unused == [], f"imported but never used: {unused}"


def test_every_solve_status_has_an_exit_code():
    # cmd_solve and cmd_feas map a status through _STATUS, so a status
    # missing there would surface as a KeyError
    solve = next(node for node in parse(PACKAGE / "solver.py").body
                 if isinstance(node, ast.FunctionDef) and node.name == "solve")
    statuses = {
        node.value.value for node in ast.walk(solve)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "status" for t in node.targets)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    }
    assert statuses == set(_STATUS)


def test_one_positive_definiteness_test():
    # every PD test is blockcirc._cholesky_blocks, the Newton system's too,
    # which keeps its "stalled" contract by catching NotPositiveDefinite.
    # The CLI's up-front verdict factored the band's block-Toeplitz matrix
    # itself, the transpose of the one the AR fit of extend and the toeplitz
    # start tests, and sk1_solve tested its start with its own Cholesky call
    callers = set()
    for path in modules():
        for func in ast.walk(parse(path)):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "cholesky"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                    for node in ast.walk(func)):
                callers.add(f"{path.stem}.{func.name}")
    assert callers == {"blockcirc._cholesky_blocks"}


def test_the_baselines_import_nothing_from_the_solver():
    # ips holds the oracles the solver is compared against; it borrowed
    # SolverConfig to check its tolerance, so it imported the code under test
    names = set()
    for node in ast.walk(parse(PACKAGE / "ips.py")):
        if isinstance(node, ast.ImportFrom):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    assert names and not any("solver" in name.split(".") for name in names)


def test_each_rule_has_one_module():
    # the admission rules and the PD test are defined in blockcirc alone,
    # and the Newton Hessian's lag layout beside the code that indexes it
    owners = {"_count": "blockcirc", "_check_sizes": "blockcirc", "_array": "blockcirc", "_real": "blockcirc",
              "_tolerance": "blockcirc", "_check_type": "blockcirc", "_option": "blockcirc",
              "_cholesky_blocks": "blockcirc",
              "_hessian_lags": "solver", "_newton_coords": "solver", "_newton_step": "solver",
              "_scale_exponent": "solver"}
    defined = {}
    for path in modules():
        for stmt in parse(path).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name in owners:
                defined.setdefault(stmt.name, []).append(path.stem)
    assert defined == {name: [module] for name, module in owners.items()}


def test_acceptance_criteria_are_unchanged():
    # criteria 1-9 are the floor for reproducing the paper and are never
    # loosened or re-pointed, so the file keeps its first version's bytes
    digest = hashlib.sha256((ROOT / "tests" / "test_acceptance.py").read_bytes()).hexdigest()
    assert digest == "d0364606bf4ffb7b8023d405ef592dbb6cc8e609d3a2df2d2aca485c65bb9ac7"
