"""Package-level invariants that no single module's tests can see."""

from __future__ import annotations

import ast
from pathlib import Path

import gravidec
import gravidec.oracles

#: What oracles.py may import from the package, by module (None: anything).
#: The oracles recompute occupations themselves and never import the closed
#: forms, so their agreement with those forms is a real cross-check.
ORACLE_IMPORTS = {"constants": None, "errors": None, "internal_state": {"InternalStateSpec"}}

#: The one exception: the battery runner scores the oracles against the
#: product law, so it alone imports that law, inside the function.
BATTERY_IMPORT = ("run_oracle_battery", "visibility", {"exact_visibility"})


def _package_imports(node: ast.AST):
    """(module relative to the package, imported names) of each gravidec import under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            for alias in sub.names:
                if alias.name.split(".")[0] == "gravidec":
                    yield alias.name.removeprefix("gravidec").lstrip("."), {"*"}
        elif isinstance(sub, ast.ImportFrom):
            module = sub.module or ""
            if sub.level == 0:
                if module.split(".")[0] != "gravidec":
                    continue
                module = module.removeprefix("gravidec").lstrip(".")
            yield module, {alias.name for alias in sub.names}


def test_oracle_import_boundary_and_public_names():
    tree = ast.parse(Path(gravidec.oracles.__file__).read_text())
    for node in tree.body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        for module, names in _package_imports(node):
            if (owner, module, names) == BATTERY_IMPORT:
                continue
            assert module in ORACLE_IMPORTS, f"oracles.py imports from {module or 'gravidec'!r}"
            allowed = ORACLE_IMPORTS[module]
            assert allowed is None or names <= allowed, f"oracles.py imports {names - allowed}"

    exported = gravidec.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(gravidec, name)] == []


def test_tables_are_read_and_interpolated_in_one_module():
    """np.loadtxt and np.interp appear only in _tables.py, so every table from
    outside the program is read, checked and interpolated the same way."""
    users: dict[str, set[str]] = {"loadtxt": set(), "interp": set()}
    for path in Path(gravidec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "name", None)
            if isinstance(node, (ast.Attribute, ast.alias)) and name in users:
                users[name].add(path.name)
    assert users == {"loadtxt": {"_tables.py"}, "interp": {"_tables.py"}}
