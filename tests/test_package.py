"""Package-level invariants that no single module's tests can see."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_readme_python_examples_run(capsys, tmp_path, monkeypatch):
    """Each ```python block of README.md runs as written, in its own namespace,
    from an empty working directory (the examples write a snapshot file)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    spaces = []
    for block in blocks:
        spaces.append({})
        exec(compile(block, "README.md", "exec"), spaces[-1])
    tau = float(capsys.readouterr().out.split()[0])
    assert abs(tau - 1.04e-6) <= 0.01 * 1.04e-6
    assert spaces[1]["curve"].law == "master-equation"
    assert np.array_equal(spaces[1]["rho"], spaces[1]["result"].snapshots)


def _identifiers(node: ast.AST):
    """Every name, attribute and imported name used under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_public_name_is_reached_beyond_the_tests():
    """Each name in __all__ is reached from the package's module-level code
    (the CLI's ``__main__`` block), a README code block or the benchmark,
    directly or through the definitions those reach; so no public name is kept
    alive by the tests alone. A definition reaches every identifier it uses.
    The README and the benchmark reach any name they mention, since the
    benchmark's tracer names the functions it wraps in strings."""
    root = Path(__file__).resolve().parent.parent
    uses: dict[str, set[str]] = {}  # top-level name: the identifiers its definition uses
    seeds: set[str] = set()
    for path in Path(gravidec.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [
                    getattr(node, "target", None)]
                bound = [target.id for target in targets if isinstance(target, ast.Name)]
            for name in bound:
                uses.setdefault(name, set()).update(_identifiers(node))
            if not bound:
                seeds.update(_identifiers(node))
    readme = (root / "README.md").read_text()
    mentions = "\n".join([*readme.split("```")[1::2], *(
        path.read_text() for path in sorted((root / "perfbench").glob("*.py")))])
    todo = seeds | {name for name in uses if re.search(rf"\b{name}\b", mentions)}
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= uses.get(name, set())
    assert [name for name in gravidec.__all__ if name not in reached] == []


def _in_a_fresh_interpreter(code: str) -> None:
    """Run code in a new Python, where no earlier test has loaded a module."""
    root = Path(gravidec.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                        str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    None,
    ["tau", "--N", "1e23", "--T", "300", "--dx", "1e-3"],
    ["tau", "--N", "1e23", "--dx", "1e-9", "--central-mass", "9.945e30", "--radius", "1.5e4",
     "--hawking"],
], ids=["import", "tau", "tau-hawking"])
def test_the_cli_and_tau_run_without_numpy(argv):
    run = "" if argv is None else (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert gravidec.cli.main({argv!r}) == 0\n"
        "assert '\"tau_dec\"' in out.getvalue()\n")
    _in_a_fresh_interpreter("import sys\nimport gravidec.cli\n" + run
                            + "assert 'numpy' not in sys.modules, 'numpy loaded'\n")


def test_each_module_the_tracer_names_is_registered_and_loads_on_first_access():
    # perfbench's tracer reads sys.modules["gravidec.<module>"] after these
    # two imports, then rebinds functions in each module's namespace
    _in_a_fresh_interpreter(
        "import sys, types\n"
        "import gravidec\n"
        "import gravidec.cli\n"
        "import tracing\n"
        "names = [(mod, fn) for mod, fn, *_ in tracing.SPANNED] + tracing.COUNTED\n"
        "assert 'numpy' not in sys.modules\n"
        "modules = {mod: sys.modules[f'gravidec.{mod}'] for mod, _ in names}\n"
        "for mod, module in modules.items():\n"
        "    assert (type(module) is types.ModuleType) == (mod == 'cli'), mod\n"
        "for mod, fn in names:\n"
        "    assert callable(getattr(modules[mod], fn)), (mod, fn)\n"
        "    assert type(modules[mod]) is types.ModuleType, mod\n"
        "assert 'numpy' in sys.modules\n"
    )


def _defining_modules() -> dict[str, list[str]]:
    """The modules whose top level defines each public name, read from the source."""
    homes: dict[str, list[str]] = {}
    for path in sorted(Path(gravidec.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gravidec.__all__:
                homes.setdefault(node.name, []).append(path.stem)
    return homes


def test_each_public_name_is_its_defining_modules_object():
    # each name is defined in one module, read from the source rather than from
    # the package; in a fresh interpreter, where the deferred names are looked
    # up in order, the package serves that module's object
    homes = {name: modules[0] for name, modules in _defining_modules().items()
             if len(modules) == 1}
    assert set(homes) == set(gravidec.__all__)
    _in_a_fresh_interpreter(
        "import sys\n"
        "import gravidec\n"
        f"homes = {homes!r}\n"
        "for name in gravidec.__all__:\n"
        "    value = getattr(gravidec, name)\n"
        "    assert value.__module__ == f'gravidec.{homes[name]}', name\n"
        "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
    )


def _unloaded_around(lookup: str) -> str:
    """Code that imports the package and binds ``before`` and ``after``, the
    registered submodules still unloaded before and after running lookup."""
    return (
        "import sys, types\n"
        "import gravidec\n"
        "def unloaded():\n"
        "    return {name.removeprefix('gravidec.') for name, module in sys.modules.items()\n"
        "            if name.startswith('gravidec.') and type(module) is not types.ModuleType}\n"
        "before = unloaded()\n"
        f"{lookup}\n"
        "after = unloaded()\n"
    )


def test_a_name_loads_no_deferred_module_after_its_home():
    _in_a_fresh_interpreter(
        _unloaded_around("assert gravidec.InternalStateSpec.__name__ == 'InternalStateSpec'")
        + "assert before - after == {'_tables', 'internal_state'}, before - after\n"
        + "assert {'master_equation', 'oracles'} <= after, after\n"
    )


def test_thermal_occupation_is_not_public():
    # it stays in internal_state only for perfbench's call counter
    assert "thermal_occupation" not in gravidec.__all__
    with pytest.raises(AttributeError):
        gravidec.thermal_occupation


def test_an_unknown_name_is_refused_before_anything_loads():
    _in_a_fresh_interpreter(
        _unloaded_around(
            "try:\n"
            "    gravidec.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')"
        )
        + "assert after == before and len(before) == 7, (before, after)\n"
        + "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
    )
