"""Source hygiene: every exported name exists, no module imports a name it never uses, every
private module-level helper has a caller in the source, and the README's Python examples run."""

import ast
import importlib
import re
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chainforge"
_MODULES = sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "__init__")
_README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (_PACKAGE.parents[1] / "README.md").read_text(), re.M | re.S
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, annotations included, plus the strings in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _referenced_names(stmt: ast.stmt) -> set[str]:
    """Names, attributes and `from` imports read in one top-level statement, not counting
    the name it defines itself."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        out.discard(stmt.name)
    return out


def test_the_module_list_is_found():
    assert {"core", "linsynth", "oracle", "stabilizer"} <= set(_MODULES), _MODULES


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"chainforge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("name", _MODULES)
def test_no_unused_import(name):
    tree = ast.parse((_PACKAGE / f"{name}.py").read_text())
    used = _used_names(tree)
    unused = {n: line for n, line in _imported_names(tree).items() if n not in used}
    assert not unused, f"{name}.py imports names it never uses (name: line): {unused}"


def test_every_private_helper_has_a_source_caller():
    """A module-level `_name` function or class is read somewhere in the package, outside its
    own definition; one that only tests call belongs in the tests or nowhere."""
    referenced, private = set(), {}
    for path in sorted(_PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            referenced |= _referenced_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                private[stmt.name] = f"{path.name}:{stmt.lineno}"
    uncalled = {name: at for name, at in private.items() if name not in referenced}
    assert not uncalled, f"private helpers with no caller in the source: {uncalled}"


def test_the_readme_has_python_examples():
    assert _README_BLOCKS


@pytest.mark.parametrize("index", range(len(_README_BLOCKS)))
def test_readme_python_block_runs(index):
    """Each block runs alone, in a fresh namespace, so it must import what it uses."""
    code = compile(_README_BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": "readme_example"})
