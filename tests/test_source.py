"""Source hygiene: every exported name exists, no module imports a name it never uses, and
the README's Python examples run."""

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


def test_the_readme_has_python_examples():
    assert _README_BLOCKS


@pytest.mark.parametrize("index", range(len(_README_BLOCKS)))
def test_readme_python_block_runs(index):
    """Each block runs alone, in a fresh namespace, so it must import what it uses."""
    code = compile(_README_BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": "readme_example"})
