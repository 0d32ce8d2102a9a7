"""Source hygiene: every exported name exists and has a reader in the source or the README, no
module imports a name it never uses, every private module-level helper has a caller in the
source, the ways past a gate or circuit check have only their listed callers, and the README's
Python examples run."""

import ast
import importlib
import re
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chainforge"
_MODULES = sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "__init__")
_SOURCE = {path.name: ast.parse(path.read_text()) for path in sorted(_PACKAGE.glob("*.py"))}
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
    """Names and attributes read in one top-level statement, not counting the name it defines
    itself. An import reads nothing: a name counts where it is used, not where it is bound."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        out.discard(stmt.name)
    return out


_READ_IN_SOURCE = {name for tree in _SOURCE.values() for stmt in tree.body
                   for name in _referenced_names(stmt)}


def test_the_module_list_is_found():
    assert {"core", "linsynth", "oracle", "stabilizer"} <= set(_MODULES), _MODULES


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"chainforge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("name", _MODULES)
def test_no_unused_import(name):
    tree = _SOURCE[f"{name}.py"]
    used = _used_names(tree)
    unused = {n: line for n, line in _imported_names(tree).items() if n not in used}
    assert not unused, f"{name}.py imports names it never uses (name: line): {unused}"


def test_every_private_helper_has_a_source_caller():
    """A module-level `_name` function or class is read somewhere in the package, outside its
    own definition; one that only tests call belongs in the tests or nowhere."""
    private = {
        stmt.name: f"{file}:{stmt.lineno}"
        for file, tree in _SOURCE.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_")
    }
    uncalled = {name: at for name, at in private.items() if name not in _READ_IN_SOURCE}
    assert not uncalled, f"private helpers with no caller in the source: {uncalled}"


def test_every_public_name_has_a_caller():
    """A name in a module's `__all__` is read somewhere in the package outside its own
    definition (`__init__.py` only re-imports), or in a README `python` block, which runs as
    a test below. A name that only its own tests read is wired into a real path or deleted."""
    read = _READ_IN_SOURCE | {
        name for block in _README_BLOCKS for stmt in ast.parse(block).body
        for name in _referenced_names(stmt)
    }
    unread = [
        f"{module}.{name}"
        for module in _MODULES
        for name in importlib.import_module(f"chainforge.{module}").__all__
        if name not in read
    ]
    assert not unread, f"public names that nothing in the source or the README reads: {unread}"


# The ways past a check, each with the one list of places allowed to use it. A new caller is a
# deliberate change: it makes gates valid by construction, or hands over gates it knows are valid.
_PINNED = {
    "_unchecked_gate": {"linsynth._replay", "skeleton._site_gate"},
    "tuple.__new__": {"core.Gate.__new__", "core._unchecked_gate"},
    "_known_circuit": {
        "core.parse_circuit",
        "core.prune_trailing_swap_layers",
        "css.css_flat",
        "css.css_schedule_lnn",
        "linsynth.expand_circuit_to_cnot",
        "linsynth.synthesize_lnn",
        "qft.qft_flat",
        "qft.qft_lnn",
        "skeleton.schedule_lnn",
        "stabilizer.schedule_stabilizer",
        "stabilizer.stabilizer_flat",
    },
    "object.__new__": {"core._known_circuit"},
}


def _readers(target: str) -> set[str]:
    """Each function or method (module.name or module.Class.name) that reads `target`, a bare name
    or `value.attr`; a read outside any function is named by its module and line."""
    value, _, attr = target.rpartition(".")

    def reads(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return not value and node.id == attr
        return (isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.value, ast.Name)
                and node.value.id == value)

    out = set()
    for file, tree in _SOURCE.items():
        module = file.removesuffix(".py")
        for stmt in tree.body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for node in members:
                where = f"{module}.{stmt.name}." if isinstance(stmt, ast.ClassDef) else f"{module}."
                where += node.name if isinstance(node, ast.FunctionDef) else f"line {node.lineno}"
                if any(reads(n) for n in ast.walk(node)):
                    out.add(where)
    return out


@pytest.mark.parametrize("target", _PINNED)
def test_unchecked_paths_have_only_their_listed_callers(target):
    readers = _readers(target)
    assert readers == _PINNED[target], (
        f"{target} is read by {sorted(readers - _PINNED[target])} beyond its list, "
        f"and no longer by {sorted(_PINNED[target] - readers)}"
    )


def test_the_readme_has_python_examples():
    assert _README_BLOCKS


@pytest.mark.parametrize("index", range(len(_README_BLOCKS)))
def test_readme_python_block_runs(index):
    """Each block runs alone, in a fresh namespace, so it must import what it uses."""
    code = compile(_README_BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": "readme_example"})
