"""Source hygiene: every exported name, and every public method of an exported class, exists and
has a reader in the source or the README (a name where it is imported from its module, a method
through an attribute that no builtin type or numpy array shares), no module imports a name it never
uses, every private module-level helper has a caller in the source, the ways past a gate or circuit
check have only their listed callers, the package re-exports exactly its library modules' `__all__`
lists, and the README's Python examples run."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

import chainforge

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


def _reads(node: ast.AST) -> Iterator[str]:
    """Each name and attribute read under `node`, once per read. An import reads nothing: a name
    counts where it is used, not where it is bound."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _attribute_reads(node: ast.AST) -> Iterator[str]:
    """Each attribute read under `node` (the `name` of `x.name`), once per read."""
    return (sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _referenced_names(stmt: ast.stmt) -> set[str]:
    """Names and attributes read in one top-level statement, not counting the name it defines."""
    out = set(_reads(stmt))
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        out.discard(stmt.name)
    return out


_LIBRARY = [m for m in _MODULES if m != "cli"]  # the modules the package re-exports
# name -> the module it comes from, for each name the package re-exports
_PACKAGE_NAMES = {name: module for module in _LIBRARY
                  for name in importlib.import_module(f"chainforge.{module}").__all__}


def _import_owners(tree: ast.Module) -> dict[str, str]:
    """Each name an import binds from a chainforge module, mapped to that module: `from .M import`,
    `from chainforge.M import`, or `from chainforge import` through the package's re-imports."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if node.level == 1 or node.module.startswith("chainforge."):
                    owner = node.module.removeprefix("chainforge.")
                elif node.module == "chainforge":
                    owner = _PACKAGE_NAMES.get(alias.name)
                else:
                    continue
                out[alias.asname or alias.name] = owner
    return out


def _owned_reads(tree: ast.Module, module: str | None) -> set[tuple[str | None, str]]:
    """(owner, name) of each bare name read in a top-level statement outside the definition it names.
    An imported name is owned by the chainforge module it is imported from, any other by `module`."""
    owners = _import_owners(tree)
    return {
        (owners.get(sub.id, module), sub.id)
        for stmt in tree.body
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        and not (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and sub.id == stmt.name)
    }


_READ_IN_SOURCE = {name for tree in _SOURCE.values() for stmt in tree.body
                   for name in _referenced_names(stmt)}
_OWNED_READS = {read for file, tree in _SOURCE.items() for read in _owned_reads(tree, file.removesuffix(".py"))}
_OWNED_READS |= {read for block in _README_BLOCKS for read in _owned_reads(ast.parse(block), None)}
_ATTRIBUTE_READS_IN_SOURCE = Counter(name for tree in _SOURCE.values() for name in _attribute_reads(tree))
_ATTRIBUTES_READ_IN_README = {name for block in _README_BLOCKS for name in _attribute_reads(ast.parse(block))}
# a read of one of these names may be a builtin's or a numpy array's member (the oracle reads arrays),
# so it is no read of a package method
_BUILTIN_MEMBERS = set().union(*map(dir, (bytes, bytearray, list, tuple, dict, str, int, np.ndarray)))


def test_the_module_list_is_found():
    assert {"core", "linsynth", "oracle", "stabilizer"} <= set(_MODULES), _MODULES


def test_the_package_exports_each_library_all_and_imports_nothing_else():
    """`chainforge.__all__` is the library modules' `__all__` lists joined in module order, each name
    bound to its module's own object and exported by one module only, and `__init__.py` imports
    nothing but those modules' stars: a name is declared public once, in its module."""
    imports = [ast.unparse(node) for node in ast.walk(_SOURCE["__init__.py"])
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == [f"from .{m} import *" for m in _LIBRARY]
    modules = [importlib.import_module(f"chainforge.{m}") for m in _LIBRARY]
    assert chainforge.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(chainforge.__all__)) == len(chainforge.__all__)
    assert all(getattr(chainforge, name, None) is getattr(module, name)
               for module in modules for name in module.__all__)


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
    """A name in a module's `__all__` is read somewhere in the package outside its own definition,
    in its own module or in one that imports it from there (`__init__.py` only re-imports), or in
    a README `python` block that imports it, which runs as a test below. A read of another module's
    name of the same spelling does not count. A name that only its own tests read is wired into a
    real path or deleted."""
    unread = [
        f"{module}.{name}"
        for module in _MODULES
        for name in importlib.import_module(f"chainforge.{module}").__all__
        if (module, name) not in _OWNED_READS
    ]
    assert not unread, f"public names that nothing in the source or the README reads: {unread}"


def _public_methods() -> Iterator[tuple[str, ast.FunctionDef]]:
    """(module.Class.name, definition) of each public method, classmethod, staticmethod and property
    defined in a class that its module's `__all__` lists."""
    for module in _MODULES:
        exported = set(importlib.import_module(f"chainforge.{module}").__all__)
        for stmt in _SOURCE[f"{module}.py"].body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in exported:
                for member in stmt.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{module}.{stmt.name}.{member.name}", member


def test_the_method_rule_sees_methods():
    names = {name for name, _ in _public_methods()}
    assert {"linsynth.GF2Matrix.inverse", "stabilizer.PauliTableau.identity", "core.Circuit.depth"} <= names


def test_the_reader_rules_match_an_owner():
    """A bare name is owned by the module it is imported from, and a method name that a builtin
    type or a numpy array also defines is no reader: `oracle.py` reading its own `apply_gate` reads
    no other module's, and `two_qubit.count(1)` on a bytearray reads no package method."""
    assert _import_owners(_SOURCE["stabilizer.py"])["gauss_jordan"] == "linsynth"
    assert _import_owners(ast.parse("from chainforge import gauss_jordan"))["gauss_jordan"] == "linsynth"
    assert ("oracle", "apply_gate") in _OWNED_READS and ("linsynth", "gauss_jordan") in _OWNED_READS
    assert ("stabilizer", "apply_gate") not in _OWNED_READS
    assert {"count", "index", "copy", "get", "size"} <= _BUILTIN_MEMBERS and "row" not in _BUILTIN_MEMBERS


def test_every_public_method_has_a_caller():
    """Each public method of an exported class is read as an attribute (`x.name`) somewhere in the
    package outside its own definition, or in a README `python` block. A name that `bytes`,
    `bytearray`, `list`, `tuple`, `dict`, `str`, `int` or `numpy.ndarray` also defines is no reader,
    since that read may be theirs. A method that only tests read is wired into a real path, or
    moved into the tests."""
    unread = [
        name for name, node in _public_methods()
        if node.name in _BUILTIN_MEMBERS or (
            node.name not in _ATTRIBUTES_READ_IN_README
            and _ATTRIBUTE_READS_IN_SOURCE[node.name] == Counter(_attribute_reads(node))[node.name]
        )
    ]
    assert not unread, f"public methods that nothing in the source or the README reads: {unread}"


# The ways past a check, each with the one list of places allowed to use it. A new caller is a
# deliberate change: it makes gates valid by construction, or hands over gates it knows are valid.
_PINNED = {
    "_unchecked_gate": {"core._cnot_expansion", "linsynth._replay", "skeleton._site_gate"},
    "tuple.__new__": {"core.Gate.__new__", "core._unchecked_gate"},
    "_known_circuit": {
        "core._cnot_expansion",
        "core.parse_circuit",
        "core.prune_trailing_swap_layers",
        "css.css_flat",
        "css.css_schedule_lnn",
        "linsynth.synthesize_lnn",
        "qft.qft_flat",
        "qft.qft_lnn",
        "skeleton.schedule_lnn",
        "stabilizer.schedule_stabilizer",
        "stabilizer.stabilizer_flat",
    },
    "object.__new__": {"core._known_circuit"},
}


# `_known_circuit` takes a sublayer record on trust, and the slot reader's metrics hold only if the record keeps
# its pairing promise: a function that hands over a record joins this list and the pairing sweep in test_record.py.
_PASS_A_RECORD = {
    "css.css_schedule_lnn",
    "linsynth.synthesize_lnn",
    "qft.qft_lnn",
    "skeleton.schedule_lnn",
    "stabilizer.schedule_stabilizer",
}


def _where(found) -> set[str]:
    """Each function or method (module.name or module.Class.name) holding a node for which `found` is
    true; a node outside any function is named by its module and line."""
    out = set()
    for file, tree in _SOURCE.items():
        module = file.removesuffix(".py")
        for stmt in tree.body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for node in members:
                where = f"{module}.{stmt.name}." if isinstance(stmt, ast.ClassDef) else f"{module}."
                where += node.name if isinstance(node, ast.FunctionDef) else f"line {node.lineno}"
                if any(found(n) for n in ast.walk(node)):
                    out.add(where)
    return out


def _readers(target: str) -> set[str]:
    """Each function or method that reads `target`, a bare name or `value.attr`."""
    value, _, attr = target.rpartition(".")

    def reads(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return not value and node.id == attr
        return (isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.value, ast.Name)
                and node.value.id == value)

    return _where(reads)


@pytest.mark.parametrize("target", _PINNED)
def test_unchecked_paths_have_only_their_listed_callers(target):
    readers = _readers(target)
    assert readers == _PINNED[target], (
        f"{target} is read by {sorted(readers - _PINNED[target])} beyond its list, "
        f"and no longer by {sorted(_PINNED[target] - readers)}"
    )


def test_only_the_listed_builders_pass_a_sublayer_record():
    """A `_known_circuit` call with a third argument, positional or by keyword, hands over a record."""
    def passes(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_known_circuit"
                and len(node.args) + len(node.keywords) > 2)

    assert _where(passes) == _PASS_A_RECORD
    assert _PASS_A_RECORD <= _PINNED["_known_circuit"]


def test_only_core_reads_the_record_and_the_layer_memo():
    """`Circuit._sublayers` and `Circuit._layers` are read in `core` alone, where their readers are, and no
    other module touches an instance `__dict__`: the memos a circuit arrives with are written in `core`."""
    found = _where(lambda node: isinstance(node, ast.Attribute) and node.attr in ("_sublayers", "_layers", "__dict__"))
    assert found and all(where.startswith("core.") for where in found), sorted(found)


def test_the_readme_has_python_examples():
    assert _README_BLOCKS


@pytest.mark.parametrize("index", range(len(_README_BLOCKS)))
def test_readme_python_block_runs(index):
    """Each block runs alone, in a fresh namespace, so it must import what it uses."""
    code = compile(_README_BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": "readme_example"})
