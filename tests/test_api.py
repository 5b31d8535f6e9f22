"""Public API audit: each public class and function earns its place, and none takes a mode.

A public class, function or method of ``src/mflab`` must be referenced from
``src/`` or ``demos/`` (by name, or as a string looked up with
``getattr``), be used by the acceptance suite, or be named as an oracle in
its module's docstring: a sentence of the docstring names it (or its class)
in double backticks or as :class:`Name` and says "oracle".  A top-level
class or function is referenced only by a name load, a ``from ... import``
or a string; a method also by an attribute read, so ``np.zeros`` does not
count as a use of a top-level ``zeros``.  A method or field name that two or
more classes declare is used for one of them only through ``self`` in that
class or a name annotated with that class in the same function or module
body.
``Grid.kinetic_mode`` is the only switch for the kinetic operator, so no
public signature takes a ``mode``.  Every name a file of ``src/``, ``tests/``
or ``demos/`` imports is loaded in that file; the package ``__init__.py``
files import to re-export and are exempt.  Every field of a dataclass of
``src/mflab`` is read as an attribute in ``src/``, ``demos/`` or the
acceptance suite, unless the class hands itself whole to ``asdict``; the
shared-name rule above applies to its reads.
Every name the package exports in ``__all__`` resolves on it, so ``from
mflab import *`` works.  ``cli.load_config`` resolves the whole run
configuration, so no ``cmd_*`` function of ``cli`` raises ``ConfigError`` or
builds a potential, initial orbitals or the observable dictionary.  The
only outside file the package reads is the configuration, in
``cli._read_config_file``: every other ``open`` passes a write mode, and no
module calls ``np.load``, ``np.fromfile``, ``read_text`` or ``read_bytes`` or
imports ``struct`` or ``pickle``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import mflab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mflab"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_defs(tree: ast.Module):
    """(qualified name, node) of public top-level functions and classes and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(trees) -> tuple[set[str], set[str]]:
    """(names loaded, imported by name or held as strings; attributes read) in the modules."""
    names: set[str] = set()
    attrs: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names, attrs


def _oracles(tree: ast.Module) -> set[str]:
    """Names that a sentence of the module docstring calls an oracle."""
    doc = ast.get_docstring(tree) or ""
    found: set[str] = set()
    for sentence in re.split(r"(?<=[.;])\s+", doc):
        if "oracle" in sentence:
            found.update(re.findall(r"(?:``|:class:`)([A-Za-z_][\w.]*)`", sentence))
    return found


def _modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    return modules


def _members(cls: ast.ClassDef) -> set[str]:
    """The field and method names a class body declares."""
    return {item.target.id if isinstance(item, ast.AnnAssign) else item.name
            for item in cls.body if isinstance(item, (ast.AnnAssign, ast.FunctionDef))}


def _declared(modules: dict[str, ast.Module]) -> Counter:
    """How many classes of ``modules`` declare each name, as a field or a method."""
    return Counter(name for tree in modules.values() for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for name in _members(cls))


def _orphans(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """Public classes, functions and methods of ``modules`` that no reference in
    ``readers`` reaches and no oracle sentence of their module names.

    A method whose name only one class declares is used by any attribute read
    of that name.  A name two or more classes declare, as a method or a
    field, is used for one of them only through ``self`` in that class or a
    name annotated with it.
    """
    names, attrs = _references(readers)
    reads = set().union(*map(_attribute_reads, readers))
    declared = _declared(modules)
    orphans = []
    for stem, tree in modules.items():
        oracles = _oracles(tree)
        for qualname, _ in _public_defs(tree):
            owner, _, name = qualname.rpartition(".")
            if not owner:
                used = name in names
            elif declared[name] > 1:
                used = (name, owner) in reads
            else:
                used = name in names | attrs
            if not used and not oracles & {name, qualname, owner}:
                orphans.append(f"{stem}.{qualname}")
    return orphans


def test_every_public_function_has_a_user_or_is_a_named_oracle():
    files = [*_modules(), *(ROOT / "demos").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    modules = {path.stem: _parse(path) for path in _modules()}
    orphans = _orphans(modules, [_parse(path) for path in files])
    assert not orphans, (
        "public classes or functions with no user in src/, demos/ or the acceptance suite, "
        f"and not named as an oracle in their module docstring: {orphans}"
    )


def test_a_shared_method_name_is_used_only_through_its_own_class():
    """Run.times is never called: a name-only rule takes Trajectory.times's
    read for it, and Basis.dim shares its name with the field Grid.dim, so an
    unannotated receiver's read uses neither."""
    tree = ast.parse(
        "__all__ = ['Grid', 'Basis', 'Run', 'Trajectory', 'span']\n"
        "class Grid:\n"
        "    dim: int\n"
        "class Basis:\n"
        "    @property\n"
        "    def dim(self):\n"
        "        return 1\n"
        "class Run:\n"
        "    @property\n"
        "    def times(self):\n"
        "        return ()\n"
        "class Trajectory:\n"
        "    @property\n"
        "    def times(self):\n"
        "        return ()\n"
        "def span(traj: 'Trajectory | None', basis: Basis, other):\n"
        "    return traj.times, basis.dim, other.times\n"
    )
    name_only = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert {"times", "dim"} <= name_only
    assert _orphans({"model": tree}, [tree]) == ["model.Run.times"]
    unlabelled = ast.parse(ast.unparse(tree).replace("basis: Basis", "basis"))
    assert _orphans({"model": unlabelled}, [unlabelled]) == [
        "model.Basis.dim", "model.Run.times"]


def test_no_public_signature_takes_a_mode():
    offenders = []
    for path in _modules():
        tree = _parse(path)
        for qualname, node in _public_defs(tree):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if any(a.arg == "mode" for a in params):
                offenders.append(f"{path.stem}.{qualname}")
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) == "mode":
                    offenders.append(f"{path.stem}.{cls.name}.mode")
    assert not offenders, f"the kinetic mode belongs to Grid.kinetic_mode: {offenders}"


def test_every_imported_name_is_loaded():
    files = [
        *(p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"),
        *(ROOT / "tests").rglob("*.py"),
        *(ROOT / "demos").rglob("*.py"),
    ]
    unused = []
    for path in sorted(files):
        tree = _parse(path)
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, f"imported names never loaded: {unused}"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """True if ``@dataclass`` or ``@dataclass(...)`` decorates the class."""
    return any(getattr(getattr(dec, "func", dec), "id", None) == "dataclass"
               for dec in cls.decorator_list)


def _serialised_whole(cls: ast.ClassDef) -> bool:
    """True if the class hands itself to ``asdict``, so every field is written out."""
    return any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict"
        and any(getattr(arg, "id", None) == "self" for arg in node.args)
        for node in ast.walk(cls)
    )


def _annotated_classes(annotation) -> set[str]:
    """The classes an annotation names itself: ``C``, ``"C"``, ``module.C`` or a ``|`` union."""
    if isinstance(annotation, ast.Name):
        return {annotation.id}
    if isinstance(annotation, ast.Attribute):
        return {annotation.attr}
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return _annotated_classes(ast.parse(annotation.value, mode="eval").body)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotated_classes(annotation.left) | _annotated_classes(annotation.right)
    return set()


def _own_nodes(scope: ast.AST):
    """The nodes of a function or class body, without those of the functions and classes in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _annotated_names(scope: ast.AST) -> dict[str, set[str]]:
    """Name -> the classes it is annotated with, over a function's parameters
    and the annotated assignments of a function or module body."""
    args = getattr(scope, "args", None)
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] \
        if args else []
    annotated = {a.arg: _annotated_classes(a.annotation) for a in params
                 if a is not None and a.annotation is not None}
    annotated.update((item.target.id, _annotated_classes(item.annotation))
                     for item in _own_nodes(scope)
                     if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
    return annotated


def _attribute_reads(tree: ast.Module) -> set[tuple[str, str | None]]:
    """(attribute, None) for every attribute read, and (attribute, class) when the
    receiver is ``self`` in a method of that class or a name that the same
    function (or the module body) annotates with that class."""
    reads: set[tuple[str, str | None]] = set()

    def visit(scope: ast.AST, cls: str | None) -> None:
        annotated = _annotated_names(scope)
        for node in _own_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                visit(node, node.name if isinstance(node, ast.ClassDef) else cls)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add((node.attr, None))
                receiver = getattr(node.value, "id", None)
                owners = {cls} if receiver == "self" and cls else annotated.get(receiver, set())
                reads.update((node.attr, owner) for owner in owners)

    visit(tree, None)
    return reads


def _unread_fields(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """Fields of the dataclasses in ``modules`` that no attribute read in ``readers`` reaches.

    A field name only one class declares is read by any attribute read of
    that name.  A name two or more classes declare, as a field or a method,
    is read for one of them only through ``self`` in that class or a name
    annotated with it.
    """
    classes = [(stem, cls) for stem, tree in modules.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)]
    declared = _declared(modules)
    reads = set().union(*map(_attribute_reads, readers))
    unread = []
    for stem, cls in classes:
        if _serialised_whole(cls):
            continue
        for item in cls.body:
            if isinstance(item, ast.AnnAssign):
                owner = cls.name if declared[item.target.id] > 1 else None
                if (item.target.id, owner) not in reads:
                    unread.append(f"{stem}.{cls.name}.{item.target.id}")
    return unread


def test_every_dataclass_field_is_read():
    files = [*_modules(), *(ROOT / "demos").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    modules = {path.stem: _parse(path) for path in _modules()}
    unread = _unread_fields(modules, [_parse(path) for path in files])
    assert not unread, f"dataclass fields no caller reads: {unread}"


def test_a_shared_field_name_is_read_only_through_its_own_class():
    """Potential.kind is never read: a name-only rule takes Family.kind's read
    for it, and an unannotated receiver's read for either."""
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Potential:\n"
        "    kind: str\n"
        "@dataclass\n"
        "class Family:\n"
        "    kind: str\n"
        "    width: float\n"
        "    def label(self):\n"
        "        return self.kind\n"
        "def spread(family: 'Family | None', other):\n"
        "    return family.width, other.kind\n"
    )
    name_only = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert {"kind", "width"} <= name_only
    assert _unread_fields({"model": tree}, [tree]) == ["model.Potential.kind"]
    unlabelled = ast.parse(ast.unparse(tree).replace("return self.kind", "return 0"))
    assert _unread_fields({"model": unlabelled}, [unlabelled]) == [
        "model.Potential.kind", "model.Family.kind"]


def test_every_exported_name_resolves():
    missing = [name for name in mflab.__all__ if not hasattr(mflab, name)]
    assert not missing, f"names in mflab.__all__ the package does not define: {missing}"
    namespace: dict = {}
    exec("from mflab import *", namespace)
    assert set(mflab.__all__) <= set(namespace)


def test_cli_commands_only_compute_and_write():
    builders = {"build_potential", "make_orbitals", "observable_dictionary"}
    offenders = []
    for node in _parse(PACKAGE / "cli.py").body:
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise) and sub.exc is not None:
                exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                if getattr(exc, "id", None) == "ConfigError":
                    offenders.append(f"{node.name} raises ConfigError")
            elif isinstance(sub, ast.Call):
                name = getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
                if name in builders:
                    offenders.append(f"{node.name} calls {name}")
    assert not offenders, f"load_config resolves the configuration, not the commands: {offenders}"


def _outside_reads(tree: ast.Module) -> list[str]:
    """Where a module reads a file: each ``open`` without a write mode, each
    ``read_text``/``read_bytes``/``np.load``/``np.fromfile`` call, and each
    ``struct`` or ``pickle`` import, as "scope: what"."""
    found = []
    scopes = [tree, *(n for n in ast.walk(tree)
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))]
    for scope in scopes:
        where = getattr(scope, "name", "<module>")
        for node in _own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported = [getattr(node, "module", None)] + [a.name for a in node.names]
                found += [f"{where}: {m}" for m in imported if m in ("struct", "pickle")]
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "open":  # open(path, mode) or path.open(mode)
                    at = 1 if isinstance(func, ast.Name) else 0
                    modes = [*node.args[at:at + 1],
                             *(k.value for k in node.keywords if k.arg == "mode")]
                    mode = getattr(modes[0], "value", None) if modes else "r"
                    if not (isinstance(mode, str) and mode.strip("bt") in ("w", "a", "x")):
                        found.append(f"{where}: open")
                elif name in ("read_text", "read_bytes") or (
                        name in ("load", "fromfile")
                        and getattr(getattr(func, "value", None), "id", None) in ("np", "numpy")):
                    found.append(f"{where}: {name}")
    return found


def test_the_package_reads_only_its_configuration_file():
    reads = [f"{path.stem}.{read}" for path in _modules() for read in _outside_reads(_parse(path))]
    assert reads == ["cli._read_config_file: open"], (
        f"the configuration is the one outside file the package reads: {reads}")


def test_outside_reads_are_found_in_every_form():
    tree = ast.parse(
        "import json, struct\n"
        "from pickle import loads\n"
        "def save(path, blob):\n"
        "    with open(path, 'wb') as fh, open(path, mode='a') as log, path.open('x'):\n"
        "        fh.write(blob)\n"
        "    return load(path)\n"
        "class Store:\n"
        "    def load(self, path):\n"
        "        with open(path, 'rb') as fh, path.open() as again:\n"
        "            return np.load(path), np.fromfile(fh), path.read_bytes(), again\n"
    )
    assert sorted(_outside_reads(tree)) == [
        "<module>: pickle", "<module>: struct",
        "load: fromfile", "load: load", "load: open", "load: open", "load: read_bytes"]
