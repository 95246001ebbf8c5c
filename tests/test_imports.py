"""Every module-level import of the package is used by its module, no
function imports a package module, every parameter of a package
function is read by its body, every keyword-only parameter is set by
some caller, every field a package class stores is read somewhere, and
every call the benchmark makes into the package resolves."""

import ast
import inspect
from pathlib import Path

import omegacube

PACKAGE = Path(omegacube.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.If):  # e.g. imports under TYPE_CHECKING
            statements.extend(node.body + node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_package_modules_use_every_module_level_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        path.name: found
        for path in modules
        if (found := _unused_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert unused == {}


def _function_local_package_imports(tree: ast.Module) -> list[str]:
    """Imports of a package module made inside a function body."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else ["."]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m == "." or m.split(".")[0] == PACKAGE.name for m in modules):
                found.add(f"{fn.name} (line {node.lineno})")
    return sorted(found)


def test_no_function_imports_a_package_module():
    planted = "def f():\n    from .presentation import make_dirs\n    import omegacube.term\n"
    assert _function_local_package_imports(ast.parse(planted)) == [
        "f (line 2)",
        "f (line 3)",
    ]
    local = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _function_local_package_imports(ast.parse(path.read_text())))
    }
    assert local == {}


def _unread_parameters(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [f"{node.name}({p.arg}) (line {node.lineno})" for p in params if p.arg not in read]
    return found


def test_package_functions_read_every_parameter():
    modules = sorted(PACKAGE.glob("*.py"))
    unread = {
        path.name: found
        for path in modules
        if (found := _unread_parameters(ast.parse(path.read_text(), filename=str(path))))
    }
    assert unread == {}


# Library entry points the README names that no workflow calls.
README_ENTRY_POINTS: frozenset[str] = frozenset()


def _package_graph() -> tuple[dict, dict]:
    """Top-level definitions as (module, name) keys, and what each reads.

    A definition is a function, a class or a module-level assignment;
    it reads every package name loaded anywhere in its statement,
    resolved through the module's own definitions and its relative
    imports (function-level imports included).
    """
    binds: dict[tuple[str, str], tuple[str, str]] = {}
    reads: dict[tuple[str, str], set[str]] = {}
    for path in PACKAGE.glob("*.py"):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    binds[module, alias.asname or alias.name] = (node.module, alias.name)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            loaded = {
                n.id
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for name in names:
                binds[module, name] = (module, name)
                reads[module, name] = loaded
    return binds, reads


def _home(binds: dict, key: tuple[str, str]) -> tuple[str, str]:
    """Follow re-exports to the module that defines the name."""
    while binds.get(key, key) != key:
        key = binds[key]
    return key


def test_every_export_is_reached_from_a_workflow():
    binds, reads = _package_graph()
    reached: set[tuple[str, str]] = set()
    stack = [key for key in reads if key[0] in ("cli", "acceptance")]
    while stack:
        key = stack.pop()
        if key in reached:
            continue
        reached.add(key)
        stack.extend(
            _home(binds, (key[0], name)) for name in reads[key] if (key[0], name) in binds
        )
    exported = [key for key in binds if key[0] == "__init__" and not key[1].startswith("_")]
    assert exported
    unreached = sorted(
        key[1]
        for key in exported
        if _home(binds, key) not in reached and key[1] not in README_ENTRY_POINTS
    )
    assert unreached == []


# Where a knob counts as set: the package, the demos and the benchmark
# harness, not the tests.
CALLER_DIRS = ("src", "demos", "perfbench")


def _keyword_only_parameters() -> set[tuple[str, str]]:
    """(function name, parameter) for every keyword-only parameter."""
    return {
        (node.name, p.arg)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for p in node.args.kwonlyargs
    }


def _keyword_settings(knobs: set) -> tuple[set, set]:
    """The knobs some call passes a value, and the knob-to-knob forwards.

    A call sets a knob when it passes the keyword, matched by callee
    name, unless the value is only the calling function's own
    keyword-only parameter: that call forwards the caller's knob, and
    is returned as a (caller knob, callee knob) edge instead.
    """
    concrete: set[tuple[str, str]] = set()
    forwards: set[tuple[tuple[str, str], tuple[str, str]]] = set()

    def visit(node: ast.AST, caller: ast.FunctionDef | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            caller = node
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for kw in node.keywords:
                knob = (callee, kw.arg)
                if knob not in knobs:
                    continue
                own = caller and isinstance(kw.value, ast.Name) and (caller.name, kw.value.id)
                if own in knobs:
                    forwards.add((own, knob))
                else:
                    concrete.add(knob)
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    root = PACKAGE.parent.parent
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                visit(ast.parse(path.read_text(), filename=str(path)), None)
    return concrete, forwards


def test_every_keyword_only_parameter_is_set_by_a_workflow():
    knobs = _keyword_only_parameters()
    assert knobs
    reached, forwards = _keyword_settings(knobs)
    while more := {knob for own, knob in forwards if own in reached} - reached:
        reached |= more
    assert sorted(f"{name}({param})" for name, param in knobs - reached) == []


# Members the README names that no workflow reads.
README_MEMBERS = frozenset({"to_file", "merge_reasons"})


def _public_members() -> set[tuple[str, str]]:
    """(class name, member name) for every public method and property
    defined in the body of a package class."""
    return {
        (node.name, item.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def _attribute_reads() -> set[tuple[str, tuple[str, str] | None]]:
    """Each attribute name read in the workflows, with the (class,
    method) whose body holds the read, or None outside any method."""
    reads: set[tuple[str, tuple[str, str] | None]] = set()

    def visit(node: ast.AST, owner: tuple[str, str] | None) -> None:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            method = isinstance(node, ast.ClassDef) and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            visit(child, (node.name, child.name) if method else owner)

    root = PACKAGE.parent.parent
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                visit(ast.parse(path.read_text(), filename=str(path)), None)
    return reads


def test_every_public_member_is_read_by_a_workflow():
    """Each public method or property of a package class is read as an
    attribute in src/, demos/ or perfbench/, outside its own body.

    Reads are matched by name, not by type, so a member whose name
    another class also uses (to_dict, identity) passes whenever the
    other one is read: the lint cannot see that kind of dead member.
    """
    members = _public_members()
    assert members
    reads = _attribute_reads()
    unread = {
        name
        for cls, name in members
        if name not in README_MEMBERS
        and not any(attr == name and owner != (cls, name) for attr, owner in reads)
    }
    assert sorted(unread) == []


def _stored_fields() -> set[tuple[str, str]]:
    """(class name, field name) for every ``self.<name>`` a method of a
    package class assigns."""
    return {
        (node.name, n.attr)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(item)
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name)
        and n.value.id == "self"
    }


def test_every_stored_field_is_read_by_a_workflow():
    """Each field a package class stores on self is read as an attribute
    somewhere in src/, demos/ or perfbench/.

    As for members, reads are matched by name, so a field whose name
    another class's attribute shares passes whenever either is read.
    """
    fields = _stored_fields()
    assert fields
    read = {attr for attr, _ in _attribute_reads()}
    assert sorted(f"{cls}.{name}" for cls, name in fields if name not in read) == []


def _is_library(node: ast.expr) -> bool:
    """The benchmark's handle on the library: ``oc`` or ``self.oc``."""
    if isinstance(node, ast.Name):
        return node.id == "oc"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "oc"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _unresolved_library_calls(tree: ast.Module) -> tuple[int, list[str]]:
    """How many ``oc.X(...)`` calls a module makes, and those naming no
    export of the package or passing a keyword the export does not take."""
    calls, bad = 0, []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and _is_library(node.func.value)
        ):
            continue
        calls += 1
        name = node.func.attr
        export = None if name.startswith("_") else getattr(omegacube, name, None)
        if export is None:
            bad.append(f"{name} (line {node.lineno}) is not an export")
            continue
        params = inspect.signature(export).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        bad.extend(
            f"{name}({kw.arg}=) (line {node.lineno})"
            for kw in node.keywords
            if kw.arg is not None and kw.arg not in params
        )
    return calls, bad


def test_every_benchmark_call_resolves_in_the_package():
    """A benchmark call of a renamed export or a removed keyword fails
    here, not only when the benchmark runs."""
    planted = "oc.enumerate_free_magma(p, 2, sizecap=3)\nself.oc.no_such_export()\noc.TermError\n"
    assert _unresolved_library_calls(ast.parse(planted)) == (
        2,
        ["enumerate_free_magma(sizecap=) (line 1)", "no_such_export (line 2) is not an export"],
    )
    scripts = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))
    scanned = {
        path.name: _unresolved_library_calls(ast.parse(path.read_text(), filename=str(path)))
        for path in scripts
    }
    assert sum(calls for calls, _ in scanned.values()) > 0
    assert {name: bad for name, (_, bad) in scanned.items() if bad} == {}
