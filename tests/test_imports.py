"""Every module-level import of the package is used by its module, and
every parameter of a package function is read by its body."""

import ast
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
