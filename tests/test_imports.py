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
