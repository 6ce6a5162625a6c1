import ast
from pathlib import Path

import padicdist


def test_library_has_no_assert_statements():
    # asserts vanish under python -O; library checks raise typed errors
    found = []
    for path in sorted(Path(padicdist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


def test_group_law_modules_raise_no_bare_value_error():
    # refusals in every module are PadicErrors that are also ValueErrors
    found = []
    for path in sorted(Path(padicdist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare ValueError raised in: {found}"


def test_library_modules_load_every_name_they_import():
    # an import whose name is never read is dead; __init__ re-exports its
    # imports, so it is exempt
    found = []
    for path in sorted(Path(padicdist.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in loaded]
    assert not found, f"imported names never loaded: {found}"


def _broad(handler):
    """Whether an except clause is bare or names Exception or BaseException."""
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id in ("Exception", "BaseException") for n in names)


def test_library_neither_unpickles_nor_swallows_every_exception():
    # a cache file is plain data, so no module imports pickle; and a handler
    # names the errors it expects, except where ``suites._record`` turns any
    # crash of a check into a failed record by design
    found = []
    for path in sorted(Path(padicdist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef)
                  and (path.name, func.name) == ("suites.py", "_record")
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "pickle" for alias in node.names):
                found.append(f"{path.name}:{node.lineno} import pickle")
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pickle":
                found.append(f"{path.name}:{node.lineno} from pickle import")
            if isinstance(node, ast.ExceptHandler) and _broad(node) and id(node) not in exempt:
                found.append(f"{path.name}:{node.lineno} broad except")
    assert not found, f"pickle imports or broad handlers in the library: {found}"
