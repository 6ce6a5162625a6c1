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
