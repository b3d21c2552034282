import ast
import pathlib

import ashg


def _package_trees():
    for path in sorted(pathlib.Path(ashg.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so integrity checks must raise
    found = []
    for name, tree in _package_trees():
        found += ["%s:%d" % (name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_function_local_imports():
    # an import inside a function runs on every call; keep them at module top
    found = []
    for name, tree in _package_trees():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += ["%s:%d" % (name, node.lineno) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
