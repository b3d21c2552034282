import ast
import pathlib

import ashg


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so integrity checks must raise
    found = []
    for path in sorted(pathlib.Path(ashg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
