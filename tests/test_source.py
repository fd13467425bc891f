"""Checks on the package source itself."""
import ast
import pathlib

import hjlab

SRC = pathlib.Path(hjlab.__file__).parent


def test_no_assert_survives_python_O():
    """Every check in the package is an explicit raise of a package error, so
    running under ``python -O`` changes nothing."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert found == []
