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


def _package_imports(path):
    """Package modules that ``path`` imports, at any depth of its body."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hjlab."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("hjlab.")
            )
    return names


def test_package_imports_have_no_cycle():
    modules = {path.stem: path for path in SRC.glob("*.py")}
    graph = {m: sorted(_package_imports(p) & modules.keys()) for m, p in modules.items()}
    done, path = set(), []

    def visit(m):
        assert m not in path, "import cycle: " + " -> ".join(path[path.index(m):] + [m])
        if m in done:
            return
        path.append(m)
        for dep in graph[m]:
            visit(dep)
        path.pop()
        done.add(m)

    for m in sorted(graph):
        visit(m)
