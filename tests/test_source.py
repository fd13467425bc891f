"""Checks on the package source itself."""
import ast
import importlib.util
import inspect
import pathlib
import re

import pytest

import hjlab

SRC = pathlib.Path(hjlab.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


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


def test_every_file_parses_at_the_declared_python_floor():
    """Every ``.py`` file of the package, the tests, the benchmark and the
    demos parses as the oldest Python that ``requires-python`` admits, so
    syntax that is newer (``except*``, PEP 695 type parameters on 3.10) fails
    here too.  Only syntax is checked: a library call that exists only from
    3.11 on is not caught."""
    declared = (ROOT / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', declared).groups()))
    paths = [path for part in ("src", "tests", "bench", "demos")
             for path in sorted((ROOT / part).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


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


def test_words_imports_only_errors():
    # the word side is valid by construction and needs no finite-structure check
    assert _package_imports(SRC / "words.py") == {"errors"}


def test_the_input_modules_load_without_numpy():
    """``errors``, ``words``, ``instances`` and ``tableio`` import numpy, if
    at all, only inside a function, so they load without it."""
    found = []
    for name in ("errors.py", "words.py", "instances.py", "tableio.py"):
        for node in ast.parse((SRC / name).read_text()).body:
            if isinstance(node, ast.Import):
                found += [f"{name}: {a.name}" for a in node.names if a.name.split(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                found.append(f"{name}: from {node.module}")
    assert found == []


def _dotted_names(path):
    """``module.attr`` for each attribute read off a bare name in ``path``,
    and for each name a ``from module import`` brings in."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return names


def test_integers_are_read_in_one_place():
    """``errors._integer`` is the one reader of an integer parameter: no
    other module calls ``operator.index``, and none tests for a numpy
    integer type by hand."""
    used = {path.name: _dotted_names(path) for path in sorted(SRC.glob("*.py"))}
    assert "operator.index" in used["errors.py"]
    found = [
        f"{name}: {dotted}" for name, dotted_names in used.items() for dotted in dotted_names
        if dotted in ("np.integer", "numpy.integer")
        or dotted == "operator.index" and name != "errors.py"
    ]
    assert found == []


def test_integer_arrays_are_read_in_one_place():
    """``errors._integers`` is the one reader of an integer array: nothing
    else reads a ``.dtype.kind``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # each node's innermost function: ast.walk reaches outer ones first
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        found |= {
            f"{path.name} {owner.get(id(node))}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "kind"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"
        }
    assert sorted(found) == ["errors.py _integers"]


def _names_read(path):
    """Every name, attribute and ``from`` import in the code of ``path``;
    docstrings and comments do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return used


def test_each_input_rule_has_one_home():
    """The CLI and the certificate verifier reach the coloring-kind table and
    the setting's clause checks only through ``instances.require_fit`` and
    ``semigroups.setting_clauses``, so each rule is written in one place."""
    owned = {"KINDS_FOR", "is_nice_subsemigroup", "validate_retraction"}
    for name in ("cli.py", "certificates.py"):
        assert sorted(_names_read(SRC / name) & owned) == [], name


def test_every_export_has_a_caller_outside_the_tests():
    """Each name the package exports is read by the code of a package module
    other than the one that defines it (a name, an attribute or a ``from``
    import, so docstrings do not count), or is a word of the benchmark, a
    demo or the README.  A name only the tests reach is not API."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = {
        alias.name: node.module for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = {path.stem: _names_read(path) for path in SRC.glob("*.py")}
    paths = [*BENCH.glob("*.py"), *(ROOT / "demos").glob("*.py"), ROOT / "README.md"]
    words = set(re.findall(r"\w+", "\n".join(p.read_text() for p in paths)))
    unread = [
        name for name, home in exported.items() if name not in words and not any(
            name in names for module, names in read.items() if module not in (home, "__init__")
        )
    ]
    assert unread == []


def _load_bench(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    """Each (module, attribute path) the benchmark's tracer wraps still
    exists, so a refactor cannot leave a layer unmeasured unnoticed."""
    tracing = _load_bench(TRACING)
    missing = []
    for span, module_name, path, _ in tracing.LAYERS:
        try:
            tracing._resolve(module_name, path)
        except (ImportError, AttributeError):
            missing.append(f"{span} ({module_name}.{path})")
    assert missing == []


def test_every_traced_counter_reads_its_result():
    """A few tiny calls through every traced layer: each counter the
    benchmark's tracer takes from a layer's result is read, so a refactor
    that changes a result's type cannot leave a counter uncounted unnoticed."""
    tracing = _load_bench(TRACING)
    tracer = tracing.Tracer()
    restore, unmeasured = tracing.install(tracer)
    try:
        result = hjlab.hj_number(2, 2, 2)
        for N, res in result.runs:
            if res.status == hjlab.SAT:
                text = hjlab.render_certificate(hjlab.hj_coloring_certificate(2, N, 2, res))
                assert hjlab.verify_certificate_text(text)[0]
        assert hjlab.vdw_number(3, 2, 9).value == 9
        coloring = hjlab.parse_coloring_spec("apres:3")
        assert hjlab.find_ap_via_words(3, coloring, max_len=4).status == "found"
        entries = hjlab.generate_corpus(count=3, max_order=4, seed=0)
        assert hjlab.sweep_tensor_power(entries).ok
        S, view, family = hjlab.flag_semigroup(1)
        assert hjlab.check_agreement_equivalence(S, family, 2).equivalent
        sets = [
            hjlab.build_agreement_set(S, family, hjlab.SubsetQuery.from_members(S, chosen))
            for chosen in ([], view.members())
        ]
        assert hjlab.check_fip(sets).ok
    finally:
        tracing.uninstall(restore)
    assert unmeasured == []
    assert tracer.uncounted == set()
    assert sorted(set(tracing.COUNTER_NAMES) - tracer.counters.keys()) == []


@pytest.mark.parametrize("workload", ["hj_lines", "vdw_progressions", "tensor_corpus"])
def test_a_traced_benchmark_pass_matches_the_golden_record(workload):
    """One traced pass of a benchmark workload at seed 11, as ``bench/run.py
    --trace 1`` makes it: every answer, count and certificate digest equals
    ``bench/golden.json``, no layer is unmeasured, and the layer counters are
    the golden ones.  The workloads are named here, so that a slow workload
    added to the benchmark does not join this suite unasked."""
    tracing, workloads = _load_bench(TRACING), _load_bench(WORKLOADS)
    golden = workloads.load_golden()
    # built untraced, as bench/run.py builds them: traced, the corpus
    # generation would count its semigroups twice
    inputs = workloads.make_inputs(workload, 11)
    tracer = tracing.Tracer()
    restore, unmeasured = tracing.install(tracer)
    try:
        p = workloads.run_pass(workload, inputs, tracer)
    finally:
        tracing.uninstall(restore)
    assert unmeasured == []
    assert workloads.failures(workloads.expected_items(workload, golden), p) == {}
    assert tracing.counter_block(tracer) == golden["layer_counters"][workload]


def test_the_benchmark_calls_still_bind():
    """Every ``hjlab.<name>`` the benchmark's workloads use resolves, and
    every call of one binds to its signature with the same number of
    positional arguments and the same keywords, so a refactor cannot break
    the benchmark unnoticed.  A call with ``*args`` or ``**kwargs`` has no
    static shape and is only resolved."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    used, broken = 0, []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "hjlab"):
            continue
        used += 1
        where = f"workloads.py:{node.lineno} hjlab.{node.attr}"
        if not hasattr(hjlab, node.attr):
            broken.append(f"{where} does not resolve")
            continue
        call = calls.get(id(node))
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            continue
        try:
            inspect.signature(getattr(hjlab, node.attr)).bind(
                *call.args, **{k.arg: k.value for k in call.keywords}
            )
        except TypeError as e:
            broken.append(f"{where}: {e}")
    assert used > 20
    assert broken == []
