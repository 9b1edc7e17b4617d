"""Import rules between the modules of the eclab package, and what reaches
each public name, read from source."""
import ast
import glob
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "eclab"
)
ROOT = os.path.dirname(os.path.dirname(PACKAGE))
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def package_imports(nodes):
    """(module, name) for each `from` import of an eclab module under nodes."""
    for node in nodes:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.ImportFrom):
                continue
            module = sub.module or ""
            if sub.level == 0 and module != "eclab" and not module.startswith("eclab."):
                continue
            for alias in sub.names:
                yield module.rpartition(".")[2] if sub.level == 0 else module, alias.name


def test_the_walk_sees_every_module():
    assert {"census.py", "cli.py", "curves.py", "pseudoprimes.py", "sieve.py"} <= set(MODULES)
    assert ("curves", "TraceRecord") in set(package_imports([parse("census.py")]))


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_crosses_modules(name):
    private = [
        f"{module}.{imported}"
        for module, imported in package_imports([parse(name)])
        if imported.startswith("_")
    ]
    assert private == [], name


def test_sieve_does_not_import_census_at_run_time():
    # the CensusResult annotation is imported only for type checkers
    runtime = [
        node
        for node in parse("sieve.py").body
        if not (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        )
    ]
    assert "census" not in {module for module, _ in package_imports(runtime)}
    assert ("census", "CensusResult") in set(package_imports(parse("sieve.py").body))


def parse_file(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def layer_calls():
    """LAYER_CALLS of the benchmark's traced run, read without importing it."""
    tree = parse_file(os.path.join(ROOT, "perfbench", "traced_cli.py"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_CALLS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("LAYER_CALLS not found")


def test_every_traced_layer_is_a_cli_callable():
    # the traced benchmark run wraps each name with setattr on eclab.cli, so
    # a name the command module no longer holds breaks only that slow run
    import eclab.cli

    names = sorted(layer_calls())
    assert "order_level_report" in names and "run_census" in names
    missing = [name for name in names if not callable(getattr(eclab.cli, name, None))]
    assert missing == []


def referenced(nodes):
    """Every identifier a Name or an Attribute under nodes spells."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr


def test_every_public_def_serves_a_command_the_benchmark_or_an_acceptance_check():
    # Roots: the command line, every eclab name the benchmark imports or its
    # traced run wraps, and the names the acceptance suite imports. A def or
    # class reaches every top-level def or class its body names, matched by
    # name alone, so the walk can only over-reach; the module-level statements
    # run on import and reach what they name.
    defs, on_import = {}, []
    for name in MODULES:
        for node in parse(name).body:
            if isinstance(node, DEFS):
                defs.setdefault(node.name, []).append(node)
            else:
                on_import.append(node)
    sources = [
        *glob.glob(os.path.join(ROOT, "perfbench", "*.py")),
        os.path.join(ROOT, "tests", "test_acceptance.py"),
    ]
    todo = [
        "main",  # cli.main
        *(name for path in sources for _, name in package_imports([parse_file(path)])),
        *(value.rpartition(".")[2] for value in layer_calls().values()),
        *referenced(on_import),
    ]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(referenced(defs[name]))
    assert {"main", "run_census", "ratio_bounds_check", "_census_chunk"} <= reached
    unreached = sorted(name for name in defs if not name.startswith("_") and name not in reached)
    assert unreached == [], "reached by no root: " + ", ".join(unreached)
