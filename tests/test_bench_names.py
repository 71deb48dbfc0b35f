"""bench/tracer.py wraps the package's functions and methods by name, and
bench/probe.py stamps the first call of some of `fewtune.cli`'s names. A
renamed one would surface only inside the benchmark runs; here it fails at
once. Reads bench/tracer.py and bench/probe.py and changes nothing there."""

import ast
import importlib
import importlib.util
from pathlib import Path

import fewtune.cli  # imports every module the tracer lists

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
PROBE = BENCH / "probe.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{module}.{name}"
        for module, names in tracer.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"fewtune.{module}"), name, None))
    ]
    # Tracer.install reads each method, and the tape-node counter's from_root, from the class dict
    methods = (*tracer.METHODS, ("diffcore", "ComputeGraph", "from_root"))
    missing += [
        f"{module}.{cls}.{method}"
        for module, cls, method in methods
        if method not in vars(getattr(importlib.import_module(f"fewtune.{module}"), cls, object))
    ]
    assert missing == []


def probe_stamped_names():
    """The names of each `for name in (...): setattr(cli, name, ...)` loop in probe.py."""
    names = []
    for loop in ast.walk(ast.parse(PROBE.read_text())):
        if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple) and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "setattr"
            and getattr(call.args[0], "id", None) == "cli"
            for call in ast.walk(loop)
        ):
            names += [ast.literal_eval(element) for element in loop.iter.elts]
    return names


def test_every_probe_stamped_name_resolves():
    # probe.py replaces each name at cli's module attribute, so it must be a
    # callable there that cli's own functions read as a global
    names = probe_stamped_names()
    cli_source = Path(fewtune.cli.__file__).read_text()
    read_in_functions = {
        node.id
        for fn in ast.walk(ast.parse(cli_source)) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert names, "probe.py stamps no cli name"
    assert [name for name in names if not callable(vars(fewtune.cli).get(name))] == []
    assert [name for name in names if name not in read_in_functions] == []
