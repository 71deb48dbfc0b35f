"""bench/tracer.py wraps the package's functions and methods by name. A
renamed one would surface only inside the traced benchmark runs; here it
fails at once. Reads bench/tracer.py and changes nothing there."""

import importlib
import importlib.util
from pathlib import Path

import fewtune.cli  # noqa: F401  (imports every module the tracer lists)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
