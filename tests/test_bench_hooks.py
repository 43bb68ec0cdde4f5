"""The traced benchmark run wraps entry points by module and attribute name.

``bench/tracer.py`` is loaded by path, as the benchmark loads it, so a rename
in ``hookkron`` fails here instead of only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracer = load_tracer()
    functions = [entry[:2] for entry in tracer.FUNCTIONS] + [tracer.ORDERED_MAP[:2]]
    for module, attr in functions:
        fn = getattr(importlib.import_module(f"hookkron.{module}"), attr, None)
        assert callable(fn), f"hookkron.{module}.{attr}"
    for module, cls_name, method, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"hookkron.{module}"), cls_name, None)
        assert cls is not None and method in vars(cls), f"hookkron.{module}.{cls_name}.{method}"
