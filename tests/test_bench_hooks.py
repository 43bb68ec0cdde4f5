"""The traced benchmark run wraps entry points by module and attribute name.

``bench/tracer.py`` is loaded by path, as the benchmark loads it, so a rename
in ``hookkron`` fails here instead of only in a traced benchmark run.
"""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACER_PATH = BENCH / "tracer.py"


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_by_path("bench_tracer", TRACER_PATH)


def test_every_traced_entry_point_resolves():
    tracer = load_tracer()
    functions = [entry[:2] for entry in tracer.FUNCTIONS] + [tracer.ORDERED_MAP[:2]]
    for module, attr in functions:
        fn = getattr(importlib.import_module(f"hookkron.{module}"), attr, None)
        assert callable(fn), f"hookkron.{module}.{attr}"
    for module, cls_name, method, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"hookkron.{module}"), cls_name, None)
        assert cls is not None and method in vars(cls), f"hookkron.{module}.{cls_name}.{method}"


def test_traced_decompose_pass_keeps_the_completeness_identities(monkeypatch):
    # run.py puts bench/ on sys.path and imports ``workloads``; keep both local
    monkeypatch.setattr(sys, "path", list(sys.path))
    workloads = load_by_path("workloads", BENCH / "workloads.py")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    run = load_by_path("bench_run", BENCH / "run.py")
    # the worker names its span file relative to the checkout, so work inside it
    work = ROOT / ".bench_work" / f"tests-{os.getpid()}"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "decompose-large", "--tiny",
             "--trace", "1", "--seed", "1", "--work", str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["errors"] == []
    ops = workloads.DecomposeLarge(1, None, True).ops
    total_ph = total_pw = 0
    for op, answer in zip(ops, result["answers"], strict=True):
        failures, _, ph, pw = workloads.DecomposeLarge.check(op, answer)
        assert failures == []
        total_ph += ph
        total_pw += pw
    assert total_pw > 0
    name, wall = workloads.DecomposeLarge.name, sum(result["times"])
    assert run.identities(name, result["trace"], wall, total_ph, total_pw) == []
