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


def traced_tiny_pass(monkeypatch, workload):
    """Run one traced tiny pass of ``workload`` in a worker and check its
    answers; returns the completeness identities it breaks, the trace and Σpw."""
    # run.py puts bench/ on sys.path and imports ``workloads``; keep both local
    monkeypatch.setattr(sys, "path", list(sys.path))
    workloads = load_by_path("workloads", BENCH / "workloads.py")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    run = load_by_path("bench_run", BENCH / "run.py")
    # the worker names its span file relative to the checkout, so work inside it
    work = ROOT / ".bench_work" / f"tests-{os.getpid()}"
    try:
        if workload == workloads.VerifySweep.name:
            # as run.py does: a separate process writes the tables the sweep reads
            work.mkdir(parents=True, exist_ok=True)
            subprocess.run(
                [sys.executable, str(BENCH / "worker.py"),
                 "--prepare-cache", str(work / "chartables.json"), "--tiny"],
                cwd=ROOT, check=True, timeout=120,
            )
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, "--tiny",
             "--trace", "1", "--seed", "1", "--work", str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["errors"] == []
    kind = workloads.WORKLOADS[workload]
    total_ph = total_pw = 0
    for op, answer in zip(kind(1, None, True).ops, result["answers"], strict=True):
        failures, _, ph, pw = kind.check(op, answer)
        assert failures == []
        total_ph += ph
        total_pw += pw
    assert total_pw > 0
    trace = result["trace"]
    wall = sum(result["times"])
    return run.identities(workload, trace, wall, total_ph, total_pw), trace, total_pw


def test_traced_decompose_pass_keeps_the_completeness_identities(monkeypatch):
    violations, _, _ = traced_tiny_pass(monkeypatch, "decompose-large")
    assert violations == []


def test_traced_bijection_pass_keeps_the_completeness_identities(monkeypatch):
    violations, trace, total_pw = traced_tiny_pass(monkeypatch, "pictures-bijection")
    assert violations == []
    # one validated Picture per enumerated picture, and one per E and per F step
    assert trace["per_name"]["pictures.picture_init"]["calls"] == 3 * total_pw


def test_traced_verify_pass_keeps_the_completeness_identities(monkeypatch):
    violations, trace, total_pw = traced_tiny_pass(monkeypatch, "verify-sweep")
    assert violations == []
    # the sweep validates one Picture per picture it counts, and no other
    assert trace["per_name"]["pictures.picture_init"]["calls"] == total_pw
