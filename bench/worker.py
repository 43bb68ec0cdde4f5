"""The timed process: one pass over one workload's operation list.

Usage: worker.py WORKLOAD --seed N --trace 0|1 --work DIR [--setup-only] [--tiny]
       worker.py --prepare-cache FILE [--tiny]

It imports ``hookkron`` from the checkout's ``src``, builds the inputs from
the seed, prints ``ready`` (the parent times set-up up to that line), runs
every operation with the clock around it, times the reference loop between
operations, and prints one JSON line with the per-operation times, the
reference times, the answers and the answer digests.
Answers are checked by the parent after all timing is done.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hookkron  # noqa: E402
import hookkron.cli  # noqa: E402,F401  (set-up, not the first operation, pays for it)

import workloads  # noqa: E402


# The reference loop: fixed pure-Python work that depends on nothing in
# hookkron.  Timed between operations, it tracks how fast the shared machine
# runs at that moment, so operation times can be expressed in its units.
REFERENCE_ITERATIONS = 100_000
REFERENCE_SAMPLES = 24


def reference() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def prepare_cache(path: str, tiny: bool) -> None:
    """Write the character tables the verify sweep reads, in this process."""
    n_min, n_max = workloads.VERIFY_DEGREES[tiny]
    for n in range(n_min, n_max + 1):
        hookkron.oracle.character_table(n, cache=path)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prepare-cache", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.prepare_cache:
        prepare_cache(args.prepare_cache, args.tiny)
        return 0
    work = Path(args.work)
    bench = workloads.WORKLOADS[args.workload](
        args.seed, str(work / "chartables.json"), args.tiny
    )
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    clock = time.perf_counter
    times, digests, answers, errors, refs = [], [], [], [], []
    # about REFERENCE_SAMPLES per pass: spread over long operation lists, in
    # bursts before and after each operation of a short one (verify-sweep)
    ref_every = max(1, len(bench.ops) // REFERENCE_SAMPLES)
    burst = max(1, REFERENCE_SAMPLES // (len(bench.ops) + 1))
    for index, op in enumerate(bench.ops):
        if index % ref_every == 0:
            refs.extend(reference() for _ in range(burst))
        start = clock()
        if tracer is not None:
            tracer.begin_op(index, start)
        try:
            parts, answer = bench.run(op)
        except Exception as exc:  # an operation that raises is a failed operation
            parts, answer = None, None
            errors.append(f"op {index} {op!r} raised {type(exc).__name__}: {exc}")
        end = clock()
        if tracer is not None:
            tracer.end_op(end)
        times.append(end - start)
        digests.append(None if parts is None else workloads.digest(parts))
        answers.append(answer)
    refs.extend(reference() for _ in range(burst))

    result = {
        "times": times,
        "reference_s": refs,
        "digests": digests,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "answers": answers,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        spans = work / "spans" / f"{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
        result["trace"]["file"] = str(spans.relative_to(ROOT))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
