"""hookkron benchmark: three workloads, end-to-end metrics, and a traced run
with one row per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0|1

NAME is ``verify-sweep``, ``decompose-large`` or ``pictures-bijection``.
Every pass over a workload's operation list runs in a fresh, single-threaded
process (``bench/worker.py``), so each pass starts with cold in-memory caches.
Passes repeat to fill about ``--seconds``, at least five of them.  The answers
are checked against the character-table oracle in this process, after all
timing is done.

Operation times are also expressed in units of a reference loop timed in
the same pass, because the shared machine's speed drifts between runs.
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate on the same inputs and the per-layer
metrics are reported.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, answer digest, sample counts, per-span table) is written to
``.bench_work/results/`` in the checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PER_ROUND = 2
MIN_PASSES = 5
LATENCY_MIN_OPS = 10
RUN_LIMIT_S = 170.0
CHECK_RESERVE_S = 25.0

# name, unit, better.  Times in "ref" units are divided by the median time of
# the reference loop in the same pass (see worker.py and README.md): the
# shared machine's speed drifts too much between runs for raw seconds to
# hold a bound, and the seconds are still printed and recorded.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_ref", "ref", "lower"),
    ("checks_per_ref", "1/ref", "higher"),
    ("pictures_per_ref", "1/ref", "higher"),
    ("op_p50_ref", "ref", "lower"),
    ("op_p90_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
RAW = (
    ("wall_s", "s"),
    ("checks_per_s", "1/s"),
    ("pictures_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("reference_ms", "ms"),
)

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("pictures.enumerate.self_s", "s", "lower", "wall_s, op_p90_ms on decompose-large"),
    ("pictures.enumerate.calls", "count", "lower", "checks_per_s on verify-sweep"),
    ("pictures.enumerate.empty_ratio", "ratio", "lower", "checks_per_s on verify-sweep"),
    ("pictures.picture_init.count", "count", "lower",
     "pictures_per_s, peak_rss_mb on decompose-large; pictures_per_s on pictures-bijection"),
    ("pictures.picture_init.self_s", "s", "lower",
     "pictures_per_s, peak_rss_mb on decompose-large; pictures_per_s on pictures-bijection"),
    ("pictures.bump.calls", "count", "lower", "wall_s on decompose-large and pictures-bijection"),
    ("pictures.bump.self_s", "s", "lower", "wall_s on decompose-large and pictures-bijection"),
    ("pictures.insert.self_s", "s", "lower", "wall_s on pictures-bijection only"),
    ("pictures.delete.self_s", "s", "lower", "wall_s on pictures-bijection only"),
    ("pictures.to_rw.self_s", "s", "lower", "wall_s on pictures-bijection"),
    ("pictures.to_json.self_s", "s", "lower", "wall_s on pictures-bijection"),
    ("hook_rule.pw_set.calls", "count", "lower", "checks_per_s on verify-sweep"),
    ("hook_rule.pw_set.nonempty_ratio", "ratio", "higher", "checks_per_s on verify-sweep"),
    ("hook_rule.pw_set.self_s", "s", "lower", "checks_per_s on verify-sweep"),
    ("hook_rule.picture_counts.self_s", "s", "lower", "checks_per_s on verify-sweep"),
    ("hook_rule.typed_picture.count", "count", "lower", "wall_s on decompose-large"),
    ("hook_rule.typed_picture.self_s", "s", "lower", "wall_s on decompose-large"),
    ("hook_rule.balanced_cocorner.calls", "count", "lower", "op_p50_ms on decompose-large"),
    ("hook_rule.balanced_cocorner.self_s", "s", "lower", "op_p50_ms on decompose-large"),
    ("hook_rule.balanced_cocorner.hit_ratio", "ratio", "higher", "op_p50_ms on decompose-large"),
    ("hook_rule.balanced_corner.self_s", "s", "lower", "wall_s on pictures-bijection"),
    ("hook_rule.decompose.self_s", "s", "lower", "wall_s on decompose-large"),
    ("hook_rule.to_json.self_s", "s", "lower", "wall_s on decompose-large"),
    ("tableaux.delete.calls", "count", "lower", "wall_s on pictures-bijection only"),
    ("tableaux.delete.self_s", "s", "lower", "wall_s on pictures-bijection only"),
    ("tableaux.row_reading.self_s", "s", "lower", "wall_s on pictures-bijection"),
    ("lr.lr_coefficient.calls", "count", "lower", "checks_per_s on verify-sweep only"),
    ("lr.lr_coefficient.hit_ratio", "ratio", "higher", "checks_per_s on verify-sweep only"),
    ("lr.lr_coefficient.self_s", "s", "lower", "checks_per_s on verify-sweep only"),
    ("lr.exterior_via_lr.self_s", "s", "lower", "checks_per_s on verify-sweep only"),
    ("oracle.character_table.calls", "count", "lower", "checks_per_s on verify-sweep only"),
    ("oracle.character_table.self_s", "s", "lower", "checks_per_s on verify-sweep only"),
    ("oracle.cache_load.self_s", "s", "lower", "checks_per_s on verify-sweep only"),
    ("oracle.kronecker.calls", "count", "lower", "checks_per_s on verify-sweep only"),
    ("oracle.kronecker.self_s", "s", "lower", "checks_per_s on verify-sweep only"),
    ("oracle.exterior_multiplicity.self_s", "s", "lower", "checks_per_s on verify-sweep only"),
    ("verify.verify_range.self_s", "s", "lower", "checks_per_s on verify-sweep"),
    ("parallel.ordered_map.self_s", "s", "lower", "checks_per_s on verify-sweep"),
    ("cli.main.self_s", "s", "lower", "wall_s on decompose-large"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_ref over untraced wall_ref"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(values, q):
    """The q-th percentile, interpolated between closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hookkron").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT),
        "workload": workload,
        "seed": seed,
        "ops": ops,
    }


def spawn(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run the worker; return the time until it printed ``ready`` and its
    result line (None for a set-up-only run)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {' '.join(argv)} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def layer_value(name: str, summary: dict) -> float:
    span, stat = name.rsplit(".", 1)
    entry = summary["per_name"].get(span, {"calls": 0, "self_s": 0.0})
    calls = entry["calls"]
    if stat == "self_s":
        return entry["self_s"]
    if stat in ("calls", "count"):
        return calls
    if span == "lr.lr_coefficient":
        cache = summary.get("lr_cache", {"hits": 0, "misses": 0})
        lookups = cache["hits"] + cache["misses"]
        return cache["hits"] / lookups if lookups else 0.0
    if stat.endswith("_ratio"):
        return summary["hits"].get(span, 0) / calls if calls else 0.0
    raise KeyError(name)


def identities(workload: str, summary: dict, wall: float, total_ph: int, total_pw: int) -> list[str]:
    """Completeness identities of one traced pass; returns the violations."""
    bad = []
    per_name = summary["per_name"]
    if summary["missing"]:
        bad.append(f"entry points not found: {', '.join(summary['missing'])}")
    inits = per_name.get("pictures.picture_init", {"calls": 0})["calls"]
    if inits < total_pw:
        bad.append(f"pictures.picture_init.count {inits} < sum pw {total_pw}")
    if workload == workloads.DecomposeLarge.name:
        calls = per_name.get("hook_rule.balanced_cocorner", {"calls": 0})["calls"]
        hits = summary["hits"].get("hook_rule.balanced_cocorner", 0)
        if (calls, hits) != (total_pw, total_ph):
            bad.append(
                f"hook_rule.balanced_cocorner calls/hits {calls}/{hits} != "
                f"sum pw/ph {total_pw}/{total_ph}"
            )
    if abs(summary["self_sum_s"] - wall) > 1e-6 * wall + 1e-9:
        bad.append(f"self times sum to {summary['self_sum_s']!r}, traced wall_s is {wall!r}")
    if summary["min_self_s"] < -1e-9:
        bad.append(f"negative self time {summary['min_self_s']!r}")
    return bad


def in_ref_units(result: dict) -> list[float]:
    """A pass's operation times over the median reference time of the pass."""
    ref = statistics.median(result["reference_s"])
    return [t / ref for t in result["times"]]


def timings(passes: list[list[float]]) -> tuple[float, list[float]]:
    """The wall time of the operation list (the sum of per-operation medians)
    and the latency samples.  The samples are all operation times; with a
    handful of operations per pass (verify-sweep has one) pooling would
    measure only pass-to-pass noise, so each operation's median is used."""
    medians = [statistics.median(times) for times in zip(*passes)]
    if len(medians) >= LATENCY_MIN_OPS:
        return sum(medians), [t for times in passes for t in times]
    return sum(medians), medians


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    base = [name, "--seed", str(seed), "--work", str(WORK)] + (["--tiny"] if tiny else [])
    if name == workloads.VerifySweep.name:
        cache = WORK / "chartables.json"
        cache.unlink(missing_ok=True)
        # a separate process writes the file, so timed passes read it cold
        prep = subprocess.run(
            [sys.executable, str(WORKER), "--prepare-cache", str(cache)]
            + (["--tiny"] if tiny else []),
            cwd=ROOT, timeout=max(1.0, deadline - time.perf_counter()),
        )
        if prep.returncode != 0:
            raise BenchError(f"writing {cache} failed with exit code {prep.returncode}")

    kinds = ("plain", "traced") if trace else ("plain",)
    setups: list[float] = []
    passes: list[tuple[str, dict]] = []

    def one_round() -> float:
        begin = time.perf_counter()
        # set-up samples are spread over the run, not taken in one burst
        for _ in range(SETUP_PER_ROUND):
            setups.append(spawn(base + ["--setup-only"], deadline)[0])
        for kind in kinds:
            argv = base + ["--trace", str(int(kind == "traced"))]
            setup, result = spawn(argv, deadline)
            if kind == "plain":
                setups.append(setup)
            passes.append((kind, result))
        return time.perf_counter() - begin

    # as many rounds as fill --seconds, judged by the first round
    round_s = one_round()
    rounds = max(1 if trace else MIN_PASSES, round(seconds / round_s))
    for _ in range(rounds - 1):
        if time.perf_counter() + round_s > deadline - CHECK_RESERVE_S:
            break
        one_round()
    measured_s = time.perf_counter() - started

    # everything below is outside the timed region
    bench = workloads.WORKLOADS[name](seed, str(WORK / "chartables.json"), tiny)
    reference = passes[0][1]
    failures = [error for _, result in passes for error in result["errors"]]
    op_ok, checks, total_ph, total_pw = [], 0, 0, 0
    for index, (op, answer) in enumerate(zip(bench.ops, reference["answers"])):
        if answer is None:
            op_ok.append(False)
            continue
        try:
            bad, op_checks, ph, pw = bench.check(op, answer)
        except Exception as exc:  # a malformed answer must not stop the report
            bad, op_checks, ph, pw = [f"op {index}: check raised {exc!r}"], 0, 0, 0
        failures.extend(bad)
        op_ok.append(not bad)
        checks += op_checks
        total_ph += ph
        total_pw += pw
    attempted = failed = 0
    for kind, result in passes:
        for index, op_digest in enumerate(result["digests"]):
            attempted += 1
            if op_digest is None or op_digest != reference["digests"][index] or not op_ok[index]:
                failed += 1
    answer_digest = workloads.digest(reference["digests"])
    traced_digests = sorted({workloads.digest(r["digests"]) for k, r in passes if k == "traced"})
    if traced_digests and traced_digests != [answer_digest]:
        failures.append("traced and untraced answer digests differ")

    plain = [r for k, r in passes if k == "plain"]
    walls = [sum(r["times"]) for r in plain]
    wall, op_times = timings([r["times"] for r in plain])
    refs = [statistics.median(r["reference_s"]) for r in plain]
    wall_ref, op_refs = timings([in_ref_units(r) for r in plain])
    record = {
        "environment": environment(name, seed, len(bench.ops)),
        "answer_digest": answer_digest,
        "passes": {k: sum(1 for kind, _ in passes if kind == k) for k in kinds},
        "pass_wall_s": walls,
        "pass_reference_s": refs,
        "setup_samples_s": setups,
        "op_samples": len(op_times),
        "checks_per_pass": checks,
        "sum_ph": total_ph,
        "sum_pw": total_pw,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:50],
        "measured_s": measured_s,
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref": wall_ref,
        "checks_per_ref": checks / wall_ref,
        "pictures_per_ref": total_pw / wall_ref,
        "op_p50_ref": statistics.median(op_refs),
        "op_p90_ref": percentile(op_refs, 90),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
    }
    raw = {
        "wall_s": wall,
        "checks_per_s": checks / wall,
        "pictures_per_s": total_pw / wall,
        "op_p50_ms": 1000 * statistics.median(op_times),
        "op_p90_ms": 1000 * percentile(op_times, 90),
        "reference_ms": 1000 * statistics.median(refs),
    }
    record["raw_seconds"] = {n: {"value": raw[n], "unit": u} for n, u in RAW}
    units = {n: u for n, u, _ in END_TO_END}
    correct = not failures and failed == 0
    if trace:
        traced = [r for k, r in passes if k == "traced"]
        violations = []
        for r in traced:
            violations += identities(name, r["trace"], sum(r["times"]), total_ph, total_pw)
        correct = correct and not violations
        record["identity_violations"] = violations
        record["spans"] = [r["trace"]["spans"] for r in traced]
        record["span_file"] = traced[-1]["trace"]["file"]
        record["per_span"] = traced[0]["trace"]["per_name"]
        record["end_to_end"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
        metrics = {
            n: statistics.median_low(layer_value(n, r["trace"]) for r in traced)
            for n, _, _, _ in PER_LAYER
            if n != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = timings([in_ref_units(r) for r in traced])[0] / wall_ref
        units = {n: u for n, u, _, _ in PER_LAYER}
    record["correct"] = correct
    record["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    report(name, record, trace)
    return record


def report(name: str, record: dict, trace: bool) -> None:
    env = record["environment"]
    print(f"== {name}  seed={env['seed']}  ops={env['ops']}  passes={record['passes']}")
    print(
        f"   python {env['python']}  nproc {env['nproc']}  git {env['git_sha']}  "
        f"src {env['src_sha256'][:16]}"
    )
    print(f"   answer digest {record['answer_digest']}  sum ph {record['sum_ph']}  sum pw {record['sum_pw']}")
    print(
        f"   attempted {record['attempted']}  failed {record['failed']}  "
        f"error_rate {record['error_rate']:.6g}  correct {record['correct']}"
    )
    passes = len(record["pass_wall_s"])
    samples = {
        "setup_s": len(record["setup_samples_s"]),
        "wall_ref": passes,
        "wall_s": passes,
        "reference_ms": passes,
        **{n: record["op_samples"] for n in ("op_p50_ref", "op_p90_ref", "op_p50_ms", "op_p90_ms")},
    }
    shown = dict(record["metrics"])
    if not trace:
        shown.update(record["raw_seconds"])
    for metric, entry in shown.items():
        extra = f"  (n={samples[metric]})" if metric in samples else ""
        print(f"   {metric:42s} {entry['value']:>14.6g} {entry['unit']}{extra}")
    if trace:
        print("   no layer has wait time: every pass is one single-threaded process")
    for line in record.get("identity_violations", []) + record["failures"][:10]:
        print(f"   FAIL {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for bench/selftest.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hookkron" / "__init__.py").is_file():
        print(f"error: no hookkron sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = {
            n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.tiny)
            for n in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = next(iter(records.values()))["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in records.items() for m, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
