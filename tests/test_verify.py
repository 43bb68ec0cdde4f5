import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hookkron
import hookkron.hook_rule as hook_rule
from hookkron import lr, oracle, parallel, shapes
from hookkron.errors import TooLargeError
from hookkron.shapes import contains, partitions
from hookkron.verify import Mismatch, verify_range


class TestVerifyRange:
    def test_small_sweep_passes(self):
        report = verify_range(2, 4)
        assert report.ok
        assert report.checks > 0
        assert "all pass" in report.summary()

    def test_jobs_give_identical_report(self):
        sequential = verify_range(4, 4, jobs=1)
        parallel = verify_range(4, 4, jobs=2)
        assert sequential == parallel

    def test_bad_range(self):
        with pytest.raises(ValueError):
            verify_range(3, 2)

    @pytest.mark.parametrize("jobs", [0, True, 1.5], ids=["zero", "true", "float"])
    def test_a_refused_worker_count_leaves_no_cache_file(self, tmp_path, jobs):
        path = tmp_path / "tables.json"
        with pytest.raises(ValueError, match="expected an integer worker count of at least 1"):
            verify_range(2, 3, jobs=jobs, cache=path)
        assert not path.exists()

    def test_a_range_above_the_cap_leaves_no_cache_file(self, tmp_path):
        path = tmp_path / "tables.json"
        with pytest.raises(TooLargeError, match="degree 10 exceeds the cap 9"):
            verify_range(8, 10, cache=path)
        assert not path.exists()

    def test_injected_fault_is_named(self, monkeypatch):
        # a balanced-cocorner scan that never fires drives every hook count
        # to zero, which the oracle must catch and pinpoint
        monkeypatch.setattr(hook_rule, "balanced_cocorner", lambda tp: None)
        report = verify_range(3, 3, jobs=1)
        assert not report.ok
        assert any(
            f.lam == f.mu and f.m == 0 and f.quantity == "hook"
            for f in report.mismatches
        )
        assert "failures" in report.summary()

    def test_mismatches_come_in_the_fixed_order_of_degree_lambda_and_mu(self, monkeypatch):
        # every hook count zero: 71 of the 83 ordered pairs fail, each pair and its swap apart
        monkeypatch.setattr(hook_rule, "balanced_cocorner", lambda tp: None)
        report = verify_range(3, 5, jobs=1)
        index = {p: i for n in range(3, 6) for i, p in enumerate(partitions(n))}
        where = [(f.n, index[f.lam], index[f.mu]) for f in report.mismatches]
        assert where == sorted(where)
        assert {(n, j, i) for n, i, j in where} == set(where)
        assert len(set(where)) == 71

    def test_one_search_per_lambda_and_overlap(self, monkeypatch):
        searched = []
        count = hook_rule._zeta_counts

        def recorder(lam, zeta, with_hook):
            searched.append((lam, zeta))
            return count(lam, zeta, with_hook)

        monkeypatch.setattr(hook_rule, "_zeta_counts", recorder)
        assert verify_range(1, 6).ok
        pairs = {
            (lam, zeta)
            for n in range(1, 7)
            for lam in partitions(n)
            for k in range(n + 1)
            for zeta in partitions(k)
            if contains(lam, zeta)
        }
        assert len(searched) == len(set(searched))
        assert set(searched) == pairs

    def test_a_planted_count_is_named_where_it_was_planted(self, monkeypatch):
        # one extra picture, with a balanced cocorner, of type ((3,2), (3,1,1); (2,1))
        count = hook_rule._zeta_counts

        def planted(lam, zeta, with_hook):
            counts = count(lam, zeta, with_hook)
            if (lam, zeta) == ((3, 2), (2, 1)):
                ph, pw = counts.get((3, 1, 1), (0, 0))
                counts[3, 1, 1] = ph + 1, pw + 1
            return counts

        monkeypatch.setattr(hook_rule, "_zeta_counts", planted)
        report = verify_range(4, 6)
        assert report.checks == 3603
        assert report.mismatches == (
            Mismatch(n=5, lam=(3, 2), mu=(3, 1, 1), m=2, quantity="hook", counted=3, expected=2),
            Mismatch(5, (3, 2), (3, 1, 1), 2, "exterior", counted=4, expected=3),
            Mismatch(5, (3, 2), (3, 1, 1), 2, "exterior-lr", counted=4, expected=3),
        )

    def test_the_lambdas_of_one_overlap_share_their_source_tables(self):
        # 9,174 misses when each lambda searched all its overlaps in turn
        shapes._shape_table.cache_clear()
        assert verify_range(8, 9).ok
        assert shapes._shape_table.cache_info().misses <= 1600

    def test_oracle_columns_come_from_the_sweep(self, monkeypatch):
        # the per-call oracle path must not come back beside the sweep
        def per_call(*args, **kwargs):
            raise AssertionError("verify called the per-call oracle")

        monkeypatch.setattr(oracle, "kronecker", per_call)
        monkeypatch.setattr(oracle, "exterior_multiplicity", per_call)
        report = verify_range(4, 5)
        assert report.summary() == "checks: 1183, all pass"

    def test_one_oracle_and_one_lr_sweep_per_unordered_pair(self, monkeypatch):
        # p(p + 1)/2 pairs per degree: 15 at n = 4 and 28 at n = 5, not 5² + 7² = 74
        calls = {"oracle": 0, "lr": 0}

        def counted(name, sweep):
            def call(*args, **kwargs):
                calls[name] += 1
                return sweep(*args, **kwargs)
            return call

        for module, name, sweep in [(oracle, "oracle", "hook_exterior_sweep"),
                                    (lr, "lr", "exterior_sweep_via_lr")]:
            monkeypatch.setattr(module, sweep, counted(name, getattr(module, sweep)))
        assert verify_range(4, 5).summary() == "checks: 1183, all pass"
        assert calls == {"oracle": 43, "lr": 43}

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("side", ["exterior-lr", "exterior"])
    def test_a_planted_sweep_fault_is_reported_for_both_orders(self, monkeypatch, side, jobs):
        # an expected value one too high at m = 1 for {(3,1), (2,2)}, in whichever order asked
        if jobs > 1 and multiprocessing.get_all_start_methods()[0] != "fork":
            pytest.skip("only forked workers inherit the planted fault")
        planted = {(3, 1), (2, 2)}

        if side == "exterior-lr":
            sweep = lr.exterior_sweep_via_lr

            def faulty(lam, mu):
                exterior = sweep(lam, mu)
                exterior[1] += {lam, mu} == planted
                return exterior

            monkeypatch.setattr(lr, "exterior_sweep_via_lr", faulty)
        else:
            sweep = oracle.hook_exterior_sweep

            def faulty(lam, mu, **kwargs):
                hook, exterior = sweep(lam, mu, **kwargs)
                exterior[1] += {lam, mu} == planted
                return hook, exterior

            monkeypatch.setattr(oracle, "hook_exterior_sweep", faulty)
        report = verify_range(4, 4, jobs=jobs)
        assert report.summary() == "checks: 350, failures: 2"
        assert [str(f) for f in report.mismatches] == [
            f"FAIL n=4 lambda=3,1 mu=2,2 m=1 {side}: counted 1, expected 2",
            f"FAIL n=4 lambda=2,2 mu=3,1 m=1 {side}: counted 1, expected 2",
        ]


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


JOB_TAKERS = {
    "verify_range": lambda jobs: verify_range(2, 3, jobs=jobs),
    "decompose_tensor_hook": lambda jobs: hook_rule.decompose_tensor_hook((2, 1), 1, jobs=jobs),
}


class TestOrderedMap:
    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        # a platform without CPU affinity falls back on the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        tasks = list(range(10))
        assert parallel.ordered_map(abs, tasks, jobs=64) == [abs(t) for t in tasks]

    def test_jobs_clamped_to_usable_cpus(self, monkeypatch):
        # a cpuset-limited process reports the host's count from cpu_count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        tasks = list(range(10))
        assert parallel.ordered_map(abs, tasks, jobs=64) == [abs(t) for t in tasks]

    @pytest.mark.parametrize("jobs", [0, -3, True, 1.5], ids=["zero", "negative", "true", "float"])
    @pytest.mark.parametrize("caller", ["verify_range", "decompose_tensor_hook"])
    def test_a_worker_count_that_is_not_a_positive_int_is_refused(self, caller, jobs):
        with pytest.raises(ValueError, match="expected an integer worker count of at least 1"):
            JOB_TAKERS[caller](jobs)

    @pytest.mark.parametrize("caller", ["verify_range", "decompose_tensor_hook"])
    def test_two_workers_give_the_one_worker_answer(self, caller):
        assert JOB_TAKERS[caller](2) == JOB_TAKERS[caller](1)

    def test_import_loads_no_process_machinery(self):
        code = (
            "import sys, hookkron, hookkron.cli; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
            " if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(hookkron.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "[]"
