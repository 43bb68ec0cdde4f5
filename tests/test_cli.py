import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hookkron
import util
import worked_examples as ex
from hookkron import shapes
from hookkron.cli import main
from hookkron.tableaux import PartialTableau
from hookkron.shapes import skew


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_ascii_row(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--lambda", "5,3,1,1", "--m", "6")
        assert code == 0
        assert "4,3,3 -> ph=2 pw=7" in out.splitlines()

    def test_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--lambda", "3", "--m", "0")
        assert code == 0
        assert out.splitlines() == ["3 -> ph=1 pw=1"]

    def test_m_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--lambda", "5,3,1,1", "--m", "10")
        assert code == 2
        assert "m" in err

    def test_bad_partition_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--lambda", "1,2", "--m", "0")
        assert code == 2
        assert "decreasing" in err

    def test_json_deterministic_across_runs_and_jobs(self, capsys):
        outputs = []
        for jobs in ("1", "1", "2"):
            code, out, _ = run_cli(
                capsys,
                "decompose", "--lambda", "4,2", "--m", "3",
                "--format", "json", "--jobs", jobs,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        obj = json.loads(outputs[0])
        assert obj["lambda"] == [4, 2] and obj["m"] == 3

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "decompose --lambda 5,4,3,2,1 --m 7 --format json",
                "b8a4922ca106523801f4a8c8171183bac62f212ed02900b4ef3f871fc8c54623",
            ),
            (
                "decompose --lambda 4,3,2,1 --m 4 --format ascii",
                "507abd3b03e4578645e94815c046178a4d8c1424f2fea52d975109cff1c9f4be",
            ),
            (
                "decompose --lambda 4,3,2,1 --m 4 --format tsv",
                "88891d2268a23a8a2193a580fdecc1ea76c91a6649788b8e775d322274e6be4b",
            ),
            (
                "exterior --lambda 4,3,2,1 --m 5 --format ascii",
                "46aa63837a68df0711603f999683da7f7641af42508fdd006be1d3e2c81bf940",
            ),
            (
                "exterior --lambda 4,3,2,1 --m 5 --format tsv",
                "5fa807d8ff88a9e8ea199554d25316cb015bad2cc3fbbda356fc00a0d1df6e9d",
            ),
        ],
        ids=[
            "decompose-json", "decompose-ascii", "decompose-tsv", "exterior-ascii", "exterior-tsv"
        ],
    )
    def test_staircase_json_is_byte_identical(self, capsys, argv, digest):
        # digest of the stdout as released; a speed change must not move a byte
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_tsv(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--lambda", "5,3,1,1", "--m", "6", "--format", "tsv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mu\tph\tpw\tby_zeta"
        row = next(line for line in lines if line.startswith("4,3,3\t"))
        fields = row.split("\t")
        assert fields[1] == "2" and fields[2] == "7"
        assert {"zeta": [3, 1], "ph": 2, "pw": 3} in json.loads(fields[3])
        # the TSV column and the JSON table share one by-zeta serialiser
        _, out, _ = run_cli(
            capsys, "decompose", "--lambda", "5,3,1,1", "--m", "6", "--format", "json"
        )
        json_rows = json.loads(out)["rows"]
        tsv_rows = [line.split("\t") for line in lines[1:]]
        assert len(tsv_rows) == len(json_rows)
        for fields, row in zip(tsv_rows, json_rows):
            assert fields[3] == json.dumps(row["by_zeta"], separators=(",", ":"))


class TestExterior:
    def test_ascii_row(self, capsys):
        code, out, _ = run_cli(capsys, "exterior", "--lambda", "5,3,1,1", "--m", "6")
        assert code == 0
        assert "4,3,3 -> pw=7" in out.splitlines()

    def test_m_equal_n_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "exterior", "--lambda", "2,1", "--m", "3")
        assert code == 0
        assert out.splitlines() == ["2,1 -> pw=1"]

    def test_tsv_has_no_ph_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "exterior", "--lambda", "5,3,1,1", "--m", "6", "--format", "tsv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mu\tpw\tby_zeta"
        row = next(line for line in lines if line.startswith("4,3,3\t"))
        fields = row.split("\t")
        assert fields[1] == "7"
        assert {"zeta": [3, 1], "pw": 3} in json.loads(fields[2])

    def test_empty_lambda_prints_one_row(self, capsys):
        code, out, _ = run_cli(capsys, "exterior", "--lambda", "0", "--m", "0", "--format", "tsv")
        assert code == 0
        assert out.splitlines() == ["mu\tpw\tby_zeta", '0\t1\t[{"zeta":[],"pw":1}]']


class TestPictures:
    def test_ascii_subset(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pictures", "--mu", "4,3,3", "--lambda", "5,3,1,1", "--zeta", "3,1",
            "--format", "ascii",
        )
        assert code == 0
        assert out.count("# picture") == 3

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pictures", "--mu", "4,3,3", "--lambda", "5,3,1,1", "--zeta", "3,1",
            "--format", "json",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for line in lines:
            obj = json.loads(line)
            assert obj["target"] == {"outer": [5, 3, 1, 1], "inner": [3, 1]}

    def test_bump_overlay(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pictures", "--mu", "4,3,3", "--lambda", "5,3,1,1", "--zeta", "3,1",
            "--format", "json", "--bump", "1,3",
        )
        assert code == 0
        for line in out.splitlines():
            obj = json.loads(line)
            assert obj["bump"]["at"] == [1, 3]

    def test_bump_overlay_marks_only_the_source(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pictures", "--mu", "4,3,3", "--lambda", "5,3,1,1", "--zeta", "3,1",
            "--format", "ascii", "--bump", "1,3",
        )
        assert code == 0
        assert "destination (3,1)" in out
        left = [line.split("->")[0] for line in out.splitlines() if "[" in line]
        right = [line.split("->")[-1] for line in out.splitlines() if "->" in line]
        assert any("*" in part for part in left)
        assert all("*" not in part for part in right)

    def test_parenthesised_bump_cell(self, capsys):
        argv = ["pictures", "--lambda", "2,1", "--mu", "2,1", "--zeta", "1", "--format", "json"]
        plain = run_cli(capsys, *argv, "--bump", "1,1")
        assert plain[0] == 0 and '"bump"' in plain[1]
        assert run_cli(capsys, *argv, "--bump", "(1,1)") == plain

    @pytest.mark.parametrize("bump", ["1", "1,2,3"])
    def test_bump_cell_needs_two_coordinates(self, capsys, bump):
        argv = ["pictures", "--lambda", "2,1", "--mu", "2,1", "--zeta", "1", "--bump", bump]
        assert run_cli(capsys, *argv) == (
            2, "", f"error: cell must be two comma-separated integers r,c, got '{bump}'\n"
        )

    def test_invalid_bump_cell_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "pictures", "--mu", "4,3,3", "--lambda", "5,3,1,1", "--zeta", "3,1",
            "--bump", "1,1",
        )
        assert code == 2
        assert "cocorner" in err


class TestLr:
    @pytest.mark.parametrize(
        "lam, zeta, xi, out",
        [
            ("2,1", "1", "1,1", "1\n"),
            ("4,3,2,1", "3,1", "3,2,1", "3\n"),
            ("4,3,2,1", "3,2,1", "3,1", "3\n"),
            ("3,2,1", "2,1", "2,1,0", "2\n"),
            ("3,2,1", "2,1", "3", "1\n"),
        ],
    )
    def test_output(self, capsys, lam, zeta, xi, out):
        code, got, err = run_cli(capsys, "lr", "--lambda", lam, "--zeta", zeta, "--xi", xi)
        assert (code, got, err) == (0, out, "")

    def test_not_a_partition_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "lr", "--lambda", "1,2", "--zeta", "1", "--xi", "2")
        assert (code, out) == (2, "")
        assert "weakly decreasing" in err

    def test_size_mismatch_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "lr", "--lambda", "2,1", "--zeta", "1", "--xi", "1")
        assert code == 2
        assert "lam" in err or "size" in err.lower()

    def test_a_deep_lr_input_searches_from_the_empty_shape(self, capsys):
        # c^λ_{ζξ} = c^λ_{ξζ}: either order searches λ less the larger label, (1200)/(1200)
        for zeta, xi in (("0", "1200"), ("1200", "0")):
            code, out, err = run_cli(capsys, "lr", "--lambda", "1200", "--zeta", zeta, "--xi", xi)
            assert (code, out, err) == (0, "1\n", "")


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4")
        assert code == 0
        assert "all pass" in out

    def test_range_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--n-min", "2")
        assert code == 0

    def test_injected_fault_exits_1(self, capsys, monkeypatch):
        import hookkron.hook_rule as hook_rule

        # off-by-one scan: reports the transpose cell instead of the match
        from hookkron.pictures import picture_bump_destination
        from hookkron.shapes import inner_cocorners, transpose_cell

        def skewed(tp):
            p = tp.picture
            for z in inner_cocorners(p.target):
                destination, _ = picture_bump_destination(p, z)
                if destination == z:  # wrong comparison, drops the transpose
                    return z
            return None

        monkeypatch.setattr(hook_rule, "balanced_cocorner", skewed)
        code, out, _ = run_cli(capsys, "verify", "--n", "3")
        assert code == 1
        assert "FAIL n=3" in out and "hook" in out

    @pytest.mark.parametrize(
        "module, name, quantity, off_by_one",
        [
            # verify takes both oracle columns from the sweep; only the exterior one is bumped
            ("oracle", "hook_exterior_sweep", "exterior", lambda r: (r[0], [x + 1 for x in r[1]])),
            # and the LR column from the LR sweep, one call per pair for every m
            ("lr", "exterior_sweep_via_lr", "exterior-lr", lambda r: [x + 1 for x in r]),
        ],
        ids=["oracle-hook_exterior_sweep-exterior", "lr-exterior_sweep_via_lr-exterior-lr"],
    )
    def test_exterior_mismatches_exit_1(
        self, capsys, monkeypatch, module, name, quantity, off_by_one
    ):
        source = importlib.import_module(f"hookkron.{module}")
        true_value = getattr(source, name)
        monkeypatch.setattr(source, name, lambda *args: off_by_one(true_value(*args)))
        code, out, _ = run_cli(capsys, "verify", "--n", "3")
        *fails, summary = out.splitlines()
        assert code == 1
        # 3 x 3 pairs, each with 3 hook checks and 4 of each exterior quantity (m = 0..3)
        assert summary == "checks: 99, failures: 36"
        assert len(fails) == 36
        for line in fails:
            assert line.startswith("FAIL n=3 ") and f" {quantity}: counted " in line
            counted, expected = (int(x) for x in re.findall(r"\d+", line.split(": ")[-1]))
            assert expected == counted + 1

    def test_cache_env_var(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "cache.json"
        monkeypatch.setenv("HOOKKRON_CACHE", str(path))
        code, _, _ = run_cli(capsys, "verify", "--n", "2")
        assert code == 0
        assert path.exists()
        stored = json.loads(path.read_text())
        assert any(entry["n"] == 2 for entry in stored["tables"])

    @pytest.mark.parametrize(
        "damage", ["plus-one", "sign-flip", "truncated", "swapped-rows"]
    )
    def test_damaged_cache_is_recomputed(self, capsys, tmp_path, damage):
        import hookkron.oracle as oracle

        path = tmp_path / "cache.json"
        assert run_cli(capsys, "verify", "--n", "5", "--cache", str(path))[0] == 0
        good = path.read_text()
        data = json.loads(good)
        table = data["tables"][0]
        row = table["rows"][1]
        if damage == "plus-one":
            row[0] += 1
        elif damage == "sign-flip":
            row[0] = -row[0]
        elif damage == "swapped-rows":
            # the rows stay orthonormal and both degrees are 4, so only a
            # recomputation ties each row to its label
            a, b = table["classes"].index([4, 1]), table["classes"].index([2, 1, 1, 1])
            table["rows"][a], table["rows"][b] = table["rows"][b], table["rows"][a]
        path.write_text(good[:100] if damage == "truncated" else json.dumps(data))
        # no table in memory: the answer must come from the recursion, not the file
        oracle._table.cache_clear()
        code, out, err = run_cli(capsys, "verify", "--n", "5", "--cache", str(path))
        assert (code, out, err) == (0, "checks: 833, all pass\n", "")
        assert path.read_text() == good

    def test_the_file_keeps_only_the_verified_degrees(self, capsys, tmp_path):
        only_5 = tmp_path / "only5.json"
        assert run_cli(capsys, "verify", "--n", "5", "--cache", str(only_5))[0] == 0
        path = tmp_path / "cache.json"
        assert run_cli(capsys, "verify", "--n", "5", "--n-min", "4", "--cache", str(path))[0] == 0
        data = json.loads(path.read_bytes())
        assert [table["n"] for table in data["tables"]] == [4, 5]
        # a table of another degree goes without a word, damaged or not
        data["tables"][0]["rows"][:2] = data["tables"][0]["rows"][1::-1]
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--n", "5", "--cache", str(path))
        assert (code, out, err) == (0, "checks: 833, all pass\n", "")
        assert path.read_bytes() == only_5.read_bytes()


TABLEAU = {"outer": [2, 1], "inner": [1], "entries": [[2, 1, 1], [1, 2, 5]]}
PICTURE = {
    "source": {"outer": [1], "inner": []},
    "target": {"outer": [1], "inner": []},
    "map": [[1, 1, 1, 1]],
}


class TestRender:
    def test_tableau_grid(self, capsys, tmp_path):
        t = PartialTableau(skew(ex.T_OUTER, ex.T_INNER), ex.T_ENTRIES)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(util.tableau_to_json(t)))
        code, out, _ = run_cli(capsys, "render", "--in", str(path))
        assert code == 0
        assert out == (
            "                [ 6]\n"
            "            [ 8][ 9]\n"
            "        [ 3][11]\n"
            "[ 1][ 5][10]\n"
        )

    def test_picture(self, capsys, tmp_path, example_picture):
        from hookkron.pictures import picture_to_json

        path = tmp_path / "p.json"
        path.write_text(json.dumps(picture_to_json(example_picture)))
        code, out, _ = run_cli(capsys, "render", "--in", str(path))
        assert code == 0
        assert "[a][c][g]" in out and "[A]" in out

    def test_unknown_payload_exits_2(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        code, _, err = run_cli(capsys, "render", "--in", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        ['{"entries":[]}', "1", '{"outer":5,"inner":[],"entries":[]}'],
        ids=["missing-key", "not-an-object", "wrong-type"],
    )
    def test_malformed_input_exits_2(self, capsys, monkeypatch, payload):
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        code, out, err = run_cli(capsys, "render")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize(
        "payload, path",
        [
            (TABLEAU, ("entries", 0, 1)),
            (TABLEAU, ("entries", 0, 2)),
            (TABLEAU, ("inner", 0)),
            (PICTURE, ("map", 0, 1)),
            (PICTURE, ("map", 0, 2)),
            (PICTURE, ("source", "outer", 0)),
        ],
        ids=[
            "tableau-cell", "tableau-value", "tableau-part",
            "picture-cell", "picture-value", "picture-part",
        ],
    )
    def test_non_integer_number_exits_2(self, capsys, monkeypatch, payload, path, bad):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert run_cli(capsys, "render")[0] == 0
        obj = json.loads(json.dumps(payload))
        *parents, last = path
        holder = obj
        for key in parents:
            holder = holder[key]
        # int() would turn each bad value back into this 1 and render the payload
        assert holder[last] == 1
        holder[last] = bad
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        code, out, err = run_cli(capsys, "render")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "JSON integer" in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"outer": [10**12], "inner": [], "entries": []},
            {
                "source": {"outer": [10**12], "inner": []},
                "target": {"outer": [10**12], "inner": []},
                "map": [],
            },
            {
                "source": {"outer": [1], "inner": []},
                "target": {"outer": [10**12], "inner": []},
                "map": [[1, 1, 1, 1]],
            },
        ],
        ids=["tableau", "picture", "picture-target"],
    )
    def test_oversized_shape_exits_2_before_building_cells(self, capsys, monkeypatch, payload):
        # the file is a few dozen bytes; building the cells it names would not finish
        real_reading_cells = shapes._reading_cells

        def bounded_reading_cells(shape):
            assert shape.size <= 1000, f"cells of {shape} built"
            return real_reading_cells(shape)

        monkeypatch.setattr(shapes, "_reading_cells", bounded_reading_cells)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        code, out, err = run_cli(capsys, "render")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestUsage:
    def test_parser_is_built_once_and_names_each_command_per_call(self, capsys, monkeypatch):
        from hookkron import cli

        cli._build_parser.cache_clear()
        argv = ("decompose", "--lambda", "2,1", "--m", "1")
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        real, seen = cli.decompose_tensor_hook, []

        def recorded(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        # patched after the first call has built and cached the parser
        monkeypatch.setattr(cli, "decompose_tensor_hook", recorded)
        assert run_cli(capsys, *argv) == first
        assert seen == [((2, 1), 1)]
        assert cli._build_parser.cache_info().misses == 1

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "decompose", "--m", "1")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--lambda", "2,1", "--m", "1", "--jobs", "0"],
            ["exterior", "--lambda", "2,1", "--m", "1", "--jobs", "-3"],
            ["verify", "--n", "2", "--jobs", "0"],
        ],
        ids=["decompose", "exterior", "verify"],
    )
    def test_jobs_below_one_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "--in", "{tmp}/missing.json"],
            ["verify", "--n", "4", "--cache", "{tmp}"],
        ],
        ids=["missing-input-file", "cache-is-a-directory"],
    )
    def test_os_error_exits_2(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oracle_error_exits_2(self, capsys, monkeypatch):
        import hookkron.oracle as oracle

        def broken(*args, **kwargs):
            raise ArithmeticError("inner product is not integral")

        monkeypatch.setattr(oracle, "hook_exterior_sweep", broken)
        code, out, err = run_cli(capsys, "verify", "--n", "3")
        assert code == 2
        assert out == ""
        assert err == "error: inner product is not integral\n"

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        # stands in for a huge degree, whose partition list cannot be allocated
        import hookkron.hook_rule as hook_rule

        def exhausted(n):
            raise MemoryError

        monkeypatch.setattr(hook_rule, "partitions", exhausted)
        code, out, err = run_cli(capsys, "decompose", "--lambda", "5,3,1,1", "--m", "6")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["lr", "--lambda", "2400", "--zeta", "1200", "--xi", "1200"], ""),
            (["render"], "[" * 100_000),
        ],
        ids=["search-depth", "json-nesting"],
    )
    def test_recursion_error_exits_2(self, capsys, monkeypatch, argv, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_runs_without_site_packages(self):
        # -I -S: no site-packages, no user site, no PYTHONPATH; only the
        # standard library and this checkout's src are importable
        src = str(Path(hookkron.__file__).parents[1])
        child = (
            "import sys; sys.path.insert(0, sys.argv[1]); from hookkron import cli; "
            "sys.exit(cli.main(['verify', '--n', '4']))"
        )
        result = subprocess.run(
            [sys.executable, "-I", "-S", "-c", child, src], capture_output=True, text=True
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            0, "checks: 350, all pass\n", ""
        )

    def test_console_entry_point(self):
        # the child imports the same hookkron as this process, installed or not
        src = str(Path(hookkron.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "hookkron.cli", "lr",
             "--lambda", "2,1", "--zeta", "1", "--xi", "1,1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert result.stdout == "1\n"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedPipe:
    # buffered, the closed pipe shows only when stdout is flushed; unbuffered, at the first print
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_decompose_into_a_closed_pipe_ends_quietly(self, unbuffered):
        src = str(Path(hookkron.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        argv = [sys.executable, "-m", "hookkron.cli", "decompose", "--lambda", "5,3,1,1", "--m", "6"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as child:
            child.stdout.close()  # before the child has printed anything
            assert child.wait(timeout=120) == 0
            assert child.stderr.read() == b""

    def test_a_failing_verify_still_exits_1(self, capsys, monkeypatch):
        import hookkron.hook_rule as hook_rule

        monkeypatch.setattr(hook_rule, "balanced_cocorner", lambda tp: None)
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["verify", "--n", "3"]) == 1
        assert capsys.readouterr().err == ""
