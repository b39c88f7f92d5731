import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nclosed.cli import main
from nclosed.groups import dump_cayley_table

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_closed_true(self, capsys):
        code, out, _ = run_cli(capsys, "check", "Z4", "--subset", "1,3", "--n", "3")
        assert code == 0
        assert "3-closed: true" in out

    def test_closed_false_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "S3",
                               "--subset", "(1 3),(1 2 3)", "--n", "3")
        assert code == 0
        assert "3-closed: false" in out
        assert "witness:" in out and "not in subset" in out

    def test_empty_subset_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "Z4", "--subset", "", "--n", "3")
        assert code == 1
        assert "empty" in err

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "check", "Z4", "--subset", "1,3",
                               "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed"] is False
        assert payload["witness"] is not None

    def test_n_above_the_cap_is_input_error_before_any_group(self, capsys, monkeypatch):
        from nclosed import cli

        def no_group(spec):
            raise AssertionError(f"group {spec} built")
        monkeypatch.setattr(cli, "parse_group_spec", no_group)
        code, out, err = run_cli(capsys, "check", "S6", "--subset", "()",
                                 "--n", str(cli.CHECK_N_CAP + 1))
        assert code == 1 and out == ""
        assert f"--n caps at {cli.CHECK_N_CAP}, got {cli.CHECK_N_CAP + 1}" in err

    def test_n_below_two_is_input_error_before_any_group(self, capsys, monkeypatch):
        from nclosed import cli

        def no_group(spec):
            raise AssertionError(f"group {spec} built")
        monkeypatch.setattr(cli, "parse_group_spec", no_group)
        for n in ("1", "-3"):
            code, out, err = run_cli(capsys, "check", "Z5040", "--subset", "1",
                                     "--n", n)
            assert code == 1 and out == ""
            assert f"--n must be >= 2, got {n}" in err

    def test_n_below_the_cap_prints_a_witness_of_n_labels(self, capsys):
        code, out, _ = run_cli(capsys, "check", "S3", "--subset", "(1 3),(1 2 3)",
                               "--n", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed"] is False and len(payload["witness"]) == 7


class TestCoset:
    def test_z9(self, capsys):
        code, out, _ = run_cli(capsys, "coset", "Z9", "--subgroup", "3", "--rep", "1")
        assert code == 0
        assert "least exponent t = 3" in out
        assert "least closedness k = 4" in out
        assert "m ≡ 1 (mod 3)" in out

    def test_s3_never_closed(self, capsys):
        code, out, _ = run_cli(capsys, "coset", "S3",
                               "--subgroup", "(1 2)", "--rep", "(1 3)")
        assert code == 0
        assert "never m-closed (aH ≠ Ha)" in out

    def test_power_coset_line(self, capsys):
        code, out, _ = run_cli(capsys, "coset", "Z9", "--subgroup", "3",
                               "--rep", "1", "--power", "3")
        assert code == 0
        assert "least closedness 2" in out

    def test_rep_in_subgroup_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "coset", "Z9", "--subgroup", "3", "--rep", "3")
        assert code == 1

    def test_max_n_below_two_is_a_usage_error(self, capsys):
        # the spectrum is checked from m = 2 on, so a lower bound checks nothing
        for max_n in ("1", "-3"):
            code, out, err = run_cli(capsys, "coset", "Z4", "--subgroup", "2",
                                     "--rep", "1", "--max-n", max_n,
                                     "--format", "json")
            assert code == 1 and out == ""
            assert "--max-n must be >= 2" in err

    def test_max_n_above_the_cap_is_input_error_before_any_group(self, capsys, monkeypatch):
        # the spectrum is checked once per m, so --max-n bounds its time
        from nclosed import cli

        def no_group(spec):
            raise AssertionError(f"group {spec} built")
        monkeypatch.setattr(cli, "parse_group_spec", no_group)
        code, out, err = run_cli(capsys, "coset", "Z4", "--subgroup", "2",
                                 "--rep", "1", "--max-n", str(cli.CHECK_N_CAP + 1))
        assert code == 1 and out == ""
        assert f"--max-n caps at {cli.CHECK_N_CAP}, got {cli.CHECK_N_CAP + 1}" in err

    def test_power_below_one_is_input_error_before_any_group(self, capsys, monkeypatch):
        # the spectrum check up to --max-n would otherwise run first
        from nclosed import cli

        def no_group(spec):
            raise AssertionError(f"group {spec} built")
        monkeypatch.setattr(cli, "parse_group_spec", no_group)
        for power in ("0", "-2"):
            code, out, err = run_cli(capsys, "coset", "Z9", "--subgroup", "3",
                                     "--rep", "1", "--power", power,
                                     "--max-n", str(cli.CHECK_N_CAP))
            assert code == 1 and out == ""
            assert f"--power must be >= 1, got {power}" in err

    def test_max_n_at_the_cap_is_accepted(self, capsys):
        from nclosed import cli
        code, out, _ = run_cli(capsys, "coset", "Z4", "--subgroup", "2", "--rep", "1",
                               "--max-n", str(cli.CHECK_N_CAP), "--format", "json")
        assert code == 0
        assert json.loads(out)["spectrum"]["verified_up_to"] == cli.CHECK_N_CAP


class TestScan:
    def test_z4_classification(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "Z4",
                               "--format", "json", "--jobs", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["totals"]["subsets"] == 15
        by_mask = {e["mask"]: e for e in payload["classified"]}
        entry = by_mask[0b1010]  # {1, 3}
        assert entry["least_closedness"] == 3
        assert entry["coset"] == {"subgroup": ["0", "2"], "rep": "1"}

    def test_z9_progressions(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "Z9",
                               "--format", "json", "--jobs", "1")
        payload = json.loads(out)
        by_subset = {tuple(e["subset"]): e for e in payload["classified"]}
        assert by_subset[("1", "4", "7")]["least_closedness"] == 4
        assert by_subset[("2", "5", "8")]["least_closedness"] == 4
        assert payload["totals"]["subsets"] == 511

    def test_max_n_is_a_usage_error(self, capsys):
        # verdicts are exact, so scan takes no bound
        code, _, err = run_cli(capsys, "scan", "Z4", "--max-n", "5")
        assert code == 1
        assert "usage error" in err

    def test_group_too_large(self, capsys):
        code, _, err = run_cli(capsys, "scan", "Z16")
        assert code == 1
        assert "caps at order 14" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "scan", "Z6", "--format", "json",
                              "--seed", "3", "--jobs", "1")
        _, second, _ = run_cli(capsys, "scan", "Z6", "--format", "json",
                               "--seed", "3", "--jobs", "1")
        assert first == second


class TestVerify:
    def test_s3_counts(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--corpus", "S3",
                               "--format", "json", "--jobs", "1")
        assert code == 0
        payload = json.loads(out)
        # proper subgroups of S3: trivial, three of order 2, one of order 3
        assert payload["claims"]["T3.2"]["checked"] == 5
        assert payload["violation_count"] == 0

    def test_unknown_spec_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--corpus", "Znosuch")
        assert code == 1

    def test_group_above_cap_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--corpus", "S4xZ2")
        assert code == 1
        assert "24" in err

    def test_corrupted_table_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"table": [[0, 1], [1, 1]]}))
        code, _, err = run_cli(capsys, "verify", "--corpus", f"table:{bad}")
        assert code == 1
        assert "inverse" in err.lower() or "no two-sided" in err.lower()

    def test_deterministic_bytes_and_jobs_invariance(self, capsys):
        args = ("verify", "--corpus", "S3;Z8", "--format", "json", "--seed", "7")
        _, first, _ = run_cli(capsys, *args, "--jobs", "1")
        _, second, _ = run_cli(capsys, *args, "--jobs", "1")
        assert first == second
        for jobs in ("2", "3"):
            _, pooled, _ = run_cli(capsys, *args, "--jobs", jobs)
            assert pooled == first, jobs

    def test_jobs_below_one_is_usage_error(self, capsys):
        for jobs in ("0", "-3"):
            code, _, err = run_cli(capsys, "verify", "--corpus", "Z2", "--jobs", jobs)
            assert code == 1
            assert "--jobs must be >= 1" in err

    def test_semicolon_corpus(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--corpus", "Z4;Z6",
                               "--format", "json", "--jobs", "1")
        payload = json.loads(out)
        assert payload["corpus"] == ["Z4", "Z6"]
        assert code == 0


class TestDescribe:
    def test_group_command(self, capsys):
        code, out, _ = run_cli(capsys, "group", "Q8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 8
        assert payload["abelian"] is False
        assert payload["element_orders"] == {"1": 1, "2": 1, "4": 6}

    def test_subgroups_command(self, capsys):
        code, out, _ = run_cli(capsys, "subgroups", "S3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 6
        normal_orders = sorted(s["order"] for s in payload["subgroups"] if s["normal"])
        assert normal_orders == [1, 3, 6]

    def test_subgroups_past_the_lattice_cap_is_input_error(self, capsys):
        # Z2^8 has order 256 and 417,199 subgroups
        from nclosed.subsets import MAX_SUBGROUPS
        code, out, err = run_cli(capsys, "subgroups", "x".join(["Z2"] * 8),
                                 "--format", "json")
        assert code == 1 and out == ""
        assert f"has more than {MAX_SUBGROUPS} subgroups" in err

    def test_subgroups_under_the_lattice_cap_lists(self, capsys):
        code, out, _ = run_cli(capsys, "subgroups", "x".join(["Z2"] * 5),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 374

    def test_table_spec_round_trip(self, capsys, tmp_path, q8):
        path = tmp_path / "q8.json"
        dump_cayley_table(q8, path)
        code, out, _ = run_cli(capsys, "group", f"table:{path}", "--format", "json")
        assert code == 0
        assert json.loads(out)["order"] == 8

    @pytest.mark.parametrize("table", [
        [[0, 1.0], [1, 0.9]],  # 1.0 would pass the range check
        [["0", "1"], ["1", "0"]],
        [[False, True], [True, False]],
        [[0, True], [True, 0]],
    ], ids=["float", "string", "boolean", "mixed-boolean"])
    def test_non_integer_table_entries_are_input_errors(self, capsys, tmp_path, table):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": table}))
        code, out, err = run_cli(capsys, "group", f"table:{path}", "--format", "json")
        assert code == 1 and out == ""
        assert "table entries must be integers" in err

    @pytest.mark.parametrize("labels", ["ab", {"a": 0, "b": 1}], ids=["string", "object"])
    def test_labels_that_are_not_a_list_are_input_errors(self, capsys, tmp_path, labels):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": labels, "table": [[0, 1], [1, 0]]}))
        code, out, err = run_cli(capsys, "group", f"table:{path}", "--format", "json")
        assert code == 1 and out == ""
        assert "'labels' must be a list or null" in err


class TestSubprocess:
    def env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_help_exits_zero(self):
        proc = subprocess.run([sys.executable, "-m", "nclosed", "--help"],
                              capture_output=True, env=self.env())
        assert proc.returncode == 0
        assert b"verify" in proc.stdout

    def test_check_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nclosed", "check", "Z4",
             "--subset", "1,3", "--n", "2"],
            capture_output=True, env=self.env())
        assert proc.returncode == 0  # a false verdict is still a clean run
        proc = subprocess.run(
            [sys.executable, "-m", "nclosed", "check", "Z4",
             "--subset", "9", "--n", "2"],
            capture_output=True, env=self.env())
        assert proc.returncode == 1

    def test_unknown_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nclosed", "check", "Z4", "--nope"],
            capture_output=True, env=self.env())
        assert proc.returncode == 1

    def test_row_commands_load_neither_numpy_nor_a_pool(self, tmp_path, s3):
        # no command loads numpy, hashlib (OpenSSL) or dataclasses, and a
        # serial run starts no pool; a parallel verify is the control that
        # shows the check can fail
        table = tmp_path / "s3.json"
        dump_cayley_table(s3, table)
        script = """
import contextlib, io, sys
import nclosed
from nclosed.cli import main

def heavy():
    return sorted({"numpy", "hashlib", "dataclasses", "concurrent.futures"}
                  & set(sys.modules))

assert not heavy(), heavy()
for argv in (["subgroups", "D30"], ["subgroups", "perm(4): (1 2 3), (2 3 4)"],
             ["scan", "Z4"], ["coset", "Z9", "--subgroup", "3", "--rep", "1", "--power", "2"],
             ["check", "S3", "--subset", "(1 3),(1 2 3)", "--n", "3"],
             ["subgroups", "Z2xS4"], ["verify", "--corpus", "Z2xZ2;S3"],
             ["group", "Z4"], ["group", "S6"], ["group", "table:" + sys.argv[1]]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--jobs", "1"]) == 0, argv
    assert not heavy(), (argv, heavy())
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--corpus", "Z2xZ2", "--jobs", "2"]) == 0
assert heavy() == ["concurrent.futures"], heavy()
"""
        proc = subprocess.run([sys.executable, "-c", script, str(table)], env=self.env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
