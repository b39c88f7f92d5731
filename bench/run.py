#!/usr/bin/env python3
"""The nclosed benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, nothing is installed. One client runs one CLI command at a time
(a closed loop), each in a fresh interpreter, because `make_named` and
`scan._rebuild` are lru_cached and a warm process would time cache hits.

A round runs each of the workload's commands at --jobs 1 and right after
at --jobs N, N = the cores this process may use, and checks every output
with checks.py. Rounds repeat until S seconds have passed (at least one).

--trace 0 prints the end-to-end metrics:
  setup_s      fresh interpreter until `import nclosed` returns (one cold
               import per run, after byte-compiling src)
  wall_s       median over rounds of the round's --jobs 1 command times
  wall_jobs_s  the same at --jobs N
  peak_rss_mb  median over rounds of the largest peak RSS of a --jobs 1
               command

--trace 1 runs one untraced round, then traced --jobs 1 passes
(trace_child.py) until S seconds have passed, and prints the per-layer
metrics: self times (median over passes), counts, the --jobs speedups of
the untraced round and tracing_overhead_s (traced minus untraced wall).

The last stdout line is one JSON object: correct, attempted, failed,
metrics. An operation fails when its exit code is not the expected one;
correct is false when a checker rejects an output of an operation that
did not fail.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import arith
import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
PY = sys.executable
JOBS_N = len(os.sched_getaffinity(0))

RUN_BUDGET_S = 170  # a run must end within 180 s
COMMAND_TIMEOUT_S = 150
SETUP_SAMPLES = 5


@dataclass
class Result:
    rc: int
    stdout: bytes
    stderr: bytes
    seconds: float
    rss_mb: float


@dataclass
class Cmd:
    key: str
    argv: list[str]
    check: Callable[[Result], list[str]]
    expect_rc: int = 0


# ---------------------------------------------------------------------------
# running the CLI


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(argv: list[str], key: str, timeout: float) -> Result:
    """Run argv in its own session; time it from spawn to exit and read its
    peak RSS from wait4. On timeout the whole session is killed."""
    out_path, err_path = WORK / f"{key}.out", WORK / f"{key}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=_env(), start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # reap forked workers left behind by a killed command
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return Result(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                  seconds, usage.ru_maxrss / 1024)


def run_cli(cmd: Cmd, jobs: int, timeout: float, trace: bool) -> Result:
    args = cmd.argv + ["--jobs", str(jobs)]
    key = f"{cmd.key}-j{jobs}"
    if not trace:
        return run_process([PY, "-m", "nclosed", *args], key, timeout)
    trace_dir = WORK / "trace"
    trace_dir.mkdir(exist_ok=True)
    return run_process([PY, str(BENCH / "trace_child.py"), str(SRC),
                        str(trace_dir / f"{key}.spans.json"),
                        str(trace_dir / f"{key}.summary.json"), "--", *args],
                       f"{key}-traced", timeout)


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until `import nclosed`
    returns, read on the system-wide monotonic clock in both processes.

    Byte-compiles src first, as an install would. Every sample is a cold
    set-up in a new interpreter; the median damps this machine's bursts.
    """
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC / "nclosed")],
                   cwd=ROOT, env=_env(), check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [PY, "-c", "import time, nclosed; print(time.monotonic())"],
            cwd=ROOT, env=_env(), check=True, timeout=60, capture_output=True)
        times.append(float(proc.stdout) - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# workloads: each builds its commands and checkers from the seed


def verify_default(seed: int) -> list[Cmd]:
    argv = ["verify", "--corpus", "default", "--seed", str(seed), "--format", "json"]
    return [Cmd("verify", argv, lambda r: checks.check_verify(r.stdout))]


def scan_order14(seed: int) -> list[Cmd]:
    cases = (
        # (spec, group, subgroups, proper commuting cosets)
        ("Z14", arith.cyclic(14), arith.tau(14), arith.sigma(14) - arith.tau(14)),
        ("D7", arith.dihedral(7), arith.tau(7) + arith.sigma(7), 2 * 7),
    )
    return [Cmd(f"scan-{spec}", ["scan", spec, "--seed", str(seed), "--format", "json"],
                lambda r, g=g, s=s, c=c: checks.check_scan(
                    g, r.stdout, subgroups=s, commuting_cosets=c, seed=seed))
            for spec, g, s, c in cases]


def _write_table(labels: list[str], table: list[list[int]], name: str) -> str:
    path = WORK / name
    path.write_text(json.dumps({"labels": labels, "table": table}))
    return str(path.relative_to(ROOT))


def tables_large(seed: int) -> list[Cmd]:
    rng = random.Random(f"{seed}:tables-large")
    z500 = arith.shuffled(arith.cyclic(500), rng)
    s6 = arith.shuffled(arith.symmetric(6), rng)
    bad = [row[:] for row in s6.table]
    i, j = rng.randrange(s6.order), rng.randrange(s6.order)
    bad[i][j] = rng.choice([v for v in range(s6.order) if v != bad[i][j]])

    z500_facts = dict(order=500, abelian=True, exponent=500,
                      element_orders=checks.cyclic_element_orders(500))
    s6_facts = dict(order=720, abelian=False, exponent=60,
                    element_orders=checks.S6_ELEMENT_ORDERS)
    z500_path = _write_table(z500.labels, z500.table, "z500.json")
    s6_path = _write_table(s6.labels, s6.table, "s6.json")
    corrupt_path = _write_table(s6.labels, bad, "s6-corrupt.json")
    fmt = ["--format", "json"]
    return [
        Cmd("table-Z500", ["group", f"table:{z500_path}", *fmt],
            lambda r: checks.check_group(r.stdout, "table Z500", **z500_facts)),
        Cmd("table-S6", ["group", f"table:{s6_path}", *fmt],
            lambda r: checks.check_group(r.stdout, "table S6", **s6_facts)),
        Cmd("named-S6", ["group", "S6", *fmt],
            lambda r: checks.check_group(r.stdout, "group S6", **s6_facts)),
        Cmd("table-S6-corrupt", ["group", f"table:{corrupt_path}", *fmt],
            lambda r: checks.check_not_associative(
                bad, r.rc, r.stderr, "corrupted S6 table"),
            expect_rc=1),
    ]


# published counts (README, "Published counts"): subgroups, normal subgroups
LATTICE = (("A5", 59, 2), ("D24", 68, 11), ("D30", 80, 11), ("Z2xS4", 98, None))


def subgroup_lattice(seed: int) -> list[Cmd]:
    """The inputs are fixed; the seed has nothing to vary here."""
    a5_gens = ("(1 2 3)", "(1 2 3 4 5)")
    groups = {
        "A5": ("perm(5): " + ", ".join(a5_gens),
               arith.perm_generated(5, [arith.parse_cycles(c, 5) for c in a5_gens])),
        "D24": ("D24", arith.dihedral(24)),
        "D30": ("D30", arith.dihedral(30)),
        "Z2xS4": ("Z2xS4", arith.product(arith.cyclic(2), arith.symmetric(4))),
    }
    cmds = []
    for name, count, normal in LATTICE:
        spec, g = groups[name]
        cmds.append(Cmd(f"subgroups-{name}", ["subgroups", spec, "--format", "json"],
                        lambda r, g=g, name=name, count=count, normal=normal:
                        checks.check_subgroups(g, r.stdout, f"subgroups {name}",
                                               count=count, normal=normal)))
    return cmds


WORKLOADS = {
    "verify-default": verify_default,
    "scan-order14": scan_order14,
    "tables-large": tables_large,
    "subgroup-lattice": subgroup_lattice,
}


# ---------------------------------------------------------------------------
# rounds, checks and metrics


class Runner:
    def __init__(self, cmds: list[Cmd], start: float):
        self.cmds = cmds
        self.start = start
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def _timeout(self) -> float:
        return max(1.0, min(COMMAND_TIMEOUT_S,
                            RUN_BUDGET_S - (time.monotonic() - self.start)))

    def run(self, cmd: Cmd, jobs: int, trace: bool = False) -> Result | None:
        """Run one operation and check its output; None marks a failure."""
        self.attempted += 1
        r = run_cli(cmd, jobs, self._timeout(), trace)
        if r.rc != cmd.expect_rc:
            self.failed += 1
            self.failures.append(f"{cmd.key} --jobs {jobs}: exit code {r.rc}, "
                                 f"expected {cmd.expect_rc}: "
                                 f"{r.stderr.decode('utf-8', 'replace')[-500:]}")
            return None
        self.problems.extend(cmd.check(r))
        return r

    def round_(self) -> tuple[dict, dict]:
        """Each command at --jobs 1 and right after at --jobs N, so that both
        metrics sample the machine over the whole round."""
        one: dict[str, Result | None] = {}
        many: dict[str, Result | None] = {}
        for cmd in self.cmds:
            r1 = one[cmd.key] = self.run(cmd, 1)
            rn = many[cmd.key] = self.run(cmd, JOBS_N)
            if r1 is not None and rn is not None:
                self.problems.extend(checks.check_same_bytes(
                    r1.stdout, rn.stdout, f"{cmd.key} stdout"))
        return one, many

    def traced_pass(self) -> dict[str, Result | None]:
        return {cmd.key: self.run(cmd, 1, trace=True) for cmd in self.cmds}


def _wall(results: dict[str, Result | None], prefix: str = "") -> float:
    return sum(r.seconds for key, r in results.items()
               if r is not None and key.startswith(prefix))


def _speedup(one: dict, many: dict, prefix: str) -> float:
    t1, tn = _wall(one, prefix), _wall(many, prefix)
    return t1 / tn if t1 and tn else 0.0


LAYER_METRICS = {
    # metric: the spans whose self times it adds up
    "groups.validate_s": ("groups.validate_cayley_table", "groups.validate_semigroup_table"),
    "groups.construct_s": ("groups.make_named", "groups.direct_product"),
    "groups.load_table_s": ("groups.load_cayley_table",),
    "parsing.parse_group_spec_s": ("parsing.parse_group_spec",),
    "subsets.all_subgroups_s": ("subsets.all_subgroups",),
    "subsets.is_normal_classic_s": ("subsets.is_normal_classic",),
    "closedness.is_n_closed_s": ("closedness.is_n_closed",),
    "closedness.least_closed_scan_s": ("closedness.least_closed_scan",),
    "closedness.extract_subgroup_s": ("closedness.extract_subgroup",),
    "closedness.analyze_coset_s": ("closedness.analyze_coset",),
    "closedness.power_coset_s": ("closedness.power_coset_closedness",),
    "closedness.spectrum_s": ("closedness.closedness_spectrum",),
    "closedness.oracle_s": ("closedness.is_n_closed_oracle",),
    "normality.index_plus_one_s": ("normality.normal_iff_index_plus_one",),
    "normality.existential_s": ("normality.normal_iff_existential",),
    "verify.battery_s": ("verify.run_verification",),
    "verify.extraction_sweep_s": ("verify.sweep_extraction",),
    "verify.semigroup_sweep_s": ("verify.sweep_semigroup_shifts",),
    "verify.cross_check_s": ("verify.cross_check_engine_oracle",),
    "scan.run_scan_s": ("scan.run_scan",),
    "cli.self_s": ("cli.main",),
}

CALL_COUNTS = {
    "closedness.is_n_closed_calls": "closedness.is_n_closed",
    "closedness.least_closed_scan_calls": "closedness.least_closed_scan",
    "closedness.oracle_calls": "closedness.is_n_closed_oracle",
}


def read_summaries(results: dict[str, Result | None]) -> tuple[dict, dict]:
    """Self ns and calls per span name, and counters, summed over commands."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for key, r in results.items():
        if r is None:
            continue
        path = WORK / "trace" / f"{key}-j1.summary.json"
        summary = json.loads(path.read_text())
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_ns": 0})
            acc["calls"] += row["calls"]
            acc["self_ns"] += row["self_ns"]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts


def layer_metrics(passes: list[tuple[dict, dict]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for metric, names in LAYER_METRICS.items():
        out[metric] = statistics.median(
            sum(spans.get(n, {}).get("self_ns", 0) for n in names) / 1e9
            for spans, _ in passes)
    spans, counts = passes[0]
    for metric, name in CALL_COUNTS.items():
        out[metric] = spans.get(name, {}).get("calls", 0)
    closure_calls = counts.get("subsets.closure_mask", 0)
    found = counts.get("subsets.subgroups_found", 0)
    out["groups.validated_cells"] = counts.get("groups.validated_cells", 0)
    out["subsets.closure_calls"] = closure_calls
    out["subsets.subgroups_found"] = found
    out["subsets.closure_yield"] = found / closure_calls if closure_calls else 0.0
    out["subsets.translate_calls"] = (counts.get("subsets.translate_mask_left", 0)
                                      + counts.get("subsets.translate_mask_right", 0))
    out["verify.claim_checks"] = counts.get("verify.claim_checks", 0)
    return out


def trace_cross_checks(workload: str, results: dict, passes) -> list[str]:
    """Totals counted by the tracer must agree with totals found elsewhere."""
    spans, counts = passes[-1]
    problems = []
    r = results.get("verify")
    if r is not None:
        reported = json.loads(r.stdout)["engine_oracle_cross_checks"]
        counted = spans.get("closedness.is_n_closed_oracle", {}).get("calls", 0)
        if counted != reported:
            problems.append(f"trace: {counted} oracle calls counted, report "
                            f"says {reported} cross-checks")
    if workload == "subgroup-lattice":
        published = sum(count for _, count, _ in LATTICE)
        found = counts.get("subsets.subgroups_found", 0)
        if found != published:
            problems.append(f"trace: all_subgroups returned {found} subgroups, "
                            f"published counts add up to {published}")
    return problems


def keep_going(run_start: float, measure_start: float, loop_start: float,
               done: int, seconds: float) -> bool:
    """Whether one more repetition of the loop ends nearer to `seconds` of
    measuring than stopping now does, and inside the run's time budget."""
    now = time.monotonic()
    each = (now - loop_start) / done
    return (now - measure_start + each / 2 < seconds
            and now - run_start + each < RUN_BUDGET_S)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_speedup")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    if not (SRC / "nclosed" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'nclosed'}; run from the "
              f"root of an nclosed checkout", file=sys.stderr)
        return 2

    setup_s = measure_setup()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runner = Runner(WORKLOADS[args.workload](args.seed), start)

    rounds = []
    measure_start = time.monotonic()
    while True:
        rounds.append(runner.round_())
        if args.trace or not keep_going(start, measure_start, measure_start,
                                        len(rounds), args.seconds):
            break

    if not args.trace:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(statistics.median(_wall(one) for one, _ in rounds), "s"),
            "wall_jobs_s": metric(statistics.median(_wall(many) for _, many in rounds), "s"),
            "peak_rss_mb": metric(statistics.median(
                max((r.rss_mb for r in one.values() if r is not None), default=0.0)
                for one, _ in rounds), "MB"),
        }
    else:
        one, many = rounds[0]
        passes, traced_walls = [], []
        traced_start = time.monotonic()
        while True:
            traced = runner.traced_pass()
            traced_walls.append(_wall(traced))
            passes.append(read_summaries(traced))
            if not keep_going(start, measure_start, traced_start,
                              len(passes), args.seconds):
                break
        runner.problems.extend(trace_cross_checks(args.workload, traced, passes))
        values = layer_metrics(passes)
        values["verify.jobs_speedup"] = _speedup(one, many, "verify")
        values["scan.jobs_speedup"] = _speedup(one, many, "scan")
        values["tracing_overhead_s"] = statistics.median(traced_walls) - _wall(one)
        metrics = {name: metric(value, unit_of(name)) for name, value in sorted(values.items())}

    for line in runner.failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in runner.problems:
        print(f"incorrect: {line}", file=sys.stderr)
    print(json.dumps({"correct": not runner.problems,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
