"""Command-line front end.

Commands: group, subgroups, check, coset, scan, verify.
Exit codes: 0 clean, 1 input error, 2 theorem violation.
JSON output is deterministic: identical inputs and --seed give identical
bytes. Text output is human-oriented and not stability-guaranteed.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import lcm

from . import closedness
from .errors import NClosedError, UsageError
from .groups import Element, structure_orders
from .parsing import parse_group_spec, parse_subset_spec
from .scan import run_scan
from .subsets import (
    all_subgroups,
    generated_subgroup,
    index,
    is_normal_classic,
)
from .util import available_cpus
from .verify import DEFAULT_CORPUS, run_verification


# check prints a witness of n labels, so its output and memory grow with n;
# coset checks its spectrum once per m up to --max-n, so its time does
CHECK_N_CAP = 1_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with its own code
        raise UsageError(message)


def _dump(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _subset_str(labels) -> str:
    return "{" + ", ".join(labels) + "}"


def _single_element(g, text: str) -> Element:
    subset = parse_subset_spec(text, g)
    if subset.size != 1:
        raise UsageError(f"expected a single element, got {subset!r}")
    return Element(g, subset.indices()[0])


# ---------------------------------------------------------------------------
# commands


def cmd_group(args) -> int:
    g = parse_group_spec(args.group)
    orders = structure_orders(g)
    payload = {
        "schema": "nclosed.group/1",
        "spec": args.group,
        "name": g.name,
        "order": g.order,
        "abelian": g.is_abelian(),
        "exponent": lcm(*orders.keys()),
        "identity": g.labels[g.identity],
        "element_orders": {str(k): v for k, v in sorted(orders.items())},
    }
    if args.format == "json":
        _dump(payload)
    else:
        print(f"group {g.name}: order {g.order}, "
              f"{'abelian' if payload['abelian'] else 'non-abelian'}, "
              f"exponent {payload['exponent']}")
        print(f"  identity: {payload['identity']}")
        print("  element orders: "
              + ", ".join(f"{k} (x{v})" for k, v in sorted(orders.items())))
    return 0


def cmd_subgroups(args) -> int:
    g = parse_group_spec(args.group)
    subs = all_subgroups(g)
    rows = [{
        "elements": s.carrier.labels(),
        "order": s.order,
        "index": index(s),
        "normal": is_normal_classic(s),
    } for s in subs]
    if args.format == "json":
        _dump({"schema": "nclosed.subgroups/1", "group": g.name,
               "count": len(rows), "subgroups": rows})
    else:
        print(f"subgroups of {g.name}: {len(rows)}")
        for row in rows:
            flag = "normal" if row["normal"] else "not normal"
            print(f"  order {row['order']:>3} index {row['index']:>3} "
                  f"({flag}): {_subset_str(row['elements'])}")
    return 0


def cmd_check(args) -> int:
    if args.n > CHECK_N_CAP:
        raise UsageError(f"--n caps at {CHECK_N_CAP}, got {args.n}")
    g = parse_group_spec(args.group)
    d = parse_subset_spec(args.subset, g)
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    closed = closedness.is_n_closed(d, args.n)
    witness = None if closed else closedness.n_closed_witness(d, args.n)
    witness_labels = [g.labels[i] for i in witness] if witness is not None else None
    if args.format == "json":
        _dump({
            "schema": "nclosed.check/1",
            "group": g.name,
            "subset": d.labels(),
            "n": args.n,
            "closed": closed,
            "witness": witness_labels,
        })
    else:
        print(f"group {g.name} (order {g.order})")
        print(f"subset {_subset_str(d.labels())}")
        print(f"{args.n}-closed: {str(closed).lower()}")
        if witness is not None:
            p = witness[0]
            for q in witness[1:]:
                p = g.mul(p, q)
            print(f"witness: {' * '.join(witness_labels)} = {g.labels[p]} "
                  f"not in subset")
    return 0


def cmd_coset(args) -> int:
    if args.max_n < 2:
        raise UsageError(f"--max-n must be >= 2, got {args.max_n}")
    if args.max_n > CHECK_N_CAP:
        raise UsageError(f"--max-n caps at {CHECK_N_CAP}, got {args.max_n}")
    g = parse_group_spec(args.group)
    h = generated_subgroup(parse_subset_spec(args.subgroup, g).elements())
    a = _single_element(g, args.rep)
    report = closedness.analyze_coset(a, h)
    violations = list(report.violations)

    spectrum = None
    if report.commutes:
        desc = closedness.closedness_spectrum(report, verify_up_to=args.max_n)
        spectrum = {"step": desc.step, "offset": desc.offset,
                    "verified_up_to": desc.verified_up_to}
        violations.extend(desc.violations)
    power = None
    if args.power is not None:
        pc, k2, power_violations = closedness.power_coset_closedness(report, args.power)
        power = {"m": args.power, "coset": pc.labels(), "closedness": k2}
        violations.extend(power_violations)

    payload = {
        "schema": "nclosed.coset/1",
        "group": g.name,
        "subgroup": h.carrier.labels(),
        "rep": a.label,
        "coset": report.coset.labels(),
        "commutes": report.commutes,
        "least_exponent": report.least_exponent,
        "least_closedness": report.least_closedness,
        "spectrum": spectrum,
        "power": power,
        "violations": violations,
    }
    if args.format == "json":
        _dump(payload)
    else:
        t = report.least_exponent
        print(f"group {g.name} (order {g.order})")
        print(f"subgroup H = {_subset_str(h.carrier.labels())} "
              f"(order {h.order}, index {index(h)})")
        print(f"coset L = {a.label}*H = {_subset_str(report.coset.labels())}")
        print(f"aH = Ha: {'yes' if report.commutes else 'no'}")
        print(f"least exponent t = {t}")
        if report.commutes:
            print(f"least closedness k = {report.least_closedness}")
            print(f"spectrum: m ≡ 1 (mod {t}), m ≥ {t + 1} "
                  f"(verified to {args.max_n})")
        else:
            print("never m-closed (aH ≠ Ha)")
        if power is not None:
            print(f"power coset {a.label}^{args.power}*H = "
                  f"{_subset_str(power['coset'])}: "
                  f"least closedness {power['closedness']}")
        if violations:
            print(f"VIOLATIONS: {len(violations)} (certificates with --format json)")
    return 2 if violations else 0


def cmd_scan(args) -> int:
    g = parse_group_spec(args.group)
    report = run_scan(g, seed=args.seed, jobs=args.jobs)
    if args.format == "json":
        # one compact line: json renders it in C, while indent=2 falls back
        # to the pure-Python encoder, several times slower on 2^14 entries
        print(json.dumps(report.to_json_dict(), separators=(",", ":"),
                         sort_keys=True))
    else:
        print(report.render_text())
    return 2 if report.violations else 0


def cmd_verify(args) -> int:
    if args.corpus == "default":
        specs = DEFAULT_CORPUS
    else:
        specs = tuple(s.strip() for s in args.corpus.split(";") if s.strip())
        if not specs:
            raise UsageError("empty corpus")
    report = run_verification(specs, seed=args.seed, jobs=args.jobs)
    if args.format == "json":
        _dump(report.to_json_dict())
    else:
        print(report.render_text())
    return 2 if report.violation_count else 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nclosed",
        description="Decide n-closedness of subsets of finite groups, analyze "
                    "coset closedness spectra, and verify the normality "
                    "characterization against classical conjugation.",
        epilog="Group specs: Z<n>, S<n> (n<=6), D<n> (order 2n), Q8, products "
               "like Z2xZ3, perm(<degree>): <cycles>, ... (degree<=8, order<=5040), "
               "or table:<path> "
               "(JSON Cayley table). Cycle notation composes right to left: "
               "in (1 2)(2 3) the right cycle applies first.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    common.add_argument("--jobs", type=int, default=available_cpus(),
                        help="worker processes, at most one per available CPU "
                             "(default: the CPUs this process may use)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the sampled engine/oracle cross-checks "
                             "of verify (default 0); scan and verify echo it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", parents=[common], help="describe a group")
    p.add_argument("group")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("subgroups", parents=[common], help="list all subgroups")
    p.add_argument("group")
    p.set_defaults(func=cmd_subgroups)

    p = sub.add_parser("check", parents=[common],
                       help="decide whether a subset is n-closed")
    p.add_argument("group")
    p.add_argument("--subset", required=True,
                   help="comma-separated element labels")
    p.add_argument("--n", type=int, required=True,
                   help=f"the n to decide, 2 to {CHECK_N_CAP}")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("coset", parents=[common],
                       help="analyze the coset rep*<generated subgroup>")
    p.add_argument("group")
    p.add_argument("--subgroup", required=True,
                   help="generator labels of H, comma-separated")
    p.add_argument("--rep", required=True, help="coset representative label")
    p.add_argument("--power", type=int, default=None,
                   help="also analyze the power coset rep^m*H")
    p.add_argument("--max-n", type=int, default=20,
                   help=f"verify the spectrum up to this m, 2 to {CHECK_N_CAP} "
                        "(default 20)")
    p.set_defaults(func=cmd_coset)

    p = sub.add_parser("scan", parents=[common],
                       help="classify every nonempty subset (order <= 14)")
    p.add_argument("group")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", parents=[common],
                       help="run the claim battery over a corpus")
    p.add_argument("--corpus", default="default",
                   help='"default" or a semicolon-separated list of group specs')
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NClosedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
