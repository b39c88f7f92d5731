"""Tests of the benchmark's checkers: real outputs pass, tampered ones fail.

    python3 -m pytest bench/test_checks.py -q      (from the checkout root)

Real outputs come from small CLI runs of the program in ./src; each
tampered copy changes one thing a faulty program could get wrong.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import arith
import checks

ROOT = Path(__file__).resolve().parent.parent


def cli(*args: str, rc: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "nclosed", *args],
                          capture_output=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == rc, proc.stderr.decode()
    return proc


def dumps(data: dict) -> bytes:
    return json.dumps(data, indent=2, sort_keys=True).encode() + b"\n"


# ---------------------------------------------------------------------------
# the published counts and group facts, against the benchmark's arithmetic


def subgroups_by_cyclic_extension(g: arith.Group) -> set[frozenset[int]]:
    """Every subgroup, as the closure of a known subgroup and one element,
    starting from the trivial one (each subgroup is reached through a chain
    of one-element extensions)."""

    def close(gens):
        elems = {g.identity}
        frontier = [g.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gens:
                    y = g.mul(x, s)
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(elems)

    found = {frozenset([g.identity]): ()}
    frontier = list(found.items())
    while frontier:
        nxt = []
        for h, gens in frontier:
            for x in range(g.order):
                if x in h:
                    continue
                k = close(gens + (x,))
                if k not in found:
                    found[k] = gens + (x,)
                    nxt.append((k, gens + (x,)))
        frontier = nxt
    return set(found)


def quaternion() -> arith.Group:
    """Q8 as the units ±1, ±i, ±j, ±k under the Hamilton product."""
    units = [tuple(s if k == axis else 0 for k in range(4))
             for axis in range(4) for s in (1, -1)]

    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    return arith.Group.from_rule(units, str, mul, "Q8")


@pytest.mark.parametrize("g, count, normal", [
    (arith.cyclic(12), arith.tau(12), arith.tau(12)),
    (arith.symmetric(3), checks.subgroup_count("S3"), 3),
    (quaternion(), checks.subgroup_count("Q8"), 6),
    (arith.product(arith.cyclic(2), arith.cyclic(2)), checks.subgroup_count("Z2xZ2"), 5),
    (arith.product(arith.cyclic(2), arith.cyclic(4)), checks.subgroup_count("Z2xZ4"), 8),
    (arith.dihedral(6), checks.subgroup_count("D6"), checks.dihedral_normal_count(6)),
    (arith.dihedral(7), checks.subgroup_count("D7"), checks.dihedral_normal_count(7)),
    (arith.symmetric(4), checks.subgroup_count("S4"), 4),
    (arith.perm_generated(4, [arith.parse_cycles("(1 2 3)", 4),
                              arith.parse_cycles("(2 3 4)", 4)]),
     checks.subgroup_count("perm(4): (1 2 3), (2 3 4)"), 3),
    (arith.perm_generated(5, [arith.parse_cycles("(1 2 3)", 5),
                              arith.parse_cycles("(1 2 3 4 5)", 5)]), 59, 2),
    (arith.dihedral(24), 68, 11),
    (arith.dihedral(30), 80, 11),
    (arith.product(arith.cyclic(2), arith.symmetric(4)), 98, None),
])
def test_published_subgroup_counts(g, count, normal):
    subs = subgroups_by_cyclic_extension(g)
    assert len(subs) == count
    if normal is not None:
        assert sum(g.is_normal(h) for h in subs) == normal


def test_group_facts_match_the_generators():
    for g, orders in ((arith.symmetric(6), checks.S6_ELEMENT_ORDERS),
                      (arith.cyclic(500), checks.cyclic_element_orders(500))):
        hist: dict[int, int] = {}
        for a in range(g.order):
            k = g.element_order(a)
            hist[k] = hist.get(k, 0) + 1
        assert hist == orders


def test_dihedral_labels_follow_the_program_convention():
    d = arith.dihedral(7)
    r, s = d.index["r2"], d.index["s1"]
    assert d.labels[d.mul(s, r)] == "s6"      # s_i r_j = s_(i-j)
    assert d.labels[d.mul(r, s)] == "s3"      # r_i s_j = s_(i+j)
    assert d.labels[d.mul(s, s)] == "r0"


def test_cycle_notation_composes_right_to_left():
    p = arith.parse_cycles("(1 2)(2 3)", 3)
    assert arith.cycle_label(p) == "(1 2 3)"


def test_closed_at_some_n():
    z4, z6 = arith.cyclic(4), arith.cyclic(6)
    assert checks.closed_at_some_n(z4, {1, 3}, 9)   # 3-closed
    assert checks.closed_at_some_n(z4, {1}, 9)      # 5-closed
    assert not checks.closed_at_some_n(z6, {1, 2}, 13)


# ---------------------------------------------------------------------------
# verify


@pytest.fixture(scope="module")
def verify_out() -> bytes:
    return cli("verify", "--corpus", "Z4;S3;D4", "--format", "json",
               "--jobs", "1").stdout


def test_verify_accepts_real_output(verify_out):
    assert checks.check_verify(verify_out) == []


def test_verify_output_is_the_same_across_jobs(verify_out):
    other = cli("verify", "--corpus", "Z4;S3;D4", "--format", "json",
                "--jobs", "2").stdout
    assert checks.check_same_bytes(verify_out, other, "verify") == []


@pytest.mark.parametrize("tamper", [
    lambda d: d["claims"]["T3.2"].__setitem__("checked", d["claims"]["T3.2"]["checked"] + 1),
    lambda d: d.__setitem__("violation_count", 1),
    lambda d: d["claims"]["T2.3"].__setitem__("checked", 0),
    lambda d: d["claims"].pop("L2.1"),
    lambda d: d["claims"]["C2.2"]["violations"].append({"claim": "C2.2"}),
    lambda d: d.__setitem__("engine_oracle_cross_checks", 522),
    lambda d: d["corpus"].append("Z5"),
])
def test_verify_rejects_tampered_output(verify_out, tamper):
    data = json.loads(verify_out)
    tamper(data)
    assert checks.check_verify(dumps(data))


def test_json_differing_across_jobs_is_rejected(verify_out):
    other = verify_out.replace(b'"seed": 0', b'"seed": 1')
    assert other != verify_out
    assert checks.check_same_bytes(verify_out, other, "verify")


# ---------------------------------------------------------------------------
# scan


SCAN_CASES = {
    "Z6": (arith.cyclic(6), arith.tau(6), arith.sigma(6) - arith.tau(6)),
    "D3": (arith.dihedral(3), arith.tau(3) + arith.sigma(3), 2 * 3),
}


@pytest.fixture(scope="module", params=sorted(SCAN_CASES))
def scan_case(request):
    spec = request.param
    g, subgroups, cosets = SCAN_CASES[spec]
    out = cli("scan", spec, "--format", "json", "--jobs", "1").stdout
    return g, subgroups, cosets, out


def _check_scan(case, raw):
    g, subgroups, cosets, _ = case
    return checks.check_scan(g, raw, subgroups=subgroups, commuting_cosets=cosets,
                             seed=0, samples=10 ** 6)


def test_scan_accepts_real_output(scan_case):
    assert _check_scan(scan_case, scan_case[3]) == []


def _first(data, pred):
    return next(e for e in data["classified"] if pred(e))


def _bump_total(d):
    d["totals"]["n_closed_not_two_closed"] += 1


def _drop_entry(d):
    d["classified"].pop()


def _wrong_closedness(d):
    _first(d, lambda e: (e["least_closedness"] or 0) > 2)["least_closedness"] += 1


def _wrong_rep(d):
    e = _first(d, lambda e: (e["least_closedness"] or 0) > 2)
    inside = set(e["subset"])
    e["coset"]["rep"] = next(s for s in ("0", "1", "2", "3", "r0", "r1", "r2", "s0")
                             if s not in inside and s in LABELS[d["group"]])


def _never_for_subgroup(d):
    """A closed subset reported as never, with the totals kept consistent."""
    e = _first(d, lambda e: (e["least_closedness"] or 0) > 2)
    e["least_closedness"] = None
    e["coset"] = None
    d["totals"]["n_closed_not_two_closed"] -= 1
    d["totals"]["never_up_to_bound"] += 1


LABELS = {"Z6": set(arith.cyclic(6).labels), "D3": set(arith.dihedral(3).labels)}


@pytest.mark.parametrize("tamper", [_bump_total, _drop_entry, _wrong_closedness,
                                    _wrong_rep, _never_for_subgroup])
def test_scan_rejects_tampered_output(scan_case, tamper):
    data = json.loads(scan_case[3])
    tamper(data)
    assert _check_scan(scan_case, dumps(data))


def test_scan_sampling_alone_catches_a_closed_never():
    """With the expected counts matching the tampered totals, only the
    re-decision of the sampled never-subsets can catch the change."""
    g, subgroups, cosets = SCAN_CASES["Z6"]
    data = json.loads(cli("scan", "Z6", "--format", "json", "--jobs", "1").stdout)
    _never_for_subgroup(data)
    problems = checks.check_scan(g, dumps(data), subgroups=subgroups,
                                 commuting_cosets=cosets - 1, seed=0,
                                 samples=10 ** 6)
    assert problems and all("reported never" in p for p in problems)


# ---------------------------------------------------------------------------
# group descriptions and table validation


S4_FACTS = dict(order=24, abelian=False, exponent=12,
                element_orders={1: 1, 2: 9, 3: 8, 4: 6})


def test_group_accepts_real_output():
    assert checks.check_group(cli("group", "S4", "--format", "json").stdout,
                              "S4", **S4_FACTS) == []


@pytest.mark.parametrize("field, value", [
    ("order", 25), ("abelian", True), ("exponent", 24),
    ("element_orders", {"1": 1, "2": 10, "3": 7, "4": 6}),
])
def test_group_rejects_tampered_output(field, value):
    data = json.loads(cli("group", "S4", "--format", "json").stdout)
    data[field] = value
    assert checks.check_group(dumps(data), "S4", **S4_FACTS)


@pytest.fixture(scope="module")
def corrupted(tmp_path_factory):
    g = arith.shuffled(arith.symmetric(4), random.Random(3))
    table = copy.deepcopy(g.table)
    table[5][7] = (table[5][7] + 1) % g.order
    path = tmp_path_factory.mktemp("tables") / "s4-corrupt.json"
    path.write_text(json.dumps({"labels": g.labels, "table": table}))
    proc = cli("group", f"table:{path}", "--format", "json", rc=1)
    return table, proc.stderr


def test_corrupted_table_witness_is_accepted(corrupted):
    table, stderr = corrupted
    assert checks.check_not_associative(table, 1, stderr, "s4") == []


def test_associative_witness_is_rejected(corrupted):
    table, stderr = corrupted
    n = len(table)
    x, y, z = next((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                   if table[table[x][y]][z] == table[x][table[y][z]])
    fake = checks._WITNESS.sub(f"associativity fails at ({x}, {y}, {z})",
                               stderr.decode()).encode()
    assert checks.check_not_associative(table, 1, fake, "s4")


def test_accepting_a_corrupted_table_is_rejected(corrupted):
    table, stderr = corrupted
    assert checks.check_not_associative(table, 0, b"", "s4")
    assert checks.check_not_associative(table, 1, b"error: no identity", "s4")


# ---------------------------------------------------------------------------
# subgroup lattices


@pytest.fixture(scope="module")
def d6_subgroups() -> bytes:
    return cli("subgroups", "D6", "--format", "json").stdout


D6 = arith.dihedral(6)


def _check_d6(raw):
    return checks.check_subgroups(D6, raw, "D6", count=checks.subgroup_count("D6"),
                                  normal=checks.dihedral_normal_count(6))


def test_subgroups_accepts_real_output(d6_subgroups):
    assert _check_d6(d6_subgroups) == []


def _drop(d):
    d["subgroups"].pop(3)
    d["count"] -= 1


def _duplicate(d):
    d["subgroups"][3] = copy.deepcopy(d["subgroups"][4])


def _not_closed(d):
    row = next(r for r in d["subgroups"] if r["order"] == 2)
    row["elements"] = ["r0", "r1"]


def _flip_normal(d):
    d["subgroups"][1]["normal"] = not d["subgroups"][1]["normal"]


def _bad_index(d):
    d["subgroups"][1]["index"] += 1


@pytest.mark.parametrize("tamper", [_drop, _duplicate, _not_closed,
                                    _flip_normal, _bad_index])
def test_subgroups_rejects_tampered_output(d6_subgroups, tamper):
    data = json.loads(d6_subgroups)
    tamper(data)
    assert _check_d6(dumps(data))
