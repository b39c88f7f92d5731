"""Output checkers: each judges the program's JSON against the benchmark's
own arithmetic (arith.py) and against published counts, never against
code from the program.

Every checker returns a list of problems; an empty list accepts the output.
"""

from __future__ import annotations

import json
import random
import re

import arith

CLAIM_IDS = ("T2.1", "C2.01", "C2.1", "T2.2.1", "T2.2.2", "T2.2.3", "T2.2.4",
             "T2.2.5", "C2.2", "L2.1", "T2.3", "T3.1", "T3.2")

# engine/oracle pairs in `verify`: 40 subsets of Z2, Z3, Z4, Z2xZ2 at
# n = 2..5 (160), 360 seeded pairs and 3 near-budget pairs
ENGINE_ORACLE_CROSS_CHECKS = 523

# published subgroup counts of the verify corpus groups outside the Z<n>
# and D<n> families (README: "Published counts")
_SUBGROUP_COUNTS = {
    "S3": 6, "S4": 30, "Q8": 6, "Z2xZ2": 5, "Z2xZ4": 8,
    "perm(4): (1 2 3), (2 3 4)": 10,  # A4
}

# element orders of S6: 1 + 75 + 80 + 180 + 144 + 240 = 720
S6_ELEMENT_ORDERS = {1: 1, 2: 75, 3: 80, 4: 180, 5: 144, 6: 240}


def subgroup_count(spec: str) -> int:
    """Published number of subgroups of a corpus group, by its spec."""
    m = re.fullmatch(r"Z(\d+)", spec)
    if m:
        return arith.tau(int(m.group(1)))  # one subgroup per divisor
    m = re.fullmatch(r"D(\d+)", spec)
    if m:
        n = int(m.group(1))
        return arith.tau(n) + arith.sigma(n)  # Cavior (1975)
    if spec in _SUBGROUP_COUNTS:
        return _SUBGROUP_COUNTS[spec]
    raise KeyError(f"no published subgroup count for {spec!r}")


def dihedral_normal_count(n: int) -> int:
    """Normal subgroups of D<n> (order 2n): rotation subgroups, plus the
    two index-2 dihedral subgroups when n is even, plus D<n> itself."""
    return arith.tau(n) + (3 if n % 2 == 0 else 1)


def cyclic_element_orders(n: int) -> dict[int, int]:
    return {d: arith.totient(d) for d in arith.divisors(n)}


def _load(raw: bytes, problems: list[str], what: str):
    try:
        return json.loads(raw)
    except ValueError as exc:
        problems.append(f"{what}: stdout is not JSON ({exc})")
        return None


def check_same_bytes(out1: bytes, out_n: bytes, what: str) -> list[str]:
    if out1 != out_n:
        return [f"{what}: JSON at --jobs 1 differs from JSON at --jobs N"]
    return []


# ---------------------------------------------------------------------------
# verify


def check_verify(raw: bytes) -> list[str]:
    problems: list[str] = []
    data = _load(raw, problems, "verify")
    if data is None:
        return problems
    if data.get("violation_count") != 0:
        problems.append(f"verify: violation_count is {data.get('violation_count')}")
    if data.get("cross_check_violations"):
        problems.append("verify: engine/oracle cross-check mismatches reported")
    claims = data.get("claims", {})
    if set(claims) != set(CLAIM_IDS):
        problems.append(f"verify: claim ids {sorted(claims)} differ from {sorted(CLAIM_IDS)}")
    for cid in CLAIM_IDS:
        tally = claims.get(cid, {})
        if not tally.get("checked", 0) > 0:
            problems.append(f"verify: claim {cid} was never checked")
        if tally.get("violations"):
            problems.append(f"verify: claim {cid} has violations")
    try:
        proper = sum(subgroup_count(spec) - 1 for spec in data.get("corpus", []))
    except KeyError as exc:
        problems.append(f"verify: {exc.args[0]}")
    else:
        got = claims.get("T3.2", {}).get("checked")
        if got != proper:
            problems.append(f"verify: T3.2 checked {got}, but the corpus has "
                            f"{proper} proper subgroups")
    cross = data.get("engine_oracle_cross_checks")
    if cross != ENGINE_ORACLE_CROSS_CHECKS:
        problems.append(f"verify: {cross} engine/oracle cross-checks, "
                        f"expected {ENGINE_ORACLE_CROSS_CHECKS}")
    total = sum(t.get("checked", 0) for t in claims.values()) + (cross or 0)
    if data.get("checks_total") != total:
        problems.append(f"verify: checks_total {data.get('checks_total')} != {total}")
    return problems


# ---------------------------------------------------------------------------
# scan


def _least_exponent(g: arith.Group, a: int, hs: set[int]) -> int:
    t, x = 1, a
    while x not in hs:
        x = g.mul(x, a)
        t += 1
    return t


def closed_at_some_n(g: arith.Group, ds: set[int], n_max: int) -> bool:
    """Whether D^n is inside D for some n in [2, n_max], by iterating the
    product set D^n = D^(n-1) * D over Python sets."""
    p = ds
    for _ in range(2, n_max + 1):
        p = {g.mul(x, y) for x in p for y in ds}
        if p <= ds:
            return True
    return False


def check_scan(g: arith.Group, raw: bytes, *, subgroups: int,
               commuting_cosets: int, seed: int, samples: int = 24) -> list[str]:
    """subgroups: number of subgroups of g (the 2-closed subsets);
    commuting_cosets: number of proper cosets a*H with aH = Ha (the n-closed,
    not 2-closed subsets)."""
    what = f"scan {g.name}"
    problems: list[str] = []
    data = _load(raw, problems, what)
    if data is None:
        return problems
    entries = data.get("classified", [])
    expected = (1 << g.order) - 1
    totals = data.get("totals", {})
    if len(entries) != expected or totals.get("subsets") != expected:
        problems.append(f"{what}: {len(entries)} entries, totals.subsets "
                        f"{totals.get('subsets')}, expected {expected}")
    try:
        sets = [frozenset(g.ids(e["subset"])) for e in entries]
    except KeyError as exc:
        return problems + [f"{what}: unknown label {exc.args[0]!r}"]
    if len(set(sets)) != len(sets) or frozenset() in sets:
        problems.append(f"{what}: subsets repeat or are empty")
    two = [i for i, e in enumerate(entries) if e["least_closedness"] == 2]
    higher = [i for i, e in enumerate(entries)
              if e["least_closedness"] is not None and e["least_closedness"] > 2]
    never = [i for i, e in enumerate(entries) if e["least_closedness"] is None]
    if len(two) != subgroups or totals.get("two_closed") != subgroups:
        problems.append(f"{what}: {len(two)} 2-closed entries (totals "
                        f"{totals.get('two_closed')}), expected {subgroups}")
    if (len(higher) != commuting_cosets
            or totals.get("n_closed_not_two_closed") != commuting_cosets):
        problems.append(f"{what}: {len(higher)} n-closed entries (totals "
                        f"{totals.get('n_closed_not_two_closed')}), "
                        f"expected {commuting_cosets}")
    for i in two:
        if not g.is_subgroup(sets[i]):
            problems.append(f"{what}: 2-closed {entries[i]['subset']} is not a subgroup")
    for i in higher:
        e = entries[i]
        coset = e.get("coset") or {}
        try:
            hs = set(g.ids(coset.get("subgroup", [])))
            rep = g.index[coset.get("rep")]
        except KeyError:
            problems.append(f"{what}: {e['subset']} has no readable coset")
            continue
        if not g.is_subgroup(hs):
            problems.append(f"{what}: {e['subset']}: {coset['subgroup']} is not a subgroup")
            continue
        if {g.mul(rep, h) for h in hs} != sets[i]:
            problems.append(f"{what}: {e['subset']} is not {coset['rep']}*H")
            continue
        k = _least_exponent(g, rep, hs) + 1
        if e["least_closedness"] != k:
            problems.append(f"{what}: {e['subset']} least closedness "
                            f"{e['least_closedness']}, expected t+1 = {k}")
    n_max = (data.get("n_range") or [0, 2 * g.order + 1])[1]
    rng = random.Random(f"{seed}:{g.name}")
    for i in rng.sample(never, min(samples, len(never))):
        if closed_at_some_n(g, sets[i], n_max):
            problems.append(f"{what}: {entries[i]['subset']} is n-closed for "
                            f"some n <= {n_max}, reported never")
    return problems


# ---------------------------------------------------------------------------
# group descriptions and table validation


def check_group(raw: bytes, what: str, *, order: int, abelian: bool,
                exponent: int, element_orders: dict[int, int]) -> list[str]:
    problems: list[str] = []
    data = _load(raw, problems, what)
    if data is None:
        return problems
    got = (data.get("order"), data.get("abelian"), data.get("exponent"),
           data.get("element_orders"))
    want = (order, abelian, exponent,
            {str(k): v for k, v in sorted(element_orders.items())})
    if got != want:
        problems.append(f"{what}: order/abelian/exponent/element orders "
                        f"{got} differ from {want}")
    return problems


_WITNESS = re.compile(r"associativity fails at \((\d+), (\d+), (\d+)\)")


def check_not_associative(table, rc: int, stderr: bytes, what: str) -> list[str]:
    """The program must refuse the table with exit 1 and name a triple that
    breaks associativity in the benchmark's own copy of the table."""
    if rc != 1:
        return [f"{what}: exit code {rc}, expected 1"]
    m = _WITNESS.search(stderr.decode("utf-8", "replace"))
    if not m:
        return [f"{what}: no associativity witness on stderr"]
    x, y, z = (int(v) for v in m.groups())
    n = len(table)
    if not all(0 <= v < n for v in (x, y, z)):
        return [f"{what}: witness ({x}, {y}, {z}) is out of range"]
    if table[table[x][y]][z] == table[x][table[y][z]]:
        return [f"{what}: witness ({x}, {y}, {z}) is associative"]
    return []


# ---------------------------------------------------------------------------
# subgroup lattices


def check_subgroups(g: arith.Group, raw: bytes, what: str, *, count: int,
                    normal: int | None) -> list[str]:
    problems: list[str] = []
    data = _load(raw, problems, what)
    if data is None:
        return problems
    rows = data.get("subgroups", [])
    if data.get("count") != count or len(rows) != count:
        problems.append(f"{what}: count {data.get('count')} with {len(rows)} "
                        f"rows, published {count}")
    seen = set()
    normals = 0
    for row in rows:
        try:
            ids = g.ids(row["elements"])
        except KeyError as exc:
            problems.append(f"{what}: unknown label {exc.args[0]!r}")
            continue
        hs = frozenset(ids)
        if hs in seen:
            problems.append(f"{what}: {row['elements']} is listed twice")
        seen.add(hs)
        if len(hs) != len(ids) or row.get("order") != len(hs):
            problems.append(f"{what}: {row['elements']} has order {row.get('order')}")
        if (row.get("order") or 0) * (row.get("index") or 0) != g.order:
            problems.append(f"{what}: order {row.get('order')} x index "
                            f"{row.get('index')} != {g.order}")
        if not g.is_subgroup(hs):
            problems.append(f"{what}: {row['elements']} is not closed")
            continue
        is_normal = g.is_normal(hs)
        normals += is_normal
        if row.get("normal") != is_normal:
            problems.append(f"{what}: {row['elements']} normal flag "
                            f"{row.get('normal')}, expected {is_normal}")
    if normal is not None and normals != normal:
        problems.append(f"{what}: {normals} normal subgroups, published {normal}")
    return problems
