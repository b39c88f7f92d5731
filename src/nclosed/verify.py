"""Corpus-wide verification: every claim checked against independent oracles.

Each claim id below indexes one verified statement about n-closed subsets;
the registry maps ids to what is actually checked. A violation carries a
replayable certificate (full table, subset labels, the offending n or m,
and a witness where one exists), so any red result can be reproduced from
the report alone.
"""

from __future__ import annotations

import json
import time
from array import array
from functools import lru_cache
from typing import NamedTuple

from . import closedness, normality
from .errors import GroupTooLargeForScan
from .groups import Element, FiniteGroup, FiniteSemigroup
from .parsing import parse_group_spec
from .subsets import GSubset, Subgroup, proper_subgroups, translate_mask_left
from .util import derived_rng, map_tasks, worker_count

DEFAULT_CORPUS: tuple[str, ...] = (
    "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12",
    "Z13", "Z14", "Z15", "Z16",
    "Z2xZ2", "Z2xZ4",
    "S3", "S4",
    "D3", "D4", "D5", "D6",
    "Q8",
    "perm(4): (1 2 3), (2 3 4)",
)

SEMIGROUP_FIXTURE_MODULI: tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10)

VERIFY_ORDER_CAP = 24
EXHAUSTIVE_SUBSET_ORDER_CAP = 10

COSET_N_RANGE = range(3, 11)  # the n at which C2.2 and T2.2.1 read a coset's profile
EXTRACTION_NS = (3, 4, 5)
SEMIGROUP_SCAN_MAX = 8
CROSS_CHECK_RANDOM_PAIRS = 360

CLAIMS: dict[str, str] = {
    "T2.1": "shift sets of a finite n-closed non-2-closed subset form one common subgroup",
    "C2.01": "an n-closed non-2-closed subset of a finite group is a left coset of its shift subgroup",
    "C2.1": "in a semigroup, shift sets of an n-closed subset are 2-closed",
    "T2.2.1": "an n-closed proper coset a*H forces a^(n-1) in H, n >= 3, and is never 2-closed",
    "T2.2.2": "an n-closed coset L satisfies b*H = H*b = L for every b in L",
    "T2.2.3": "length-(k-2) prefix products from an n-closed coset map it back onto H",
    "T2.2.4": "a^m lands in H exactly at multiples of the least exponent t, for every b in a*H",
    "T2.2.5": "a commuting coset is m-closed exactly when t divides m-1",
    "C2.2": "a*H is n-closed iff a*H = H*a and a^(n-1) in H",
    "L2.1": "least c with (a^m)^c in H equals t/gcd(m,t), with divisibility pattern c | f",
    "T2.3": "the power coset a^m*H has least closedness t/gcd(m,t) + 1",
    "T3.1": "H is normal iff every coset a*H is m-closed for some m >= 3",
    "T3.2": "H is normal iff every coset a*H is (index+1)-closed",
}


class ClaimTally:
    __slots__ = ("checked", "violations")

    def __init__(self, checked: int = 0, violations: list[dict] | None = None):
        self.checked = checked
        self.violations = [] if violations is None else violations

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClaimTally) and other.checked == self.checked
                and other.violations == self.violations)

    def __repr__(self):
        return f"ClaimTally(checked={self.checked!r}, violations={self.violations!r})"


class VerificationReport(NamedTuple):
    corpus: tuple[str, ...]
    seed: int
    claims: dict[str, ClaimTally]
    cross_checks: int
    cross_violations: list[dict]
    semigroup_fixtures: tuple[str, ...]
    elapsed_seconds: float

    @property
    def violation_count(self) -> int:
        return (sum(len(t.violations) for t in self.claims.values())
                + len(self.cross_violations))

    @property
    def checks_total(self) -> int:
        return sum(t.checked for t in self.claims.values()) + self.cross_checks

    def to_json_dict(self) -> dict:
        # elapsed is deliberately omitted: JSON reports are byte-identical
        # for identical inputs and seed
        return {
            "schema": "nclosed.verify/1",
            "corpus": list(self.corpus),
            "seed": self.seed,
            "semigroup_fixtures": list(self.semigroup_fixtures),
            "engine_oracle_cross_checks": self.cross_checks,
            "cross_check_violations": self.cross_violations,
            "checks_total": self.checks_total,
            "violation_count": self.violation_count,
            "claims": {
                cid: {"checked": t.checked, "violations": t.violations}
                for cid, t in self.claims.items()
            },
        }

    def render_text(self) -> str:
        lines = [f"verification over {len(self.corpus)} group(s), seed {self.seed}"]
        lines.append(f"  semigroup fixtures: {', '.join(self.semigroup_fixtures)}")
        lines.append(f"  engine/oracle cross-checks: {self.cross_checks} "
                     f"({len(self.cross_violations)} mismatches)")
        for cid, tally in self.claims.items():
            lines.append(f"  {cid:<7} checked {tally.checked:>6}   "
                         f"violations {len(tally.violations)}")
        lines.append(f"total checks {self.checks_total}, "
                     f"violations {self.violation_count}, "
                     f"elapsed {self.elapsed_seconds:.2f}s")
        return "\n".join(lines)


def _new_tallies() -> dict[str, ClaimTally]:
    return {cid: ClaimTally() for cid in CLAIMS}


def _merge(into: dict[str, ClaimTally], part: dict[str, ClaimTally]) -> None:
    for cid, tally in part.items():
        into[cid].checked += tally.checked
        into[cid].violations.extend(tally.violations)


# ---------------------------------------------------------------------------
# semigroup fixtures


@lru_cache(maxsize=None)
def multiplicative_semigroup(k: int) -> FiniteSemigroup:
    """Integers mod k under multiplication (associative, no inverses).

    A semigroup by construction, so the table is not validated."""
    rows = tuple(array("i", [i * j % k for j in range(k)]) for i in range(k))
    return FiniteSemigroup(rows, tuple(str(i) for i in range(k)), f"mulZ{k}")


# ---------------------------------------------------------------------------
# focused checks and sweeps; each returns (checked, violations).
# run_verification runs cor22_coset_checks on each coset of a subgroup's report


def cor22_coset_checks(report: closedness.CosetReport) -> tuple[int, list[dict]]:
    """Engine n-closedness of a*H against (aH = Ha and a^(n-1) in H)."""
    h, a, coset = report.subgroup, report.rep, report.coset
    g = h.owner
    violations = []
    for n in COSET_N_RANGE:
        engine = report.profile.is_closed(n)
        fast = report.commutes and g.pow(a.index, n - 1) in h
        if engine != fast:
            witness = None if engine else closedness.n_closed_witness(coset, n)
            violations.append(closedness.make_certificate(
                g, "C2.2", subgroup=h.carrier.labels(), rep=a.label, n=n,
                subset=coset.labels(),
                witness=None if witness is None else [g.labels[i] for i in witness],
                detail=f"engine {engine} but fast path {fast}"))
    return len(COSET_N_RANGE), violations


def sweep_extraction(g: FiniteGroup) -> tuple[int, list[dict]]:
    """Exhaustive subset scan: every n-closed non-2-closed D must extract."""
    if g.order > 14:
        raise GroupTooLargeForScan(
            f"exhaustive subset sweep caps at order 14, got {g.order}")
    checked = 0
    violations: list[dict] = []
    for mask in range(1, 1 << g.order):
        d = GSubset(g, mask)
        profile = closedness.closedness_profile(d)
        if profile.is_closed(2):
            continue
        for n in EXTRACTION_NS:
            if not profile.is_closed(n):
                continue
            checked += 1
            violations.extend(closedness.extract_subgroup(d, n).violations)
    return checked, violations


def sweep_semigroup_shifts(struct: FiniteSemigroup) -> tuple[int, list[dict]]:
    """Shift sets of every n-closed subset of a semigroup must be 2-closed.

    Each nonempty subset is profiled once; a shift set p*D is a nonempty
    subset too, so its verdict is read from the same table. Counts every
    length-(n-2) prefix tuple as one check: each one's shift set is p*D for
    its product p, and every p in D^(n-2) is checked."""
    if struct.order > 10:
        raise GroupTooLargeForScan(
            f"semigroup subset sweep caps at order 10, got {struct.order}")
    masks = range(1, 1 << struct.order)
    profiles = [None] + [closedness.closedness_profile(GSubset(struct, mask))
                         for mask in masks]
    checked = 0
    violations: list[dict] = []
    for mask in masks:
        least = profiles[mask].least
        if least is None or least > SEMIGROUP_SCAN_MAX:
            continue
        n = max(least, 3)  # a 2-closed set is n-closed for every n
        checked += mask.bit_count() ** (n - 2)
        for p in closedness._prefix_products(struct, mask, n - 2):
            if not profiles[translate_mask_left(struct, p, mask)].is_closed(2):
                violations.append(closedness.make_certificate(
                    struct, "C2.1", subset=GSubset(struct, mask).labels(), n=n,
                    witness=struct.labels[p],
                    detail="shift set p*D is not 2-closed"))
    return checked, violations


def cross_check_engine_oracle(seed: int = 0) -> tuple[int, list[dict]]:
    """Engine vs explicit tuple enumeration on exhaustive + seeded pairs."""
    small = [parse_group_spec(s) for s in ("Z2", "Z3", "Z4", "Z2xZ2")]
    larger = [parse_group_spec(s)
              for s in ("Z6", "Z8", "Z9", "Z12", "Z16", "S3", "D4", "Q8", "Z2xZ4")]
    checked = 0
    violations: list[dict] = []

    def run_pair(g, mask, n):
        nonlocal checked
        d = GSubset(g, mask)
        if d.size ** n > closedness.ORACLE_BUDGET:
            return False
        engine = closedness.is_n_closed(d, n)
        oracle = closedness.is_n_closed_oracle(d, n)
        checked += 1
        if engine != oracle:
            violations.append(closedness.make_certificate(
                g, "engine-oracle", subset=d.labels(), n=n,
                detail=f"engine {engine} but oracle {oracle}"))
        return True

    for g in small:
        for mask in range(1, 1 << g.order):
            for n in range(2, 6):
                run_pair(g, mask, n)
    rng = derived_rng(seed, "cross-checks")
    done = 0
    while done < CROSS_CHECK_RANDOM_PAIRS:
        g = larger[rng.randrange(len(larger))]
        mask = rng.randrange(1, 1 << g.order)
        n = rng.randint(2, 5)
        if run_pair(g, mask, n):
            done += 1
    # a few deliberately near-budget pairs
    for g, size, n in ((larger[4], 16, 4), (larger[3], 11, 4), (larger[8], 8, 5)):
        ids = rng.sample(range(g.order), size)
        run_pair(g, sum(1 << i for i in ids), n)
    return checked, violations


# ---------------------------------------------------------------------------
# per-coset and per-subgroup claim batteries


def _check_coset(report: closedness.CosetReport, tallies: dict[str, ClaimTally],
                 profiles: dict[int, closedness.ClosednessProfile]) -> None:
    a, h = report.rep, report.subgroup
    g, rep = h.owner, a.index
    t = report.least_exponent
    h_labels = h.carrier.labels()

    if report.commutes:
        tallies["T2.2.2"].checked += 1
        tallies["T2.2.3"].checked += 1
        for cert in report.violations:
            key = "T2.2.2" if cert["claim"] == "coset-translate" else "T2.2.3"
            tallies[key].violations.append(cert)

    # C2.2 plus the consequences for whichever n the engine accepts
    checked, violations = cor22_coset_checks(report)
    tallies["C2.2"].checked += checked
    tallies["C2.2"].violations.extend(violations)

    tallies["T2.2.1"].checked += 1
    if report.profile.is_closed(2):
        tallies["T2.2.1"].violations.append(closedness.make_certificate(
            g, "T2.2.1", subgroup=h_labels, rep=a.label, n=2,
            detail="a proper coset can never be 2-closed"))
    for n in COSET_N_RANGE:
        if report.profile.is_closed(n):
            tallies["T2.2.1"].checked += 1
            if g.pow(rep, n - 1) not in h:
                tallies["T2.2.1"].violations.append(closedness.make_certificate(
                    g, "T2.2.1", subgroup=h_labels, rep=a.label, n=n,
                    detail="n-closed coset but a^(n-1) outside H"))

    # membership at powers happens exactly at multiples of t
    tallies["T2.2.4"].checked += 1
    x = g.identity
    hmask = h.mask
    for m in range(1, 2 * g.order + 1):
        x = g.mul(x, rep)
        if (hmask >> x & 1 == 1) != (m % t == 0):
            tallies["T2.2.4"].violations.append(closedness.make_certificate(
                g, "T2.2.4", subgroup=h_labels, rep=a.label, m=m,
                detail=f"a^m in H disagrees with t | m for t={t}"))
    if report.commutes:
        for b in report.coset.indices():
            tb = closedness.least_exponent(Element(g, b), h)
            if tb != t:
                tallies["T2.2.4"].violations.append(closedness.make_certificate(
                    g, "T2.2.4", subgroup=h_labels, rep=a.label,
                    witness=g.labels[b],
                    detail=f"least exponent {tb} differs from {t} inside the coset"))
        tallies["T2.2.5"].checked += 1
        tallies["T2.2.5"].violations.extend(
            closedness.closedness_spectrum(report).violations)

    for m in range(1, 2 * t + 1):
        tallies["L2.1"].checked += 1
        _, violations = closedness.least_power_exponent(report, m)
        tallies["L2.1"].violations.extend(violations)
        if report.commutes:
            tallies["T2.3"].checked += 1
            *_, violations = closedness.power_coset_closedness(report, m, profiles)
            tallies["T2.3"].violations.extend(violations)


def _check_subgroup(h: Subgroup, tallies: dict[str, ClaimTally]) -> None:
    """Both normality verdicts and the coset battery, all reading one
    analyze_subgroup report, so each left coset is analysed once; every
    power coset a^m*H reads its profile from the report, and H's own
    profile is computed at most once."""
    g = h.owner
    h_labels = h.carrier.labels()
    report = closedness.analyze_subgroup(h)

    verdict = normality.normal_iff_index_plus_one(report)
    tallies["T3.2"].checked += 1
    tallies["T3.2"].violations.extend(verdict.violations)
    if not verdict.agreement:
        tallies["T3.2"].violations.append(closedness.make_certificate(
            g, "T3.2", subgroup=h_labels,
            detail=f"classic {verdict.verdict_classic} vs "
                   f"closedness {verdict.verdict_via_closedness}"))
    if verdict.verdict_classic:
        # quotient-order argument: a^index lands in H for every coset rep
        for check in verdict.per_coset:
            if g.pow(check.rep, verdict.index) not in h:
                tallies["T3.2"].violations.append(closedness.make_certificate(
                    g, "T3.2", subgroup=h_labels, rep=g.labels[check.rep],
                    n=verdict.index,
                    detail="normal subgroup but a^index outside H"))

    verdict = normality.normal_iff_existential(report)
    tallies["T3.1"].checked += 1
    tallies["T3.1"].violations.extend(verdict.violations)
    if not verdict.agreement:
        tallies["T3.1"].violations.append(closedness.make_certificate(
            g, "T3.1", subgroup=h_labels,
            detail=f"classic {verdict.verdict_classic} vs "
                   f"existential {verdict.verdict_via_closedness}"))

    profiles = {coset.coset.mask: coset.profile for coset in report.cosets}
    for coset in report.cosets:
        _check_coset(coset, tallies, profiles)


def _verify_group_task(g: FiniteGroup) -> dict[str, ClaimTally]:
    tallies = _new_tallies()
    for h in proper_subgroups(g):
        _check_subgroup(h, tallies)
    if g.order <= EXHAUSTIVE_SUBSET_ORDER_CAP:
        checked, violations = sweep_extraction(g)
        tallies["T2.1"].checked += checked
        tallies["C2.01"].checked += checked
        for cert in violations:
            key = "C2.01" if cert["claim"] == "extraction-coset" else "T2.1"
            tallies[key].violations.append(cert)
    return tallies


def _semigroup_task(k: int) -> dict[str, ClaimTally]:
    tallies = _new_tallies()
    checked, violations = sweep_semigroup_shifts(multiplicative_semigroup(k))
    tallies["C2.1"].checked += checked
    tallies["C2.1"].violations.extend(violations)
    return tallies


def _run_task(task):
    fn, arg = task
    return fn(arg)


def run_verification(specs=DEFAULT_CORPUS, *, seed: int = 0,
                     jobs: int = 1) -> VerificationReport:
    """Run the whole claim battery over a corpus of group specs.

    The engine/oracle cross-checks, each semigroup fixture and each group
    are one task each; with jobs > 1 they run in a pool, the cross-checks
    first."""
    start = time.perf_counter()
    specs = tuple(specs)
    groups = []
    for spec in specs:  # surface parse errors before any work
        g = parse_group_spec(spec)
        if g.order > VERIFY_ORDER_CAP:
            raise GroupTooLargeForScan(
                f"verify enumerates subgroups only up to order {VERIFY_ORDER_CAP}, "
                f"got {g.name} of order {g.order}")
        groups.append(g)
    tasks = ([(cross_check_engine_oracle, seed)]
             + [(_semigroup_task, k) for k in SEMIGROUP_FIXTURE_MODULI]
             + [(_verify_group_task, g) for g in groups])
    (cross_count, cross_violations), *parts = map_tasks(
        _run_task, tasks, worker_count(jobs, len(tasks)))
    tallies = _new_tallies()
    for part in parts:
        _merge(tallies, part)

    for tally in tallies.values():
        tally.violations.sort(key=lambda c: json.dumps(c, sort_keys=True))
    cross_violations.sort(key=lambda c: json.dumps(c, sort_keys=True))

    return VerificationReport(
        corpus=specs,
        seed=seed,
        claims=tallies,
        cross_checks=cross_count,
        cross_violations=cross_violations,
        semigroup_fixtures=tuple(f"mulZ{k}" for k in SEMIGROUP_FIXTURE_MODULI),
        elapsed_seconds=time.perf_counter() - start,
    )
