"""Exhaustive subset scanner: classify all 2^order - 1 nonempty subsets."""

from __future__ import annotations

from typing import NamedTuple

from . import closedness
from .errors import GroupTooLargeForScan
from .groups import Element, FiniteGroup
from .subsets import GSubset, all_subgroups, coset_commutes, left_cosets
from .util import iter_bits, map_tasks, worker_count

SCAN_ORDER_CAP = 14

# below this many subsets, a worker pool costs more than it saves
_POOL_THRESHOLD = 1 << 12


class ScanEntry(NamedTuple):
    mask: int
    least_closedness: int | None
    subgroup_mask: int | None
    rep: int | None


class ScanReport(NamedTuple):
    group: str
    order: int
    labels: tuple[str, ...]
    seed: int
    entries: list[ScanEntry]
    violations: list[dict]

    @property
    def totals(self) -> dict[str, int]:
        two = sum(1 for e in self.entries if e.least_closedness == 2)
        higher = sum(1 for e in self.entries
                     if e.least_closedness is not None and e.least_closedness > 2)
        return {
            "subsets": len(self.entries),
            "two_closed": two,
            "n_closed_not_two_closed": higher,
            "never_up_to_bound": len(self.entries) - two - higher,
        }

    def _labels_of(self, mask: int) -> list[str]:
        return [self.labels[i] for i in iter_bits(mask)]

    def to_json_dict(self) -> dict:
        classified = []
        for e in self.entries:
            coset = None
            if e.subgroup_mask is not None:
                coset = {"subgroup": self._labels_of(e.subgroup_mask),
                         "rep": self.labels[e.rep]}
            classified.append({
                "subset": self._labels_of(e.mask),
                "mask": e.mask,
                "least_closedness": e.least_closedness,
                "coset": coset,
            })
        return {
            "schema": "nclosed.scan/2",
            "group": self.group,
            "order": self.order,
            "seed": self.seed,
            "totals": self.totals,
            "violation_count": len(self.violations),
            "violations": self.violations,
            "classified": classified,
        }

    def render_text(self) -> str:
        totals = self.totals
        lines = [f"scan of {self.group} (order {self.order})"]
        lines.append(f"  subsets: {totals['subsets']}  "
                     f"2-closed: {totals['two_closed']}  "
                     f"n-closed (n>2): {totals['n_closed_not_two_closed']}  "
                     f"never: {totals['never_up_to_bound']}")
        for e in self.entries:
            subset = "{" + ", ".join(self._labels_of(e.mask)) + "}"
            if e.least_closedness is None:
                verdict = "never m-closed"
            elif e.least_closedness == 2:
                verdict = "2-closed"
            else:
                sub = "{" + ", ".join(self._labels_of(e.subgroup_mask)) + "}"
                verdict = (f"least closedness {e.least_closedness}; "
                           f"coset {self.labels[e.rep]}*{sub}")
            lines.append(f"  {subset}: {verdict}")
        if self.violations:
            lines.append(f"  VIOLATIONS: {len(self.violations)}")
        return "\n".join(lines)


def _classify_range(g: FiniteGroup, lo: int, hi: int) -> tuple[list[ScanEntry], list[dict]]:
    entries = []
    violations: list[dict] = []
    for mask in range(lo, hi):
        d = GSubset(g, mask)
        least = closedness.closedness_profile(d).least
        subgroup_mask = rep = None
        if least is not None and least > 2:
            ext = closedness.extract_subgroup(d, least)
            subgroup_mask = ext.subgroup.mask
            rep = ext.coset_rep.index
            violations.extend(ext.violations)
        entries.append(ScanEntry(mask, least, subgroup_mask, rep))
    return entries, violations


def _scan_range_task(args) -> tuple[list[ScanEntry], list[dict]]:
    return _classify_range(*args)


def _lattice_violations(g: FiniteGroup, entries: list[ScanEntry]) -> list[dict]:
    """Check each verdict against the subgroup lattice: a subgroup has least
    closedness 2, a proper left coset aH with aH = Ha has t + 1 (t the least
    exponent with a^t in H), and every other subset is never n-closed."""
    expected: dict[int, int] = {}
    for h in all_subgroups(g):
        expected[h.mask] = 2
        part = left_cosets(h)
        for rep, coset in zip(part.representatives, part.cosets):
            a = Element(g, rep)
            if coset.mask != h.mask and coset_commutes(a, h):
                expected[coset.mask] = closedness.least_exponent(a, h) + 1
    violations = []
    for e in entries:
        want = expected.get(e.mask)
        if e.least_closedness != want:
            kind = ("neither a subgroup nor a commuting coset, so never n-closed"
                    if want is None else "a subgroup" if want == 2
                    else f"a proper commuting coset, least closedness {want}")
            violations.append(closedness.make_certificate(
                g, "scan-lattice", subset=GSubset(g, e.mask).labels(),
                n=e.least_closedness,
                detail=f"reported least closedness {e.least_closedness}, "
                       f"but the subset is {kind}"))
    return violations


def run_scan(g: FiniteGroup, *, seed: int = 0, jobs: int = 1) -> ScanReport:
    """Classify every nonempty subset of G by its exact least closedness.

    Each subset that is n-closed but not 2-closed carries its extraction
    result (the recovered subgroup and the coset representative). The
    classification is then checked against the subgroup lattice, and every
    disagreement is recorded as a violation. Every check is exact, so seed
    changes nothing computed; the nclosed.scan/2 payload only echoes it.
    """
    if g.order > SCAN_ORDER_CAP:
        raise GroupTooLargeForScan(
            f"scan enumerates 2^order subsets and caps at order {SCAN_ORDER_CAP}, "
            f"got order {g.order}")
    total = 1 << g.order
    workers = worker_count(jobs, total - 1)
    if workers > 1 and total >= _POOL_THRESHOLD:
        chunk = (total - 1 + 4 * workers - 1) // (4 * workers)
        tasks = [(g, lo, min(lo + chunk, total))
                 for lo in range(1, total, chunk)]
    else:
        workers, tasks = 1, [(g, 1, total)]
    entries: list[ScanEntry] = []
    violations: list[dict] = []
    for part_entries, part_violations in map_tasks(_scan_range_task, tasks, workers):
        entries.extend(part_entries)
        violations.extend(part_violations)
    entries.sort(key=lambda e: e.mask)
    violations.extend(_lattice_violations(g, entries))
    return ScanReport(
        group=g.name,
        order=g.order,
        labels=g.labels,
        seed=seed,
        entries=entries,
        violations=violations,
    )
