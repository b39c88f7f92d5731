"""Exhaustive subset scanner: classify all 2^order - 1 nonempty subsets."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import closedness
from .errors import GroupTooLargeForScan
from .groups import FiniteGroup
from .subsets import GSubset
from .util import iter_bits, worker_count

SCAN_ORDER_CAP = 14

# below this many subsets, a worker pool costs more than it saves
_POOL_THRESHOLD = 1 << 12


@dataclass(frozen=True)
class ScanEntry:
    mask: int
    least_closedness: int | None
    subgroup_mask: int | None
    rep: int | None


@dataclass
class ScanReport:
    group: str
    order: int
    labels: tuple[str, ...]
    n_max: int
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
            "schema": "nclosed.scan/1",
            "group": self.group,
            "order": self.order,
            "n_range": [3, self.n_max],
            "seed": self.seed,
            "totals": self.totals,
            "violation_count": len(self.violations),
            "violations": self.violations,
            "classified": classified,
        }

    def render_text(self) -> str:
        totals = self.totals
        lines = [f"scan of {self.group} (order {self.order}), n up to {self.n_max}"]
        lines.append(f"  subsets: {totals['subsets']}  "
                     f"2-closed: {totals['two_closed']}  "
                     f"n-closed (n>2): {totals['n_closed_not_two_closed']}  "
                     f"never (up to bound): {totals['never_up_to_bound']}")
        for e in self.entries:
            subset = "{" + ", ".join(self._labels_of(e.mask)) + "}"
            if e.least_closedness is None:
                verdict = f"not m-closed for any m <= {self.n_max}"
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


def _classify_range(g: FiniteGroup, lo: int, hi: int, n_max: int,
                    seed: int) -> tuple[list[ScanEntry], list[dict]]:
    entries = []
    violations: list[dict] = []
    for mask in range(lo, hi):
        d = GSubset(g, mask)
        least = closedness.least_closed_scan(d, n_max)
        subgroup_mask = rep = None
        if least is not None and least > 2:
            ext = closedness.extract_subgroup(d, least, seed=seed)
            subgroup_mask = ext.subgroup.mask
            rep = ext.coset_rep.index
            violations.extend(ext.violations)
        entries.append(ScanEntry(mask, least, subgroup_mask, rep))
    return entries, violations


def _scan_range_task(args) -> tuple[list[ScanEntry], list[dict]]:
    return _classify_range(*args)


def run_scan(g: FiniteGroup, n_max: int | None = None, *, seed: int = 0,
             jobs: int = 1) -> ScanReport:
    """Classify every nonempty subset of G by least closedness.

    Each subset that is n-closed but not 2-closed carries its extraction
    result (the recovered subgroup and the coset representative).
    """
    if g.order > SCAN_ORDER_CAP:
        raise GroupTooLargeForScan(
            f"scan enumerates 2^order subsets and caps at order {SCAN_ORDER_CAP}, "
            f"got order {g.order}")
    if n_max is None:
        n_max = 2 * g.order + 1
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    total = 1 << g.order
    workers = worker_count(jobs, total - 1)
    if workers > 1 and total >= _POOL_THRESHOLD:
        chunk = (total - 1 + 4 * workers - 1) // (4 * workers)
        tasks = [(g, lo, min(lo + chunk, total), n_max, seed)
                 for lo in range(1, total, chunk)]
        entries: list[ScanEntry] = []
        violations: list[dict] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part_entries, part_violations in pool.map(_scan_range_task, tasks):
                entries.extend(part_entries)
                violations.extend(part_violations)
    else:
        entries, violations = _classify_range(g, 1, total, n_max, seed)
    entries.sort(key=lambda e: e.mask)
    return ScanReport(
        group=g.name,
        order=g.order,
        labels=g.labels,
        n_max=n_max,
        seed=seed,
        entries=entries,
        violations=violations,
    )
