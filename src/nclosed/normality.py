"""Normality decided through coset closedness, cross-checked classically.

Both characterizations read one closedness.analyze_subgroup report, so
each left coset is analysed once for both. Per coset, the fast path
(aH = Ha and the least exponent t of a) claims a verdict at some n, and
the coset's engine profile must confirm it; a disagreement is recorded
as a certificate. The verdict over all cosets is then compared with the
plain conjugation sweep (is_normal_classic): the point is adversarial
cross-validation of the closedness route, not shortcutting through the
known-equivalent predicate.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import closedness
from .closedness import CosetReport, SubgroupReport
from .subsets import Subgroup, is_normal_classic


class CosetCheck(NamedTuple):
    rep: int
    closedness_checked: int | None
    passed: bool


class NormalityVerdict(NamedTuple):
    subgroup: Subgroup
    index: int
    verdict_classic: bool
    verdict_via_closedness: bool
    per_coset: tuple[CosetCheck, ...]
    agreement: bool
    violations: tuple[dict, ...] = ()


def _verdict(report: SubgroupReport, claim: str,
             fast_path: Callable[[CosetReport], tuple[int | None, bool]]
             ) -> NormalityVerdict:
    """fast_path(c) gives the n checked on coset c and whether the fast path
    says c is n-closed there (n None: nothing to check, the coset fails)."""
    h = report.subgroup
    checks = []
    violations: list[dict] = []
    for c in report.cosets:
        n, fast = fast_path(c)
        if n is not None and c.profile.is_closed(n) != fast:
            violations.append(closedness.make_certificate(
                h.owner, claim, subgroup=h.carrier.labels(), rep=c.rep.label,
                n=n, detail=f"fast path {fast} but engine {not fast}"))
        checks.append(CosetCheck(rep=c.rep.index, closedness_checked=n,
                                 passed=fast))
    via = all(c.passed for c in checks)
    classic = is_normal_classic(h)
    return NormalityVerdict(
        subgroup=h,
        index=report.index,
        verdict_classic=classic,
        verdict_via_closedness=via,
        per_coset=tuple(checks),
        agreement=classic == via,
        violations=tuple(violations),
    )


def normal_iff_index_plus_one(report: SubgroupReport) -> NormalityVerdict:
    """Normal iff every left coset a*H (a outside H) is (index+1)-closed.

    The fast path says a*H is (index+1)-closed iff aH = Ha and a^index
    lies in H, that is, t divides the index.
    """
    n = report.index
    return _verdict(report, "index-plus-one",
                    lambda c: (n + 1, c.commutes and n % c.least_exponent == 0))


def normal_iff_existential(report: SubgroupReport) -> NormalityVerdict:
    """Normal iff every coset a*H is m-closed for some m >= 3.

    A commuting coset is (t+1)-closed, t the least exponent of a; a coset
    with aH != Ha is never m-closed, so it gets no witness.
    """
    return _verdict(report, "existential-witness",
                    lambda c: (c.least_closedness, c.commutes))
