"""Normality decided through coset closedness, cross-checked classically.

Both verdicts are computed independently and then compared: the point is
adversarial cross-validation of the closedness route against the plain
conjugation sweep, not shortcutting through the known-equivalent predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import closedness
from .errors import NotProperSubgroup
from .groups import Element, FiniteGroup
from .subsets import (
    Subgroup,
    coset_commutes,
    is_normal_classic,
    left_cosets,
)


@dataclass(frozen=True)
class CosetCheck:
    rep: int
    closedness_checked: int | None
    passed: bool


@dataclass(frozen=True)
class NormalityVerdict:
    subgroup: Subgroup
    index: int
    verdict_classic: bool
    verdict_via_closedness: bool
    per_coset: tuple[CosetCheck, ...]
    agreement: bool
    violations: tuple[dict, ...] = ()


def _require_proper(h: Subgroup) -> FiniteGroup:
    g = h.owner
    if h.order >= g.order:
        raise NotProperSubgroup("subgroup equals the whole group")
    return g


def normal_iff_index_plus_one(h: Subgroup) -> NormalityVerdict:
    """Normal iff every left coset a*H (a outside H) is (index+1)-closed.

    The per-coset decision uses the commuting fast path (aH = Ha and
    a^index in H) with the engine confirming each coset directly; a fast
    path / engine disagreement is recorded as a certificate.
    """
    g = _require_proper(h)
    n = g.order // h.order
    partition = left_cosets(h)
    checks = []
    violations: list[dict] = []
    for rep, coset in zip(partition.representatives, partition.cosets):
        if rep in h:
            continue
        a = Element(g, rep)
        fast = coset_commutes(a, h) and g.pow(rep, n) in h
        engine = closedness.is_n_closed(coset, n + 1)
        if engine != fast:
            violations.append(closedness.make_certificate(
                g, "index-plus-one", subgroup=h.carrier.labels(),
                rep=a.label, n=n + 1,
                detail=f"fast path {fast} but engine {engine}"))
        checks.append(CosetCheck(rep=rep, closedness_checked=n + 1, passed=fast))
    via = all(c.passed for c in checks)
    classic = is_normal_classic(h)
    return NormalityVerdict(
        subgroup=h,
        index=n,
        verdict_classic=classic,
        verdict_via_closedness=via,
        per_coset=tuple(checks),
        agreement=classic == via,
        violations=tuple(violations),
    )


def normal_iff_existential(h: Subgroup) -> NormalityVerdict:
    """Normal iff every coset a*H is m-closed for some m >= 3.

    A commuting coset is (t+1)-closed, t the least exponent of a; a coset
    with aH != Ha is never m-closed, so it gets no witness.
    """
    g = _require_proper(h)
    partition = left_cosets(h)
    checks = []
    violations: list[dict] = []
    for rep, coset in zip(partition.representatives, partition.cosets):
        if rep in h:
            continue
        a = Element(g, rep)
        witness: int | None = None
        if coset_commutes(a, h):
            witness = closedness.least_exponent(a, h) + 1
            if not closedness.is_n_closed(coset, witness):
                violations.append(closedness.make_certificate(
                    g, "existential-witness", subgroup=h.carrier.labels(),
                    rep=a.label, n=witness,
                    detail="claimed witness rejected by the engine"))
        checks.append(CosetCheck(rep=rep, closedness_checked=witness,
                                 passed=witness is not None))
    via = all(c.passed for c in checks)
    classic = is_normal_classic(h)
    return NormalityVerdict(
        subgroup=h,
        index=len(partition.cosets),
        verdict_classic=classic,
        verdict_via_closedness=via,
        per_coset=tuple(checks),
        agreement=classic == via,
        violations=tuple(violations),
    )
