"""Deciding n-closedness and everything it implies about cosets.

A subset D is n-closed when every product of n factors from D (order
matters, repetition allowed) stays in D. The engine decides this through
the powers D, D^2, D^3, ... of D in the semigroup of subsets under setwise
product, which is equivalent to tuple enumeration but polynomial;
is_n_closed_oracle exists solely to defend that equivalence in tests and
the verification harness. The powers are ultimately periodic, so one pass
that stops at the first repeat decides every n at once (closedness_profile).

Internal identities that should hold by theorem are re-verified as the
operations run. Every failed check is recorded as a replayable certificate
in the violations tuple of what the operation returns, and none is raised;
with a correct engine none ever fires, and callers treat any that does as a
failure.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    AlreadyClosed,
    BudgetExceeded,
    EmptySubset,
    NonCommutingCoset,
    NotNClosed,
    NotProperSubgroup,
    RepInSubgroup,
)
from .groups import Element, FiniteGroup, FiniteSemigroup, same_structure
from .subsets import (
    GSubset,
    Subgroup,
    is_subgroup,
    left_cosets,
    translate_mask_left,
    translate_mask_right,
)
from .util import iter_bits

ORACLE_BUDGET = 200_000


def make_certificate(struct: FiniteSemigroup, claim: str, **fields) -> dict:
    """Self-contained record of a failed check: table included for replay."""
    cert = {
        "claim": claim,
        "group": struct.name,
        "labels": list(struct.labels),
        "table": struct.table_lists(),
    }
    cert.update(fields)
    return cert


# ---------------------------------------------------------------------------
# the decision engine


def _require_nonempty(d: GSubset) -> None:
    if d.mask == 0:
        raise EmptySubset("closedness is undefined for the empty subset")


class ClosednessProfile(NamedTuple):
    """Every n >= 2 for which D is n-closed: closed lists those below
    start + period, and from start on only (n - start) mod period matters."""

    start: int
    period: int
    closed: tuple[int, ...]

    def is_closed(self, n: int) -> bool:
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if n >= self.start + self.period:
            n = self.start + (n - self.start) % self.period
        return n in self.closed

    @property
    def least(self) -> int | None:
        """Least n >= 2 with D n-closed, or None when D is never n-closed."""
        return self.closed[0] if self.closed else None


def closedness_profile(d: GSubset) -> ClosednessProfile:
    """Iterate the powers D^2, D^3, ... of D until one repeats, translating
    each x*D once; in a group, stop as soon as |D^n| > |D|, since |D^n|
    never decreases (right translation by any d in D is injective) and so
    no later power fits inside D."""
    _require_nonempty(d)
    struct = d.owner
    dmask = d.mask
    # a semigroup's powers may shrink again, so there only a repeat ends it
    limit = d.size if isinstance(struct, FiniteGroup) else struct.order
    trans: list[int | None] = [None] * struct.order
    seen: dict[int, int] = {}
    closed = []
    p = dmask
    for n in itertools.count(2):
        acc = 0
        for x in iter_bits(p):
            tm = trans[x]
            if tm is None:
                tm = trans[x] = translate_mask_left(struct, x, dmask)
            acc |= tm
        p = acc
        first = seen.setdefault(p, n)
        if first < n:
            return ClosednessProfile(first, n - first, tuple(closed))
        if p & ~dmask == 0:
            closed.append(n)
        elif p.bit_count() > limit:
            return ClosednessProfile(n, 1, tuple(closed))


def is_n_closed(d: GSubset, n: int) -> bool:
    """True iff the n-fold product set of D stays inside D."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return closedness_profile(d).is_closed(n)


def n_closed_witness(d: GSubset, n: int) -> list[int] | None:
    """A length-n index tuple whose product escapes D, or None if n-closed."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _require_nonempty(d)
    struct = d.owner
    dmask = d.mask
    dids = d.indices()
    # layer k maps each product of k + 1 factors to the (prefix product,
    # last factor) that first reached it, in the order reached; each layer
    # follows from the one before, so once a layer repeats exactly, every
    # deeper layer is read through that cycle instead of being built
    layers: list[dict[int, tuple[int, int] | None]] = [{i: None for i in dids}]
    seen: dict[tuple, int] = {}
    cycle_start = 0
    while len(layers) < n:
        new: dict[int, tuple[int, int]] = {}
        for p in layers[-1]:
            row = struct.row(p)
            for q in dids:
                r = row[q]
                if r not in new:
                    new[r] = (p, q)
        cycle_start = seen.setdefault(tuple(new.items()), len(layers))
        if cycle_start < len(layers):
            break
        layers.append(new)

    def layer(k: int) -> dict:
        if k >= len(layers):
            k = cycle_start + (k - cycle_start) % (len(layers) - cycle_start)
        return layers[k]

    bad = next((r for r in sorted(layer(n - 1)) if not dmask >> r & 1), None)
    if bad is None:
        return None
    path = []
    cur = bad
    for depth in range(n - 1, 0, -1):
        prev, last = layer(depth)[cur]  # type: ignore[misc]
        path.append(last)
        cur = prev
    path.append(cur)
    path.reverse()
    return path


def is_n_closed_oracle(d: GSubset, n: int, budget: int = ORACLE_BUDGET) -> bool:
    """Same contract as is_n_closed, by explicit enumeration of all |D|^n tuples.

    Each (n-1)-prefix is folded once from the rows, and one gather of the
    prefix's row forms the products with all |D| last factors."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _require_nonempty(d)
    ids = d.indices()
    if len(ids) ** n > budget:
        raise BudgetExceeded(f"|D|^n = {len(ids)}^{n} exceeds budget {budget}")
    rows = d.owner._rows
    members = set(ids)
    # itemgetter of one index returns the bare item, not a 1-tuple
    last = itemgetter(*ids) if len(ids) > 1 else lambda row: (row[ids[0]],)
    for prefix in itertools.product(ids, repeat=n - 1):
        p = prefix[0]
        for q in prefix[1:]:
            p = rows[p][q]
        if not members.issuperset(last(rows[p])):  # stops at the first outside D
            return False
    return True


def least_closed_scan(d: GSubset, n_max: int | None = None) -> int | None:
    """Least n in [2, n_max] with D n-closed, else None (absent up to bound)."""
    least = closedness_profile(d).least
    if n_max is None:
        n_max = 2 * d.owner.order + 1
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    return least if least is not None and least <= n_max else None


# ---------------------------------------------------------------------------
# coset analysis


def least_exponent(a: Element, h: Subgroup) -> int:
    """Least t >= 1 with a^t in H; t >= 2 whenever a is outside H."""
    same_structure(a.owner, h.owner)
    g = h.owner
    if a.index in h:
        raise RepInSubgroup(f"{a.label} lies in the subgroup")
    hmask = h.mask
    x = a.index
    t = 1
    while not hmask >> x & 1:
        x = g.mul(x, a.index)
        t += 1
    return t


class CosetReport(NamedTuple):
    """Full analysis of one left coset L = a*H, read by every coset check."""

    rep: Element
    subgroup: Subgroup
    coset: GSubset
    commutes: bool
    least_exponent: int
    profile: ClosednessProfile
    violations: tuple[dict, ...] = ()

    @property
    def least_closedness(self) -> int | None:
        return self.least_exponent + 1 if self.commutes else None


def _prefix_products(struct: FiniteSemigroup, mask: int, k: int) -> list[int]:
    """D^k for k >= 1, sorted: the product of every length-k tuple from D.

    Built with Python sets from the rows, not by the engine, so the
    checks that read it stay independent of the engine they check. Each
    prefix check depends on a tuple only through its product, so checking
    every p in D^k once covers every tuple exactly."""
    ids = list(iter_bits(mask))
    prods = set(ids)
    for _ in range(k - 1):
        prods = {row[q] for row in map(struct.row, prods) for q in ids}
    return sorted(prods)


def analyze_coset(a: Element, h: Subgroup) -> CosetReport:
    """Commuting flag, least exponent t, and closedness profile of L = a*H.

    While computing, re-verifies that every b in L translates H onto L from
    both sides, and that every product p in L^(t-1) maps L back onto H from
    both sides; failures are recorded as certificates on the report.
    """
    same_structure(a.owner, h.owner)
    g = h.owner
    if not isinstance(g, FiniteGroup):
        raise TypeError("analyze_coset requires a group-owned subgroup")
    if a.index in h:
        raise RepInSubgroup(f"representative {a.label} lies in the subgroup")
    lmask = translate_mask_left(g, a.index, h.mask)
    coset = GSubset(g, lmask)
    commutes = lmask == translate_mask_right(g, h.mask, a.index)
    t = least_exponent(a, h)
    violations: list[dict] = []
    if commutes:
        h_labels = h.carrier.labels()
        # b*H = a*H iff a^-1*b in H, and H*b = H*a iff b*a^-1 in H
        a_inv = g.inv(a.index)
        for b in coset.indices():
            if g.mul(a_inv, b) not in h or g.mul(b, a_inv) not in h:
                violations.append(make_certificate(
                    g, "coset-translate", subgroup=h_labels, rep=a.label,
                    witness=g.labels[b],
                    detail="b*H = H*b = L fails for b in L"))
        # L = a*H = H*a, so p*L = H iff p*a in H, and L*p = H iff a*p in H
        for p in _prefix_products(g, lmask, t - 1):
            if g.mul(p, a.index) not in h or g.mul(a.index, p) not in h:
                violations.append(make_certificate(
                    g, "coset-prefix", subgroup=h_labels, rep=a.label,
                    subset=coset.labels(), n=t + 1, witness=g.labels[p],
                    detail="prefix product p in L^(t-1) fails p*L = L*p = H"))
    return CosetReport(
        rep=a,
        subgroup=h,
        coset=coset,
        commutes=commutes,
        least_exponent=t,
        profile=closedness_profile(coset),
        violations=tuple(violations),
    )


class SubgroupReport(NamedTuple):
    """Every left coset a*H other than H, each analysed once."""

    subgroup: Subgroup
    cosets: tuple[CosetReport, ...]

    @property
    def index(self) -> int:
        return len(self.cosets) + 1


def analyze_subgroup(h: Subgroup) -> SubgroupReport:
    """One analyze_coset report per left coset of a proper subgroup H other
    than H itself, in left_cosets order."""
    g = h.owner
    if h.order >= g.order:
        raise NotProperSubgroup("subgroup equals the whole group")
    return SubgroupReport(h, tuple(
        analyze_coset(Element(g, rep), h)
        for rep in left_cosets(h).representatives if rep not in h))


class SpectrumDescription(NamedTuple):
    """All m for which a commuting coset is m-closed: {c*step + 1 : c >= 1}."""

    step: int
    offset: int
    verified_up_to: int
    violations: tuple[dict, ...] = ()

    def contains(self, m: int) -> bool:
        return m >= 2 and (m - self.offset) % self.step == 0


def closedness_spectrum(report: CosetReport, verify_up_to: int = 20) -> SpectrumDescription:
    """Spectrum of a commuting coset, checked against its engine profile
    for every m up to verify_up_to; each disagreement is a certificate."""
    if verify_up_to < 2:
        raise ValueError(f"verify_up_to must be >= 2, got {verify_up_to}")
    a, h = report.rep, report.subgroup
    if not report.commutes:
        raise NonCommutingCoset(f"{a.label}*H != H*{a.label}")
    t = report.least_exponent
    spectrum = SpectrumDescription(step=t, offset=1, verified_up_to=verify_up_to)
    violations = []
    for m in range(2, verify_up_to + 1):
        engine = report.profile.is_closed(m)
        if engine != spectrum.contains(m):
            violations.append(make_certificate(
                h.owner, "spectrum", subgroup=h.carrier.labels(), rep=a.label,
                subset=report.coset.labels(), n=m, least_exponent=t,
                detail=f"engine {engine} but step predicate {not engine}"))
    return spectrum._replace(violations=tuple(violations))


def least_power_exponent(report: CosetReport, m: int) -> tuple[int, tuple[dict, ...]]:
    """Least c with (a^m)^c in H, by the formula c = t/gcd(m, t), with the
    certificates of every check it failed.

    t is the least positive exponent landing a in H. The formula value is
    checked against a direct search, and the divisibility pattern
    (a^m)^f in H iff c | f is checked for f up to 2t.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a, h = report.rep, report.subgroup
    g = h.owner
    t = report.least_exponent
    c = t // gcd(m, t)
    base = g.pow(a.index, m)
    hmask = h.mask
    x = base
    direct = 1
    while not hmask >> x & 1:
        x = g.mul(x, base)
        direct += 1
    failed = []  # (n, detail) of each failed check
    if direct != c:
        failed.append((c, f"direct search: {direct}"))
    x = g.identity
    for f in range(1, 2 * t + 1):
        x = g.mul(x, base)
        if (hmask >> x & 1 == 1) != (f % c == 0):
            failed.append((f, "c | f pattern mismatch"))
    return c, tuple(
        make_certificate(g, "power-exponent", subgroup=h.carrier.labels(),
                         rep=a.label, m=m, n=n, least_exponent=t, detail=detail)
        for n, detail in failed)


def power_coset_closedness(report: CosetReport, m: int,
                           profiles: dict[int, ClosednessProfile] | None = None,
                           ) -> tuple[GSubset, int, tuple[dict, ...]]:
    """The coset a^m*H with its least closedness (t/gcd(m,t)) + 1, and the
    certificates of every check it failed.

    Requires a commuting representative outside H. The engine's least
    closedness of the coset must equal c + 1 (when a^m lies in H, c = 1 and
    the coset is H, least closedness 2), and the full pattern
    "f-closed iff f = b*c + 1" is checked up to f = 3c + 1.

    a^m*H is H or another coset of H. profiles, when given, maps coset masks
    to their profiles (a SubgroupReport's, say): the coset's profile is read
    from it, or computed and added to it; without it, it is computed.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a, h = report.rep, report.subgroup
    if not report.commutes:
        raise NonCommutingCoset(f"{a.label}*H != H*{a.label}")
    g = h.owner
    t = report.least_exponent
    c = t // gcd(m, t)
    coset = GSubset(g, translate_mask_left(g, g.pow(a.index, m), h.mask))
    profiles = {} if profiles is None else profiles
    profile = profiles.get(coset.mask)
    if profile is None:
        profile = profiles[coset.mask] = closedness_profile(coset)
    failed = []  # (n, detail) of each failed check
    if profile.least != c + 1:
        failed.append((c + 1, f"engine found {profile.least}"))
    for f in range(2, 3 * c + 2):
        if profile.is_closed(f) != ((f - 1) % c == 0):
            failed.append((f, "f = b*c + 1 pattern mismatch"))
    return coset, c + 1, tuple(
        make_certificate(g, "power-coset", subgroup=h.carrier.labels(),
                         rep=a.label, m=m, subset=coset.labels(), n=n,
                         least_exponent=t, detail=detail)
        for n, detail in failed)


# ---------------------------------------------------------------------------
# subgroup extraction


class SubgroupExtraction(NamedTuple):
    """Witness data recovering the subgroup behind an n-closed subset."""

    source: GSubset
    n: int
    subgroup: Subgroup
    coset_rep: Element
    violations: tuple[dict, ...] = ()


def extract_subgroup(d: GSubset, n: int) -> SubgroupExtraction:
    """Recover H = d^(n-2)*D from an n-closed, non-2-closed subset.

    Certifies that H is a subgroup, that D = b*H for the least b in D,
    and that p*D = H for every product p in D^(n-2), so that the shift set
    depends neither on the choice of d nor on the tuple prefix. Any failed
    identity lands on the report as a certificate.
    """
    if n < 3:
        raise ValueError(f"extraction requires n >= 3, got {n}")
    _require_nonempty(d)
    g = d.owner
    if not isinstance(g, FiniteGroup):
        raise TypeError("extract_subgroup requires a group-owned subset")
    profile = closedness_profile(d)
    if not profile.is_closed(n):
        raise NotNClosed(f"subset is not {n}-closed")
    if profile.is_closed(2):
        raise AlreadyClosed("subset is 2-closed; extraction requires a non-subgroup")
    b = d.indices()[0]
    hmask = translate_mask_left(g, g.pow(b, n - 2), d.mask)
    subgroup_subset = GSubset(g, hmask)
    violations: list[dict] = []
    d_labels = d.labels()
    if not is_subgroup(subgroup_subset):
        violations.append(make_certificate(
            g, "extraction-subgroup", subset=d_labels, n=n,
            witness=g.labels[b], detail="d^(n-2)*D failed the subgroup check"))
    if translate_mask_left(g, b, hmask) != d.mask:
        violations.append(make_certificate(
            g, "extraction-coset", subset=d_labels, n=n,
            witness=g.labels[b], detail="D != b*H for b in D"))
    for p in _prefix_products(g, d.mask, n - 2):
        if translate_mask_left(g, p, d.mask) != hmask:
            violations.append(make_certificate(
                g, "extraction-prefix", subset=d_labels, n=n,
                witness=g.labels[p],
                detail="prefix product p in D^(n-2) gives p*D != d^(n-2)*D"))
    return SubgroupExtraction(
        source=d,
        n=n,
        subgroup=Subgroup(subgroup_subset),
        coset_rep=Element(g, b),
        violations=tuple(violations),
    )
