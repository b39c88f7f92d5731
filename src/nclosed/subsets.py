"""Subsets, subgroups, and cosets of a fixed finite group.

Subsets are bitmasks over element indices, so membership is O(1), and
x*A and A*x are each one mask built from the rows. Everything here is
immutable after construction and pure, so sweeps can run concurrently.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import UnknownLabel
from .groups import Element, FiniteGroup, FiniteSemigroup, same_structure
from .util import iter_bits


class GSubset:
    """Membership bitmap over one structure's element indices."""

    __slots__ = ("owner", "mask")

    def __init__(self, owner: FiniteSemigroup, mask: int):
        if not 0 <= mask < (1 << owner.order):
            raise ValueError(f"mask {mask:#x} out of range for order {owner.order}")
        self.owner = owner
        self.mask = mask

    @classmethod
    def from_indices(cls, owner: FiniteSemigroup, indices: Iterable[int]) -> "GSubset":
        m = 0
        for i in indices:
            if not 0 <= i < owner.order:
                raise ValueError(f"index {i} out of range for {owner!r}")
            m |= 1 << i
        return cls(owner, m)

    @classmethod
    def from_labels(cls, owner: FiniteSemigroup, labels: Iterable[str]) -> "GSubset":
        ids = []
        for s in labels:
            i = owner.index_of_label(s)
            if i is None:
                raise UnknownLabel(s)
            ids.append(i)
        return cls.from_indices(owner, ids)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> list[int]:
        return list(iter_bits(self.mask))

    def labels(self) -> list[str]:
        return [self.owner.labels[i] for i in iter_bits(self.mask)]

    def elements(self) -> list[Element]:
        return [Element(self.owner, i) for i in iter_bits(self.mask)]

    def __contains__(self, item) -> bool:
        if isinstance(item, Element):
            same_structure(self.owner, item.owner)
            item = item.index
        return bool(self.mask >> item & 1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GSubset) and other.owner is self.owner
                and other.mask == self.mask)

    def __hash__(self) -> int:
        return hash((id(self.owner), self.mask))

    def __repr__(self):
        return "{" + ", ".join(self.labels()) + "}"


class Subgroup:
    """A subgroup's carrier; from_indices and from_labels check is_subgroup."""

    __slots__ = ("carrier",)

    def __init__(self, carrier: GSubset):
        self.carrier = carrier

    @classmethod
    def from_indices(cls, owner: FiniteGroup, indices: Iterable[int]) -> "Subgroup":
        carrier = GSubset.from_indices(owner, indices)
        if not is_subgroup(carrier):
            raise ValueError(f"{carrier!r} is not a subgroup of {owner.name}")
        return cls(carrier)

    @classmethod
    def from_labels(cls, owner: FiniteGroup, labels: Iterable[str]) -> "Subgroup":
        carrier = GSubset.from_labels(owner, labels)
        if not is_subgroup(carrier):
            raise ValueError(f"{carrier!r} is not a subgroup of {owner.name}")
        return cls(carrier)

    @property
    def owner(self) -> FiniteGroup:
        return self.carrier.owner  # type: ignore[return-value]

    @property
    def mask(self) -> int:
        return self.carrier.mask

    @property
    def order(self) -> int:
        return self.carrier.size

    def __contains__(self, item) -> bool:
        return item in self.carrier

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and other.carrier == self.carrier

    def __hash__(self) -> int:
        return hash(self.carrier)

    def __repr__(self):
        return f"Subgroup{self.carrier!r}"


class CosetPartition(NamedTuple):
    """All left cosets of a subgroup, representatives at least index."""

    cosets: tuple[GSubset, ...]
    representatives: tuple[int, ...]


# ---------------------------------------------------------------------------
# mask-level primitives (shared with the closedness engine)


def translate_mask_left(struct: FiniteSemigroup, x: int, mask: int) -> int:
    row = struct.row(x)
    out = 0
    for b in iter_bits(mask):
        out |= 1 << row[b]
    return out


def translate_mask_right(struct: FiniteSemigroup, mask: int, x: int) -> int:
    rows = struct._rows
    out = 0
    for b in iter_bits(mask):
        out |= 1 << rows[b][x]
    return out


# ---------------------------------------------------------------------------
# operations


def is_subgroup(a: GSubset) -> bool:
    """Nonempty, contains the identity, closed under product and inverse."""
    g = a.owner
    if not isinstance(g, FiniteGroup):
        raise TypeError("is_subgroup requires a group-owned subset")
    mask = a.mask
    if mask == 0 or not mask >> g.identity & 1:
        return False
    ids = list(iter_bits(mask))
    for x in ids:
        if not mask >> g.inv(x) & 1:
            return False
        row = g.row(x)
        for y in ids:
            if not mask >> row[y] & 1:
                return False
    return True


def closure_mask(struct: FiniteSemigroup, seeds: Iterable[int]) -> int:
    """Least product-closed subset containing the seeds: every product of
    seeds is a shorter one times a seed, so right-multiplying each newly
    reached element by each seed reaches them all."""
    seeds = list(seeds)
    mask = 0
    for s in seeds:
        mask |= 1 << s
    pending = list(seeds)
    rows = struct._rows
    while pending:
        rx = rows[pending.pop()]
        for s in seeds:
            y = rx[s]
            if not mask >> y & 1:
                mask |= 1 << y
                pending.append(y)
    return mask


def generated_subgroup(gens: Sequence[Element]) -> Subgroup:
    """Least subgroup containing the generators (closure to fixpoint)."""
    if not gens:
        raise ValueError("generator list must be nonempty")
    g = gens[0].owner
    if not isinstance(g, FiniteGroup):
        raise TypeError("generated_subgroup requires group elements")
    same_structure(g, *(x.owner for x in gens))
    mask = closure_mask(g, [g.identity] + [x.index for x in gens])
    return Subgroup(GSubset(g, mask))


def left_cosets(h: Subgroup) -> CosetPartition:
    """Partition of G into left cosets xH, ordered by least representative."""
    g = h.owner
    covered = 0
    cosets = []
    reps = []
    for x in range(g.order):
        if covered >> x & 1:
            continue
        cm = translate_mask_left(g, x, h.mask)
        cosets.append(GSubset(g, cm))
        reps.append(x)
        covered |= cm
    return CosetPartition(tuple(cosets), tuple(reps))


def index(h: Subgroup) -> int:
    """Number of distinct left cosets of H."""
    return h.owner.order // h.order


def is_normal_classic(h: Subgroup) -> bool:
    """Conjugation-sweep normality: g*x*g^-1 in H for all g in G, x in H."""
    g = h.owner
    mask = h.mask
    rows = g._rows
    hs = list(iter_bits(mask))
    for a in range(g.order):
        ra = rows[a]
        ai = g.inv(a)
        for x in hs:
            if not mask >> rows[ra[x]][ai] & 1:
                return False
    return True


def coset_commutes(a: Element, h: Subgroup) -> bool:
    """aH = Ha as sets."""
    same_structure(a.owner, h.owner)
    g = h.owner
    return (translate_mask_left(g, a.index, h.mask)
            == translate_mask_right(g, h.mask, a.index))


# ---------------------------------------------------------------------------
# subgroup enumeration (used by the verification harness)


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, ordered by (order, mask).

    Breadth-first from the trivial subgroup, each H found is extended by
    one representative x per left coset other than H, since <H, y> = <H, x>
    for y in xH; <H, x> is the closure of H's generators plus x. Every
    <g1,...,gk> is reached through <g1> <= <g1,g2> <= ..., so the search is
    complete for any finite group.
    """
    trivial = 1 << g.identity
    gens: dict[int, list[int]] = {trivial: []}
    frontier = [trivial]
    while frontier:
        nxt = []
        for hmask in frontier:
            hgens = gens[hmask]
            for x in left_cosets(Subgroup(GSubset(g, hmask))).representatives:
                if hmask >> x & 1:
                    continue
                m = closure_mask(g, hgens + [x])
                if m not in gens:
                    gens[m] = hgens + [x]
                    nxt.append(m)
        frontier = nxt
    masks = sorted(gens, key=lambda m: (m.bit_count(), m))
    return [Subgroup(GSubset(g, m)) for m in masks]


def proper_subgroups(g: FiniteGroup) -> list[Subgroup]:
    full = (1 << g.order) - 1
    return [s for s in all_subgroups(g) if s.mask != full]
