"""Subsets, subgroups, and cosets of a fixed finite group.

Subsets are bitmasks over element indices, so membership is O(1), and
x*A and A*x are each one mask built from the rows. Everything here is
immutable after construction and pure, so sweeps can run concurrently.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import LatticeTooLarge, UnknownLabel
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
    rows = g._rows
    hs = h.carrier.indices()
    covered = 0
    cosets = []
    reps = []
    for x in range(g.order):
        if covered >> x & 1:
            continue
        row = rows[x]
        cm = 0
        for y in hs:
            cm |= 1 << row[y]
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

# all_subgroups stops past this many subgroups. An order cap cannot bound
# the lattice: Z2^8 (order 256) has 417,199 subgroups.
MAX_SUBGROUPS = 50_000


class CosetAction:
    """G acting on the left cosets of H = <hgens> by left multiplication,
    s * yH = (s*y)H, with the cosets numbered as left_cosets lists them.
    The orbits of H's generators on the cosets are the double cosets HyH."""

    __slots__ = ("rows", "reps", "coset_of", "home", "double_of", "doubles",
                 "double_masks")

    def __init__(self, g: FiniteGroup, hmask: int, hgens: Sequence[int]):
        part = left_cosets(Subgroup(GSubset(g, hmask)))
        rows = g._rows
        reps = part.representatives
        hs = list(iter_bits(hmask))
        coset_of = [0] * g.order
        for i, r in enumerate(reps):
            row = rows[r]
            for h in hs:
                coset_of[row[h]] = i
        # acts[j][c]: the coset that hgens[j] sends coset c to
        acts = [[coset_of[rows[s][r]] for r in reps] for s in hgens]
        # double_of[c]: the double coset holding coset c, numbered in the
        # order of their least cosets; doubles[k]: its cosets, least first
        double_of = [-1] * len(reps)
        doubles = []
        double_masks = []
        for start in range(len(reps)):
            if double_of[start] >= 0:
                continue
            k = double_of[start] = len(doubles)
            members = [start]
            dmask = 0
            for c in members:  # members grows while it is read
                dmask |= part.cosets[c].mask
                for act in acts:
                    d = act[c]
                    if double_of[d] < 0:
                        double_of[d] = k
                        members.append(d)
            doubles.append(members)
            double_masks.append(dmask)
        self.rows = rows
        self.reps = reps
        self.coset_of = coset_of
        self.home = coset_of[g.identity]
        self.double_of = double_of
        self.doubles = doubles
        self.double_masks = double_masks

    def double_coset_reps(self) -> list[int]:
        """One x per double coset HxH other than H itself: the least
        element, the representative of its least coset."""
        own = self.double_of[self.home]
        return [self.reps[cs[0]] for k, cs in enumerate(self.doubles) if k != own]

    def join(self, x: int) -> int:
        """Mask of <H, x>: the union of the cosets in the orbit of H under
        H's generators plus x. That orbit is <H, x>/H, and in a finite
        group the generators reach all of it without their inverses. It is
        a union of double cosets, so each is added whole and only x is
        applied coset by coset."""
        coset_of, reps, double_of = self.coset_of, self.reps, self.double_of
        doubles, double_masks = self.doubles, self.double_masks
        rx = self.rows[x]
        own = double_of[self.home]
        in_k = bytearray(len(doubles))
        in_k[own] = 1
        kmask = double_masks[own]
        todo = [self.home]
        for c in todo:  # todo grows while it is read
            d = double_of[coset_of[rx[reps[c]]]]
            if not in_k[d]:
                in_k[d] = 1
                kmask |= double_masks[d]
                todo += doubles[d]
        return kmask


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, ordered by (order, mask).

    Breadth-first from the trivial subgroup, through G acting on the left
    cosets of each H found (CosetAction). <H, y> = <H, x> for every y in
    HxH, so H is extended by one representative x per double coset other
    than H, and <H, x> is read off the action as a union of cosets, with
    no element-wise closure. Every <g1,...,gk> is reached through
    <g1> <= <g1,g2> <= ..., so the search is complete for any finite
    group. Finding more than MAX_SUBGROUPS raises LatticeTooLarge.
    """
    trivial = 1 << g.identity
    gens: dict[int, list[int]] = {trivial: []}
    frontier = [trivial]
    while frontier:
        nxt = []
        for hmask in frontier:
            hgens = gens[hmask]
            action = CosetAction(g, hmask, hgens)
            for x in action.double_coset_reps():
                kmask = action.join(x)
                if kmask not in gens:
                    gens[kmask] = hgens + [x]
                    nxt.append(kmask)
                    if len(gens) > MAX_SUBGROUPS:
                        raise LatticeTooLarge(
                            f"{g.name} has more than {MAX_SUBGROUPS} subgroups")
        frontier = nxt
    masks = sorted(gens, key=lambda m: (m.bit_count(), m))
    return [Subgroup(GSubset(g, m)) for m in masks]


def proper_subgroups(g: FiniteGroup) -> list[Subgroup]:
    full = (1 << g.order) - 1
    return [s for s in all_subgroups(g) if s.mask != full]
