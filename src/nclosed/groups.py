"""Cayley-table-backed finite groups and semigroups.

All structures live on element indices 0..order-1 with a dense
multiplication table; element arithmetic is table lookup, never recomputed.
Structures are immutable once validated and safe to share across workers.

The permutation composition convention throughout is "apply the right
factor first": (x*y) acts as x after y. Named constructors put the
identity at index 0.

Each row is an array("i"). The named families and direct products are
built row by row in pure Python, with their inverses given by formula, so
they load no numpy. Whole-table work (validating a table, the
commutativity and element-order passes) runs on numpy in the private
module _tables, which the functions doing that work import when they are
called.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from pathlib import Path

from .errors import (
    GroupTooLarge,
    MixedStructures,
    TableFileError,
    UnsupportedParameter,
)

MAX_ORDER = 5040


# ---------------------------------------------------------------------------
# structures


class FiniteSemigroup:
    """Associative magma on indices 0..order-1; no identity required.

    Build through validate_semigroup_table (or validate_cayley_table for
    groups); the raw constructor trusts its arguments.
    """

    def __init__(self, rows, labels, name="semigroup"):
        self.order: int = len(rows)
        self._rows = rows
        self.labels: tuple[str, ...] = labels
        self.name: str = name
        self._label_index = {s: i for i, s in enumerate(labels)}

    def mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def row(self, a: int):
        return self._rows[a]

    def table_lists(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def index_of_label(self, label: str) -> int | None:
        return self._label_index.get(label)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} order {self.order}>"


class FiniteGroup(FiniteSemigroup):
    """Finite group, validated or built by construction: adds identity,
    inverses, powers, orders."""

    def __init__(self, rows, labels, identity, inverses, name="group",
                 perm_degree=None, perms=None):
        super().__init__(rows, labels, name)
        self.identity: int = identity
        self._inv = inverses
        # permutation metadata, set for symmetric / perm-generated groups so
        # cycle notation can be resolved against this group's elements
        self.perm_degree: int | None = perm_degree
        self._perms: tuple[tuple[int, ...], ...] | None = perms
        self._perm_index = {p: i for i, p in enumerate(perms)} if perms else None

    def inv(self, a: int) -> int:
        return self._inv[a]

    def pow(self, a: int, m: int) -> int:
        if m < 0:
            raise ValueError("exponent must be nonnegative")
        result = self.identity
        base = a
        while m:
            if m & 1:
                result = self._rows[result][base]
            base = self._rows[base][base]
            m >>= 1
        return result

    def order_of(self, a: int) -> int:
        m, x = 1, a
        while x != self.identity:
            x = self._rows[x][a]
            m += 1
        return m

    def permutation_of(self, i: int) -> tuple[int, ...] | None:
        return self._perms[i] if self._perms else None

    def index_of_permutation(self, perm: tuple[int, ...]) -> int | None:
        return self._perm_index.get(perm) if self._perm_index else None

    def is_abelian(self) -> bool:
        from . import _tables
        return _tables.is_abelian(_tables.table_array(self))


def same_structure(*objs) -> None:
    """Reject operands bound to different structures (identity semantics)."""
    first = objs[0]
    for other in objs[1:]:
        if other is not first:
            raise MixedStructures(
                f"operands belong to different structures ({first!r} vs {other!r})")


@dataclass(frozen=True)
class Element:
    """One element of a specific group or semigroup, by index."""

    owner: FiniteSemigroup
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.owner.order:
            raise ValueError(f"index {self.index} out of range for {self.owner!r}")

    @property
    def label(self) -> str:
        return self.owner.labels[self.index]

    def __mul__(self, other: "Element") -> "Element":
        same_structure(self.owner, other.owner)
        return Element(self.owner, self.owner.mul(self.index, other.index))

    def __repr__(self):
        return f"<{self.label} in {self.owner.name}>"


# spec-level element arithmetic ---------------------------------------------


def mul(x: Element, y: Element) -> Element:
    return x * y


def inverse(x: Element) -> Element:
    if not isinstance(x.owner, FiniteGroup):
        raise TypeError("inverse requires a group element")
    return Element(x.owner, x.owner.inv(x.index))


def power(x: Element, m: int) -> Element:
    if not isinstance(x.owner, FiniteGroup):
        raise TypeError("power requires a group element")
    return Element(x.owner, x.owner.pow(x.index, m))


def element_order(x: Element) -> int:
    if not isinstance(x.owner, FiniteGroup):
        raise TypeError("element order requires a group element")
    return x.owner.order_of(x.index)


# ---------------------------------------------------------------------------
# factories


def validate_semigroup_table(table, labels=None, name="semigroup") -> FiniteSemigroup:
    """Check closure and associativity exactly; return the semigroup.

    Associativity is decided by Light's test on a greedy generating set
    (see _tables._light_witness); raises NotClosed, NotAssociative (with a
    witness triple) or DuplicateLabel.
    """
    from . import _tables
    t, labels = _tables.validated_array(table, labels, MAX_ORDER)
    return FiniteSemigroup(_tables.rows_of(t), labels, name)


def validate_cayley_table(table, labels=None, name="group") -> FiniteGroup:
    """Check all group axioms exactly and locate the identity and inverses.

    Associativity is decided by Light's test, which on a group table costs
    O(order^2 log order). Raises NotClosed, NotAssociative (with witness
    triple), NoIdentity, NoInverse (with witness element), or
    DuplicateLabel, checked in that order.
    """
    from . import _tables
    t, labels = _tables.validated_array(table, labels, MAX_ORDER)
    identity, inverses = _tables.identity_and_inverses(t)
    return FiniteGroup(_tables.rows_of(t), labels, identity, inverses, name)


def _cycle_label(perm: tuple[int, ...]) -> str:
    """Canonical cycle notation on 1-based points; identity prints as 'e'."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) or "e"


def _build_symmetric(degree: int) -> FiniteGroup:
    perms = tuple(permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    # the n-cycle and the transposition (1 2) generate S_n; their rows are
    # s*y for every y, with y applied first
    points = tuple(range(degree))
    gens = (points[1:] + points[:1], points[1::-1] + points[2:])
    gen_rows = [tuple(index[tuple(s[k] for k in y)] for y in perms) for s in gens]
    # breadth-first from the identity: (s*r)*y = s*(r*y), so the row of s*r
    # is the row of s gathered through the row of r
    rows = {0: tuple(range(len(perms)))}
    frontier = [0]
    while frontier:
        reached = []
        for r in frontier:
            row_r = rows[r]
            for row_s in gen_rows:
                x = row_s[r]
                if x not in rows:
                    # a new element means order >= 2: itemgetter gives a tuple
                    rows[x] = itemgetter(*row_r)(row_s)
                    reached.append(x)
        frontier = reached
    # the inverse of p sends p[i] back to i: the points sorted by their image
    inverses = array("i", [index[tuple(sorted(points, key=p.__getitem__))]
                           for p in perms])
    return FiniteGroup(tuple(array("i", rows[x]) for x in range(len(perms))),
                       tuple(_cycle_label(p) for p in perms), 0, inverses,
                       f"S{degree}", perm_degree=degree, perms=perms)


def _build_cyclic(n: int) -> FiniteGroup:
    doubled = array("i", range(n)) * 2  # row k is (k + j) mod n: a slice
    return FiniteGroup(tuple(doubled[k:k + n] for k in range(n)),
                       tuple(str(k) for k in range(n)), 0,
                       array("i", [-k % n for k in range(n)]), f"Z{n}")


def _build_dihedral(n: int) -> FiniteGroup:
    # indices 0..n-1 rotations r_i, n..2n-1 reflections s_i:
    # r_i r_j = r_(i+j), r_i s_j = s_(i+j), s_i r_j = s_(i-j), s_i s_j = r_(i-j)
    # (i + j) mod n over j is up[i:i + n], and (i - j) mod n is down[n-1-i:]
    up = array("i", range(n)) * 2
    down = array("i", range(n - 1, -1, -1)) * 2
    up_s = array("i", range(n, 2 * n)) * 2
    down_s = array("i", range(2 * n - 1, n - 1, -1)) * 2
    rows = tuple(up[i:i + n] + up_s[i:i + n] for i in range(n)) + tuple(
        down_s[n - 1 - i:2 * n - 1 - i] + down[n - 1 - i:2 * n - 1 - i]
        for i in range(n))
    labels = tuple([f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)])
    # r_k^-1 = r_-k, and every reflection is an involution
    inverses = array("i", [-k % n for k in range(n)] + list(range(n, 2 * n)))
    return FiniteGroup(rows, labels, 0, inverses, f"D{n}")


_QUAT_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def _build_quaternion() -> FiniteGroup:
    # element = (axis, sign) with axes 0:"1" 1:"i" 2:"j" 3:"k"
    def code(axis, sign):
        return 2 * axis + (0 if sign > 0 else 1)

    def q_mul(a1, s1, a2, s2):
        if a1 == 0:
            return a2, s1 * s2
        if a2 == 0:
            return a1, s1 * s2
        if a1 == a2:
            return 0, -s1 * s2
        third = 6 - a1 - a2
        sign = 1 if (a1, a2) in ((1, 2), (2, 3), (3, 1)) else -1
        return third, s1 * s2 * sign

    table = [[0] * 8 for _ in range(8)]
    for i in range(8):
        a1, s1 = i // 2, 1 if i % 2 == 0 else -1
        for j in range(8):
            a2, s2 = j // 2, 1 if j % 2 == 0 else -1
            axis, sign = q_mul(a1, s1, a2, s2)
            table[i][j] = code(axis, sign)
    # 1 and -1 are their own inverses; the others swap with their negatives
    inverses = array("i", [i if i < 2 else i ^ 1 for i in range(8)])
    return FiniteGroup(tuple(array("i", row) for row in table), _QUAT_LABELS, 0,
                       inverses, "Q8")


@lru_cache(maxsize=None)
def make_named(family: str, parameter: int) -> FiniteGroup:
    """Build a named family member: cyclic, symmetric, dihedral, quaternion.

    Element 0 is the identity. Cyclic labels are residues ascending,
    symmetric elements follow lexicographic one-line order with cycle
    labels, dihedral lists rotations then reflections, quaternion uses the
    unit labels 1, -1, i, -i, j, -j, k, -k. The tables are groups by
    construction and are not validated.
    """
    fam = family.lower()
    if fam == "cyclic":
        if parameter < 1:
            raise UnsupportedParameter(f"cyclic order must be >= 1, got {parameter}")
        if parameter > MAX_ORDER:
            raise GroupTooLarge(f"cyclic order {parameter} exceeds cap {MAX_ORDER}")
        return _build_cyclic(parameter)
    if fam == "symmetric":
        if not 1 <= parameter <= 6:
            raise UnsupportedParameter(f"symmetric degree must be in 1..6, got {parameter}")
        return _build_symmetric(parameter)
    if fam == "dihedral":
        if parameter < 3:
            raise UnsupportedParameter(f"dihedral parameter must be >= 3, got {parameter}")
        if 2 * parameter > MAX_ORDER:
            raise GroupTooLarge(f"dihedral order {2 * parameter} exceeds cap {MAX_ORDER}")
        return _build_dihedral(parameter)
    if fam == "quaternion":
        if parameter != 8:
            raise UnsupportedParameter("quaternion group is only supported at order 8")
        return _build_quaternion()
    raise UnsupportedParameter(f"unknown family {family!r}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Componentwise product; labels are pairs of the factor labels.

    A product of groups is a group, so the table is not validated.
    """
    order = g1.order * g2.order
    if order > MAX_ORDER:
        raise GroupTooLarge(
            f"product order {order} exceeds cap {MAX_ORDER}")
    n1, n2 = g1.order, g2.order
    # (a1, b1) is index a1 * n2 + b1, and its row holds (a1 a2) * n2 + b1 b2
    # at a2 * n2 + b2, each product taken in its own factor: the fieldwise
    # sum of row a1 of g1, each entry repeated n2 times and scaled by n2,
    # and row b1 of g2 repeated n1 times. Read as Python ints from their
    # native-endian bytes, the parts scale and add with no carry between
    # fields, as every entry is below the order. The part of g2 is rebuilt
    # per row, so that only one row's worth of it is held at a time.
    end, width = sys.byteorder, array("i").itemsize * order
    rows = []
    for a1 in range(n1):
        spread = array("i", bytes(width))
        for b2 in range(n2):
            spread[b2::n2] = g1.row(a1)
        high = int.from_bytes(spread, end) * n2
        for b1 in range(n2):
            low = int.from_bytes(g2.row(b1) * n1, end)
            rows.append(array("i", (high + low).to_bytes(width, end)))
    labels = tuple(f"({la},{lb})" for la in g1.labels for lb in g2.labels)
    inverses = array("i", [g1.inv(a) * n2 + g2.inv(b)
                           for a in range(n1) for b in range(n2)])
    return FiniteGroup(tuple(rows), labels, g1.identity * n2 + g2.identity,
                       inverses, f"{g1.name}x{g2.name}")


# ---------------------------------------------------------------------------
# JSON Cayley-table files: {"labels": [...], "table": [[...], ...]}


def load_cayley_table(path) -> FiniteGroup:
    """Load and fully validate a Cayley-table JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise TableFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise TableFileError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "table" not in data:
        raise TableFileError(f"{path}: expected an object with a 'table' key")
    labels = data.get("labels")
    try:
        return validate_cayley_table(data["table"], labels, name=f"table:{path}")
    except (ValueError, TypeError) as exc:
        raise TableFileError(f"{path}: {exc}") from None


def dump_cayley_table(struct: FiniteSemigroup, path) -> None:
    payload = {"labels": list(struct.labels), "table": struct.table_lists()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def structure_orders(group: FiniteGroup) -> dict[int, int]:
    """Histogram of element orders, an order-multiset isomorphism heuristic."""
    from . import _tables
    return _tables.element_orders(_tables.table_array(group), group.identity)
