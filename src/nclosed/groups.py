"""Cayley-table-backed finite groups and semigroups.

All structures live on element indices 0..order-1 with a dense
multiplication table; element arithmetic is table lookup, never recomputed.
Structures are immutable once validated and safe to share across workers.

The permutation composition convention throughout is "apply the right
factor first": (x*y) acts as x after y. Named constructors put the
identity at index 0.

Each row is an array("i"). The named families and direct products are
built row by row, with their inverses given by formula. Every permutation
group, S_d and each perm spec alike, comes from permutation_group: a
breadth-first closure of the generators, numbered in lexicographic
one-line order, each row gathered from an earlier one. Table validation
works on the rows of a table as tuples that share one int object per
element, so that whole rows are gathered and compared in C, and converts
each to an array("i") once the table has passed; the commutativity and
element-order facts walk a greedy generating set and one power sequence
per cyclic subgroup.
"""

from __future__ import annotations

import codecs
import json
import sys
from array import array
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import countOf, itemgetter
from pathlib import Path

from .errors import (
    DuplicateLabel,
    GroupTooLarge,
    MixedStructures,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
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

    def __init__(self, rows, labels, identity, inverses, name="group", perms=None):
        super().__init__(rows, labels, name)
        self.identity: int = identity
        self._inv = inverses
        # permutation metadata, set for symmetric / perm-generated groups so
        # cycle notation can be resolved against this group's elements
        self.perm_degree: int | None = len(perms[0]) if perms else None
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
        """A group is abelian iff a generating set commutes pairwise."""
        gens = list(_greedy_generators(self._rows))
        return all(self.mul(a, b) == self.mul(b, a) for a, b in combinations(gens, 2))


def same_structure(*objs) -> None:
    """Reject operands bound to different structures (identity semantics)."""
    first = objs[0]
    for other in objs[1:]:
        if other is not first:
            raise MixedStructures(
                f"operands belong to different structures ({first!r} vs {other!r})")


class Element:
    """One element of a specific group or semigroup, by index."""

    __slots__ = ("owner", "index")

    def __init__(self, owner: FiniteSemigroup, index: int):
        if not 0 <= index < owner.order:
            raise ValueError(f"index {index} out of range for {owner!r}")
        self.owner = owner
        self.index = index

    @property
    def label(self) -> str:
        return self.owner.labels[self.index]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and other.owner is self.owner
                and other.index == self.index)

    def __hash__(self) -> int:
        return hash((id(self.owner), self.index))

    def __repr__(self):
        return f"<{self.label} in {self.owner.name}>"


# ---------------------------------------------------------------------------
# factories


class _CheckedRows:
    """A candidate table taken one row at a time, for _checked_rows.

    Each row is checked as it is added, against the length of the first
    row, and kept as a tuple that shares one int object per element, so
    that validation gathers and compares whole rows in C. The first fault
    of each kind is recorded, not raised, so that finish raises in the
    documented order whichever rows the faults are in. Once the table is
    known to fail, no row is kept, and later rows are checked only for the
    faults that would still win.
    """

    def __init__(self):
        self.count = 0
        self.side = None
        self.ints = ()
        self.rows: list[tuple] = []
        self.not_square = None    # message for the first row not of the first's length
        self.bad_kind = None      # name of the first entry type that is not int
        self.out_of_range = None  # (row, column, value) of the first such entry

    def __len__(self):
        return self.count

    def add(self, row) -> None:
        i = self.count
        self.count += 1
        if self.not_square or i >= MAX_ORDER:  # the verdict can no longer change
            self.rows.clear()
            return
        try:
            k = len(row)
        except TypeError as exc:
            self.not_square = f"table entries must be integers: {exc}"
            self.rows.clear()
            return
        if i == 0:
            self.side = k
        if k != self.side or not 0 < k <= MAX_ORDER:
            self.not_square = "table must be square"
            self.rows.clear()
            return
        if not self.ints:
            self.ints = tuple(range(k))
        if self.bad_kind:
            return
        # a float or bool would pass the range check, so the types go first;
        # countOf and map walk the entries in C
        if countOf(map(type, row), int) != k:
            kind = next((t for t in map(type, row)
                         if t is bool or not issubclass(t, int)), None)
            if kind is not None:
                self.bad_kind = kind.__name__
                self.rows.clear()
                return
        if self.out_of_range:
            return
        # the gather raises on an entry >= k; equal entries then compare by
        # identity, which halves the cost of comparing two rows
        try:
            gathered = itemgetter(*row)(self.ints)
        except IndexError:
            gathered = None
        if gathered is None or min(row) < 0:
            j = next(j for j, v in enumerate(row) if not 0 <= v < k)
            self.out_of_range = (i, j, row[j])
            self.rows.clear()
            return
        # itemgetter of a single index returns the item, not a tuple
        self.rows.append(gathered if k > 1 else (gathered,))

    def finish(self, labels):
        n = self.count
        if n == 0:
            raise ValueError("table must have side >= 1")
        if n > MAX_ORDER:
            raise GroupTooLarge(f"order {n} exceeds the cap of {MAX_ORDER}")
        # the first row of another length than n: row 0 itself, unless it has n
        if self.side is not None and self.side != n:
            raise ValueError("table must be square")
        if self.not_square:
            raise ValueError(self.not_square)
        if self.bad_kind:
            raise ValueError(f"table entries must be integers: got {self.bad_kind}")
        labels = _check_labels(labels, n)
        if self.out_of_range:
            raise NotClosed(*self.out_of_range)
        return self.rows, labels


def _checked_rows(table, labels):
    """The rows of a square, integer, closed table, as a list of tuples that
    share one int object per element, and its labels; raises ValueError,
    GroupTooLarge, DuplicateLabel or NotClosed, checked in that order.

    table is a sized sequence of rows, or a _CheckedRows that a reader has
    filled row by row."""
    if not isinstance(table, _CheckedRows):
        if len(table) > MAX_ORDER:  # before any row is looked at
            raise GroupTooLarge(f"order {len(table)} exceeds the cap of {MAX_ORDER}")
        checked = _CheckedRows()
        for row in table:
            checked.add(row)
        table = checked
    return table.finish(labels)


def _check_labels(labels, n) -> tuple[str, ...]:
    if labels is None:
        return tuple(str(i) for i in range(n))
    labels = tuple(str(s) for s in labels)
    if len(labels) != n:
        raise ValueError(f"got {len(labels)} labels for order {n}")
    seen = set()
    for s in labels:
        if s in seen:
            raise DuplicateLabel(s)
        seen.add(s)
    return labels


def _greedy_generators(rows):
    """Yield a generating set of the table, smallest index first: each
    generator is the smallest element not yet reached, and after it is
    yielded the reached set grows by right multiplication with every
    generator so far. On a group table the reached set is the subgroup the
    generators so far generate."""
    reached = bytearray(len(rows))
    members: list[int] = []
    gens: list[int] = []
    a = 0
    while (a := reached.find(0, a)) >= 0:
        yield a
        gens.append(a)
        # the old reached set times a, then each new element times every
        # generator, until nothing new is reached
        frontier = [a] + [rows[x][a] for x in members]
        while frontier:
            new = []
            for y in frontier:
                if not reached[y]:
                    reached[y] = 1
                    new.append(y)
            members += new
            frontier = [rows[y][g] for y in new for g in gens]


def _middle_witness(rows, a):
    """The first triple (x, a, y) in row order with (x*a)*y != x*(a*y), or
    None: row x*a against row x gathered through row a."""
    gather = itemgetter(*rows[a])
    for x, row in enumerate(rows):
        left, right = rows[row[a]], gather(row)
        if left != right:
            return x, a, next(y for y, (u, v) in enumerate(zip(left, right)) if u != v)
    return None


def _light_witness(rows, group_check=None):
    """Light's associativity test (Clifford & Preston I, 1961, section 1.2).

    The elements a with (x*a)*y == x*(a*y) for all x, y are closed under
    the product, so it suffices to check the greedy generating set of
    _greedy_generators. Returns the triple (x, a, y) for the first
    generator a that fails, or None when the table is associative. Costs
    O(order^2) per generator.

    In a table with a two-sided identity and inverses, associative or not,
    the set reached by generators that passed is a group (its only
    idempotent is the identity), so each one that passes at least doubles
    it and at most ceil(log2 order) + 1 are tried. group_check, if given,
    runs before one more generator is tried; it must raise when the table
    has no identity or inverses. If it returns, the test goes on to the
    end, so the verdict never rests on that bound alone.
    """
    if len(rows) == 1:
        return None  # [[0]] is the only closed table of order 1
    bound = (len(rows) - 1).bit_length() + 1
    for tried, a in enumerate(_greedy_generators(rows)):
        if tried == bound and group_check is not None:
            group_check(rows)
        witness = _middle_witness(rows, a)
        if witness:
            return witness
    return None


def _identity_and_inverses(rows) -> tuple[int, array]:
    """The first two-sided identity of a table and each element's first
    two-sided inverse; raises NoIdentity, then NoInverse with the first
    element that has none."""
    ints = tuple(range(len(rows)))
    identity = next((e for e, row in enumerate(rows)
                     if row == ints and tuple(map(itemgetter(e), rows)) == ints), None)
    if identity is None:
        raise NoIdentity()
    inverses = array("i", ints)
    for x, row in enumerate(rows):
        try:
            y = row.index(identity)
            while rows[y][x] != identity:
                y = row.index(identity, y + 1)
        except ValueError:
            raise NoInverse(x) from None
        inverses[x] = y
    return identity, inverses


def _as_arrays(rows: list) -> tuple[array, ...]:
    """The validated tuple rows as array("i") rows, each tuple replaced, and
    so dropped, as soon as it is converted."""
    for x, row in enumerate(rows):
        rows[x] = array("i", row)
    return tuple(rows)


def validate_semigroup_table(table, labels=None, name="semigroup") -> FiniteSemigroup:
    """Check closure and associativity exactly; return the semigroup.

    Associativity is decided by Light's test on a greedy generating set
    (see _light_witness), which may need up to order generators here.
    After the shape and type checks, raises DuplicateLabel, NotClosed or
    NotAssociative (with a witness triple), checked in that order.
    """
    rows, labels = _checked_rows(table, labels)
    witness = _light_witness(rows)
    if witness:
        raise NotAssociative(witness)
    return FiniteSemigroup(_as_arrays(rows), labels, name)


def validate_cayley_table(table, labels=None, name="group") -> FiniteGroup:
    """Check all group axioms exactly and locate the identity and inverses.

    After the shape and type checks, raises DuplicateLabel, NotClosed,
    NotAssociative (with witness triple), NoIdentity or NoInverse (with
    witness element), checked in that order, except that Light's test
    tries at most ceil(log2 order) + 1 generators before the identity and
    inverses are checked: a group never needs more. So NotAssociative is reported when a failing triple is
    found within that bound, and a table that needs more generators gets
    NoIdentity or NoInverse, even if it is also not associative. Every
    table is checked in O(order^2 log order).
    """
    rows, labels = _checked_rows(table, labels)
    witness = _light_witness(rows, group_check=_identity_and_inverses)
    if witness:
        raise NotAssociative(witness)
    identity, inverses = _identity_and_inverses(rows)
    return FiniteGroup(_as_arrays(rows), labels, identity, inverses, name)


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


def permutation_group(degree: int, gens, name: str) -> FiniteGroup:
    """The group generated by permutation tuples of range(degree).

    A breadth-first closure from the identity records, for each new
    element s*r (r applied first), the generator s and the element r it
    came from; more than MAX_ORDER elements raise GroupTooLarge before any
    row is built. The elements are numbered in lexicographic one-line
    order, so the identity is index 0 and S_d comes out in its own order.
    """
    identity = tuple(range(degree))
    reached, came_from = [identity], {identity: None}
    for r in reached:  # reached grows as it is read: breadth-first
        for k, s in enumerate(gens):
            x = tuple(map(s.__getitem__, r))
            if x not in came_from:
                came_from[x] = (k, r)
                reached.append(x)
                if len(reached) > MAX_ORDER:
                    raise GroupTooLarge(f"{name} has more than {MAX_ORDER} elements")
    perms = tuple(sorted(reached))
    index = {p: i for i, p in enumerate(perms)}
    gen_rows = [tuple(index[tuple(map(s.__getitem__, y))] for y in perms) for s in gens]
    # in reach order: (s*r)*y = s*(r*y), so the row of s*r is the row of s
    # gathered through the row of r (itemgetter gives a tuple, as order >= 2)
    rows = [tuple(range(len(perms)))] + [None] * (len(perms) - 1)
    for x in reached[1:]:
        k, r = came_from[x]
        rows[index[x]] = itemgetter(*rows[index[r]])(gen_rows[k])
    # the inverse of p sends p[i] back to i: the points sorted by their image
    inverses = array("i", [index[tuple(sorted(identity, key=p.__getitem__))]
                           for p in perms])
    return FiniteGroup(_as_arrays(rows), tuple(_cycle_label(p) for p in perms), 0,
                       inverses, name, perms=perms)


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
        points = tuple(range(parameter))  # the n-cycle and (1 2) generate S_n
        return permutation_group(parameter, (points[1:] + points[:1], points[1::-1] + points[2:]),
                                 f"S{parameter}")
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
    # fields, as every entry is below the order. Each part is converted
    # once: the smaller factor's parts (at most sqrt(MAX_ORDER) of them)
    # are kept, and the larger factor's are made one at a time.
    end, width = sys.byteorder, array("i").itemsize * order

    def high(a1):
        spread = array("i", bytes(width))
        for b2 in range(n2):
            spread[b2::n2] = g1.row(a1)
        return int.from_bytes(spread, end) * n2

    def low(b1):
        return int.from_bytes(g2.row(b1) * n1, end)

    rows = [None] * order
    if n1 <= n2:
        highs = [high(a1) for a1 in range(n1)]
        for b1 in range(n2):
            lo = low(b1)
            for a1, hi in enumerate(highs):
                rows[a1 * n2 + b1] = array("i", (hi + lo).to_bytes(width, end))
    else:
        lows = [low(b1) for b1 in range(n2)]
        for a1 in range(n1):
            hi = high(a1)
            for b1, lo in enumerate(lows):
                rows[a1 * n2 + b1] = array("i", (hi + lo).to_bytes(width, end))
    labels = tuple(f"({la},{lb})" for la in g1.labels for lb in g2.labels)
    inverses = array("i", [g1.inv(a) * n2 + g2.inv(b)
                           for a in range(n1) for b in range(n2)])
    return FiniteGroup(tuple(rows), labels, g1.identity * n2 + g2.identity,
                       inverses, f"{g1.name}x{g2.name}")


# ---------------------------------------------------------------------------
# JSON Cayley-table files: {"labels": [...], "table": [[...], ...]}


_CHUNK = 1 << 20  # characters read at a time from a table file
_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE.match


def _trailing_comma(text):
    """json's error for the comma that ends text's container: its message,
    and whether it points at the comma (Python 3.13 on) or at the bracket."""
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return exc.msg, exc.pos == len(text) - 2


_ARRAY_COMMA = _trailing_comma("[0,]")
_OBJECT_COMMA = _trailing_comma('{"a":0,}')


class _JsonText:
    """The text of a JSON file, read a chunk at a time, under a cursor.

    Values are decoded by json's own scanner, and the structure around them
    follows json.loads step by step, so every error has the message and
    position that json.loads gives for the whole text. Text before the
    cursor is dropped whenever more is read. A decoded value is trusted
    once the buffer holds three more characters (a number looks that far
    ahead) or the file has ended; until then, and after a failed decode,
    more is read and the value decoded again.
    """

    def __init__(self, file, path):
        self.file, self.path = file, path
        self.buf, self.pos, self.eof = "", 0, False
        self.base = 0           # offset of buf[0] in the whole text
        self.lines = 0          # newlines before buf
        self.last_newline = -1  # offset of the last of them
        self.more()

    def more(self) -> None:
        """Drop the text before the cursor and read on, at least as much as
        is left, so that a value longer than a chunk costs linear time."""
        buf, pos = self.buf, self.pos
        newlines = buf.count("\n", 0, pos)
        if newlines:
            self.lines += newlines
            self.last_newline = self.base + buf.rfind("\n", 0, pos)
        chunk = self.file.read(max(_CHUNK, len(buf) - pos))
        self.eof = not chunk
        self.buf, self.base, self.pos = buf[pos:] + chunk, self.base + pos, 0

    def drain(self) -> None:
        """Read the rest of the file: json.loads decodes the whole text
        first, so a decoding error there comes before any other."""
        while self.file.read(_CHUNK):
            pass

    def fail(self, message, pos):
        """Raise json.loads's error at buffer offset pos."""
        self.drain()
        newline = self.buf.rfind("\n", 0, pos)
        line = self.lines + self.buf.count("\n", 0, pos) + 1
        column = pos - newline if newline >= 0 else self.base + pos - self.last_newline
        raise TableFileError(f"{self.path} is not valid JSON: {message}: "
                             f"line {line} column {column} (char {self.base + pos})")

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        while True:
            self.pos = _WHITESPACE(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self.more()

    def past_comma(self, close, error) -> str:
        """Skip the comma at the cursor and the whitespace after it; the next
        character. If that is close, raise json's trailing-comma error."""
        while True:
            end = _WHITESPACE(self.buf, self.pos + 1).end()
            if end < len(self.buf) or self.eof:
                break
            self.more()  # keeps the comma, which the error may point at
        c = self.buf[end:end + 1]
        if c == close:
            message, at_comma = error
            self.fail(message, self.pos if at_comma else end)
        self.pos = end
        return c

    def value(self, decode=_DECODER.raw_decode):
        """Decode the value at the cursor and move past it."""
        while True:
            try:
                value, end = decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if self.eof:
                    self.fail(exc.msg, exc.pos)
            else:
                if self.eof or end + 2 < len(self.buf):
                    self.pos = end
                    return value
            self.more()

    def object(self, member) -> None:
        """Decode the object at the cursor; member(key) decodes each value."""
        self.pos += 1
        c = self.peek()
        if c != "}":
            while True:
                if c != '"':
                    self.fail("Expecting property name enclosed in double quotes", self.pos)
                key = self.value(lambda s, quote: json.decoder.scanstring(s, quote + 1))
                if self.peek() != ":":
                    self.fail("Expecting ':' delimiter", self.pos)
                self.pos += 1
                self.peek()
                member(key)
                c = self.peek()
                if c == "}":
                    break
                if c != ",":
                    self.fail("Expecting ',' delimiter", self.pos)
                c = self.past_comma("}", _OBJECT_COMMA)
        self.pos += 1

    def array(self, add) -> None:
        """Decode the array at the cursor, one element at a time into add."""
        self.pos += 1
        if self.peek() != "]":
            while True:
                add(self.value())
                c = self.peek()
                if c == "]":
                    break
                if c != ",":
                    self.fail("Expecting ',' delimiter", self.pos)
                self.past_comma("]", _ARRAY_COMMA)
        self.pos += 1


def _read_table_file(text: _JsonText):
    """The "table" and "labels" of a table file's top-level object, in any
    key order. A "table" array comes back as a _CheckedRows, filled a row
    at a time; any other "table" value as json decodes it."""
    if text.buf.startswith("\ufeff"):
        text.fail("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
    found = {}

    def member(key):
        if key != "table":
            value = text.value()
            if key == "labels":
                found[key] = value  # the last one counts, as in json.loads
        elif key in found:
            text.drain()
            raise TableFileError(f"{text.path}: the 'table' key appears more than once")
        elif text.peek() == "[":
            found[key] = _CheckedRows()
            text.array(found[key].add)
        else:
            found[key] = text.value()

    if text.peek() == "{":
        text.object(member)
    else:
        text.value()
    if text.peek():
        text.fail("Extra data", text.pos)
    if "table" not in found:
        raise TableFileError(f"{text.path}: expected an object with a 'table' key")
    labels = found.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise TableFileError(f"{text.path}: 'labels' must be a list or null")
    return found["table"], labels


def _whole_file_decode_error(path) -> str | None:
    """The message of the UnicodeDecodeError that decoding the whole file at
    once raises, as Path.read_text does, found by decoding it a chunk of
    bytes at a time; None if it decodes."""
    with open(path) as file:  # the encoding of Path.read_text
        decoder = codecs.getincrementaldecoder(file.encoding)()
        fed = 0  # bytes given to the decoder so far
        while True:
            chunk = file.buffer.read(_CHUNK)
            held = len(decoder.getstate()[0])  # the undecoded tail of the last chunk
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                start, end = fed - held + exc.start, fed - held + exc.end
                if end - start == 1:
                    return (f"'{exc.encoding}' codec can't decode byte "
                            f"0x{exc.object[exc.start]:02x} in position {start}: {exc.reason}")
                return (f"'{exc.encoding}' codec can't decode bytes "
                        f"in position {start}-{end - 1}: {exc.reason}")
            if not chunk:
                return None
            fed += len(chunk)


def load_cayley_table(path) -> FiniteGroup:
    """Load and fully validate a Cayley-table JSON file.

    The file is read a chunk at a time, and its "table" array a row at a
    time: each row is checked and kept as a tuple of shared ints as soon as
    it is decoded, so neither the whole text nor a decoded table of Python
    ints is ever held. Errors are those of json.loads on the whole text,
    then those of validate_cayley_table, which gets the rows as one sized
    sequence; a byte that is not valid text is a TableFileError too.
    """
    undecodable = None
    try:
        with open(path) as file:  # the decoding and newlines of Path.read_text
            table, labels = _read_table_file(_JsonText(file, path))
    except OSError as exc:
        raise TableFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        undecodable = str(exc)  # at its offset in the chunk that held it
    if undecodable is not None:
        # past the except clause, its traceback and the rows it holds are freed
        whole = _whole_file_decode_error(path) or undecodable
        raise TableFileError(f"{path} is not valid text: {whole}")
    try:
        return validate_cayley_table(table, labels, name=f"table:{path}")
    except (ValueError, TypeError) as exc:
        raise TableFileError(f"{path}: {exc}") from None


def dump_cayley_table(struct: FiniteSemigroup, path) -> None:
    payload = {"labels": list(struct.labels), "table": struct.table_lists()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def structure_orders(group: FiniteGroup) -> dict[int, int]:
    """Histogram of element orders, an order-multiset isomorphism heuristic.

    One power walk per cyclic subgroup: if x has order m, x^k has order
    m / gcd(k, m), so the walk of x settles every power of x."""
    rows, identity = group._rows, group.identity
    seen = bytearray(group.order)
    hist: dict[int, int] = {}
    for x in range(group.order):
        if seen[x]:
            continue
        powers = [x]
        while powers[-1] != identity:
            powers.append(rows[powers[-1]][x])
        m = len(powers)
        for k, p in enumerate(powers, 1):
            if not seen[p]:
                seen[p] = 1
                order = m // gcd(k, m)
                hist[order] = hist.get(order, 0) + 1
    return dict(sorted(hist.items()))
