"""Cayley-table-backed finite groups and semigroups.

All structures live on element indices 0..order-1 with a dense
multiplication table; element arithmetic is table lookup, never recomputed.
Structures are immutable once validated and safe to share across workers.

The permutation composition convention throughout is "apply the right
factor first": (x*y) acts as x after y. Named constructors put the
identity at index 0.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from pathlib import Path
from typing import Sequence

import numpy as np

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
# validation internals: every check runs on one numpy copy of the table


def _as_array(table) -> np.ndarray:
    n = len(table)
    if n == 0:
        raise ValueError("table must have side >= 1")
    if n > MAX_ORDER:
        raise GroupTooLarge(f"order {n} exceeds the cap of {MAX_ORDER}")
    try:
        square = all(len(row) == n for row in table)
        t = np.array(table, dtype=np.int64) if square else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"table entries must be integers: {exc}") from None
    if t is None or t.shape != (n, n):
        raise ValueError("table must be square")
    return t


def _closure_witness(t: np.ndarray):
    n = len(t)
    bad = (t < 0) | (t >= n)
    if not bad.any():
        return None
    i, j = divmod(int(bad.argmax()), n)
    return (i, j, int(t[i, j]))


def _light_witness(t: np.ndarray):
    """Light's associativity test (Clifford & Preston I, 1961, section 1.2).

    The elements a with (x*a)*y == x*(a*y) for all x, y are closed under
    the product, so it suffices to check a generating set A. A is chosen
    greedily: the smallest element not yet reached joins A, then the
    reached set grows by right multiplication with A. Returns the triple
    (x, a, y) for the first generator a that fails, or None when the table
    is associative. Costs O(order^2 * |A|); on a group table |A| is at most
    log2(order) + 1, while an associative table that is not a group can
    need up to order generators.
    """
    n = len(t)
    # rows per block: keeps the temporaries small enough to be reused
    step = max(1, (1 << 18) // n)
    reached = np.zeros(n, dtype=bool)
    gens: list[int] = []
    while not reached.all():
        a = int(reached.argmin())
        xa, ay = t[:, a], t[a]
        for lo in range(0, n, step):
            bad = t[xa[lo:lo + step]] != t[lo:lo + step][:, ay]
            if bad.any():
                x, y = divmod(int(bad.argmax()), n)
                return (lo + x, a, y)
        gens.append(a)
        reached[a] = True
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros(n, dtype=bool)
            hit[t[frontier[:, None], gens]] = True
            hit &= ~reached
            reached |= hit
            frontier = np.flatnonzero(hit)
    return None


def _find_identity(t: np.ndarray):
    ar = np.arange(len(t))
    both = (t == ar).all(axis=1) & (t == ar[:, None]).all(axis=0)
    return int(both.argmax()) if both.any() else None


def _find_inverses(t: np.ndarray, identity: int) -> np.ndarray:
    unit = t == identity
    unit = unit & unit.T
    found = unit.any(axis=1)
    if not found.all():
        raise NoInverse(int(found.argmin()))
    return unit.argmax(axis=1)


def _int_array(values: np.ndarray) -> array:
    return array("i", values.astype(np.intc).tobytes())


def _rows_of(t: np.ndarray) -> tuple[array, ...]:
    return tuple(_int_array(row) for row in t)


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

    def table_array(self) -> np.ndarray:
        """The table as a read-only (order, order) array of C ints."""
        return np.frombuffer(b"".join(self._rows), dtype=np.intc).reshape(
            self.order, self.order)

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
        t = self.table_array()
        return bool((t == t.T).all())


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


def _validated_array(table, labels) -> tuple[np.ndarray, tuple[str, ...]]:
    """The table as an array once it is closed and associative, and its labels."""
    t = _as_array(table)
    labels = _check_labels(labels, len(t))
    witness = _closure_witness(t)
    if witness:
        raise NotClosed(*witness)
    t = t.astype(np.intc)
    witness = _light_witness(t)
    if witness:
        raise NotAssociative(witness)
    return t, labels


def validate_semigroup_table(table, labels=None, name="semigroup") -> FiniteSemigroup:
    """Check closure and associativity exactly; return the semigroup.

    Associativity is decided by Light's test on a greedy generating set
    (see _light_witness); raises NotClosed, NotAssociative (with a witness
    triple) or DuplicateLabel.
    """
    t, labels = _validated_array(table, labels)
    return FiniteSemigroup(_rows_of(t), labels, name)


def validate_cayley_table(table, labels=None, name="group") -> FiniteGroup:
    """Check all group axioms exactly and locate the identity and inverses.

    Associativity is decided by Light's test, which on a group table costs
    O(order^2 log order). Raises NotClosed, NotAssociative (with witness
    triple), NoIdentity, NoInverse (with witness element), or
    DuplicateLabel, checked in that order.
    """
    t, labels = _validated_array(table, labels)
    identity = _find_identity(t)
    if identity is None:
        raise NoIdentity()
    inverses = _find_inverses(t, identity)
    return FiniteGroup(_rows_of(t), labels, identity, _int_array(inverses), name)


def _trusted_group(t: np.ndarray, labels, name: str, identity: int = 0,
                   **perm_meta) -> FiniteGroup:
    """Wrap a table that is a group by construction, without validating it."""
    inverses = (t == identity).argmax(axis=1)
    return FiniteGroup(_rows_of(t), tuple(labels), identity, _int_array(inverses),
                       name, **perm_meta)


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


def _symmetric_table(perms: Sequence[tuple[int, ...]], degree: int) -> np.ndarray:
    # encode one-line notation in base `degree`, compose via a lookup table
    arr = np.array(perms, dtype=np.int64)
    powers = degree ** np.arange(degree, dtype=np.int64)
    lut = np.zeros(degree ** degree, dtype=np.int64)
    lut[arr @ powers] = np.arange(len(perms))
    # arr[:, arr][i, j] is the one-line form of perms[i] after perms[j]
    return lut[arr[:, arr] @ powers]


def _build_symmetric(degree: int) -> FiniteGroup:
    perms = tuple(permutations(range(degree)))
    labels = [_cycle_label(p) for p in perms]
    return _trusted_group(_symmetric_table(perms, degree), labels, f"S{degree}",
                          perm_degree=degree, perms=perms)


def _build_cyclic(n: int) -> FiniteGroup:
    i = np.arange(n, dtype=np.intc)
    return _trusted_group((i[:, None] + i) % n, [str(k) for k in range(n)], f"Z{n}")


def _build_dihedral(n: int) -> FiniteGroup:
    # indices 0..n-1 rotations r_i, n..2n-1 reflections s_i:
    # r_i r_j = r_(i+j), r_i s_j = s_(i+j), s_i r_j = s_(i-j), s_i s_j = r_(i-j)
    i = np.arange(n, dtype=np.intc)
    plus, minus = (i[:, None] + i) % n, (i[:, None] - i) % n
    table = np.block([[plus, plus + n], [minus + n, minus]])
    labels = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
    return _trusted_group(table, labels, f"D{n}")


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
    return _trusted_group(np.array(table), _QUAT_LABELS, "Q8")


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
    n2 = g2.order
    t1, t2 = g1.table_array(), g2.table_array()
    # entry ((a1, b1), (a2, b2)) is (a1*a2, b1*b2), flattened row-major
    table = (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(order, order)
    labels = [f"({la},{lb})" for la in g1.labels for lb in g2.labels]
    return _trusted_group(table, labels, f"{g1.name}x{g2.name}",
                          identity=g1.identity * n2 + g2.identity)


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
    """Histogram of element orders, an order-multiset isomorphism heuristic.

    Walks x -> x*a for every a at once; a leaves the walk when x reaches the
    identity, after as many steps as its order."""
    t = group.table_array()
    a = x = np.arange(group.order)
    hist: dict[int, int] = {}
    k = 1
    while a.size:
        done = x == group.identity
        if done.any():
            hist[k] = int(done.sum())
        a, x = a[~done], x[~done]
        x = t[x, a]
        k += 1
    return hist
