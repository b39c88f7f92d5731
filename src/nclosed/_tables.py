"""Whole-table work on numpy copies of Cayley tables.

Table validation (array conversion, closure, Light's associativity test,
identity and inverse witnesses) and the commutativity and element-order
passes. `groups` imports this module inside the functions that need it,
and `cli` inside the `group` command, so building a named, perm(...) or
product group and every command that only reads rows runs without numpy.
"""

from __future__ import annotations

from array import array
from itertools import chain

import numpy as np

from .errors import (
    DuplicateLabel,
    GroupTooLarge,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
)


def _as_array(table, max_order: int) -> np.ndarray:
    n = len(table)
    if n == 0:
        raise ValueError("table must have side >= 1")
    if n > max_order:
        raise GroupTooLarge(f"order {n} exceeds the cap of {max_order}")
    try:
        square = all(len(row) == n for row in table)
        # numpy would truncate 0.9 to 0 and read "0" or true as an integer;
        # map and set walk the entries in C, so this costs no Python loop
        kinds = set(map(type, chain.from_iterable(table))) if square else ()
        for kind in kinds:
            if kind is bool or not issubclass(kind, (int, np.integer)):
                raise TypeError(f"got {kind.__name__}")
        t = np.array(table, dtype=np.int64) if square else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"table entries must be integers: {exc}") from None
    if t is None or t.shape != (n, n):
        raise ValueError("table must be square")
    return t


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


def validated_array(table, labels, max_order: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The table as a C-int array once it is closed and associative, and
    its labels; raises ValueError, GroupTooLarge, DuplicateLabel,
    NotClosed or NotAssociative, checked in that order."""
    t = _as_array(table, max_order)
    labels = _check_labels(labels, len(t))
    witness = _closure_witness(t)
    if witness:
        raise NotClosed(*witness)
    t = t.astype(np.intc)
    witness = _light_witness(t)
    if witness:
        raise NotAssociative(witness)
    return t, labels


def identity_and_inverses(t: np.ndarray) -> tuple[int, array]:
    """The two-sided identity of a table and each element's two-sided
    inverse; raises NoIdentity, then NoInverse with the first element
    that has none."""
    ar = np.arange(len(t))
    both = (t == ar).all(axis=1) & (t == ar[:, None]).all(axis=0)
    if not both.any():
        raise NoIdentity()
    identity = int(both.argmax())
    unit = t == identity
    unit = unit & unit.T
    found = unit.any(axis=1)
    if not found.all():
        raise NoInverse(int(found.argmin()))
    return identity, _int_array(unit.argmax(axis=1))


def _int_array(values: np.ndarray) -> array:
    return array("i", values.astype(np.intc).tobytes())


def rows_of(t: np.ndarray) -> tuple[array, ...]:
    return tuple(_int_array(row) for row in t)


def table_array(struct) -> np.ndarray:
    """The table of a structure as a read-only (order, order) array of C
    ints: one copy of its rows."""
    rows = b"".join(map(struct.row, range(struct.order)))
    return np.frombuffer(rows, dtype=np.intc).reshape(struct.order, struct.order)


def is_abelian(t: np.ndarray) -> bool:
    """t == t.T, compared in row blocks so that no order^2 mask is built."""
    n = len(t)
    step = max(1, (1 << 18) // n)
    return all((t[lo:lo + step] == t[:, lo:lo + step].T).all()
               for lo in range(0, n, step))


def element_orders(t: np.ndarray, identity: int) -> dict[int, int]:
    """Histogram of element orders of a group table.

    Walks x -> x*a for every a at once; a leaves the walk when x reaches the
    identity, after as many steps as its order."""
    a = x = np.arange(len(t))
    hist: dict[int, int] = {}
    k = 1
    while a.size:
        done = x == identity
        if done.any():
            hist[k] = int(done.sum())
        a, x = a[~done], x[~done]
        x = t[x, a]
        k += 1
    return hist

