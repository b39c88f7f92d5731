"""Recursive-descent parsing of group specs, cycle notation, and subsets.

Grammar (single-token lookahead, positions reported on every failure):

    group   := "perm(" INT "):" perm ("," perm)*
             | "table:" PATH            (rest of the input)
             | atom ("x" atom)*         (left-associative direct product)
    atom    := ("Z" | "S" | "D" | "Q") INT
    perm    := "e" | cycle+
    cycle   := "(" INT* ")"             (points are 1-based, space-separated)
    subset  := item ("," item)*         (labels matched against the owner)

Cycle notation composes right to left: in "(1 2)(2 3)" the right cycle
applies first, matching the group kernel's composition convention.
Overlapping cycles are therefore legal.
"""

from __future__ import annotations

from .errors import (
    EmptySubsetSpec,
    GroupTooLarge,
    ParseError,
    PointOutOfRange,
    RepeatedPointInCycle,
    UnknownLabel,
    UnsupportedParameter,
)
from .groups import (
    MAX_ORDER,
    FiniteGroup,
    FiniteSemigroup,
    direct_product,
    load_cayley_table,
    make_named,
    permutation_group,
)
from .subsets import GSubset

# a perm spec names its degree; 8 points hold PSL(2,7) and AGL(1,8), while
# the generated group stays under MAX_ORDER
MAX_PERM_DEGREE = 8


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"unexpected {self.peek()!r}" if self.peek() else "unexpected end of input",
                             self.pos, expected=repr(ch))
        self.pos += 1

    def at_digit(self) -> bool:
        # ASCII only: str.isdigit also accepts superscripts and other scripts
        return "0" <= self.peek() <= "9"

    def read_int(self) -> int:
        start = self.pos
        while self.at_digit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"unexpected {self.peek()!r}" if self.peek() else "unexpected end of input",
                             start, expected="an integer")
        return int(self.text[start:self.pos])

    def expect_end(self) -> None:
        self.skip_ws()
        if not self.at_end():
            raise ParseError(f"trailing input {self.text[self.pos:self.pos + 10]!r}",
                             self.pos, expected="end of input")


# ---------------------------------------------------------------------------
# permutations


def _parse_one_cycle(sc: _Scanner, degree: int) -> list[int]:
    sc.expect("(")
    points: list[int] = []
    while True:
        sc.skip_ws()
        if sc.peek() == ")":
            sc.take()
            return points
        if not sc.at_digit():
            raise ParseError(f"unexpected {sc.peek()!r}" if sc.peek() else "unclosed cycle",
                             sc.pos, expected="a point or ')'")
        start = sc.pos
        p = sc.read_int()
        if not 1 <= p <= degree:
            raise PointOutOfRange(p, degree, start)
        if p in points:
            raise RepeatedPointInCycle(p, start)
        points.append(p)


def _compose(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    # apply y first, then x
    return tuple(x[y[i]] for i in range(len(x)))


def _parse_perm_body(sc: _Scanner, degree: int) -> tuple[int, ...]:
    """One permutation: 'e' or a run of cycles, composed right to left."""
    sc.skip_ws()
    identity = tuple(range(degree))
    if sc.peek() == "e":
        sc.take()
        return identity
    if sc.peek() != "(":
        raise ParseError(f"unexpected {sc.peek()!r}" if sc.peek() else "permutation expected",
                         sc.pos, expected="'e' or '('")
    perm = identity
    while sc.peek() == "(":
        cycle = _parse_one_cycle(sc, degree)
        mapping = list(identity)
        for i, p in enumerate(cycle):
            mapping[p - 1] = cycle[(i + 1) % len(cycle)] - 1
        perm = _compose(perm, tuple(mapping))
        sc.skip_ws()
    return perm


# ---------------------------------------------------------------------------
# group specs


_FAMILY_BY_LETTER = {"Z": "cyclic", "S": "symmetric", "D": "dihedral", "Q": "quaternion"}


def _parse_atom(sc: _Scanner) -> FiniteGroup:
    sc.skip_ws()
    letter = sc.peek()
    if letter not in _FAMILY_BY_LETTER:
        raise ParseError(f"unexpected {letter!r}" if letter else "group spec expected",
                         sc.pos, expected="one of Z<n>, S<n>, D<n>, Q8")
    sc.take()
    parameter = sc.read_int()
    return make_named(_FAMILY_BY_LETTER[letter], parameter)


def _parse_perm_group(sc: _Scanner, raw: str) -> FiniteGroup:
    sc.pos += len("perm")
    sc.skip_ws()
    sc.expect("(")
    sc.skip_ws()
    degree = sc.read_int()
    sc.skip_ws()
    sc.expect(")")
    sc.skip_ws()
    sc.expect(":")
    if not 1 <= degree <= MAX_PERM_DEGREE:
        raise UnsupportedParameter(f"perm degree must be in 1..{MAX_PERM_DEGREE}, got {degree}")
    gens = []
    while True:
        gens.append(_parse_perm_body(sc, degree))
        sc.skip_ws()
        if sc.peek() != ",":
            break
        sc.take()
    sc.expect_end()
    return permutation_group(degree, gens, raw.strip())


def parse_group_spec(text: str) -> FiniteGroup:
    """Build a group from its spec string (see the module grammar)."""
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.at_end():
        raise ParseError("group spec expected", sc.pos)
    rest = text[sc.pos:]
    if rest.startswith("perm"):
        return _parse_perm_group(sc, text)
    if rest.startswith("table:"):
        path = rest[len("table:"):].strip()
        if not path:
            raise ParseError("file path expected", sc.pos + len("table:"))
        return load_cayley_table(path)
    atoms = [_parse_atom(sc)]
    while True:
        sc.skip_ws()
        if sc.peek() == "x":
            sc.take()
            atoms.append(_parse_atom(sc))
        else:
            break
    sc.expect_end()
    total = 1
    for g in atoms:  # reject oversized products before building any table
        total *= g.order
    if total > MAX_ORDER:
        raise GroupTooLarge(f"product order {total} exceeds cap {MAX_ORDER}")
    group = atoms[0]
    for g in atoms[1:]:
        group = direct_product(group, g)
    return group


# ---------------------------------------------------------------------------
# subsets


def _split_top_level(text: str) -> list[tuple[str, int]]:
    """Split on commas outside parentheses; keeps each item's start offset."""
    items = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            items.append((text[start:i], start))
            start = i + 1
    items.append((text[start:], start))
    return items


def parse_subset_spec(text: str, owner: FiniteSemigroup) -> GSubset:
    """Resolve a comma-separated list of element labels against the owner.

    Labels match exactly; for permutation-backed groups a non-matching item
    is additionally tried as cycle notation, so "(3 1)" resolves to the
    element labelled "(1 3)".
    """
    if not text.strip():
        raise EmptySubsetSpec()
    mask = 0
    for item, offset in _split_top_level(text):
        label = item.strip()
        if not label:
            raise ParseError("element label expected", offset)
        idx = owner.index_of_label(label)
        if idx is None and isinstance(owner, FiniteGroup) and owner.perm_degree:
            sc = _Scanner(label)
            try:
                perm = _parse_perm_body(sc, owner.perm_degree)
                sc.expect_end()
                idx = owner.index_of_permutation(perm)
            except ParseError:
                idx = None
        if idx is None:
            raise UnknownLabel(label, offset)
        mask |= 1 << idx
    return GSubset(owner, mask)
