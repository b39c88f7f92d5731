"""Group arithmetic of the benchmark's own, written apart from nclosed.

Every checker judges the program's output with these groups, so none of
this imports the program. A group is a list of labels (the program's
labels for the same elements) plus a Cayley table over label positions,
built from a rule that has nothing to do with the program's tables:

- Z<n>: residues under addition;
- D<n>: the affine maps k -> sign*k + shift of Z_n, where r<i> is the
  rotation k -> k + i and s<i> the reflection k -> i - k;
- S<n> and permutation groups: tuples of images, (x*y)(k) = x(y(k)), with
  labels in 1-based cycle notation ("e" for the identity);
- products: pairs, labelled "(a,b)".
"""

from __future__ import annotations

import random
from itertools import permutations
from math import gcd


class Group:
    """Finite group given by labels and a dense table over label positions."""

    def __init__(self, labels, table, name=""):
        self.labels = list(labels)
        self.table = table
        self.name = name
        self.order = len(self.labels)
        self.index = {s: i for i, s in enumerate(self.labels)}
        self.identity = next(
            e for e in range(self.order)
            if all(table[e][x] == x for x in range(self.order)))

    @classmethod
    def from_rule(cls, elements, label, mul, name=""):
        pos = {x: i for i, x in enumerate(elements)}
        table = [[pos[mul(x, y)] for y in elements] for x in elements]
        return cls([label(x) for x in elements], table, name)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverses(self) -> list[int]:
        e = self.identity
        return [row.index(e) for row in self.table]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def ids(self, labels) -> list[int]:
        """Positions of the given labels; KeyError on a label not in G."""
        return [self.index[s] for s in labels]

    def is_subgroup(self, ids) -> bool:
        """Nonempty and closed under the product (enough in a finite group)."""
        hs = set(ids)
        if not hs:
            return False
        return all(self.table[x][y] in hs for x in hs for y in hs)

    def is_normal(self, ids) -> bool:
        hs = set(ids)
        t = self.table
        inv = self.inverses()
        return all(t[t[g][x]][inv[g]] in hs
                   for g in range(self.order) for x in hs)


# ---------------------------------------------------------------------------
# families


def cyclic(n: int) -> Group:
    return Group.from_rule(list(range(n)), str, lambda a, b: (a + b) % n, f"Z{n}")


def dihedral(n: int) -> Group:
    elements = [(1, i) for i in range(n)] + [(-1, i) for i in range(n)]

    def label(x):
        return ("r" if x[0] == 1 else "s") + str(x[1])

    def mul(x, y):  # (x o y)(k) = x(y(k))
        return (x[0] * y[0], (x[0] * y[1] + x[1]) % n)

    return Group.from_rule(elements, label, mul, f"D{n}")


def cycle_label(perm: tuple[int, ...]) -> str:
    """1-based cycle notation, each cycle from its least point; "e" if trivial."""
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        k = perm[start]
        while k != start:
            cyc.append(k)
            seen.add(k)
            k = perm[k]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) or "e"


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Permutation from cycle notation; the rightmost cycle applies first."""
    result = list(range(degree))
    text = text.strip()
    if text == "e":
        return tuple(result)
    for chunk in reversed(text.replace(")", ")|").split("|")):
        chunk = chunk.strip()
        if not chunk:
            continue
        points = [int(p) - 1 for p in chunk.strip("()").split()]
        step = list(range(degree))
        for a, b in zip(points, points[1:] + points[:1]):
            step[a] = b
        result = [step[result[k]] for k in range(degree)]
    return tuple(result)


def perm_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x[y[k]] for k in range(len(y)))


def symmetric(degree: int) -> Group:
    return Group.from_rule(list(permutations(range(degree))), cycle_label,
                           perm_mul, f"S{degree}")


def perm_generated(degree: int, generators) -> Group:
    """Closure of the given permutations under composition."""
    identity = tuple(range(degree))
    elements = [identity]
    seen = {identity}
    for x in elements:  # grows while iterating: breadth-first closure
        for gen in generators:
            y = perm_mul(x, gen)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return Group.from_rule(elements, cycle_label, perm_mul)


def product(g1: Group, g2: Group) -> Group:
    elements = [(a, b) for a in range(g1.order) for b in range(g2.order)]
    return Group.from_rule(
        elements,
        lambda x: f"({g1.labels[x[0]]},{g2.labels[x[1]]})",
        lambda x, y: (g1.table[x[0]][y[0]], g2.table[x[1]][y[1]]),
        f"{g1.name}x{g2.name}")


def shuffled(g: Group, rng: random.Random) -> Group:
    """The same group with its elements listed in a seeded random order."""
    perm = list(range(g.order))
    rng.shuffle(perm)  # perm[new position] = old position
    pos = {old: new for new, old in enumerate(perm)}
    table = [[pos[g.table[perm[a]][perm[b]]] for b in range(g.order)]
             for a in range(g.order)]
    return Group([g.labels[old] for old in perm], table, g.name)


# ---------------------------------------------------------------------------
# number theory behind the published counts


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def tau(n: int) -> int:
    return len(divisors(n))


def sigma(n: int) -> int:
    return sum(divisors(n))


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
