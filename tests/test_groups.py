import json
import math
from array import array
from itertools import permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nclosed import groups, parsing
from nclosed.cli import main
from nclosed.errors import (
    DuplicateLabel,
    GroupTooLarge,
    MixedStructures,
    NClosedError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    TableFileError,
    UnsupportedParameter,
)
from nclosed.groups import (
    Element,
    direct_product,
    dump_cayley_table,
    load_cayley_table,
    make_named,
    permutation_group,
    structure_orders,
    validate_cayley_table,
    validate_semigroup_table,
)
from nclosed.parsing import parse_group_spec, parse_subset_spec
from nclosed.subsets import generated_subgroup


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def mult_table(n):
    return [[(i * j) % n for j in range(n)] for i in range(n)]


def brute_force_associative(table):
    """Oracle: the exhaustive triple sweep."""
    rng = range(len(table))
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in rng for y in rng for z in rng)


def two_sided_identities(table):
    rng = range(len(table))
    return [e for e in rng if all(table[e][x] == table[x][e] == x for x in rng)]


def has_two_sided_inverse(table, e, x):
    return any(table[x][y] == table[y][x] == e for y in range(len(table)))


def brute_force_group(table):
    """Oracle: associativity, a two-sided identity and two-sided inverses,
    each by exhaustive search."""
    ids = two_sided_identities(table)
    return (brute_force_associative(table) and bool(ids)
            and all(has_two_sided_inverse(table, ids[0], x) for x in range(len(table))))


@st.composite
def small_magmas(draw):
    """Tables of order 1..6: random ones, and group or mulZk tables that are
    relabelled and may have one cell changed, so both verdicts are common."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "cyclic", "klein", "multiplicative"]))
    if kind == "random":
        cell = st.integers(0, n - 1)
        return draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    if kind == "klein":
        n = 4
        base = [[i ^ j for j in range(n)] for i in range(n)]
    else:
        base = cyclic_table(n) if kind == "cyclic" else mult_table(n)
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[base[x][y]]
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[x][y] = draw(st.integers(0, n - 1))
    return table


class TestValidation:
    def test_trivial_group(self):
        g = validate_cayley_table([[0]])
        assert g.order == 1
        assert g.identity == 0

    def test_z4_table_is_a_group(self):
        g = validate_cayley_table(cyclic_table(4))
        assert g.order == 4
        assert g.identity == 0
        assert [g.inv(i) for i in range(4)] == [0, 3, 2, 1]

    def test_no_inverse(self):
        # [[0,1],[1,1]] is boolean OR: identity 0, but 1 has no partner
        with pytest.raises(NoInverse) as exc:
            validate_cayley_table([[0, 1], [1, 1]])
        assert exc.value.element == 1

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            validate_cayley_table([[0, 2], [2, 0]])

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            validate_cayley_table([[0, 0], [0, 0]])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            validate_cayley_table(cyclic_table(2), labels=["a", "a"])

    @pytest.mark.parametrize("validate", [validate_cayley_table,
                                          validate_semigroup_table])
    def test_duplicate_label_after_shape_and_type_before_the_axioms(self, validate):
        dup = ["a", "a"]
        # an out-of-range entry alone is NotClosed, a non-associative table
        # NotAssociative; duplicate labels win over both
        with pytest.raises(DuplicateLabel):
            validate([[0, 5], [1, 0]], labels=dup)
        with pytest.raises(DuplicateLabel):
            validate([[1, 0], [0, 0]], labels=dup)
        # a non-integer entry or a ragged table is reported first
        with pytest.raises(ValueError, match="integers"):
            validate([[0, 1.0], [1, 0]], labels=dup)
        with pytest.raises(ValueError, match="square"):
            validate([[0, 1], [1]], labels=dup)
        with pytest.raises(NotClosed):
            validate([[0, 5], [1, 0]])
        with pytest.raises(NotAssociative):
            validate([[1, 0], [0, 0]])

    def test_not_associative_with_witness(self):
        table = [[1, 0], [0, 0]]
        with pytest.raises(NotAssociative) as exc:
            validate_semigroup_table(table)
        x, y, z = exc.value.witness
        assert table[table[x][y]][z] != table[x][table[y][z]]

    def test_semigroup_accepts_modular_multiplication(self):
        s = validate_semigroup_table(mult_table(6))
        assert s.order == 6

    def test_semigroup_accepts_any_group_table(self):
        s = validate_semigroup_table(cyclic_table(4))
        assert s.order == 4

    def test_negative_entry_is_not_closed(self):
        with pytest.raises(NotClosed) as exc:
            validate_cayley_table([[0, 1], [1, -2]])
        assert (exc.value.row, exc.value.col, exc.value.value) == (1, 1, -2)

    def test_late_type_error_wins_over_early_range_error(self):
        for late in (1.5, True, "0", None):
            with pytest.raises(ValueError, match="table entries must be integers"):
                validate_cayley_table([[0, 5], [1, late]])

    def test_rectangular_table_rejected(self):
        with pytest.raises(ValueError):
            validate_cayley_table([[0, 1], [1]])

    def test_corrupted_order_96_table_names_witness(self):
        # one changed cell in a larger table must still be found, with a triple
        n = 96
        g = validate_cayley_table(cyclic_table(n))
        assert g.order == n
        bad = [row[:] for row in cyclic_table(n)]
        bad[3][5] = (3 + 5 + 1) % n  # breaks associativity somewhere
        with pytest.raises(NotAssociative) as exc:
            validate_cayley_table(bad)
        x, y, z = exc.value.witness
        assert bad[bad[x][y]][z] != bad[x][bad[y][z]]

    @settings(max_examples=400, deadline=None)
    @given(table=small_magmas())
    def test_light_test_agrees_with_brute_force(self, table):
        try:
            validate_semigroup_table(table)
        except NotAssociative as exc:
            assert not brute_force_associative(table)
            x, y, z = exc.witness
            assert table[table[x][y]][z] != table[x][table[y][z]]
        else:
            assert brute_force_associative(table)

    @settings(max_examples=400, deadline=None)
    @given(table=small_magmas())
    def test_group_validation_agrees_with_brute_force(self, table):
        # every error must be true of the table, whichever check found it
        try:
            g = validate_cayley_table(table)
        except NotAssociative as exc:
            x, y, z = exc.witness
            assert table[table[x][y]][z] != table[x][table[y][z]]
        except NoIdentity:
            assert not two_sided_identities(table)
        except NoInverse as exc:
            ids = two_sided_identities(table)
            assert ids and not has_two_sided_inverse(table, ids[0], exc.element)
        else:
            assert brute_force_group(table)
            assert g.table_lists() == table
            assert g.identity == two_sided_identities(table)[0]
            return
        assert not brute_force_group(table)

    @pytest.mark.parametrize("kind", ["zero", "left-zero"])
    def test_light_test_is_bounded_on_tables_that_are_not_groups(self, kind, monkeypatch):
        # associative tables without identity: each generator reaches only
        # itself, so the unbounded test would try all 512 of them
        from nclosed import groups
        n = 512
        table = [[0] * n for _ in range(n)] if kind == "zero" else \
            [[x] * n for x in range(n)]
        tried = []
        real = groups._middle_witness
        monkeypatch.setattr(groups, "_middle_witness",
                            lambda rows, a: tried.append(a) or real(rows, a))
        with pytest.raises(NoIdentity):
            validate_cayley_table(table)
        assert len(tried) <= (n - 1).bit_length() + 1 == 10

    def test_failure_past_the_bound_reports_the_missing_identity(self):
        # a zero table of order 64 with 62*63 = 63: (62*62)*63 = 0 while
        # 62*(62*63) = 63, but generator 62 comes after the bound of 7
        from nclosed import groups
        n = 64
        table = [[0] * n for _ in range(n)]
        table[62][63] = 63
        with pytest.raises(NoIdentity):
            validate_cayley_table(table)
        with pytest.raises(NotAssociative) as exc:
            validate_semigroup_table(table)
        assert exc.value.witness == (62, 62, 63)
        # when the identity check passes, the test goes on to the end
        rows = [tuple(row) for row in table]
        assert groups._light_witness(rows, group_check=lambda rows: None) == (62, 62, 63)

    def test_named_tables_pass_validation(self, small_corpus):
        # named families and products skip validation; it must agree
        for g in small_corpus:
            checked = validate_cayley_table(g.table_lists(), g.labels)
            assert checked.identity == g.identity
            assert [checked.inv(i) for i in range(g.order)] == \
                [g.inv(i) for i in range(g.order)]


class TestNamedFamilies:
    def test_s3_order(self):
        assert make_named("symmetric", 3).order == 6

    def test_z9_element_orders(self):
        z9 = make_named("cyclic", 9)
        orders = {z9.order_of(i) for i in range(1, 9)}
        assert orders == {3, 9}

    def test_quaternion_single_involution(self):
        q8 = make_named("quaternion", 8)
        # oracle: walk each element to the identity by repeated multiplication
        involutions = []
        for i in range(8):
            x, m = i, 1
            while x != q8.identity:
                x = q8.mul(x, i)
                m += 1
            if m == 2:
                involutions.append(q8.labels[i])
        assert involutions == ["-1"]

    def test_dihedral_order(self):
        assert make_named("dihedral", 5).order == 10

    @pytest.mark.parametrize("family,parameter", [
        ("symmetric", 7), ("symmetric", 0), ("dihedral", 2),
        ("quaternion", 4), ("cyclic", 0), ("nosuch", 3),
    ])
    def test_unsupported_parameters(self, family, parameter):
        with pytest.raises(UnsupportedParameter):
            make_named(family, parameter)

    def test_identity_is_element_zero(self):
        for g in (make_named("cyclic", 7), make_named("symmetric", 4),
                  make_named("dihedral", 6), make_named("quaternion", 8)):
            assert g.identity == 0


def _reference_group(elements, compose):
    """Table, identity and inverses of a group given by its elements in
    index order and their product, all by search over the elements."""
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[compose(x, y)] for y in elements] for x in elements]
    identity = next(e for e, row in enumerate(table) if row == list(range(len(table))))
    inverses = [row.index(identity) for row in table]
    return table, identity, inverses


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _reference(family, n):
    """The named group's elements, labels and product from its defining
    rule; elements in the documented index order."""
    if family == "cyclic":
        return range(n), [str(k) for k in range(n)], lambda x, y: (x + y) % n
    if family == "dihedral":
        # r_k: x -> x + k and s_k: x -> k - x on the vertices Z_n
        maps = ([tuple((k + x) % n for x in range(n)) for k in range(n)]
                + [tuple((k - x) % n for x in range(n)) for k in range(n)])
        labels = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
        return maps, labels, lambda f, g: tuple(f[g[x]] for x in range(n))
    if family == "symmetric":
        # lexicographic one-line order; the right factor applies first
        perms = list(permutations(range(n)))
        return perms, None, lambda x, y: tuple(x[y[i]] for i in range(n))
    units = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    quats = [tuple(-c for c in units[s[1:]]) if s.startswith("-") else units[s]
             for s in labels]
    return quats, labels, _hamilton


NAMED = ([("cyclic", n) for n in range(1, 17)] + [("cyclic", 500)]
         + [("dihedral", n) for n in range(3, 13)]
         + [("symmetric", n) for n in range(1, 6)] + [("quaternion", 8)])


class TestNamedFamiliesAgainstReference:
    """The pure-Python builders against tables built here from each
    family's defining rule."""

    @pytest.mark.parametrize("family,n", NAMED)
    def test_rows_identity_inverses(self, family, n):
        g = make_named(family, n)
        elements, labels, compose = _reference(family, n)
        elements = list(elements)
        table, identity, inverses = _reference_group(elements, compose)
        assert g.table_lists() == table
        assert g.identity == identity == 0
        assert [g.inv(a) for a in range(g.order)] == inverses
        if labels is not None:
            assert list(g.labels) == labels
        if family == "symmetric":
            assert [g.permutation_of(a) for a in range(g.order)] == elements


def _copied_out_of_symmetric(degree, gens):
    """Reference: close the generators inside S_degree and copy the
    subgroup out, renumbered in S_degree's index order. Rows, labels,
    inverses and permutations, as lists."""
    sym = make_named("symmetric", degree)
    sub = generated_subgroup([Element(sym, sym.index_of_permutation(p)) for p in gens])
    ids = sub.carrier.indices()
    pos = {x: i for i, x in enumerate(ids)}
    return ([[pos[sym.mul(x, y)] for y in ids] for x in ids],
            [sym.labels[x] for x in ids],
            [pos[sym.inv(x)] for x in ids],
            [sym.permutation_of(x) for x in ids])


def _built(g):
    return (g.table_lists(), list(g.labels), [g.inv(a) for a in range(g.order)],
            [g.permutation_of(a) for a in range(g.order)])


def _order_histogram(g):
    """Element orders from the permutations alone: each is the lcm of its
    cycle lengths."""
    hist = {}
    for a in range(g.order):
        p, seen, order = g.permutation_of(a), set(), 1
        for start in range(len(p)):
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = p[x]
                length += 1
            order = math.lcm(order, max(length, 1))
        hist[order] = hist.get(order, 0) + 1
    return hist


# the perm specs used across the tests, the corpus and the benchmark, and S6
PERM_SPECS = [
    (3, ["(1 2)", "(1 2 3)"]),
    (4, ["(1 2 3)", "(2 3 4)"]),
    (5, ["(1 2 3)", "(1 2 3 4 5)"]),
    (6, ["(1 2 3 4 5 6)", "(1 2)"]),
    (6, ["(1 2 3)(4 5 6)", "(1 4)"]),
    (4, ["e"]),
    (1, ["e"]),
]


class TestPermutationGroup:
    """permutation_group against the copy out of S_d it replaced."""

    @pytest.mark.parametrize("degree,cycles", PERM_SPECS)
    def test_perm_spec_matches_the_copy_out_of_symmetric(self, degree, cycles):
        sym = make_named("symmetric", degree)
        gens = [sym.permutation_of(parse_subset_spec(c, sym).indices()[0]) for c in cycles]
        g = parse_group_spec(f"perm({degree}): " + ", ".join(cycles))
        assert g.identity == 0 and g.perm_degree == degree
        assert _built(g) == _copied_out_of_symmetric(degree, gens)

    @seed(20111)
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(st.permutations(range(d)),
                                                 min_size=1, max_size=3))))
    def test_random_generators_match_the_copy_out_of_symmetric(self, case):
        degree, gens = case
        gens = [tuple(p) for p in gens]
        g = permutation_group(degree, gens, "sample")
        assert _built(g) == _copied_out_of_symmetric(degree, gens)

    def test_no_symmetric_group_behind_a_perm_spec_or_a_cycle_label(self, monkeypatch):
        def no_named(family, parameter):
            raise AssertionError(f"make_named({family!r}, {parameter}) called")
        monkeypatch.setattr(groups, "make_named", no_named)
        monkeypatch.setattr(parsing, "make_named", no_named)
        g = parse_group_spec("perm(5): (1 2 3), (1 2 3 4 5)")
        assert g.order == 60
        assert sorted(parse_subset_spec("(3 2 1),(5 4 3 2 1)", g).labels()) == [
            "(1 3 2)", "(1 5 4 3 2)"]

    @pytest.mark.parametrize("spec,order,histogram", [
        ("perm(7): (1 2 3 4 5 6 7), (2 3)(4 7)", 168,
         {1: 1, 2: 21, 3: 56, 4: 42, 7: 48}),                  # PSL(2,7)
        ("perm(7): (1 2 3), (2 3)(4 5 6 7)", 12,
         {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}),                       # Dic3
        ("perm(7): (1 2 3 4 5 6 7), (2 3 5)(4 7 6)", 21,
         {1: 1, 3: 14, 7: 6}),                                   # Z7 x| Z3
        ("perm(8): (1 2 3 4 5 6 7), (1 8)(2 4)(3 7)(5 6)", 56,
         {1: 1, 2: 7, 7: 48}),                                   # AGL(1,8)
    ])
    def test_degree_seven_and_eight(self, spec, order, histogram):
        g = parse_group_spec(spec)
        assert g.order == order
        assert _order_histogram(g) == histogram
        assert structure_orders(g) == histogram

    def test_s8_exits_before_any_row_is_built(self, capsys, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row was built")
        monkeypatch.setattr(groups, "array", no_rows)
        assert main(["group", "perm(8): (1 2 3 4 5 6 7 8), (1 2)"]) == 1
        assert "has more than 5040 elements" in capsys.readouterr().err
        with pytest.raises(GroupTooLarge):
            permutation_group(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)], "S8")


class TestDirectProduct:
    def test_z2_x_z3_is_cyclic_of_order_6(self):
        g = direct_product(make_named("cyclic", 2), make_named("cyclic", 3))
        assert g.order == 6
        assert max(g.order_of(i) for i in range(6)) == 6

    def test_z2_x_z2_has_no_order_4(self):
        g = direct_product(make_named("cyclic", 2), make_named("cyclic", 2))
        assert g.order == 4
        assert max(g.order_of(i) for i in range(4)) == 2

    def test_trivial_factor_preserves_order_multiset(self, s3):
        g = direct_product(make_named("cyclic", 1), s3)
        assert g.order == s3.order
        assert structure_orders(g) == structure_orders(s3)

    def test_order_is_lcm_of_component_orders(self, z4, s3):
        g = direct_product(z4, s3)
        for a in range(z4.order):
            for b in range(s3.order):
                la = z4.order_of(a)
                lb = s3.order_of(b)
                combined = g.order_of(a * s3.order + b)
                import math
                assert combined == math.lcm(la, lb)

    def test_cap_enforced(self):
        with pytest.raises(GroupTooLarge):
            direct_product(make_named("cyclic", 100), make_named("cyclic", 100))

    @pytest.mark.parametrize("left,right", [
        ("Z1", "S3"), ("S3", "Z1"), ("Z2", "S4"), ("Q8", "Z3"), ("D4", "Z2"),
        ("Z4", "Z6")])
    def test_rows_match_a_triple_loop(self, left, right):
        from nclosed.parsing import parse_group_spec
        g1, g2 = parse_group_spec(left), parse_group_spec(right)
        g = direct_product(g1, g2)
        n1, n2 = g1.order, g2.order
        reference = [[g1.mul(a1, a2) * n2 + g2.mul(b1, b2)
                      for a2 in range(n1) for b2 in range(n2)]
                     for a1 in range(n1) for b1 in range(n2)]
        assert g.table_lists() == reference
        assert g.name == f"{left}x{right}"
        assert g.labels == tuple(f"({x},{y})" for x in g1.labels for y in g2.labels)
        # the identity and inverses given by formula are the ones a full
        # validation of the same table finds
        checked = validate_cayley_table(g.table_lists())
        assert checked.identity == g.identity
        assert [checked.inv(x) for x in range(g.order)] == [
            g.inv(x) for x in range(g.order)]


class TestVectorisedFacts:
    """is_abelian and structure_orders against plain loops over the table."""

    @staticmethod
    def reference(g):
        n = g.order
        abelian = all(g.mul(a, b) == g.mul(b, a) for a in range(n) for b in range(n))
        hist = {}
        for a in range(n):
            k, x = 1, a
            while x != g.identity:
                x, k = g.mul(x, a), k + 1
            hist[k] = hist.get(k, 0) + 1
        return abelian, hist

    def test_small_corpus(self, small_corpus):
        for g in small_corpus + [make_named("cyclic", 1), make_named("symmetric", 4)]:
            assert (g.is_abelian(), structure_orders(g)) == self.reference(g), g.name

    def test_identity_off_index_zero(self):
        # Z6 relabelled so that its identity sits at index 3
        perm = [3, 1, 4, 0, 5, 2]
        table = [[0] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(6):
                table[perm[i]][perm[j]] = perm[(i + j) % 6]
        g = validate_cayley_table(table)
        assert g.identity == 3
        assert (g.is_abelian(), structure_orders(g)) == self.reference(g)

    def test_generators_that_fail_to_commute_come_last(self, tmp_path):
        # is_abelian checks a greedy generating set: indices 0, 1, 600 and
        # 1200 in S3xZ600, and r0, r1 and s0 in D300, so every pair that
        # fails to commute ends with the last generator. Z600xS3 is the
        # mirror case, with generators 0, 1, 2 and 6. The S4 table is
        # relabelled to start e, (1 2), (3 4), (1 2)(3 4), (1 2 3): its
        # generators are 0, 1, 2 and 4, and only 4 fails to commute.
        from nclosed.parsing import parse_group_spec
        s4 = make_named("symmetric", 4)
        first = [s4.index_of_label(c) for c in
                 ("e", "(1 2)", "(3 4)", "(1 2)(3 4)", "(1 2 3)")]
        old = first + [x for x in range(24) if x not in first]
        new = {x: i for i, x in enumerate(old)}
        path = tmp_path / "s4.json"
        path.write_text(json.dumps({
            "labels": [s4.labels[x] for x in old],
            "table": [[new[s4.mul(x, y)] for y in old] for x in old]}))
        for spec in ("Z600xS3", "S3xZ600", "D300", f"table:{path}"):
            g = parse_group_spec(spec)
            t = [g.row(x) for x in range(g.order)]
            n = g.order
            abelian = all(t[i][j] == t[j][i] for i in range(n) for j in range(n))
            hist = {}
            for x in range(n):
                k = g.order_of(x)
                hist[k] = hist.get(k, 0) + 1
            assert (g.is_abelian(), structure_orders(g)) == (abelian, hist), spec
            assert not abelian


class TestElementArithmetic:
    def test_s3_composition_applies_right_first(self, s3):
        x, y = s3.index_of_label("(1 3)"), s3.index_of_label("(1 2)")
        assert s3.labels[s3.mul(x, y)] == "(1 2 3)"

    def test_power_zero_is_identity(self, s3, z12):
        for g in (s3, z12):
            for i in range(g.order):
                assert g.pow(i, 0) == g.identity

    def test_z12_power(self, z12):
        assert z12.pow(4, 3) == 0

    def test_element_orders(self, s3, z12):
        assert z12.order_of(0) == 1
        assert z12.order_of(4) == 3
        assert s3.order_of(s3.index_of_label("(1 2 3)")) == 3

    def test_mixed_structures_rejected(self, z4, s3):
        # an element of one group is no member of another group's subsets
        from nclosed.closedness import analyze_coset
        from nclosed.subsets import GSubset, Subgroup
        with pytest.raises(MixedStructures):
            Element(z4, 1) in GSubset.from_indices(s3, [0, 1])
        with pytest.raises(MixedStructures):
            analyze_coset(Element(z4, 1), Subgroup.from_indices(s3, [0]))

    def test_inverse(self, q8):
        i = q8.index_of_label("i")
        assert q8.labels[q8.inv(i)] == "-i"
        assert q8.mul(i, q8.inv(i)) == q8.identity


class TestGroupLaws:
    def test_axioms_exhaustively_small_corpus(self, small_corpus):
        for g in small_corpus:
            if g.order > 64:
                continue
            e = g.identity
            rng = range(g.order)
            for x in rng:
                assert g.mul(x, e) == g.mul(e, x) == x
                assert g.mul(x, g.inv(x)) == e
                for y in rng:
                    for z in rng:
                        assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))

    def test_element_order_divides_group_order(self, small_corpus):
        for g in small_corpus:
            for i in range(g.order):
                assert g.order % g.order_of(i) == 0

    def test_order_minimality(self, small_corpus):
        for g in small_corpus:
            for i in range(g.order):
                k = g.order_of(i)
                assert g.pow(i, k) == g.identity
                for m in range(1, k):
                    assert g.pow(i, m) != g.identity

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_power_adds_exponents(self, data):
        g = make_named("dihedral", data.draw(st.integers(3, 8)))
        x = data.draw(st.integers(0, g.order - 1))
        m = data.draw(st.integers(0, 20))
        k = data.draw(st.integers(0, 20))
        assert g.mul(g.pow(x, m), g.pow(x, k)) == g.pow(x, m + k)


class TestRowRepresentation:
    """Every way of building a structure stores its table as one tuple of
    array("i") rows."""

    @staticmethod
    def assert_array_rows(struct):
        assert type(struct._rows) is tuple and len(struct._rows) == struct.order
        for x in range(struct.order):
            row = struct.row(x)
            assert type(row) is array and row.typecode == "i", (struct.name, x)
            assert len(row) == struct.order

    @pytest.mark.parametrize("spec", ["Z1", "Z7", "S1", "S4", "D5", "Q8", "Z4xS3",
                                      "perm(4): (1 2 3), (2 3 4)"])
    def test_parsed_groups(self, spec):
        from nclosed.parsing import parse_group_spec
        self.assert_array_rows(parse_group_spec(spec))

    def test_direct_product(self, z4, s3):
        self.assert_array_rows(direct_product(z4, s3))

    def test_table_file(self, tmp_path, s3):
        from nclosed.parsing import parse_group_spec
        path = tmp_path / "s3.json"
        dump_cayley_table(s3, path)
        g = parse_group_spec(f"table:{path}")
        self.assert_array_rows(g)
        assert g.table_lists() == s3.table_lists()

    def test_validated_lists(self):
        self.assert_array_rows(validate_cayley_table(cyclic_table(6)))
        self.assert_array_rows(validate_cayley_table([[0]]))
        self.assert_array_rows(validate_semigroup_table(mult_table(6)))

    def test_multiplicative_semigroup(self):
        from nclosed.verify import multiplicative_semigroup
        self.assert_array_rows(multiplicative_semigroup(8))


class TestJsonTables:
    def test_round_trip(self, tmp_path, q8):
        path = tmp_path / "q8.json"
        dump_cayley_table(q8, path)
        loaded = load_cayley_table(path)
        assert loaded.order == q8.order
        assert loaded.labels == q8.labels
        assert loaded.table_lists() == q8.table_lists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(TableFileError):
            load_cayley_table(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(TableFileError):
            load_cayley_table(path)

    def test_corrupted_table(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "table": [[0, 1], [1, 1]]}))
        with pytest.raises(NoInverse):
            load_cayley_table(path)


def outcome(load):
    """A group's labels, table and inverses, or the error's class and message."""
    try:
        g = load()
    except (NClosedError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return g.labels, g.table_lists(), g.identity, [g.inv(x) for x in range(g.order)]


def read_table(path, chunk):
    """load_cayley_table, reading the file chunk characters at a time."""
    with mock.patch.object(groups, "_CHUNK", chunk):
        return outcome(lambda: load_cayley_table(path))


def parsed_whole(path):
    """The same file through json.loads and validate_cayley_table, with the
    reader's wrapping of their errors."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return TableFileError, f"{path} is not valid JSON: {exc}"
    if not isinstance(data, dict) or "table" not in data:
        return TableFileError, f"{path}: expected an object with a 'table' key"
    got = outcome(lambda: validate_cayley_table(data["table"], data.get("labels")))
    if got[0] in (ValueError, TypeError):
        return TableFileError, f"{path}: {got[1]}"
    return got


def layouts(payload):
    """The same payload written compactly, as dump_cayley_table writes it,
    with its keys reversed, with extra whitespace and newlines, and with
    unknown keys around it."""
    yield json.dumps(payload, separators=(",", ":"))
    yield json.dumps(payload, indent=2, sort_keys=True)
    yield json.dumps(dict(reversed(payload.items())))
    yield " \n" + json.dumps(payload, indent="\t", separators=(" ,\r\n ", " :  ")) + "\r\n\t"
    yield json.dumps({"note": 'a "quoted" ] string', "x": {"table": [[1]]},
                      **payload, "y": [-1.5e-3, None, True]})


@st.composite
def table_payloads(draw):
    """Small magmas, some with one entry made out of range or of another
    type, some with labels."""
    table = draw(small_magmas())
    n = len(table)
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[x][y] = draw(st.sampled_from([-1, n, 10 ** 20, 1.0, True, "0", None, [0]]))
    payload = {"table": table}
    if draw(st.booleans()):
        payload["labels"] = [f"e{k}" for k in range(n)]
    return payload


class TestTableReader:
    """load_cayley_table reads the table a row at a time; whatever the
    layout and wherever the chunks end, it gives the group or the error
    that json.loads and validate_cayley_table give for the whole text."""

    @given(payload=table_payloads(), layout=st.integers(0, 4), chunk=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_same_as_whole_text(self, tmp_path_factory, payload, layout, chunk):
        path = tmp_path_factory.mktemp("reader") / "t.json"
        path.write_text(list(layouts(payload))[layout], newline="")
        assert read_table(path, chunk) == parsed_whole(path)

    @pytest.mark.parametrize("text", [
        '{"table": []}',
        '{"table": [[0, 1], [1]]}',
        '{"table": [[0, 1], [1, 0], [0, 1]]}',
        '{"table": [[0, 5], [1, 1.5]]}',
        '{"table": [[0, -1], [1, "0"]]}',
        '{"table": [[0, 7], [true, 0]]}',
        '{"table": [[0, 2], 5]}',
        '{"table": [[0, 9], [1]]}',
        '{"labels": ["a", "a"], "table": [[0, 3], [1, 0]]}',
        '{"labels": ["a"], "table": [[0, 3], [1, 0]]}',
        '{"table": 5}',
        '{"table": "ab"}',
        '{"table": null}',
        '{"labels": ["a"]}',
        '{"x": {"table": [[0]]}}',
        '[[0]]',
        '',
        '{"table": [[0]]} x',
        '{"table": [[0]]}\n\n,',
        '{"table": [[0, 1], [1, 0]',
        '{"table": [[0],]}',
        '{"table" [[0]]}',
        '{"table": [[0]],}',
        # trailing commas: Python 3.13 names them and points at the comma
        '{"table": [[0, 1], [1, 0] ,\n\t ]}',
        '{"table": [[0]] ,\r\n }',
        '{"labels": ["e"],\n"table": [[0]],}',
        '{"table": [[0]], "x": [1,]}',
        '{"table": [[0]],',
        '{"table": [[1.]]}',
        '{"table": [[NaN]]}',
        '\ufeff{"table": [[0]]}',
        '{\r\n"table":\r[[0, 1],\r\n[1, 0]]\r\n}  ',
        # scalars whose end is only known from the characters after them
        '{"z": 12.5e+3, "table": [[0]], "y": -7, "x": 1.}',
        '{"table": [[0, 1], 10, 2.5E-1], "w": 1e5}',
        '-12.5e+3 ',
    ], ids=lambda text: text[:30])
    def test_hand_written_cases(self, tmp_path, text):
        path = tmp_path / "t.json"
        path.write_text(text, newline="")
        for chunk in (*range(1, 12), 1 << 20):
            assert read_table(path, chunk) == parsed_whole(path), chunk

    @pytest.mark.parametrize("rows, error", [
        ([[0]] * 5041, "order 5041 exceeds the cap of 5040"),
        ([[0, 1.5]] * 5041, "order 5041 exceeds the cap of 5040"),
        ([list(range(5041))], "table must be square"),
    ])
    def test_order_cap(self, tmp_path, rows, error):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"table": rows}))
        got = read_table(path, 1 << 12)
        assert got == parsed_whole(path)
        assert got[1].endswith(error)

    def test_every_truncation(self, tmp_path):
        text = json.dumps({"labels": ["e", "a"], "table": [[0, 1], [1, 0]]}, indent=1)
        path = tmp_path / "t.json"
        for cut in range(len(text)):
            path.write_text(text[:cut])
            assert read_table(path, 3) == parsed_whole(path), cut

    def test_undecodable_byte_is_reported_at_its_offset_in_the_file(self, tmp_path):
        path = tmp_path / "t.json"
        text = json.dumps({"table": cyclic_table(60)}, indent=2).encode()
        path.write_bytes(text[:-3] + b"\xff" + text[-3:])
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text()
        assert read_table(path, 64) == (
            TableFileError, f"{path} is not valid text: {whole.value}")

    @pytest.mark.parametrize("bad", [b"\xff}", b"\xe2\x82A}", b"\xf0\x9f\x98}", b"\xe2\x82"])
    @pytest.mark.parametrize("chunk", [4093, 1 << 20])
    def test_undecodable_byte_past_the_first_chunk_after_multibyte_text(
            self, tmp_path, bad, chunk):
        # over 2^20 characters of two- to four-byte text come first, so the
        # offset in bytes is not the offset in characters
        path = tmp_path / "t.json"
        head = json.dumps({"labels": ["é", "€"], "note": "😀€é" * 300_000,
                           "table": [[0, 1], [1, 0]]}, ensure_ascii=False)
        path.write_bytes(head[:-1].encode() + b", " + bad)
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text()
        assert whole.value.start > 2 * (1 << 20)
        assert read_table(path, chunk) == (
            TableFileError, f"{path} is not valid text: {whole.value}")

    @pytest.mark.parametrize("head", [b'{"table": [[0,]] ', b'{"table" [[0]] ',
                                      b'{"table": [[0]], "table": [[0]] '])
    def test_undecodable_byte_comes_before_a_file_error(self, tmp_path, head):
        # json.loads decodes the whole text before it parses any of it
        path = tmp_path / "t.json"
        path.write_bytes(head + b" " * 20000 + b"\xff}")
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text()
        assert read_table(path, 64) == (
            TableFileError, f"{path} is not valid text: {whole.value}")

    @pytest.mark.parametrize("labels", ["abcd", {"a": 1, "b": 2, "c": 3, "d": 4}, 4, True])
    def test_labels_must_be_a_list_or_null(self, tmp_path, labels):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"labels": labels, "table": cyclic_table(4)}))
        with pytest.raises(TableFileError, match="'labels' must be a list or null"):
            load_cayley_table(path)

    def test_null_labels_are_the_indices(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"labels": None, "table": cyclic_table(3)}))
        assert load_cayley_table(path).labels == ("0", "1", "2")

    def test_repeated_table_key_is_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"table": [[1]], "table": [[0]]}')
        with pytest.raises(TableFileError, match="'table' key appears more than once"):
            load_cayley_table(path)

    def test_reader_hands_validation_a_sized_sequence(self, tmp_path, monkeypatch):
        seen = []
        validate = groups.validate_cayley_table
        monkeypatch.setattr(groups, "validate_cayley_table",
                            lambda table, *a, **k: seen.append(len(table)) or validate(table, *a, **k))
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"table": cyclic_table(7)}))
        assert load_cayley_table(path).order == 7
        assert seen == [7]
