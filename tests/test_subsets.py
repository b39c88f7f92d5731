from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclosed.errors import MixedStructures, UnknownLabel
from nclosed.groups import Element, make_named
from nclosed.subsets import (
    GSubset,
    Subgroup,
    all_subgroups,
    closure_mask,
    coset_commutes,
    generated_subgroup,
    index,
    is_normal_classic,
    is_subgroup,
    left_cosets,
    proper_subgroups,
    translate_mask_left,
    translate_mask_right,
)
from nclosed.verify import multiplicative_semigroup


def brute_product(g, a_ids, b_ids):
    return sorted({g.mul(a, b) for a in a_ids for b in b_ids})


class TestProductSet:
    """Product sets as the closedness engine builds them: A*B is the union
    of the left translates x*B over x in A."""

    def test_z4_example(self, z4):
        d = GSubset.from_indices(z4, [1, 3])
        expected = brute_product(z4, [1, 3], [1, 3])
        assert expected == [0, 2]
        square = translate_mask_left(z4, 1, d.mask) | translate_mask_left(z4, 3, d.mask)
        assert GSubset(z4, square).indices() == expected

    def test_s3_singletons_compose(self, s3):
        a, b = s3.index_of_label("(1 2)"), s3.index_of_label("(1 3)")
        assert GSubset(s3, translate_mask_left(s3, a, 1 << b)).labels() == ["(1 3 2)"]
        assert GSubset(s3, translate_mask_right(s3, 1 << a, b)).labels() == ["(1 3 2)"]

    def test_mixed_owners_rejected(self, z4, s3):
        with pytest.raises(MixedStructures):
            coset_commutes(Element(z4, 1), Subgroup.from_indices(s3, [s3.identity]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_translate_is_singleton_product(self, data, small_corpus):
        g = data.draw(st.sampled_from(small_corpus))
        x = data.draw(st.integers(0, g.order - 1))
        a = GSubset(g, data.draw(st.integers(1, (1 << g.order) - 1)))
        assert GSubset(g, translate_mask_left(g, x, a.mask)).indices() == \
            brute_product(g, [x], a.indices())
        assert GSubset(g, translate_mask_right(g, a.mask, x)).indices() == \
            brute_product(g, a.indices(), [x])


class TestTranslate:
    def test_z4_left(self, z4):
        h = GSubset.from_indices(z4, [0, 2])
        assert GSubset(z4, translate_mask_left(z4, 1, h.mask)).indices() == [1, 3]

    def test_identity_translate_is_noop(self, s3):
        a = GSubset.from_indices(s3, [0, 2, 4])
        assert translate_mask_left(s3, s3.identity, a.mask) == a.mask
        assert translate_mask_right(s3, a.mask, s3.identity) == a.mask

    def test_s3_coset_fixture(self, s3):
        # the canonical coset: (1 3) * {e, (1 2)} = {(1 3), (1 2 3)}
        h = GSubset.from_labels(s3, ["e", "(1 2)"])
        a = s3.index_of_label("(1 3)")
        assert sorted(GSubset(s3, translate_mask_left(s3, a, h.mask)).labels()) == \
            ["(1 2 3)", "(1 3)"]


class TestIsSubgroup:
    def test_even_residues(self, z4):
        assert is_subgroup(GSubset.from_indices(z4, [0, 2]))

    def test_odd_residues_are_not(self, z4):
        assert not is_subgroup(GSubset.from_indices(z4, [1, 3]))

    def test_s3_transposition_subgroup(self, s3):
        assert is_subgroup(GSubset.from_labels(s3, ["e", "(1 2)"]))

    def test_empty_and_no_identity(self, z4):
        assert not is_subgroup(GSubset(z4, 0))
        assert not is_subgroup(GSubset.from_indices(z4, [2]))


class TestGeneratedSubgroup:
    def test_involution(self, s3):
        h = generated_subgroup([Element(s3, s3.index_of_label("(1 2)"))])
        assert h.order == 2

    def test_two_generators_give_whole_s3(self, s3):
        gens = [Element(s3, s3.index_of_label("(1 2)")),
                Element(s3, s3.index_of_label("(1 2 3)"))]
        assert generated_subgroup(gens).order == 6

    def test_identity_generates_trivial(self, z9):
        h = generated_subgroup([Element(z9, 0)])
        assert h.carrier.indices() == [0]

    def test_minimality_small_orders(self, small_corpus):
        # the closure passes is_subgroup, and nothing strictly between the
        # generators and it does: scan all proper subsets containing them
        for g in small_corpus:
            if g.order > 12:
                continue
            for gen in range(1, g.order):
                h = generated_subgroup([Element(g, gen)])
                assert is_subgroup(h.carrier)
                ids = h.carrier.indices()
                if h.order > 12:
                    continue
                others = [i for i in ids if i not in (gen,)]
                for r in range(len(others)):
                    for keep in combinations(others, r):
                        subset = set(keep) | {gen}
                        if len(subset) == len(ids):
                            continue
                        assert not is_subgroup(GSubset.from_indices(g, subset))

    def test_two_generators_close_to_a_subgroup(self, small_corpus):
        for g in small_corpus:
            for x, y in combinations(range(g.order), 2):
                h = generated_subgroup([Element(g, x), Element(g, y)])
                assert is_subgroup(h.carrier) and x in h and y in h


class TestCosets:
    def test_s3_three_cosets(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        part = left_cosets(h)
        assert len(part.cosets) == 3
        assert index(h) == 3

    def test_whole_group_single_coset(self, s3):
        h = Subgroup.from_indices(s3, range(6))
        assert len(left_cosets(h).cosets) == 1

    def test_z9_partition(self, z9):
        h = Subgroup.from_indices(z9, [0, 3, 6])
        part = left_cosets(h)
        assert [c.indices() for c in part.cosets] == \
            [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
        assert part.representatives == (0, 1, 2)

    def test_partition_properties_over_corpus(self, small_corpus):
        for g in small_corpus:
            for h in proper_subgroups(g):
                part = left_cosets(h)
                union = 0
                for coset in part.cosets:
                    assert coset.size == h.order
                    assert union & coset.mask == 0
                    union |= coset.mask
                assert union == (1 << g.order) - 1
                assert len(part.cosets) * h.order == g.order


class TestNormality:
    def test_a3_normal_in_s3(self, s3):
        assert is_normal_classic(Subgroup.from_labels(s3, ["e", "(1 2 3)", "(1 3 2)"]))

    def test_transposition_subgroup_not_normal(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        assert not is_normal_classic(h)
        # oracle: conjugating (1 2) by (1 3) leaves H
        g13 = s3.index_of_label("(1 3)")
        g12 = s3.index_of_label("(1 2)")
        conj = s3.mul(s3.mul(g13, g12), s3.inv(g13))
        assert s3.labels[conj] == "(2 3)"
        assert conj not in h

    def test_abelian_subgroups_always_normal(self, z12):
        for h in all_subgroups(z12):
            assert is_normal_classic(h)

    def test_normal_iff_all_reps_commute(self, small_corpus):
        for g in small_corpus:
            for h in proper_subgroups(g):
                part = left_cosets(h)
                all_commute = all(
                    coset_commutes(Element(g, rep), h)
                    for rep in part.representatives)
                assert is_normal_classic(h) == all_commute


class TestCosetCommutes:
    def test_s3_fixture_does_not_commute(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        assert not coset_commutes(Element(s3, s3.index_of_label("(1 3)")), h)

    def test_normal_subgroup_always_commutes(self, s3):
        a3 = Subgroup.from_labels(s3, ["e", "(1 2 3)", "(1 3 2)"])
        for i in range(6):
            assert coset_commutes(Element(s3, i), a3)

    def test_abelian_always_commutes(self, z9):
        h = Subgroup.from_indices(z9, [0, 3, 6])
        assert coset_commutes(Element(z9, 1), h)


class TestSubgroupEnumeration:
    @pytest.mark.parametrize("spec,count", [
        ("S3", 6), ("Q8", 6), ("Z12", 6), ("D4", 10),
        ("perm(4): (1 2 3), (2 3 4)", 10),   # alternating group on 4 points
        ("S4", 30),
        ("perm(5): (1 2 3), (1 2 3 4 5)", 59),   # alternating group on 5 points
        ("D24", 68), ("D30", 80), ("Z2xS4", 98), ("S5", 156),
        ("Z2xZ2xZ2xZ2", 67),
    ])
    def test_known_subgroup_counts(self, spec, count):
        from nclosed.parsing import parse_group_spec
        g = parse_group_spec(spec)
        subs = all_subgroups(g)
        assert len(subs) == count
        for s in subs:
            assert is_subgroup(s.carrier)

    def test_elementary_abelian_needs_three_generators(self):
        # Z2^3 has subgroups that two generators cannot reach; the BFS
        # extension search must still find all of them
        from nclosed.groups import direct_product, make_named
        z2 = make_named("cyclic", 2)
        g = direct_product(direct_product(z2, z2), z2)
        subs = all_subgroups(g)
        # 1 trivial + 7 of order 2 + 7 of order 4 + 1 whole = 16
        assert len(subs) == 16

    def test_equals_every_subset_that_is_a_subgroup(self, small_corpus):
        for g in small_corpus:
            masks = sorted(range(1, 1 << g.order), key=lambda m: (m.bit_count(), m))
            expected = [m for m in masks if is_subgroup(GSubset(g, m))]
            assert [s.mask for s in all_subgroups(g)] == expected, g.name


def pairwise_closure(struct, seeds):
    """Fixpoint of adding all pairwise products, with Python sets."""
    reached = set(seeds)
    while True:
        more = {struct.mul(x, y) for x in reached for y in reached} - reached
        if not more:
            return reached
        reached |= more


class TestClosureMask:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_product_fixpoint(self, data, small_corpus):
        structs = small_corpus + [multiplicative_semigroup(k) for k in range(1, 11)]
        g = data.draw(st.sampled_from(structs))
        seeds = data.draw(st.lists(st.integers(0, g.order - 1), max_size=5))
        expected = sum(1 << x for x in pairwise_closure(g, seeds))
        assert closure_mask(g, seeds) == expected


class TestLabelResolution:
    def test_unknown_label(self, z4):
        with pytest.raises(UnknownLabel):
            GSubset.from_labels(z4, ["5"])
