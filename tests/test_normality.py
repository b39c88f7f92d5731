import pytest

from nclosed import closedness, normality, subsets
from nclosed.closedness import analyze_subgroup, is_n_closed, least_exponent
from nclosed.errors import NotProperSubgroup
from nclosed.groups import Element
from nclosed.normality import normal_iff_existential, normal_iff_index_plus_one
from nclosed.parsing import parse_group_spec
from nclosed.subsets import (
    GSubset,
    Subgroup,
    is_normal_classic,
    left_cosets,
    proper_subgroups,
    translate_mask_left,
)


class TestIndexPlusOne:
    def test_a3_in_s3(self, s3):
        a3 = Subgroup.from_labels(s3, ["e", "(1 2 3)", "(1 3 2)"])
        v = normal_iff_index_plus_one(analyze_subgroup(a3))
        assert v.index == 2
        assert v.verdict_classic and v.verdict_via_closedness and v.agreement
        # product of three odd permutations is odd, so the coset is 3-closed
        coset = GSubset(s3, translate_mask_left(s3, s3.index_of_label("(1 2)"), a3.mask))
        assert is_n_closed(coset, 3)

    def test_transposition_subgroup_in_s3(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        v = normal_iff_index_plus_one(analyze_subgroup(h))
        assert v.index == 3
        assert not v.verdict_classic
        assert not v.verdict_via_closedness
        assert v.agreement
        coset = GSubset(s3, translate_mask_left(s3, s3.index_of_label("(1 3)"), h.mask))
        assert not is_n_closed(coset, 4)

    def test_i_subgroup_of_q8(self, q8):
        h = Subgroup.from_labels(q8, ["1", "i", "-1", "-i"])
        v = normal_iff_index_plus_one(analyze_subgroup(h))
        assert v.index == 2
        assert v.verdict_classic and v.verdict_via_closedness and v.agreement
        for check in v.per_coset:
            assert check.closedness_checked == 3 and check.passed

    def test_whole_group_rejected(self, s3):
        with pytest.raises(NotProperSubgroup):
            analyze_subgroup(Subgroup.from_indices(s3, range(6)))

    def test_agreement_over_small_corpus(self, small_corpus):
        for g in small_corpus:
            for h in proper_subgroups(g):
                v = normal_iff_index_plus_one(analyze_subgroup(h))
                assert v.agreement, (g.name, h.carrier.labels())
                assert not v.violations


class TestExistential:
    def test_z12_subgroup(self, z12):
        h = Subgroup.from_indices(z12, [0, 4, 8])
        v = normal_iff_existential(analyze_subgroup(h))
        assert v.verdict_classic and v.verdict_via_closedness and v.agreement
        for check in v.per_coset:
            t = least_exponent(Element(z12, check.rep), h)
            assert check.closedness_checked == t + 1

    def test_s3_transposition_subgroup_has_no_witness(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        v = normal_iff_existential(analyze_subgroup(h))
        assert not v.verdict_via_closedness and v.agreement
        failing = [c for c in v.per_coset if not c.passed]
        assert failing and all(c.closedness_checked is None for c in failing)

    def test_a3_witness_is_three(self, s3):
        a3 = Subgroup.from_labels(s3, ["e", "(1 2 3)", "(1 3 2)"])
        v = normal_iff_existential(analyze_subgroup(a3))
        assert v.agreement and v.verdict_via_closedness
        assert [c.closedness_checked for c in v.per_coset] == [3]

    def test_agreement_over_small_corpus(self, small_corpus):
        for g in small_corpus:
            for h in proper_subgroups(g):
                v = normal_iff_existential(analyze_subgroup(h))
                assert v.agreement, (g.name, h.carrier.labels())
                for check in v.per_coset:
                    if check.closedness_checked is not None:
                        t = least_exponent(Element(g, check.rep), h)
                        assert (check.closedness_checked - 1) % t == 0


class TestKnownNegatives:
    @pytest.mark.parametrize("spec", ["D4", "D5"])
    def test_reflection_subgroups_not_normal(self, spec):
        g = parse_group_spec(spec)
        reflections = [i for i in range(g.order) if g.labels[i].startswith("s")]
        found_negative = False
        for r in reflections:
            h = Subgroup.from_indices(g, [g.identity, r])
            v = normal_iff_index_plus_one(analyze_subgroup(h))
            assert v.agreement
            if not v.verdict_classic:
                found_negative = True
        assert found_negative

    def test_a4_order_three_subgroups_not_normal(self):
        a4 = parse_group_spec("perm(4): (1 2 3), (2 3 4)")
        order3 = [h for h in proper_subgroups(a4) if h.order == 3]
        assert len(order3) == 4
        for h in order3:
            v = normal_iff_index_plus_one(analyze_subgroup(h))
            assert not v.verdict_classic
            assert v.agreement

    def test_forward_direction_power_lands_in_subgroup(self, small_corpus):
        # when H is normal, a^index falls into H for every representative
        for g in small_corpus:
            for h in proper_subgroups(g):
                if not is_normal_classic(h):
                    continue
                n = g.order // h.order
                for rep in left_cosets(h).representatives:
                    if rep in h:
                        continue
                    assert g.pow(rep, n) in h


class TestEngineConfirmation:
    def test_every_coset_confirmed_above_order_64(self, monkeypatch):
        g = parse_group_spec("D35")
        assert g.order > 64
        rotations = Subgroup.from_labels(g, [f"r{i}" for i in range(35)])
        never = closedness.ClosednessProfile(start=2, period=1, closed=())
        monkeypatch.setattr(closedness, "closedness_profile", lambda d: never)
        report = analyze_subgroup(rotations)
        assert normal_iff_index_plus_one(report).violations
        assert normal_iff_existential(report).violations


class TestOneReport:
    def test_verdicts_read_the_report(self, monkeypatch):
        g = parse_group_spec("D4")
        reports = [analyze_subgroup(h) for h in proper_subgroups(g)]
        before = [(normal_iff_index_plus_one(r), normal_iff_existential(r))
                  for r in reports]

        def refuse(*args):
            raise AssertionError("normality recomputed a coset fact")

        # wherever a name is bound, so a `from ... import` is caught as well
        for module in (closedness, subsets, normality):
            for name in ("closedness_profile", "is_n_closed", "least_exponent",
                         "coset_commutes", "left_cosets"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        after = [(normal_iff_index_plus_one(r), normal_iff_existential(r))
                 for r in reports]
        assert after == before
        assert any(not v.verdict_classic for v, _ in after)

    def test_one_report_per_coset_other_than_h(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        report = analyze_subgroup(h)
        partition = left_cosets(h)
        assert report.index == len(partition.cosets) == 3
        assert [c.rep.index for c in report.cosets] == \
            [r for r in partition.representatives if r not in h]
        assert [c.coset for c in report.cosets] == \
            [c for c in partition.cosets if c.mask != h.mask]
        assert all(c.subgroup is h for c in report.cosets)
