import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclosed import closedness
from nclosed.closedness import (
    ORACLE_BUDGET,
    ClosednessProfile,
    analyze_coset,
    analyze_subgroup,
    closedness_profile,
    closedness_spectrum,
    extract_subgroup,
    is_n_closed,
    is_n_closed_oracle,
    least_closed_scan,
    least_exponent,
    least_power_exponent,
    n_closed_witness,
    make_certificate,
    power_coset_closedness,
)
from nclosed.errors import (
    AlreadyClosed,
    BudgetExceeded,
    EmptySubset,
    NonCommutingCoset,
    NotNClosed,
    RepInSubgroup,
)
from nclosed.groups import Element
from nclosed.parsing import parse_group_spec
from nclosed.subsets import (
    GSubset,
    generated_subgroup,
    Subgroup,
    is_subgroup,
    proper_subgroups,
    translate_mask_left,
)
from nclosed.verify import (
    SEMIGROUP_SCAN_MAX,
    multiplicative_semigroup,
    sweep_semigroup_shifts,
)


def tuple_oracle(struct, ids, n):
    """Reference n-closedness: literally fold every ordered tuple."""
    members = set(ids)
    for tup in product(ids, repeat=n):
        p = tup[0]
        for q in tup[1:]:
            p = struct.mul(p, q)
        if p not in members:
            return False
    return True


def tuple_products(struct, ids, k):
    """The product of every length-k tuple from ids, folded one at a time."""
    out = set()
    for tup in product(ids, repeat=k):
        p = tup[0]
        for q in tup[1:]:
            p = struct.mul(p, q)
        out.add(p)
    return out


class TestEngine:
    def test_z4_odd_residues(self, z4):
        d = GSubset.from_indices(z4, [1, 3])
        assert tuple_oracle(z4, [1, 3], 3) is True
        assert is_n_closed(d, 3) is True
        assert is_n_closed(d, 2) is False

    def test_s3_coset_not_three_closed(self, s3):
        d = GSubset.from_labels(s3, ["(1 3)", "(1 2 3)"])
        assert tuple_oracle(s3, d.indices(), 3) is False
        assert is_n_closed(d, 3) is False
        witness = n_closed_witness(d, 3)
        p = witness[0]
        for q in witness[1:]:
            p = s3.mul(p, q)
        assert all(i in d for i in witness)
        assert p not in d

    def test_empty_subset_rejected(self, z4):
        with pytest.raises(EmptySubset):
            is_n_closed(GSubset(z4, 0), 3)

    def test_n_below_two_rejected(self, z4):
        with pytest.raises(ValueError):
            is_n_closed(GSubset.from_indices(z4, [0]), 1)

    def test_whole_group_closed_for_all_n(self, s3):
        g = GSubset(s3, (1 << s3.order) - 1)
        for n in range(2, 8):
            assert is_n_closed(g, n)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_two_closed_implies_n_closed(self, data, small_corpus):
        from nclosed.subsets import all_subgroups
        g = data.draw(st.sampled_from(small_corpus))
        h = data.draw(st.sampled_from(all_subgroups(g)))
        n = data.draw(st.integers(2, 8))
        assert is_n_closed(h.carrier, n)

    def test_two_closed_sub_semigroups_are_n_closed(self):
        m6 = multiplicative_semigroup(6)
        for mask in range(1, 1 << 6):
            d = GSubset(m6, mask)
            if not is_n_closed(d, 2):
                continue
            for n in range(3, 9):
                assert is_n_closed(d, n), (d.labels(), n)


def reference_witnesses(d, n_max):
    """n_closed_witness(d, n) for every n in [2, n_max] by the direct
    method: build all n - 1 product layers and walk back from the least
    escaping product of the last. The layers do not depend on n, so one
    pass serves every n."""
    struct = d.owner
    dmask = d.mask
    dids = d.indices()
    layers = [{i: None for i in dids}]
    witnesses = {}
    for n in range(2, n_max + 1):
        new = {}
        for p in layers[-1]:
            row = struct.row(p)
            for q in dids:
                r = row[q]
                if r not in new:
                    new[r] = (p, q)
        layers.append(new)
        bad = next((r for r in sorted(layers[-1]) if not dmask >> r & 1), None)
        if bad is None:
            witnesses[n] = None
            continue
        path = []
        cur = bad
        for depth in range(n - 1, 0, -1):
            prev, last = layers[depth][cur]
            path.append(last)
            cur = prev
        path.append(cur)
        path.reverse()
        witnesses[n] = path
    return witnesses


class TestWitness:
    @pytest.mark.parametrize("spec", ["Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3",
                                      "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8",
                                      "Z9", "Z3xZ3"])
    def test_matches_direct_layers_on_every_subset(self, spec):
        g = parse_group_spec(spec)
        for mask in range(1, 1 << g.order):
            d = GSubset(g, mask)
            ref = reference_witnesses(d, 40)
            for n in range(2, 41):
                assert n_closed_witness(d, n) == ref[n], (spec, d.labels(), n)

    @pytest.mark.parametrize("spec, ns", [("S4", (41, 64, 97)), ("D12", (41, 64, 97)),
                                          ("D30", (41, 75)), ("S5", (41, 50))])
    def test_matches_direct_layers_at_larger_n(self, spec, ns):
        g = parse_group_spec(spec)
        rng = random.Random(spec)
        masks = []
        for _ in range(3):
            masks.append(rng.randrange(1, 1 << g.order))
            # a coset of a cyclic subgroup, n-closed for some n when it commutes
            h = generated_subgroup([Element(g, rng.randrange(g.order))])
            masks.append(translate_mask_left(g, rng.randrange(g.order), h.mask))
        for mask in masks:
            d = GSubset(g, mask)
            ref = reference_witnesses(d, max(ns))
            for n in ns:
                assert n_closed_witness(d, n) == ref[n], (spec, d.labels(), n)

    def test_deep_layers_read_through_the_cycle(self, z4):
        # {1} in Z4 is n-closed exactly when n = 1 mod 4
        d = GSubset.from_indices(z4, [1])
        assert n_closed_witness(d, 100_001) is None
        assert n_closed_witness(d, 100_002) == [1] * 100_002


class TestOracle:
    def test_z9_progression(self, z9):
        d = GSubset.from_indices(z9, [1, 4, 7])
        assert is_n_closed_oracle(d, 4) is True
        assert is_n_closed_oracle(d, 3) is False

    def test_singleton_order_plus_one(self, s3):
        a = s3.index_of_label("(1 2 3)")
        d = GSubset.from_indices(s3, [a])
        assert is_n_closed_oracle(d, 4) is True  # |a| = 3, so 4 = 3 + 1 works
        assert is_n_closed_oracle(d, 3) is False

    def test_budget(self, z12):
        d = GSubset.from_indices(z12, range(12))
        with pytest.raises(BudgetExceeded):
            is_n_closed_oracle(d, 6)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_tuple_by_tuple_reference(self, data, small_corpus):
        # groups and semigroups, |D| = 1 included, at the budget's edge too
        struct = data.draw(st.sampled_from(
            small_corpus + [multiplicative_semigroup(k) for k in (4, 6, 8, 9)]))
        ids = sorted(data.draw(st.sets(st.integers(0, struct.order - 1),
                                       min_size=1, max_size=6)))
        n = data.draw(st.integers(2, 5))
        tuples = len(ids) ** n
        budget = data.draw(st.sampled_from((tuples, tuples - 1, ORACLE_BUDGET)))
        d = GSubset.from_indices(struct, ids)
        if tuples > budget:
            with pytest.raises(BudgetExceeded, match=f"{len(ids)}\\^{n} exceeds budget {budget}"):
                is_n_closed_oracle(d, n, budget)
        else:
            assert is_n_closed_oracle(d, n, budget) is tuple_oracle(struct, ids, n)

    @pytest.mark.parametrize("spec", ["S3", "Z2xZ2", "mulZ4", "mulZ6"])
    def test_matches_reference_on_every_subset(self, spec):
        struct = (multiplicative_semigroup(int(spec[4:])) if spec.startswith("mul")
                  else parse_group_spec(spec))
        for mask in range(1, 1 << struct.order):
            d = GSubset(struct, mask)
            for n in range(2, 6):
                assert is_n_closed_oracle(d, n) is tuple_oracle(struct, d.indices(), n)

    def test_errors(self, z4):
        with pytest.raises(ValueError):
            is_n_closed_oracle(GSubset.from_indices(z4, [1]), 1)
        with pytest.raises(EmptySubset):
            is_n_closed_oracle(GSubset(z4, 0), 3)

    def test_calls_no_engine_code(self, z12, monkeypatch):
        def engine(*args):
            raise AssertionError("the oracle reached the engine")

        for name in ("closedness_profile", "translate_mask_left", "translate_mask_right",
                     "is_n_closed", "analyze_coset", "analyze_subgroup", "iter_bits"):
            monkeypatch.setattr(closedness, name, engine)
        d = GSubset.from_indices(z12, [0, 4, 8])
        assert is_n_closed_oracle(d, 5) is True
        assert is_n_closed_oracle(GSubset.from_indices(z12, [1, 5]), 3) is False

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_engine_agrees_with_oracle(self, data, small_corpus):
        g = data.draw(st.sampled_from(small_corpus))
        mask = data.draw(st.integers(1, (1 << g.order) - 1))
        d = GSubset(g, mask)
        n = data.draw(st.integers(2, 5))
        if d.size ** n > 50_000:
            n = 2
        assert is_n_closed(d, n) == is_n_closed_oracle(d, n)


def set_power_verdicts(struct, ids, n_max):
    """{n: D^n <= D} for n in [2, n_max], powers built as Python sets."""
    d = set(ids)
    p = set(ids)
    verdicts = {}
    for n in range(2, n_max + 1):
        p = {struct.mul(x, y) for x in p for y in d}
        verdicts[n] = p <= d
    return verdicts


class TestClosednessProfile:
    def test_z9_progression_is_periodic(self, z9):
        profile = closedness_profile(GSubset.from_indices(z9, [1, 4, 7]))
        assert profile == ClosednessProfile(start=2, period=3, closed=(4,))
        assert [n for n in range(2, 15) if profile.is_closed(n)] == [4, 7, 10, 13]
        assert profile.least == 4

    def test_growing_group_power_stops_never_closed(self, s3):
        d = GSubset.from_labels(s3, ["(1 3)", "(1 2 3)"])
        profile = closedness_profile(d)
        assert profile.least is None
        assert not any(profile.is_closed(n) for n in range(2, 40))

    def test_n_below_two_rejected(self, z4):
        with pytest.raises(ValueError):
            closedness_profile(GSubset.from_indices(z4, [0])).is_closed(1)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_profile_matches_powers_oracle_and_scan(self, data, small_corpus):
        structs = small_corpus + [multiplicative_semigroup(k) for k in (4, 6, 8, 10)]
        g = data.draw(st.sampled_from(structs))
        d = GSubset(g, data.draw(st.integers(1, (1 << g.order) - 1)))
        profile = closedness_profile(d)
        n_max = profile.start + profile.period + 3
        verdicts = set_power_verdicts(g, d.indices(), n_max)
        for n in range(2, n_max + 1):
            assert profile.is_closed(n) == verdicts[n], n
            if d.size ** n <= 20_000:
                assert profile.is_closed(n) == is_n_closed_oracle(d, n), n
        assert profile.least == min((n for n, ok in verdicts.items() if ok), default=None)
        # least_closed_scan reads the profile, so judge it by the set powers
        bound = data.draw(st.integers(2, n_max), label="bound")
        assert least_closed_scan(d, bound) == min(
            (n for n in range(2, bound + 1) if verdicts[n]), default=None)


class TestLeastClosedScan:
    def test_z4(self, z4):
        assert least_closed_scan(GSubset.from_indices(z4, [1, 3]), 10) == 3

    def test_s3_coset_absent(self, s3):
        d = GSubset.from_labels(s3, ["(1 3)", "(1 2 3)"])
        assert least_closed_scan(d, 12) is None

    def test_subgroup_scans_to_two(self, small_corpus):
        from nclosed.subsets import all_subgroups
        for g in small_corpus:
            for h in all_subgroups(g):
                assert least_closed_scan(h.carrier, 4) == 2

    def test_default_bound_is_twice_order_plus_one(self, z4):
        # {0,1} is never m-closed; the scan must terminate at the default bound
        assert least_closed_scan(GSubset.from_indices(z4, [0, 1])) is None


class TestAnalyzeCoset:
    def test_z9(self, z9):
        h = Subgroup.from_indices(z9, [0, 3, 6])
        rep = analyze_coset(Element(z9, 1), h)
        assert rep.commutes
        assert rep.least_exponent == 3
        assert rep.least_closedness == 4
        assert least_exponent(Element(z9, 1), h) == 3
        assert rep.violations == ()

    def test_z4(self, z4):
        h = Subgroup.from_indices(z4, [0, 2])
        rep = analyze_coset(Element(z4, 1), h)
        assert (rep.least_exponent, rep.least_closedness) == (2, 3)

    def test_s3_fixture_never_closed(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        a = Element(s3, s3.index_of_label("(1 3)"))
        rep = analyze_coset(a, h)
        assert not rep.commutes
        assert rep.least_closedness is None
        assert rep.least_exponent == least_exponent(a, h) == 2
        # powers still behave: a^6 lands in H, a^7 back in L, for both
        # elements of the coset
        coset = GSubset(s3, translate_mask_left(s3, a.index, h.mask))
        for b in coset.indices():
            assert s3.pow(b, 6) in h
            assert s3.pow(b, 7) in coset

    def test_rep_inside_subgroup_rejected(self, z9):
        h = Subgroup.from_indices(z9, [0, 3, 6])
        with pytest.raises(RepInSubgroup):
            analyze_coset(Element(z9, 3), h)

    def test_least_exponent_at_least_two(self, small_corpus):
        from nclosed.subsets import left_cosets, proper_subgroups
        for g in small_corpus:
            for h in proper_subgroups(g):
                for rep in left_cosets(h).representatives:
                    if rep in h:
                        continue
                    r = analyze_coset(Element(g, rep), h)
                    assert r.least_exponent >= 2
                    assert r.coset == GSubset(g, translate_mask_left(g, rep, h.mask))
                    assert r.profile == closedness_profile(r.coset)
                    if r.commutes:
                        assert r.least_closedness == r.least_exponent + 1 >= 3

    def test_stray_element_in_the_coset_fires_coset_translate(
            self, small_corpus, monkeypatch):
        # both translates add the smallest element missing from their
        # result, so a commuting L = a*H = H*a gains one stray element b
        # with b*H != a*H; the membership check must name exactly that b
        from nclosed import closedness
        from nclosed.subsets import left_cosets, proper_subgroups

        def stray(mask):
            return mask | (mask + 1)

        real_left = closedness.translate_mask_left
        real_right = closedness.translate_mask_right
        fired = 0
        for g in small_corpus:
            for h in proper_subgroups(g):
                hset = set(h.carrier.indices())
                for a in left_cosets(h).representatives:
                    if a in h:
                        continue
                    left = {g.mul(a, x) for x in hset}
                    if left != {g.mul(x, a) for x in hset}:
                        continue
                    monkeypatch.setattr(closedness, "translate_mask_left",
                                        lambda s, x, m: stray(real_left(s, x, m)))
                    monkeypatch.setattr(closedness, "translate_mask_right",
                                        lambda s, m, x: stray(real_right(s, m, x)))
                    report = analyze_coset(Element(g, a), h)
                    monkeypatch.undo()
                    certs = [c for c in report.violations
                             if c["claim"] == "coset-translate"]
                    b = min(set(range(g.order)) - left)
                    assert [c["witness"] for c in certs] == [g.labels[b]]
                    # replayed with plain sets: b is in the mutated coset,
                    # yet it translates H away from a*H on some side
                    assert b in report.coset
                    assert ({g.mul(b, x) for x in hset} != left
                            or {g.mul(x, b) for x in hset} != left)
                    fired += 1
        assert fired > 0

    def test_coset_checks_read_the_report(self, z9, monkeypatch):
        from nclosed import closedness
        from nclosed.verify import cor22_coset_checks
        h = Subgroup.from_indices(z9, [0, 3, 6])
        report = analyze_coset(Element(z9, 1), h)
        profiled = []

        def profiling(d):
            profiled.append(d.mask)
            return closedness_profile(d)

        monkeypatch.setattr(closedness, "least_exponent", None)  # a call would raise
        monkeypatch.setattr(closedness, "closedness_profile", profiling)
        closedness_spectrum(report)
        least_power_exponent(report, 2)
        cor22_coset_checks(report)
        assert profiled == []
        coset, *_ = power_coset_closedness(report, 2)
        assert profiled == [coset.mask]  # the power coset a^2*H only, never a*H


class TestSpectrum:
    def test_z9_spectrum(self, z9):
        h = Subgroup.from_indices(z9, [0, 3, 6])
        desc = closedness_spectrum(analyze_coset(Element(z9, 1), h), verify_up_to=20)
        hits = [m for m in range(2, 21) if desc.contains(m)]
        assert hits == [4, 7, 10, 13, 16, 19]
        assert desc.violations == ()
        coset = GSubset(z9, translate_mask_left(z9, 1, h.mask))
        assert hits == [m for m in range(2, 21) if is_n_closed(coset, m)]

    def test_z4_spectrum_odd(self, z4):
        h = Subgroup.from_indices(z4, [0, 2])
        desc = closedness_spectrum(analyze_coset(Element(z4, 1), h), verify_up_to=15)
        assert [m for m in range(2, 16) if desc.contains(m)] == \
            [3, 5, 7, 9, 11, 13, 15]

    def test_non_commuting_rejected(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        with pytest.raises(NonCommutingCoset):
            closedness_spectrum(analyze_coset(Element(s3, s3.index_of_label("(1 3)")), h))

    def test_bound_below_two_rejected(self, z4):
        report = analyze_coset(Element(z4, 1), Subgroup.from_indices(z4, [0, 2]))
        for bound in (1, -3):
            with pytest.raises(ValueError):
                closedness_spectrum(report, verify_up_to=bound)
        assert closedness_spectrum(report, verify_up_to=2).verified_up_to == 2


class TestLeastPowerExponent:
    def test_z12_cases(self, z12):
        h = Subgroup.from_indices(z12, [0, 6])
        a = Element(z12, 1)
        assert least_exponent(a, h) == 6
        r = analyze_coset(a, h)
        assert least_power_exponent(r, 4) == (3, ())
        assert least_power_exponent(r, 6) == (1, ())
        assert least_power_exponent(r, 5) == (6, ())

    def test_matches_direct_search_everywhere(self, small_corpus):
        from nclosed.subsets import left_cosets, proper_subgroups
        for g in small_corpus[:6]:
            for h in proper_subgroups(g):
                for rep in left_cosets(h).representatives:
                    if rep in h:
                        continue
                    a = Element(g, rep)
                    t = least_exponent(a, h)
                    r = analyze_coset(a, h)
                    for m in range(1, 2 * t + 1):
                        c, violations = least_power_exponent(r, m)
                        assert violations == ()
                        # independent oracle: walk powers of a^m directly
                        base = g.pow(rep, m)
                        x, direct = base, 1
                        while x not in h:
                            x = g.mul(x, base)
                            direct += 1
                        assert c == direct == t // gcd(m, t)


class TestPowerCoset:
    def test_z9_m2(self, z9):
        h = Subgroup.from_indices(z9, [0, 3, 6])
        coset, k, violations = power_coset_closedness(analyze_coset(Element(z9, 1), h), 2)
        assert coset.indices() == [2, 5, 8]
        assert k == 4
        assert violations == ()

    def test_z9_m3_collapses_to_subgroup(self, z9):
        h = Subgroup.from_indices(z9, [0, 3, 6])
        coset, k, violations = power_coset_closedness(analyze_coset(Element(z9, 1), h), 3)
        assert coset.indices() == [0, 3, 6]
        assert k == 2
        assert violations == ()

    def test_z12_m2(self, z12):
        h = Subgroup.from_indices(z12, [0, 6])
        coset, k, violations = power_coset_closedness(analyze_coset(Element(z12, 1), h), 2)
        assert coset.indices() == [2, 8]
        assert k == 4
        assert violations == ()

    @pytest.mark.parametrize("spec", ["S4", "D6", "Z12", "Q8"])
    def test_report_profiles_give_the_same_result(self, spec, monkeypatch):
        g = parse_group_spec(spec)
        real = closedness.closedness_profile
        for h in proper_subgroups(g):
            report = analyze_subgroup(h)
            cases = [(r, m) for r in report.cosets if r.commutes
                     for m in range(1, 2 * r.least_exponent + 3)]
            computed = [power_coset_closedness(r, m) for r, m in cases]
            profiles = {c.coset.mask: c.profile for c in report.cosets}
            profiled = []  # the subsets profiled while the report's are read
            monkeypatch.setattr(closedness, "closedness_profile",
                                lambda d: profiled.append(d.mask) or real(d))
            assert [power_coset_closedness(r, m, profiles) for r, m in cases] == computed
            monkeypatch.undo()
            # a^m*H is H or a coset in the report: only H is ever profiled, once
            assert profiled in ([], [h.mask])

    def test_non_commuting_rejected(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        with pytest.raises(NonCommutingCoset):
            power_coset_closedness(
                analyze_coset(Element(s3, s3.index_of_label("(1 3)")), h), 2)


class TestExtraction:
    def test_z4(self, z4):
        d = GSubset.from_indices(z4, [1, 3])
        ext = extract_subgroup(d, 3)
        assert ext.subgroup.carrier.indices() == [0, 2]
        assert ext.coset_rep.index == 1
        assert translate_mask_left(z4, ext.coset_rep.index, ext.subgroup.mask) == d.mask
        assert ext.violations == ()

    def test_z9(self, z9):
        d = GSubset.from_indices(z9, [1, 4, 7])
        ext = extract_subgroup(d, 4)
        assert ext.subgroup.carrier.indices() == [0, 3, 6]
        assert translate_mask_left(z9, ext.coset_rep.index, ext.subgroup.mask) == d.mask

    def test_singleton_involution(self, s3):
        d = GSubset.from_labels(s3, ["(1 2)"])
        ext = extract_subgroup(d, 3)
        assert ext.subgroup.carrier.indices() == [s3.identity]

    def test_not_n_closed_rejected(self, z4):
        with pytest.raises(NotNClosed):
            extract_subgroup(GSubset.from_indices(z4, [0, 1]), 3)

    def test_subgroup_input_rejected(self, z4):
        with pytest.raises(AlreadyClosed):
            extract_subgroup(GSubset.from_indices(z4, [0, 2]), 3)

    def test_empty_rejected(self, z4):
        with pytest.raises(EmptySubset):
            extract_subgroup(GSubset(z4, 0), 3)

    def test_extraction_invariance_over_cosets(self, small_corpus):
        # construct known n-closed sets as commuting cosets, then extract
        from nclosed.subsets import left_cosets, proper_subgroups
        for g in small_corpus:
            for h in proper_subgroups(g):
                for rep in left_cosets(h).representatives:
                    if rep in h:
                        continue
                    a = Element(g, rep)
                    r = analyze_coset(a, h)
                    if not r.commutes:
                        continue
                    coset = GSubset(g, translate_mask_left(g, rep, h.mask))
                    ext = extract_subgroup(coset, r.least_closedness)
                    assert ext.violations == ()
                    assert ext.subgroup.carrier.mask == h.mask
                    assert is_subgroup(ext.subgroup.carrier)


def set_products(struct, ids, k):
    """The products of k factors from ids, one factor at a time on sets."""
    out = set(ids)
    for _ in range(k - 1):
        out = {struct.mul(p, q) for p in out for q in ids}
    return out


def shift_sets(d, n):
    """Each p in D^(n-2) mapped to its shift set p*D."""
    struct = d.owner
    return {p: GSubset(struct, translate_mask_left(struct, p, d.mask))
            for p in tuple_products(struct, d.indices(), n - 2)}


class TestSemigroupShift:
    def test_mult_z6_fixture(self):
        m6 = multiplicative_semigroup(6)
        d = GSubset.from_labels(m6, ["3", "5"])
        assert is_n_closed(d, 3) and not is_n_closed(d, 2)
        shifts = shift_sets(d, 3)
        assert sorted(shifts) == [3, 5]
        assert shifts[3].labels() == ["3"] and is_n_closed(shifts[3], 2)
        assert shifts[5].labels() == ["1", "3"] and is_n_closed(shifts[5], 2)

    def test_group_case_matches_extraction(self, z4):
        d = GSubset.from_indices(z4, [1, 3])
        shifts = shift_sets(d, 3)
        assert sorted(shifts) == [1, 3]
        for shifted in shifts.values():
            assert shifted.indices() == [0, 2] and is_n_closed(shifted, 2)

    @pytest.mark.parametrize("k", [4, 6, 8, 9])
    def test_same_mapping_as_one_decision_per_prefix(self, k):
        """The C2.1 sweep's (checked, violations) against one plain-set
        decision per prefix product p of every n-closed D."""
        struct = multiplicative_semigroup(k)
        checked, violations = 0, []
        for mask in range(1, 1 << k):
            ids = GSubset(struct, mask).indices()
            least = next((n for n in range(2, SEMIGROUP_SCAN_MAX + 1)
                          if set_products(struct, ids, n) <= set(ids)), None)
            if least is None:
                continue
            n = max(least, 3)
            checked += len(ids) ** (n - 2)
            for p in sorted(set_products(struct, ids, n - 2)):
                shifted = {struct.mul(p, x) for x in ids}
                if not set_products(struct, shifted, 2) <= shifted:
                    violations.append(make_certificate(
                        struct, "C2.1", subset=[struct.labels[x] for x in ids],
                        n=n, witness=struct.labels[p],
                        detail="shift set p*D is not 2-closed"))
        assert sweep_semigroup_shifts(struct) == (checked, violations)


class TestCosetMembershipPattern:
    def test_powers_in_h_iff_t_divides(self, small_corpus):
        from nclosed.subsets import left_cosets, proper_subgroups
        for g in small_corpus[:7]:
            for h in proper_subgroups(g):
                for rep in left_cosets(h).representatives:
                    if rep in h:
                        continue
                    t = least_exponent(Element(g, rep), h)
                    x = g.identity
                    for m in range(1, 2 * g.order + 1):
                        x = g.mul(x, rep)
                        assert (x in h) == (m % t == 0)

    def test_rep_independence_when_commuting(self, small_corpus):
        from nclosed.subsets import coset_commutes, left_cosets, proper_subgroups
        for g in small_corpus:
            for h in proper_subgroups(g):
                for rep in left_cosets(h).representatives:
                    if rep in h or not coset_commutes(Element(g, rep), h):
                        continue
                    t = least_exponent(Element(g, rep), h)
                    coset = GSubset(g, translate_mask_left(g, rep, h.mask))
                    for b in coset.indices():
                        assert least_exponent(Element(g, b), h) == t


class TestRecords:
    """The result records keep their fields, defaults, repr, equality and
    pickling: NamedTuples for the immutable ones, slotted classes for
    Element, Subgroup and ClaimTally."""

    RECORDS = {
        "closedness.ClosednessProfile": "start period closed",
        "closedness.CosetReport":
            "rep subgroup coset commutes least_exponent profile violations=()",
        "closedness.SubgroupReport": "subgroup cosets",
        "closedness.SpectrumDescription": "step offset verified_up_to violations=()",
        "closedness.SubgroupExtraction": "source n subgroup coset_rep violations=()",
        "normality.CosetCheck": "rep closedness_checked passed",
        "normality.NormalityVerdict": "subgroup index verdict_classic "
            "verdict_via_closedness per_coset agreement violations=()",
        "scan.ScanEntry": "mask least_closedness subgroup_mask rep",
        "scan.ScanReport": "group order labels seed entries violations",
        "subsets.CosetPartition": "cosets representatives",
        "verify.VerificationReport": "corpus seed claims cross_checks "
            "cross_violations semigroup_fixtures elapsed_seconds",
        "groups.Element": "owner index",
        "subsets.Subgroup": "carrier",
    }

    @staticmethod
    def record(path):
        import importlib
        module, name = path.split(".")
        return getattr(importlib.import_module(f"nclosed.{module}"), name)

    @pytest.mark.parametrize("path", sorted(RECORDS))
    def test_fields_in_order_with_defaults(self, path):
        import inspect
        cls = self.record(path)
        params = inspect.signature(cls).parameters.values()
        assert " ".join(p.name if p.default is inspect.Parameter.empty
                        else f"{p.name}={p.default!r}"
                        for p in params) == self.RECORDS[path]
        if path in ("groups.Element", "subsets.Subgroup"):
            return
        rec = cls(*(None for _ in params))
        with pytest.raises(AttributeError):
            setattr(rec, cls._fields[0], 1)
        assert rec == tuple(rec)

    def test_claim_tally_defaults_are_fresh(self):
        from nclosed.verify import ClaimTally
        a, b = ClaimTally(), ClaimTally()
        assert a.checked == 0 and a.violations == [] and a == b
        a.violations.append({"claim": "T3.2"})
        assert b.violations == [] and a != b
        assert repr(b) == "ClaimTally(checked=0, violations=[])"

    def test_profile_repr(self):
        assert (repr(ClosednessProfile(2, 1, (2,)))
                == "ClosednessProfile(start=2, period=1, closed=(2,))")

    def test_element_index_out_of_range(self):
        g = parse_group_spec("Z4")
        with pytest.raises(ValueError, match="index 4 out of range"):
            Element(g, g.order)
        with pytest.raises(ValueError):
            Element(g, -1)

    def test_equality_and_hash_follow_owner_identity(self):
        from nclosed.groups import validate_cayley_table
        z4 = parse_group_spec("Z4")
        g1, g2 = (validate_cayley_table(z4.table_lists()) for _ in range(2))
        assert Element(g1, 1) == Element(g1, 1) and Element(g1, 1) != Element(g1, 2)
        assert hash(Element(g1, 1)) == hash(Element(g1, 1))
        assert Element(g1, 1) != Element(g2, 1)
        h1 = Subgroup.from_indices(g1, [0, 2])
        assert h1 == Subgroup(GSubset(g1, h1.mask)) and h1 != GSubset(g1, h1.mask)
        assert hash(h1) == hash(Subgroup(GSubset(g1, h1.mask)))
        assert h1 != Subgroup.from_indices(g2, [0, 2])
        with pytest.raises(TypeError):
            len(h1)
        with pytest.raises(TypeError):
            iter(h1)

    def test_pickle_round_trip(self):
        import pickle
        from nclosed.scan import run_scan
        from nclosed.verify import ClaimTally
        g = parse_group_spec("D4")
        entries = run_scan(g).entries
        assert pickle.loads(pickle.dumps(entries)) == entries
        tally = ClaimTally(3, [{"claim": "T3.2", "n": 4}])
        assert pickle.loads(pickle.dumps(tally)) == tally
        # a copy brings its own copy of the group, so it equals the report
        # built on that copy
        h = generated_subgroup([Element(g, 1)])
        rep = next(i for i in range(g.order) if i not in h)
        copy = pickle.loads(pickle.dumps(analyze_coset(Element(g, rep), h)))
        g2 = copy.coset.owner
        assert g2 is not g and copy.rep.owner is g2 and copy.subgroup.owner is g2
        assert copy == analyze_coset(Element(g2, rep), Subgroup(GSubset(g2, h.mask)))
