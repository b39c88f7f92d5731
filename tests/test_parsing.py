import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclosed.errors import (
    EmptySubsetSpec,
    NClosedError,
    ParseError,
    PointOutOfRange,
    RepeatedPointInCycle,
    UnknownLabel,
    UnsupportedParameter,
)
from nclosed.parsing import MAX_PERM_DEGREE, parse_group_spec, parse_subset_spec


def apply_cycles_pointwise(cycles, degree):
    """Oracle: apply cycles right to left, tracking each point by hand."""
    mapping = {}
    for p in range(1, degree + 1):
        cur = p
        for cycle in reversed(cycles):
            if cur in cycle:
                cur = cycle[(cycle.index(cur) + 1) % len(cycle)]
        mapping[p] = cur
    return tuple(mapping[p] - 1 for p in range(1, degree + 1))


class TestParsePermutation:
    """Cycle notation, read through a perm spec's generators and through a
    subset item that is not a label."""

    def test_transposition(self, s3):
        g = parse_group_spec("perm(3): (1 3)")
        assert g.labels == ("e", "(1 3)")
        assert g.permutation_of(1) == (2, 1, 0)
        d = parse_subset_spec("(3 1)", s3)
        assert d.labels() == ["(1 3)"]
        assert d.owner is s3

    def test_identity_spellings(self, s4):
        for text in ("e", "()", "( )"):
            assert parse_group_spec(f"perm(4): {text}").order == 1
            assert parse_subset_spec(text, s4).indices() == [0]

    def test_overlapping_cycles_compose_right_to_left(self, s3):
        expected = apply_cycles_pointwise([[1, 2], [2, 3]], 3)
        g = parse_group_spec("perm(3): (1 2)(2 3)")
        assert g.order == 3 and expected in {g.permutation_of(i) for i in range(3)}
        d = parse_subset_spec("(1 2)(2 3)", s3)
        assert s3.permutation_of(d.indices()[0]) == expected
        assert d.labels() == ["(1 2 3)"]

    def test_whitespace_flexible(self, s4):
        a = parse_group_spec("perm(4): (1 2)(3 4)")
        b = parse_group_spec("perm(4):  ( 1   2 ) ( 3 4 )  ")
        assert (a.labels, a.table_lists()) == (b.labels, b.table_lists())
        assert (parse_subset_spec("(2 1)(3 4)", s4).indices()
                == parse_subset_spec("  ( 2   1 ) ( 3 4 )  ", s4).indices())

    def test_point_out_of_range(self):
        with pytest.raises(PointOutOfRange) as exc:
            parse_group_spec("perm(3): (1 7)")
        assert exc.value.position == len("perm(3): (1 ")

    def test_repeated_point(self):
        with pytest.raises(RepeatedPointInCycle) as exc:
            parse_group_spec("perm(3): (1 1)")
        assert exc.value.position == len("perm(3): (1 ")

    def test_unclosed_cycle_position(self):
        with pytest.raises(ParseError) as exc:
            parse_group_spec("perm(3): (1 2")
        assert exc.value.position == len("perm(3): ") + 4

    def test_degree_range(self):
        for degree in (0, MAX_PERM_DEGREE + 1):
            with pytest.raises(UnsupportedParameter) as exc:
                parse_group_spec(f"perm({degree}): e")
            assert str(exc.value) == f"perm degree must be in 1..8, got {degree}"
        assert parse_group_spec(f"perm({MAX_PERM_DEGREE}): (1 2)").order == 2

    def test_trailing_garbage(self, s3):
        with pytest.raises(ParseError):
            parse_group_spec("perm(3): (1 2) nonsense")
        with pytest.raises(UnknownLabel):
            parse_subset_spec("(1 2) nonsense", s3)


class TestParseGroupSpec:
    def test_symmetric(self):
        assert parse_group_spec("S3").order == 6

    def test_product_has_order_six_element(self):
        g = parse_group_spec("Z2xZ3")
        assert g.order == 6
        assert max(g.order_of(i) for i in range(6)) == 6

    def test_perm_generated_full_s3(self):
        g = parse_group_spec("perm(3): (1 2), (1 2 3)")
        assert g.order == 6

    def test_perm_generated_alternating(self):
        g = parse_group_spec("perm(4): (1 2 3), (2 3 4)")
        assert g.order == 12
        assert g.identity == 0

    def test_whitespace_in_product(self):
        assert parse_group_spec(" Z2 x Z3 ").order == 6

    def test_three_way_product(self):
        assert parse_group_spec("Z2xZ2xZ3").order == 12

    def test_named_families(self):
        assert parse_group_spec("D4").order == 8
        assert parse_group_spec("Q8").order == 8
        assert parse_group_spec("Z1").order == 1

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_group_spec("Znosuch")
        assert exc.value.position == 1

    def test_unsupported(self):
        with pytest.raises(UnsupportedParameter):
            parse_group_spec("Z0")
        with pytest.raises(UnsupportedParameter):
            parse_group_spec("S7")
        with pytest.raises(UnsupportedParameter):
            parse_group_spec("Q4")

    def test_table_file(self, tmp_path, q8):
        from nclosed.groups import dump_cayley_table
        path = tmp_path / "q8.json"
        dump_cayley_table(q8, path)
        g = parse_group_spec(f"table:{path}")
        assert g.order == 8
        assert g.labels == q8.labels

    def test_cyclic_orders_up_to_64(self):
        for n in range(1, 65):
            assert parse_group_spec(f"Z{n}").order == n

    def test_symmetric_orders_are_factorials(self):
        import math
        for n in range(1, 7):
            assert parse_group_spec(f"S{n}").order == math.factorial(n)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_group_spec("")
        with pytest.raises(ParseError):
            parse_group_spec("   ")


class TestParseSubsetSpec:
    def test_cyclic_labels(self, z4):
        assert parse_subset_spec("1,3", z4).indices() == [1, 3]

    def test_s3_coset_fixture(self, s3):
        d = parse_subset_spec("(1 3),(1 2 3)", s3)
        assert sorted(d.labels()) == ["(1 2 3)", "(1 3)"]

    def test_unknown_label(self, z4):
        with pytest.raises(UnknownLabel):
            parse_subset_spec("5", z4)

    def test_empty(self, z4):
        with pytest.raises(EmptySubsetSpec):
            parse_subset_spec("", z4)
        with pytest.raises(EmptySubsetSpec):
            parse_subset_spec("   ", z4)

    def test_blank_item(self, z4):
        with pytest.raises(ParseError):
            parse_subset_spec("1,,3", z4)

    def test_noncanonical_cycle_resolves(self, s3):
        # "(3 1)" names the same permutation as the label "(1 3)"
        d = parse_subset_spec("(3 1)", s3)
        assert d.labels() == ["(1 3)"]

    def test_product_labels_with_commas(self):
        g = parse_group_spec("Z2xZ2")
        d = parse_subset_spec("(0,1),(1,0)", g)
        assert sorted(d.labels()) == ["(0,1)", "(1,0)"]

    def test_round_trip_every_element(self):
        from nclosed.verify import DEFAULT_CORPUS
        for spec in DEFAULT_CORPUS:
            g = parse_group_spec(spec)
            for i in range(g.order):
                d = parse_subset_spec(g.labels[i], g)
                assert d.indices() == [i], (spec, g.labels[i])


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200))
    def test_group_spec_never_panics(self, text):
        try:
            parse_group_spec(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)
        except NClosedError:
            pass  # well-formed but unsupported/oversized is fine

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=120), st.integers(1, 6))
    def test_permutation_never_panics(self, text, degree):
        spec = f"perm({degree}): {text}"
        try:
            parse_group_spec(spec)
        except ParseError as exc:
            assert len(spec) - len(text) <= exc.position <= len(spec)

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=120))
    def test_subset_spec_never_panics(self, z4, text):
        try:
            parse_subset_spec(text, z4)
        except ParseError:
            pass

    @pytest.mark.parametrize("text,error,position", [
        ("Z\u00b2", ParseError, 1),               # superscript two
        ("Z\u0663", ParseError, 1),               # Arabic-Indic digit three
        ("perm(3): (1 \u00b2)", ParseError, 12),
        ("D1\u00b2", UnsupportedParameter, None),  # D1 is read before the '\u00b2'
    ])
    def test_only_ascii_digits_are_integers(self, text, error, position):
        with pytest.raises(error) as exc:
            parse_group_spec(text)
        if position is not None:
            assert exc.value.position == position

    def test_four_kib_malformed_input(self):
        text = "Z2x" * 1365 + "!"
        assert len(text) >= 4096
        with pytest.raises(NClosedError):
            parse_group_spec(text)
