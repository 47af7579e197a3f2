import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbench import (
    Cyclic,
    Matrix,
    Product,
    SubringClosure,
    descriptor_hash,
    parse_element,
    parse_ring_expr,
    to_dsl,
    to_json,
)
from starbench.errors import DescriptorError, LiteralError, ParseError


def small_cyclic():
    return st.integers(min_value=1, max_value=30).map(Cyclic)


def descriptors():
    return st.recursive(
        small_cyclic(),
        lambda inner: st.one_of(
            st.builds(Matrix, st.integers(min_value=1, max_value=3), small_cyclic()),
            st.builds(Product, inner, inner),
        ),
        max_leaves=4,
    )


class TestParsing:
    def test_cyclic(self):
        assert parse_ring_expr("Z(6)") == Cyclic(6)

    def test_matrix(self):
        assert parse_ring_expr("M(2, Z(3))") == Matrix(2, Cyclic(3))

    def test_whitespace_insensitive(self):
        assert parse_ring_expr(" M( 2 ,Z(3) ) ") == Matrix(2, Cyclic(3))

    def test_product(self):
        assert parse_ring_expr("prod(Z(2),Z(3))") == Product(Cyclic(2), Cyclic(3))

    def test_sub(self):
        d = parse_ring_expr("sub(Z(9); 3)")
        assert isinstance(d, SubringClosure)
        assert d.parent == Cyclic(9)
        assert d.generators == (3,)

    def test_sub_multiple_generators(self):
        d = parse_ring_expr("sub(Z(12); 2, 3)")
        assert d.generators == (2, 3)

    def test_nested(self):
        d = parse_ring_expr("prod(M(2,Z(2)), sub(Z(4); 2))")
        assert d == Product(Matrix(2, Cyclic(2)), SubringClosure(Cyclic(4), (2,)))

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("Z(x)", 2),
            ("M(2 Z(3))", 4),
            ("prod(Z(2)Z(3))", 9),
            ("Z(6) trailing", 5),
            ("", 0),
            ("sub(Z(9) 3)", 9),
        ],
    )
    def test_parse_errors_carry_offsets(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_ring_expr(text)
        assert exc.value.payload()["offset"] == offset

    def test_parse_error_names_expected_tokens(self):
        with pytest.raises(ParseError) as exc:
            parse_ring_expr("M(2 Z(3))")
        assert exc.value.payload()["expected"] == ["','"]

    def test_input_size_cap(self):
        with pytest.raises(ParseError) as exc:
            parse_ring_expr("Z(" + "9" * 70000 + ")")
        assert exc.value.payload()["offset"] == 65536

    @pytest.mark.parametrize("text", ["Z(0)", "M(0,Z(2))", "Z(-3)"])
    def test_degenerate_parameters_rejected(self, text):
        with pytest.raises(DescriptorError):
            parse_ring_expr(text)

    def test_matrix_base_must_be_cyclic(self):
        with pytest.raises((ParseError, DescriptorError)):
            parse_ring_expr("M(2, prod(Z(2),Z(2)))")


class TestRoundTrips:
    @pytest.mark.parametrize(
        "text",
        [
            "Z(6)",
            "M(2, Z(3))",
            "prod(Z(2), Z(3))",
            "sub(Z(9); 3)",
            "prod(M(2, Z(2)), sub(Z(4); 2))",
        ],
    )
    def test_dsl_round_trip(self, text):
        d = parse_ring_expr(text)
        assert parse_ring_expr(to_dsl(d)) == d

    def test_json_shape(self):
        assert to_json(Matrix(2, Cyclic(3))) == {
            "kind": "matrix",
            "size": 2,
            "base": {"kind": "cyclic", "modulus": 3},
        }

    @settings(max_examples=60, deadline=None)
    @given(descriptors())
    def test_random_descriptors_round_trip(self, d):
        assert parse_ring_expr(to_dsl(d)) == d

    @settings(max_examples=60, deadline=None)
    @given(descriptors())
    def test_hash_is_stable_and_structural(self, d):
        h = descriptor_hash(d)
        assert len(h) == 64
        assert h == descriptor_hash(parse_ring_expr(to_dsl(d)))

    def test_hash_distinguishes_descriptors(self):
        seen = {}
        for text in ["Z(2)", "Z(3)", "M(2,Z(2))", "prod(Z(2),Z(2))", "sub(Z(4); 2)"]:
            h = descriptor_hash(parse_ring_expr(text))
            assert h not in seen, (text, seen[h])
            seen[h] = text


class TestElementLiterals:
    def test_cyclic_int(self):
        assert parse_element("4", Cyclic(6)) == 4

    def test_cyclic_negative(self):
        assert parse_element("-1", Cyclic(6)) == -1

    def test_matrix_brackets(self):
        d = Matrix(2, Cyclic(3))
        assert parse_element("[[0,1],[0,0]]", d) == ((0, 1), (0, 0))

    def test_matrix_parens(self):
        d = Matrix(2, Cyclic(3))
        assert parse_element("((0,1),(0,0))", d) == ((0, 1), (0, 0))

    def test_product_pair(self):
        assert parse_element("(1, 0)", Product(Cyclic(2), Cyclic(3))) == (1, 0)

    def test_sub_uses_parent_shape(self):
        assert parse_element("6", SubringClosure(Cyclic(9), (3,))) == 6

    def test_wrong_shape_rejected(self):
        with pytest.raises(LiteralError):
            parse_element("[[0,1],[0,0]]", Cyclic(6))
        with pytest.raises(LiteralError):
            parse_element("3", Matrix(2, Cyclic(3)))

    def test_wrong_matrix_size_rejected(self):
        with pytest.raises(LiteralError):
            parse_element("[[0,1,0],[0,0,0],[0,0,0]]", Matrix(2, Cyclic(3)))

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_element("[[0,1]", Matrix(2, Cyclic(3)))
