import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tiltwall import (
    ChargeParams,
    ChargeValue,
    CharVector,
    HeartReport,
    ReducedClass,
    RuledThreefold,
    SemicircleWall,
    TiltPoint,
    VerticalWall,
)
from tiltwall.exactnum import (
    INFINITY,
    ExtRat,
    QuadRat,
    as_rat,
    ceil_sqrt,
    format_rat,
    parse_rat,
    rat_sqrt,
)

rats = st.fractions(min_value=-40, max_value=40, max_denominator=12)


class TestRat:
    @pytest.mark.parametrize("text,value", [("3", 3), ("-7/2", Fraction(-7, 2)), ("+4/6", Fraction(2, 3))])
    def test_parse(self, text, value):
        assert parse_rat(text) == value

    @pytest.mark.parametrize("bad", ["1.5", "a/b", "1/0", "3/-2", "", "1/ 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    @given(rats)
    def test_round_trip(self, q):
        assert parse_rat(format_rat(q)) == q

    def test_format_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            format_rat(0.1)

    @given(rats, rats)
    def test_exact_add_sub(self, x, y):
        assert (x + y) - y == x

    @given(rats, rats.filter(lambda q: q != 0))
    def test_exact_mul_div(self, x, y):
        assert (x * y) / y == x


class TestSqrtHelpers:
    def test_rat_sqrt(self):
        assert rat_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rat_sqrt(2) is None
        assert rat_sqrt(0) == 0
        with pytest.raises(ValueError):
            rat_sqrt(-1)

    @given(rats.map(abs))
    def test_ceil_sqrt(self, q):
        n = ceil_sqrt(q)
        assert n * n >= q
        assert n == 0 or Fraction((n - 1) ** 2) < q

    def test_rat_sqrt_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            rat_sqrt(0.25)

    def test_ceil_sqrt_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            ceil_sqrt(2.5)


class TestQuadRat:
    def test_float_rejected(self):
        for args in [(0.1,), (0, 0.5, 2), (0, 1, 2.0)]:
            with pytest.raises(TypeError, match="float"):
                QuadRat(*args)

    def test_perfect_square_normalizes(self):
        x = QuadRat(1, 1, Fraction(9, 4))
        assert (x.a, x.b, x.radicand) == (Fraction(5, 2), 0, 0)

    def test_zero_b_normalizes_radicand(self):
        assert QuadRat(3, 0, 7) == QuadRat(3)

    def test_equality(self):
        assert QuadRat(Fraction(3, 2)) == Fraction(3, 2) and Fraction(3, 2) == QuadRat(Fraction(3, 2))
        assert QuadRat(-2) == -2
        assert QuadRat(0, 1, 2) != 0
        assert QuadRat(1, 1, 2) != QuadRat(1, -1, 2)
        assert QuadRat(0, 1, 2) != QuadRat(0, 1, 3)
        assert QuadRat(1, 1, 2) != 1.0
        assert hash(QuadRat(1, 1, Fraction(9, 4))) == hash(QuadRat(Fraction(5, 2)))

    def test_equality_compares_values_not_parts(self):
        # (1/2)*sqrt(8) and sqrt(2) are one number with different parts
        half_root8, root2 = QuadRat(0, Fraction(1, 2), 8), QuadRat(0, 1, 2)
        assert half_root8 == root2 and hash(half_root8) == hash(root2)
        assert (str(half_root8), str(root2)) == ("0 + 1/2*sqrt(8)", "0 + 1*sqrt(2)")
        assert QuadRat(1, -2, Fraction(1, 3)) == QuadRat(1, -1, Fraction(4, 3))
        assert QuadRat(0, 1, 2) != QuadRat(0, -1, 2)
        assert QuadRat(1, 1, 2) != QuadRat(0, 1, 2)
        assert len({half_root8, root2, QuadRat(0, -1, 2)}) == 2
        assert len({QuadRat(3), 3, Fraction(3)}) == 1

    def test_no_arithmetic_or_ordering(self):
        x = QuadRat(1, 1, 2)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt, operator.ge):
            with pytest.raises(TypeError):
                op(x, 1)

    def test_format_pinned(self):
        for x, text in (
            (QuadRat(3), "3"),
            (QuadRat(Fraction(-3, 2)), "-3/2"),
            (QuadRat(Fraction(1, 2), Fraction(-1, 3), 5), "1/2 - 1/3*sqrt(5)"),
            (QuadRat(0, 2, Fraction(7, 2)), "0 + 2*sqrt(7/2)"),
        ):
            assert str(x) == text


class TestAsRat:
    def test_fraction_passes_through(self):
        x = Fraction(3, 7)
        assert as_rat(x) is x

    def test_int_becomes_fraction(self):
        assert type(as_rat(5)) is Fraction and as_rat(5) == 5

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="float"):
            as_rat(0.1)


class TestExtRat:
    def test_float_rejected(self):
        with pytest.raises(TypeError):
            ExtRat(0.1)

    def test_total_order(self):
        assert INFINITY > ExtRat(10**9)
        assert not INFINITY < INFINITY
        assert INFINITY == INFINITY
        assert ExtRat(Fraction(1, 2)) < ExtRat(1)
        assert ExtRat(3) == 3

    def test_str(self):
        assert str(INFINITY) == "inf"
        assert str(ExtRat(Fraction(-3, 2))) == "-3/2"

    def test_comparison_table(self):
        # every operator, both operand orders, against the key (is_inf, value)
        def key(x):
            if isinstance(x, ExtRat):
                return (True, 0) if x.is_infinite else (False, x.value)
            return (False, Fraction(x))

        ops = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]
        ext = [ExtRat(-2), ExtRat(Fraction(1, 2)), ExtRat(1), INFINITY, ExtRat(None)]
        plain = [-2, 0, 1, Fraction(1, 2), Fraction(-7, 3)]
        pairs = [(a, b) for a in ext for b in ext + plain]
        pairs += [(b, a) for a, b in pairs]
        for a, b in pairs:
            for op in ops:
                assert op(a, b) is op(key(a), key(b)), (a, b)
        for a, b in ((ExtRat(1), 0.5), (0.5, ExtRat(1)), (INFINITY, 0.5)):
            for op in ops[2:]:
                with pytest.raises(TypeError):
                    op(a, b)


# One value of each record type, with its field names in order. The three
# two-field rational types share their values, for the cross-type check.
NOT_RATIONAL = (RuledThreefold, HeartReport)
RECORDS = [
    (CharVector, ("r", "cHF", "cHH", "dF", "dH", "e"), (Fraction(1, 2), 3, 0, -1, 1, Fraction(1, 6))),
    (ReducedClass, ("r", "c", "dd"), (1, 0, Fraction(-1, 2))),
    (TiltPoint, ("alpha2", "beta"), (Fraction(1, 2), Fraction(1, 4))),
    (ChargeParams, ("alpha2", "beta", "s", "t"), (1, 0, 2, Fraction(1, 3))),
    (ChargeValue, ("re", "im"), (Fraction(1, 2), Fraction(1, 4))),
    (VerticalWall, ("beta",), (Fraction(-3, 2),)),
    (SemicircleWall, ("center", "radius_sq"), (Fraction(1, 2), Fraction(1, 4))),
    (RuledThreefold, ("genus", "degree"), (0, 3)),
    (HeartReport, ("hf_ch1_nonneg", "branch2_checked", "h_ch2_nonneg", "f_ch2_nonneg",
                   "rank_nonpos", "branch3_checked", "ch3_nonneg"), (True, False) * 3 + (True,)),
]


@pytest.mark.parametrize("cls,names,values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecord:
    def test_position_or_keyword(self, cls, names, values):
        x = cls(*values)
        assert x.as_tuple() == values
        assert tuple(getattr(x, n) for n in names) == values
        assert cls(**dict(zip(names, values))) == x
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == x
        # rational fields are stored as Fractions, the others as given
        rational = cls not in NOT_RATIONAL
        assert [type(v) for v in x.as_tuple()] == [Fraction if rational else type(v) for v in values]

    def test_bad_arguments(self, cls, names, values):
        for args, kwargs in (
            (values[:-1], {}),
            (values + values[:1], {}),
            ((), dict(zip(names[:-1], values[:-1]))),
            (values, {"extra": 1}),
            (values[:-1], {"extra": values[-1]}),
            (values, {names[0]: values[0]}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_immutable(self, cls, names, values):
        x = cls(*values)
        for action in (
            lambda: setattr(x, names[0], values[0]),
            lambda: setattr(x, "other", 1),
            lambda: delattr(x, names[-1]),
        ):
            with pytest.raises(AttributeError):
                action()
        assert x.as_tuple() == values and not hasattr(x, "other")

    def test_equality_and_hash(self, cls, names, values):
        x, y = cls(*values), cls(*values)
        assert x == y and not x != y and hash(x) == hash(y) == hash(values)
        assert x != values
        # no equality across types, even over the same field values
        for other, _, other_values in RECORDS:
            if other is not cls:
                assert x != other(*other_values)
                if other_values == values:
                    assert x != other(*values) and other(*values) != x


class TestRecordRepr:
    def test_repr_pinned(self):
        assert repr(CharVector(Fraction(1, 2), 3, Fraction(-5, 7), 0, 1, Fraction(1, 6))) == (
            "CharVector(r=Fraction(1, 2), cHF=Fraction(3, 1), cHH=Fraction(-5, 7), "
            "dF=Fraction(0, 1), dH=Fraction(1, 1), e=Fraction(1, 6))"
        )
        assert repr(SemicircleWall(Fraction(-3, 2), Fraction(1, 4))) == (
            "SemicircleWall(center=Fraction(-3, 2), radius_sq=Fraction(1, 4))"
        )
        assert repr(HeartReport(True, False, True, True, False, False, True)) == (
            "HeartReport(hf_ch1_nonneg=True, branch2_checked=False, h_ch2_nonneg=True, "
            "f_ch2_nonneg=True, rank_nonpos=False, branch3_checked=False, ch3_nonneg=True)"
        )
        assert repr(RuledThreefold(genus=0, degree=3)) == "RuledThreefold(genus=0, degree=3)"
