from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from superell.curve import SuperellipticCurve
from superell.errors import ValidationError
from superell.qpoly import QPoly, parse_poly


def make_f_example1():
    return (parse_poly("x^2-3") * parse_poly("x^2+3")
            * parse_poly("x^2-6*x-3"))


class TestParse:
    def test_basic(self):
        assert parse_poly("x^2 - 6*x - 3") == QPoly([-3, -6, 1])

    def test_product(self):
        assert parse_poly("(x-1)*(x+1)") == QPoly([-1, 0, 1])

    def test_fraction_coeff(self):
        assert parse_poly("1/2*x + 3") == QPoly([3, Fraction(1, 2)])

    def test_power(self):
        assert parse_poly("(x+1)^3") == QPoly([1, 3, 3, 1])

    def test_power_bounds(self):
        """Degree 256 and a constant exponent 1024 are expanded; one more
        is refused before expanding."""
        assert parse_poly("(x^2)^128").degree() == 256
        assert parse_poly("2^1024") == QPoly([2**1024])
        for s in ("(x^2)^129", "x^257", "2^1025"):
            with pytest.raises(ValueError, match="exceeds"):
                parse_poly(s)


class TestValidation:
    def test_example1_ok(self):
        c = SuperellipticCurve(4, make_f_example1(), 3)
        assert c.validate() == []

    def test_p_divides_n(self):
        c = SuperellipticCurve(3, parse_poly("x^4-x^2+1"), 3)
        v = c.validate()
        assert any("not prime to" in msg for msg in v)

    def test_low_genus(self):
        c = SuperellipticCurve(2, parse_poly("x^2-1"), 5)
        v = c.validate()
        assert any("genus" in msg for msg in v)

    def test_nth_power_factor(self):
        c = SuperellipticCurve(2, parse_poly("(x-1)^2*(x^3+x+1)"), 5)
        v = c.validate()
        assert any("power over Q" in msg for msg in v)

    def test_exponent_below_two_alone(self):
        """n < 2 is the only violation reported: the power and gcd clauses
        are meaningless for it."""
        for n in (1, 0):
            c = SuperellipticCurve(n, parse_poly("(x^3-2)^2*(x+1)^4"), 5)
            assert c.validate() == [f"exponent n = {n} must be at least 2"]

    def test_multiplicity_gcd(self):
        # all multiplicities even with n = 4: gcd(4, {2}) = 2
        c = SuperellipticCurve(4, parse_poly("(x^2+1)^2"), 5)
        v = c.validate()
        assert v  # either the gcd clause or a genus complaint fires first
        assert any("gcd" in msg or "power" in msg for msg in v)


class TestGenus:
    def test_example1_genus7(self):
        assert SuperellipticCurve(4, make_f_example1(), 3).genus() == 7

    def test_example2_genus3(self):
        assert SuperellipticCurve(3, parse_poly("x^4-x^2+1"), 2).genus() == 3

    def test_hyperelliptic_deg5(self):
        c = SuperellipticCurve(2, parse_poly("x^5 + x + 1"), 7)
        assert c.genus() == 2

    def test_rescaling_keeps_genus(self):
        f = parse_poly("x^5 + x + 1") * Fraction(1, 6)
        c = SuperellipticCurve(2, f, 7)
        assert all(x.denominator == 1 for x in c.f.coeffs)
        assert c.genus() == 2


class TestBranchData:
    def test_infinity_flag(self):
        assert SuperellipticCurve(4, make_f_example1(), 3).branches_infinity()
        assert SuperellipticCurve(3, parse_poly("x^4-x^2+1"), 2) \
            .branches_infinity()
        c = SuperellipticCurve(2, parse_poly("x*(x-1)*(x-2)*(x-3)"), 7)
        assert not c.branches_infinity()

    def test_from_json_coeff_list(self):
        c = SuperellipticCurve.from_json_dict(
            {"n": 2, "f": [1, 1, 0, 0, 0, 1], "p": 7})
        assert c.f == QPoly([1, 1, 0, 0, 0, 1])

    def test_from_json_factored(self):
        c = SuperellipticCurve.from_json_dict(
            {"n": 4, "f": [["x^2-3", 1], ["x^2+3", 1], ["x^2-6*x-3", 1]],
             "p": 3})
        assert c.f == make_f_example1()


# spec parts for the property tests: values of the wrong type, odd tokens,
# deep nesting, large exponents and long products
_SCALARS = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                     st.text(max_size=6), st.integers(-10**30, 10**30))
_COEFFS = st.one_of(st.integers(-10**30, 10**30), _SCALARS, st.sampled_from(
    ["1/2", "-3/4", "1/0", "1e10000000", "1.5", "x", " 7 ", "", "0"]))
_TOKENS = st.sampled_from(
    ["x", "X", "^", "*", "+", "-", "(", ")", "/", "0", "1", "2", "3/2", "1/0",
     "256", "1024", "99999999999", " ", ".", "y", "**", "e5"])
_POLYS = st.one_of(
    st.lists(_TOKENS, max_size=40).map("".join),
    st.integers(0, 3000).map(lambda k: "(" * k + "x^3+1" + ")" * k),
    st.tuples(st.sampled_from(["x", "(x+1)", "(x^2-3)", "2", "1/3", "x^7"]),
              st.integers(1, 300)).map(lambda t: "*".join([t[0]] * t[1])),
    st.tuples(st.sampled_from(["x", "(x+1)", "(x^3+x)", "2", "(1/2)"]),
              st.integers(0, 10**12)).map(lambda t: f"{t[0]}^{t[1]}"),
    st.tuples(st.sampled_from(["x^200", "(x+1)^100", "x", "1/7*x^3"]),
              st.integers(1, 500)).map(lambda t: "+".join([t[0]] * t[1])))
_MULTS = st.one_of(st.integers(-2, 40), st.integers(-10**30, 10**30),
                   _SCALARS)
_FACTORS = st.lists(st.one_of(
    st.tuples(st.one_of(_POLYS, st.lists(_COEFFS, max_size=8)),
              _MULTS).map(list),
    _SCALARS, st.lists(_SCALARS, max_size=3)), min_size=1, max_size=5)
# n and p up to 10^12: a denominator of f whose n-th power would pass
# MAX_SCALE_BITS is refused before that power is taken
_INTS = st.one_of(st.integers(-3, 40), st.integers(-3, 10**12))
_SPECS = st.fixed_dictionaries({
    "n": st.one_of(_INTS, _SCALARS), "p": st.one_of(_INTS, _SCALARS),
    "f": st.one_of(st.lists(_COEFFS, max_size=40), _FACTORS, _SCALARS)})
_SPECS = st.one_of(
    _SPECS,
    _SPECS.flatmap(lambda d: st.sampled_from(sorted(d)).map(
        lambda k: {key: v for key, v in d.items() if key != k})),
    _SCALARS, st.lists(_SCALARS, max_size=3))
_CHECKED = settings(max_examples=100, deadline=timedelta(seconds=1),
                    derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestMalformedSpecs:
    """Every spec gives a curve or a ValidationError, each within the
    deadline."""

    @staticmethod
    def curve_or_refusal(spec):
        try:
            curve = SuperellipticCurve.from_json_dict(spec)
        except ValidationError:
            return
        assert isinstance(curve, SuperellipticCurve)

    @_CHECKED
    @given(_SPECS)
    def test_any_spec(self, spec):
        self.curve_or_refusal(spec)

    @_CHECKED
    @given(st.integers(2, 12), st.integers(2, 40),
           st.lists(_COEFFS, max_size=400))
    @example(3, 5, ["1e10000000", 0, 0, 1])
    def test_coefficient_lists(self, n, p, f):
        self.curve_or_refusal({"n": n, "p": p, "f": f})

    @_CHECKED
    @given(st.integers(2, 12), st.integers(2, 40), _POLYS,
           st.integers(1, 12))
    def test_polynomial_strings(self, n, p, poly, mult):
        self.curve_or_refusal({"n": n, "p": p, "f": [[poly, mult]]})
