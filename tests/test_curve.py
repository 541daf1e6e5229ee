from fractions import Fraction

import pytest

from superell.curve import SuperellipticCurve
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
