from fractions import Fraction
from types import SimpleNamespace

import pytest

from superell.curve import SuperellipticCurve
from superell.errors import NonIntegralFactor
from superell.finitefield import FqPoly, fq_make
from superell.lzeta import (
    component_l_factor,
    graph_h1_charpoly,
    local_l_factor,
)
from superell.pipeline import compute_with_retry, verify_point_counts
from superell.qpoly import QPoly, parse_poly

from oracles import quotient_genus_by_wild_subgroup


class TestGraphCharpoly:
    def test_example1_shape(self):
        # two fixed components, one node orbit of size 2 -> 1 + T
        out = graph_h1_charpoly([1, 1], [(2, 1)])
        assert out == [1, 1]

    def test_tree_graph(self):
        assert graph_h1_charpoly([1, 1], [(1, 1)]) == [1]
        assert graph_h1_charpoly([1, 2], [(2, 1)]) == [1]

    def test_banana(self):
        # two fixed components, two fixed nodes: 1-dim H^1 with trivial
        # Frobenius character (1 + 2 - 2 = 1)
        assert graph_h1_charpoly([1, 1], [(1, 1), (1, 1)]) == [1, -1]

    def test_order2_epsilon(self):
        # synthetic: a fixed node whose branches are swapped contributes
        # (1 + T)
        out = graph_h1_charpoly([1, 1], [(1, 1), (1, 2)])
        assert out == [1, 1]

    def test_non_integral_rejected(self):
        with pytest.raises(NonIntegralFactor):
            graph_h1_charpoly([2], [])  # (1 - T)/(1 - T^2) is not a polynomial


def elliptic_piece(d_j):
    """z^2 = w^3 + w + 1 over GF(5): 9 points, so P(T) = 1 + 3T + 5T^2."""
    h = FqPoly.from_ints(fq_make(5), [1, 1, 0, 1])
    return {"genus": 1, "n_geo": 2, "equation": h, "d_j": d_j}


class TestAssembly:
    def test_component_factor_substitutes_t_power(self):
        assert component_l_factor(elliptic_piece(1)) == [1, 3, 5]
        assert component_l_factor(elliptic_piece(2)) == [1, 0, 3, 0, 5]
        assert component_l_factor({"genus": 0, "d_j": 2}) == [1]

    def test_local_factor_is_the_product(self):
        # two fixed components, a rational one and the elliptic one, and a
        # node orbit of size 2: (1 + T)(1 + 3T + 5T^2)
        pieces = [{"genus": 0, "d_j": 1}, elliptic_piece(1)]
        inertial = SimpleNamespace(
            geometric_components=pieces,
            component_orbit_sizes=lambda: [1, 1],
            node_orbit_data=lambda: [(2, 1)],
            dim_h1=3)
        r = local_l_factor(inertial)
        assert r.graph_factor == [1, 1]
        assert r.component_factors == [[1], [1, 3, 5]]
        assert r.p1 == [1, 4, 8, 5]
        assert all(type(c) is int for c in r.p1 + r.graph_factor)


class TestEndToEnd:
    def test_example1(self):
        curve = SuperellipticCurve(
            4, parse_poly("(x^2-3)*(x^2+3)*(x^2-6*x-3)"), 3)
        r = compute_with_retry(curve)
        assert r.lfactor.p1 == [1, 1, 3, 3]  # (1 + T)(1 + 3T^2)
        assert r.lfactor.graph_factor == [1, 1]
        assert r.conductor.epsilon == 11
        assert r.conductor.delta == 0
        assert r.conductor.conductor == 11

    def test_example2(self):
        curve = SuperellipticCurve(3, parse_poly("x^4-x^2+1"), 2)
        r = compute_with_retry(curve)
        assert r.lfactor.p1 == [1, 0, 2]
        assert r.conductor.epsilon == 4
        assert r.conductor.delta == 4
        assert r.conductor.conductor == 8
        assert [len(g) for g in r.filt.groups] == [6, 2, 2, 2, 1]

    def test_degree_identity(self):
        for n, fs, p in [(4, "(x^2-3)*(x^2+3)*(x^2-6*x-3)", 3),
                         (3, "x^4-x^2+1", 2)]:
            curve = SuperellipticCurve(n, parse_poly(fs), p)
            r = compute_with_retry(curve)
            assert len(r.lfactor.p1) - 1 == r.inertial.dim_h1
            assert len(r.lfactor.p1) - 1 == \
                2 * curve.genus() - r.conductor.epsilon
            assert r.lfactor.p1[0] == 1

    def test_point_count_oracle(self):
        # rerun the consistency check explicitly
        curve = SuperellipticCurve(3, parse_poly("x^4-x^2+1"), 2)
        r = compute_with_retry(curve)
        verify_point_counts(r.inertial, r.lfactor.p1)

    def test_good_reduction_quintic(self):
        # y^2 = x^5 - x + 1 is squarefree mod 7: good reduction,
        # conductor 0, degree-4 numerator
        curve = SuperellipticCurve(2, parse_poly("x^5 - x + 1"), 7)
        r = compute_with_retry(curve)
        assert r.conductor.conductor == 0
        assert r.conductor.epsilon == 0 and r.conductor.delta == 0
        assert len(r.lfactor.p1) - 1 == 2 * curve.genus() == 4

    def test_nodal_degeneration(self):
        # x^5 + x + 1 has a double root mod 7: one vanishing cycle,
        # conductor exponent 1 (all internal cross-checks apply)
        curve = SuperellipticCurve(2, parse_poly("x^5 + x + 1"), 7)
        r = compute_with_retry(curve)
        assert r.conductor.conductor == 1
        assert r.inertial.b1_k == 1
        assert r.lfactor.p1 == [1, 1, 7, 7]


def _p1(n, f, p):
    return compute_with_retry(SuperellipticCurve(n, f, p)).lfactor.p1


P7_CURVE = parse_poly("x^6 - 60*x^4 + 497*x^2 + 2058")  # n = 2, p = 7


class TestFrobeniusOnNodeLabels:
    """When f(L) = 1 the node labels may lie outside F_L, and Frobenius
    must move them by the p-th power although it acts trivially on F_L.

    Twisting y^n = f by a unit u of Z_p multiplies Frobenius on the
    chi-part of H^1 by chi(u), for the characters chi of mu_n in Q_p.  For
    n = 2 and u a non-square: P1(u f)(T) = P1(f)(-T).  For n | p - 1:
    the T-coefficients of P1(u f) over u in F_p^* / (F_p^*)^n add up to
    0."""

    def test_regression_p7(self):
        r = compute_with_retry(SuperellipticCurve(2, P7_CURVE, 7))
        assert r.lfactor.p1 == [1, 1]
        assert r.conductor.conductor == 3

    @pytest.mark.parametrize("f, p, u", [
        (P7_CURVE, 7, 3),
        (parse_poly("(x-2)*(x^2-1)*(x^2-3)"), 3, 2),
    ], ids=["p7", "p3"])
    def test_quadratic_twist(self, f, p, u):
        twisted = _p1(2, f * QPoly([u]), p)
        assert twisted == [(-1) ** i * c for i, c in enumerate(_p1(2, f, p))]

    def test_sextic_twists_sum_to_zero(self):
        f = parse_poly("2*x^3 - 6*x^2 - 4*x + 12")
        assert sum(_p1(6, f * QPoly([u]), 7)[1] for u in range(1, 7)) == 0


# (n, p, f) with wild inertia at p = 2 and 3, one with a triple root
WILD_FAMILY = [
    (3, 2, "(x^2+2)*(x^2-2)"),
    (3, 2, "(x^2-2)*(x^2+1)"),
    (5, 2, "(x^2-2)*(x-1)"),
    (4, 3, "x^3-3"),
    (4, 3, "(x^3-3)*(x-1)"),
    (4, 3, "(x^3-3)*(x+1)"),
    (4, 3, "(x^3-3)^3*(x-1)"),
]


def swan_by_quotients(result):
    """(delta, {i: genus of Ybar/Gamma_i}) from the quotients of the
    special fiber by the wild groups Gamma_i != 1."""
    ctx, filt = result.inertial.ctx, result.G.filt
    g = result.curve.genus()
    genera, delta, i = {}, Fraction(0), 1
    while len(filt.gamma(i)) > 1:
        genera[i] = quotient_genus_by_wild_subgroup(ctx, filt.gamma(i))
        delta += Fraction(len(filt.gamma(i)), len(filt.gamma(0))) \
            * (2 * g - 2 * genera[i])
        i += 1
    return delta, genera


class TestSwanFormula:
    """delta and the genus of Ybar/Gamma_i at every jump, read off the
    permutation of the branch points, agree with the quotients of the
    special fiber."""

    @pytest.mark.parametrize("name", ("ex1", "ex2", "good_reduction",
                                      "corpus_multi_vertex"))
    def test_samples_and_corpus(self, results_named, name):
        for r in results_named(name):
            assert swan_by_quotients(r) == (r.conductor.delta,
                                            r.conductor.quotient_genera)

    @pytest.mark.parametrize("n, p, f", WILD_FAMILY)
    def test_wild_family(self, n, p, f):
        r = compute_with_retry(SuperellipticCurve(n, parse_poly(f), p))
        assert len(r.G.filt.gamma(1)) > 1
        assert swan_by_quotients(r) == (r.conductor.delta,
                                        r.conductor.quotient_genera)
