import json

import pytest

from superell import descent, finitefield
from superell.curve import SuperellipticCurve, branch_divisor
from superell.descent import (
    ActionContext,
    build_inertial_curve,
    rewrite_in_power,
    rewrite_in_subalgebra,
    solve_add_h90,
    solve_mult_h90,
)
from superell.errors import NotInvariant
from superell.fieldsearch import semistabilizing_field
from superell.finitefield import FqField, FqPoly, fq_make
from superell.pipeline import compute_with_retry
from superell.qpoly import QPoly, parse_poly
from superell.reduction import raw_gauss_values, reduce_special_fiber
from superell.tree import build_tree, galois_on_tree

from conftest import SAMPLE_CURVES, node_orbit_data
from oracles import (
    filtration_by_witness_search,
    gamma_by_division,
    node_labels_by_edge_search,
    node_orbit_data_by_label_field,
    quotient_genus_by_wild_subgroup,
)

ACTION_CASES = ("ex1", "ex2", "good_reduction", "deg40", "ex1_non_integral",
                "padic_tree_pass0")

# (n, f, p) whose node labels lie outside F_L: in F_49 and in F_9
LABELS_OUTSIDE_F_L = {"F49": (6, [12, -4, -6, 2], 7),
                      "F9": (2, [-6, 3, 8, -4, -2, 1], 3)}


def full_setup(n, fs, p):
    f = parse_poly(fs)
    curve = SuperellipticCurve(n, f, p)
    L, G, roots = semistabilizing_field(f, n, p)
    filt = G.filt
    div = branch_divisor(curve, roots)
    tree = build_tree(div, L)
    act = galois_on_tree(G, tree)
    fiber = reduce_special_fiber(curve, tree, raw_gauss_values(curve, tree))
    ic = build_inertial_curve(act, fiber)
    return curve, L, G, filt, tree, act, fiber, ic


EX1 = (4, "(x^2-3)*(x^2+3)*(x^2-6*x-3)", 3)
EX2 = (3, "x^4-x^2+1", 2)


class TestRewrites:
    def test_subalgebra_basic(self):
        F = fq_make(4 // 2, 2)  # GF(2^2)
        x = FqPoly.x(F)
        zbar = F.gen()
        u = x * (x + FqPoly.constant(zbar))
        f = u * u + u
        out = rewrite_in_subalgebra(f, u)
        assert out == FqPoly(F, [F.zero(), F.one(), F.one()])

    def test_subalgebra_rejects(self):
        F = fq_make(2, 2)
        x = FqPoly.x(F)
        u = x * x
        with pytest.raises(NotInvariant):
            rewrite_in_subalgebra(x * x * x, u)

    def test_synthetic_translation_quotient(self):
        # GF(4), translations {0, 1}: u = x^2 + x; fbar = x^2 + x
        F = fq_make(2, 2)
        x = FqPoly.x(F)
        u = x * x + x
        out = rewrite_in_subalgebra(u, u)
        assert out == FqPoly(F, [F.zero(), F.one()])

    def test_rewrite_in_power(self):
        F = fq_make(3, 2)
        x = FqPoly.x(F)
        # (w-1)^2 (w+1) w with w = u^2, presented in u
        h = (x**2 - FqPoly(F, [F.one()])) ** 2 \
            * (x**2 + FqPoly(F, [F.one()])) * x**2
        out = rewrite_in_power(h, 2)
        w = FqPoly.x(F)
        expected = (w - FqPoly(F, [F.one()])) ** 2 \
            * (w + FqPoly(F, [F.one()])) * w
        assert out == expected

    def test_rewrite_in_power_rejects_noninvariant(self):
        F = fq_make(3, 2)
        x = FqPoly.x(F)
        with pytest.raises(NotInvariant):
            rewrite_in_power(x**2 + x, 2)


class TestHilbert90:
    def test_multiplicative(self):
        F = fq_make(3, 2)
        for idx in range(1, F.q):
            abar = F.from_index(idx)
            if abar.is_zero():
                continue
            # solvable iff Norm(abar) = abar^(1+3) = 1
            norm = abar ** (1 + 3)
            if norm == F.one():
                alpha = solve_mult_h90(abar, 1)
                assert alpha.frobenius(1) == abar * alpha

    def test_additive(self):
        F = fq_make(2, 2)
        one = F.one()
        for idx in range(F.q):
            bbar = F.from_index(idx)
            # beta^2 - beta = bbar solvable iff Tr(bbar) = 0
            tr = bbar + bbar.frobenius(1)
            if tr.is_zero():
                beta = solve_add_h90(one, bbar, 1)
                assert beta.frobenius(1) - beta == bbar


class TestInertiaQuotients:
    def test_example1_root_vertex(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX1)
        comp = next(c for c in ic.components if c.rep == tree.root)
        iq = comp.quotient
        assert (iq.m, iq.mu, iq.s, iq.nbar) == (2, 4, 1, 2)
        # z^2 = w(w + 1) up to the expected chart/twist freedom
        F = L.residue_field
        x = FqPoly.x(F)
        assert iq.h_norm.degree() == 2
        assert not comp.flagged

    def test_example1_child_orbit(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX1)
        comp = next(c for c in ic.components if c.rep != tree.root)
        iq = comp.quotient
        assert (iq.m, iq.mu, iq.nbar) == (1, 1, 4)
        assert comp.genus_geometric == 1

    def test_example2_wild_translations(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX2)
        child_comp = next(c for c in ic.components if c.rep != tree.root)
        iq = child_comp.quotient
        assert len(iq.translations) == 2  # {0, zeta}
        assert iq.u_poly.degree() == 2
        # g(u) = u for the child in suitable coordinates
        assert iq.g_wild.degree() == 1
        assert child_comp.flagged  # mu/m = n = 3: quotient is a line
        assert child_comp.nbar == 1

    def test_example2_fixed_vertex(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX2)
        comp = next(c for c in ic.components if c.rep == tree.root)
        iq = comp.quotient
        assert (iq.m, iq.mu, iq.nbar) == (1, 1, 3)
        # the descended equation is the square of the quadratic generating
        # GF(4): (x^2 + x + 1)^2 over GF(2)
        F2 = fq_make(2)
        expected = FqPoly.from_ints(F2, [1, 1, 1]) ** 2
        assert comp.geometric_pieces[0]["equation"] == expected


class TestFrobeniusDescent:
    def test_example1_both_components_over_f3(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX1)
        for comp in ic.components:
            for piece in comp.geometric_pieces:
                assert piece["d_j"] == 1
                assert piece["field"].q == 3

    def test_example2_orbit_component_over_f4(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX2)
        orbit_comp = next(c for c in ic.components if c.d_v == 2)
        piece = orbit_comp.geometric_pieces[0]
        assert piece["d_j"] == 2
        assert piece["field"].q == 4
        assert piece["genus"] == 0  # not absolutely irreducible P^1 block

    def test_invariance_of_descended_coefficients(self):
        for ex in (EX1, EX2):
            curve, L, G, filt, tree, act, fiber, ic = full_setup(*ex)
            for comp in ic.components:
                power = comp.d_v
                for c in comp.h_prime.coeffs:
                    assert c.frobenius(power) == c


class TestNodesAndGraph:
    def test_example1_node_orbits(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX1)
        assert ic.node_orbit_data() == [(2, 1)]
        assert ic.n_geometric_nodes == 2
        assert ic.b1_k == 1
        assert ic.dim_h1 == 3

    def test_example2_node_orbits(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX2)
        assert ic.node_orbit_data() == [(2, 1)]
        assert ic.b1_k == 0
        assert ic.dim_h1 == 2

    def test_dim_h1_two_ways(self):
        # (a) sum 2 g_j + b1; (b) degree of the graph character + sum 2 g_j
        from superell.lzeta import graph_h1_charpoly
        for ex in (EX1, EX2):
            curve, L, G, filt, tree, act, fiber, ic = full_setup(*ex)
            graph = graph_h1_charpoly(ic.component_orbit_sizes(),
                                      ic.node_orbit_data())
            assert len(graph) - 1 == ic.b1_k
            total = 2 * sum(p["genus"] for p in ic.geometric_components)
            assert ic.dim_h1 == total + (len(graph) - 1)


class TestYScalings:
    """The y-scaling of g at v, read off g(pi)."""

    @pytest.mark.parametrize("name", ACTION_CASES)
    def test_matches_division(self, results_named, name):
        for result in results_named(name):
            ctx = result.inertial.ctx
            for g in range(ctx.G.order()):
                for v in sorted(ctx.fiber.reductions):
                    assert ctx.gamma(g, v) == gamma_by_division(ctx, g, v)

    def test_divides_nothing(self, deg40_result, inversions):
        ctx = deg40_result.inertial.ctx
        for g in range(ctx.G.order()):
            for v in sorted(ctx.fiber.reductions):
                ctx.gamma(g, v)
        assert inversions[0] == 0


class TestNodeLabels:
    """Node labels are points of Q/Z.  Moving them in the label field of
    the edge search gives the same inertia classes, Frobenius orbits and
    node orbits under every Gamma_i."""

    @pytest.mark.parametrize("name", ACTION_CASES)
    def test_match_edge_search(self, results_named, name):
        for result in results_named(name):
            ctx = result.inertial.ctx
            assert node_orbit_data(ctx) == node_orbit_data_by_label_field(ctx)

    @pytest.mark.parametrize("n, f, p", LABELS_OUTSIDE_F_L.values(),
                             ids=list(LABELS_OUTSIDE_F_L))
    def test_labels_outside_f_l(self, n, f, p):
        ctx = compute_with_retry(
            SuperellipticCurve(n, QPoly(f), p)).inertial.ctx
        field, _ = node_labels_by_edge_search(ctx)
        assert field.k > ctx.L.residue_field.k
        assert node_orbit_data(ctx) == node_orbit_data_by_label_field(ctx)
        assert ctx.G.filt.groups == filtration_by_witness_search(ctx.G)

    def test_builds_no_field(self, monkeypatch):
        """Labels outside F_L need no field: ActionContext, its nodes and
        their images call no fq_make, embedding or nth_root."""
        n, f, p = LABELS_OUTSIDE_F_L["F49"]
        ctx = compute_with_retry(
            SuperellipticCurve(n, QPoly(f), p)).inertial.ctx
        calls = []
        for owner, name in ((finitefield, "fq_make"), (descent, "fq_make"),
                            (FqField, "embedding"), (FqField, "nth_root")):
            def counted(*args, _method=getattr(owner, name), _name=name):
                calls.append(_name)
                return _method(*args)
            monkeypatch.setattr(owner, name, counted)
        ctx = ActionContext(ctx.act, ctx.fiber)
        images = [ctx.node_action(g, x, j) for x in ctx.nodes()
                  for g in range(ctx.G.order()) for j in (0, 1)]
        assert images and calls == []


class TestFiltrationOracle:
    @pytest.mark.parametrize("name", ACTION_CASES)
    def test_match_witness_search(self, results_named, name):
        for result in results_named(name):
            assert result.G.filt.groups == \
                filtration_by_witness_search(result.G)


class TestOneFactorization:
    """Every Kummer equation of the fiber and its descent is factored
    once by ``factor_poly``: ``fbar`` of each VertexReduction, h_raw of
    an InertiaQuotient only when it is not (n, fbar) of its vertex, and
    h' of a DescendedComponent only when r_v > 1 makes it a new
    polynomial.  The power class, the normal form, the genus and the
    piece equations are all read off these factorizations."""

    @pytest.mark.parametrize("name", ("ex1", "ex2", "good_reduction"))
    def test_each_equation_once(self, sample_results, factorizations, name):
        r = sample_results[name]
        fiber = reduce_special_fiber(r.curve, r.tree,
                                     raw_gauss_values(r.curve, r.tree))
        assert factorizations["power_class"] == len(fiber.reductions)
        ic = build_inertial_curve(r.inertial.ctx.act, fiber)
        new_quotients = sum(
            (iq.nbar, iq.h_raw) != (r.curve.n, fiber.reductions[v].fbar)
            for v, iq in ic.iq.items())
        new_components = sum(c.d_v < r.L.residue_field.k
                             for c in ic.components)
        assert factorizations["power_class"] == (
            len(fiber.reductions) + new_quotients + new_components)
        assert sum(factorizations.values()) == factorizations["power_class"]

    @pytest.mark.parametrize("name, bound", (("ex1", 7), ("ex2", 7),
                                             ("good_reduction", 3)))
    def test_whole_run(self, factorizations, name, bound):
        """One ``compute_with_retry`` factors each Kummer equation once
        and f mod p once; root finding factors nothing."""
        compute_with_retry(SuperellipticCurve.from_json_dict(json.loads(
            (SAMPLE_CURVES / f"{name}.json").read_text())))
        assert sum(factorizations.values()) <= bound
        assert factorizations["residue_degree_bound"] == 1


class TestWildQuotientGenera:
    def test_example2_swan_quotients(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX2)
        for i in (1, 2, 3):
            g_i = quotient_genus_by_wild_subgroup(ic.ctx, filt.gamma(i))
            assert g_i == 1

    def test_tame_case_has_trivial_wild_group(self):
        curve, L, G, filt, tree, act, fiber, ic = full_setup(*EX1)
        assert len(filt.gamma(1)) == 1
