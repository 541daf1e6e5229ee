import random
from fractions import Fraction

import pytest

from superell import pipeline, reduction
from superell.curve import SuperellipticCurve, branch_divisor
from superell.errors import SuperellError
from superell.fieldsearch import (
    construct_candidate,
    semistabilizing_field,
    splits_in,
)
from superell.finitefield import INF as FINF
from superell.localfield import gauss_reduce
from superell.qpoly import parse_poly
from superell.reduction import (
    gauss_valuation_f,
    raw_gauss_values,
    reduce_special_fiber,
    semistable_check,
)
from superell.tree import build_tree, galois_on_tree, matrix_mul

from oracles import gauss_valuation_by_expansion


def setup_example(n, fs, p):
    f = parse_poly(fs)
    curve = SuperellipticCurve(n, f, p)
    L, G, roots = semistabilizing_field(f, n, p)
    filt = G.filt
    div = branch_divisor(curve, roots)
    tree = build_tree(div, L)
    act = galois_on_tree(G, tree)
    return curve, L, G, filt, tree, act


def special_fiber(curve, tree):
    """The special fiber over the final tree, from one Gauss reduction of
    each chart."""
    return reduce_special_fiber(curve, tree, raw_gauss_values(curve, tree))


EX1 = (4, "(x^2-3)*(x^2+3)*(x^2-6*x-3)", 3)
EX2 = (3, "x^4-x^2+1", 2)


class TestGaussValuation:
    def test_example1_eta_values(self):
        curve, L, G, filt, tree, act = setup_example(*EX1)
        raw = raw_gauss_values(curve, tree)
        etas = sorted(Fraction(N, L.e) for N, _ in raw.values())
        assert etas == [3, 4, 4]

    def test_example2_eta_values(self):
        curve, L, G, filt, tree, act = setup_example(*EX2)
        raw = raw_gauss_values(curve, tree)
        etas = sorted(Fraction(N, L.e) for N, _ in raw.values())
        assert etas == [0, 2, 2]

    def test_semistable_over_splitting_field_fails(self):
        # over Q_3(i, sqrt(3)) (e = 2) the first example is not semistable:
        # the root vertex has N_v = 6 which 4 does not divide
        f = parse_poly("(x^2-3)*(x^2+3)*(x^2-6*x-3)")
        curve = SuperellipticCurve(4, f, 3)
        L0 = construct_candidate(3, 2, 0, 2, 0, 50)
        div = branch_divisor(curve, splits_in(L0, [
            g for g, _ in curve.f.squarefree_decomposition()]))
        tree = build_tree(div, L0)
        raw = raw_gauss_values(curve, tree)
        assert sorted(N for N, _ in raw.values()) == [6, 8, 8]
        fails = semistable_check(raw, 4)
        root = tree.root
        assert root in fails and fails[root] == 2

    def test_chart_equivalence_invariance(self):
        # composing the chart with a unit of PGL_2(O_L) changes nothing
        curve, L, G, filt, tree, act = setup_example(*EX1)
        fiber = special_fiber(curve, tree)
        rng = random.Random(99)
        from superell.finitefield import power_class
        for v in tree.vertices:
            base_N, base_fbar = gauss_valuation_f(curve, tree, v.chart)
            for _ in range(2):
                # affine unit matrix: x -> a x + b with a a unit, b integral
                a = L.from_int(rng.randrange(1, L.p))
                b = L.from_int(rng.randrange(L.p)) * L.pi()
                m = (a, b, L.zero(), L.one())
                N2, fbar2 = gauss_valuation_f(curve, tree,
                                              matrix_mul(m, v.chart))
                assert N2 == base_N
                pc1 = power_class(base_fbar, curve.n)
                pc2 = power_class(fbar2, curve.n)
                assert pc1.n_v == pc2.n_v
                assert (power_class(pc1.witness, pc1.n_v).genus
                        == power_class(pc2.witness, pc2.n_v).genus)


class TestSpecialFiber:
    def test_example1(self):
        curve, L, G, filt, tree, act = setup_example(*EX1)
        fiber = special_fiber(curve, tree)
        genera = sorted(r.component_genus for r in fiber.reductions.values())
        assert genera == [1, 1, 3]
        assert fiber.n_nodes == 4
        assert fiber.n_components == 3
        assert fiber.b1 == 2
        assert fiber.arithmetic_genus == 7 == curve.genus()

    def test_example2(self):
        curve, L, G, filt, tree, act = setup_example(*EX2)
        fiber = special_fiber(curve, tree)
        genera = sorted(r.component_genus for r in fiber.reductions.values())
        assert genera == [1, 1, 1]
        assert fiber.n_nodes == 2
        assert fiber.b1 == 0
        assert fiber.arithmetic_genus == 3 == curve.genus()

    def test_component_count_times_nv(self):
        for ex in (EX1, EX2):
            curve, L, G, filt, tree, act = setup_example(*ex)
            fiber = special_fiber(curve, tree)
            for r in fiber.reductions.values():
                assert r.component_count() * r.n_v == curve.n

    def test_admissibility(self):
        for ex in (EX1, EX2):
            curve, L, G, filt, tree, act = setup_example(*ex)
            fiber = special_fiber(curve, tree)
            for en in fiber.edge_nodes:
                assert (en.a_parent + en.a_child) % curve.n == 0

    def test_node_counts_example1(self):
        curve, L, G, filt, tree, act = setup_example(*EX1)
        fiber = special_fiber(curve, tree)
        for en in fiber.edge_nodes:
            assert en.d == 2  # two nodes per edge

    def test_twist_invariance(self):
        # changing varpi_v by a unit twists fbar by an n-th power compatible
        # unit: class data is unchanged
        curve, L, G, filt, tree, act = setup_example(*EX1)
        fiber = special_fiber(curve, tree)
        from superell.finitefield import power_class
        F = L.residue_field
        for r in fiber.reductions.values():
            for idx in range(1, F.q):
                u = F.from_index(idx)
                twisted = r.fbar * u ** curve.n
                pc = power_class(twisted, curve.n)
                assert pc.n_v == r.n_v
                assert power_class(pc.witness, pc.n_v).genus \
                    == r.component_genus
                assert twisted.ord_at(FINF) == r.fbar.ord_at(FINF)


class TestOneSubstitution:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "good_reduction",
                                      "padic_tree_pass0"])
    def test_each_chart_once(self, request, name, monkeypatch):
        """``gauss_valuation_f`` runs once per vertex of each tree whose
        Gauss values the pipeline takes: the semistability check and the
        special fiber read the same values."""
        if name == "padic_tree_pass0":
            curves = [SuperellipticCurve.from_json_dict(case.spec)
                      for case, _ in request.getfixturevalue(name)]
        else:
            curves = [request.getfixturevalue("sample_results")[name].curve]
        calls, vertices = [0], [0]
        gauss_values = reduction.gauss_valuation_f
        raw_values = pipeline.raw_gauss_values

        def counted(*args):
            calls[0] += 1
            return gauss_values(*args)

        def recorded(curve, tree):
            vertices[0] += tree.vertex_count()
            return raw_values(curve, tree)

        monkeypatch.setattr(reduction, "gauss_valuation_f", counted)
        monkeypatch.setattr(pipeline, "raw_gauss_values", recorded)
        for curve in curves:
            try:
                pipeline.compute_with_retry(curve)
            except SuperellError:
                pass
        assert vertices[0] > 0 and calls[0] == vertices[0]


def unit_affine_charts(tree, name):
    """Every vertex chart of the tree, and each composed with two random
    unit affine matrices x -> a x + b (a a unit, b in pi O_L)."""
    L = tree.L
    rng = random.Random(name)
    for v in tree.vertices:
        yield v.chart
        for _ in range(2):
            a = L.from_int(rng.randrange(1, L.p))
            b = L.from_int(rng.randrange(L.p)) * L.pi()
            yield matrix_mul((a, b, L.zero(), L.one()), v.chart)


class TestBranchPointProduct:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "good_reduction"])
    def test_vertex_charts_match_expansion(self, sample_results, name):
        """On every vertex chart of a sample, and on those charts moved by
        unit affine matrices, the product over the branch points gives the
        N_v and fbar_v of the term-by-term expansion of f, whose reduced
        num/den has a constant den."""
        r = sample_results[name]
        for chart in unit_affine_charts(r.tree, name):
            N, fbar = gauss_valuation_f(r.curve, r.tree, chart)
            N2, (num, den) = gauss_valuation_by_expansion(
                r.curve.f, r.L, chart)
            assert den.degree() == 0
            assert (N, fbar * den) == (N2, num)

    @pytest.mark.parametrize("name", ["ex1", "ex2", "good_reduction"])
    def test_linear_form_roots_are_vertex_reductions(self, sample_results,
                                                     name):
        """On a vertex chart (a, b, c, d), the reduced linear form of the
        finite point r, (d + c r) t - (b + a r), has the root ``v.red[r]``
        (infinity when it reduces to a constant)."""
        r = sample_results[name]
        tree, L = r.tree, r.L
        for v in tree.vertices:
            a, b, c, d = v.chart
            for j, x in enumerate(tree.points):
                if x == FINF:
                    continue
                _, (u0, u1) = gauss_reduce([-(b + a * x), d + c * x], L)
                root = FINF if u1.is_zero() else -u0 / u1
                assert root == v.red[j]
