import itertools
from fractions import Fraction

import pytest

from superell.curve import (
    BranchDivisor,
    BranchPoint,
    SuperellipticCurve,
    branch_divisor,
)
from superell.errors import (
    MatrixNotIntegral,
    NotInvariant,
    NotSplit,
    PrecisionExhausted,
)
from superell.fieldsearch import (
    semistabilizing_field,
    splits_in,
    splitting_field,
)
from superell.localfield import (
    LocalField,
    LocalFieldElement,
    roots_of_qpoly,
)
from superell.pipeline import compute_with_retry
from superell.qpoly import parse_poly
from superell.reduction import raw_gauss_values, reduce_special_fiber
from superell.tree import (
    INF_POINT,
    build_tree,
    galois_on_tree,
    moebius_eval,
    triple_chart,
)

from conftest import element_order
from oracles import (
    _chart_up_to_scalar,
    build_tree_by_triples,
    chart_matrix_by_application,
    moebius_eval_by_division,
    scale_matrix_integral,
    tree_action_by_scan,
)

SAMPLES = ("ex1", "ex2", "good_reduction")
ACTION_CASES = SAMPLES + ("deg40", "ex1_non_integral", "padic_tree_pass0")


def example1_setup():
    f = parse_poly("(x^2-3)*(x^2+3)*(x^2-6*x-3)")
    curve = SuperellipticCurve(4, f, 3)
    L, G, roots = semistabilizing_field(f, 4, 3)
    filt = G.filt
    div = branch_divisor(curve, roots)
    return curve, L, G, filt, div


def example2_setup():
    f = parse_poly("x^4-x^2+1")
    curve = SuperellipticCurve(3, f, 2)
    L, G, roots = semistabilizing_field(f, 3, 2)
    filt = G.filt
    div = branch_divisor(curve, roots)
    return curve, L, G, filt, div


def eval_quadratic(qp, x, L):
    acc = L.zero()
    for c in reversed(qp.coeffs):
        acc = acc * x + L.from_fraction(c)
    return acc


def classify_points(div, L, tree):
    """Map each finite branch point to the quadratic factor it satisfies."""
    quads = {
        "x^2-3": parse_poly("x^2-3"),
        "x^2+3": parse_poly("x^2+3"),
        "x^2-6*x-3": parse_poly("x^2-6*x-3"),
    }
    out = {}
    for j, bp in enumerate(div.points):
        if bp.is_infinity:
            out[j] = "inf"
            continue
        for name, qp in quads.items():
            v = eval_quadratic(qp, bp.value, L).valuation_or_none()
            if v is None or v == "infinite" or v >= L.e * 10:
                out[j] = name
                break
    return out


class TestBuildTreeExample1:
    def test_shape_and_psi(self):
        curve, L, G, filt, div = example1_setup()
        tree = build_tree(div, L)
        assert tree.vertex_count() == 3
        assert len(tree.edges) == 2
        assert all(e[0] == tree.root for e in tree.edges)
        labels = classify_points(div, L, tree)
        # {+-i sqrt(3), infinity} on the root; {sqrt3, alpha} and
        # {-sqrt3, alpha'} on the two children
        root_pts = sorted(labels[j] for j in tree.vertices[tree.root].marked)
        assert root_pts == ["inf", "x^2+3", "x^2+3"]
        for child in tree.vertices[tree.root].children:
            pts = sorted(labels[j] for j in tree.vertices[child].marked)
            assert pts == ["x^2-3", "x^2-6*x-3"]

    def test_disc_radii(self):
        curve, L, G, filt, div = example1_setup()
        tree = build_tree(div, L)
        radii = sorted(Fraction(v.disc_radius, L.e) for v in tree.vertices)
        assert radii == [Fraction(1, 2), 1, 1]

    def test_psi_independent_of_order(self):
        curve, L, G, filt, div = example1_setup()
        tree1 = build_tree(div, L)
        div.points.reverse()
        tree2 = build_tree(div, L)
        profile1 = sorted((v.disc_radius, len(v.marked), len(v.children))
                          for v in tree1.vertices)
        profile2 = sorted((v.disc_radius, len(v.marked), len(v.children))
                          for v in tree2.vertices)
        assert profile1 == profile2


class TestBuildTreeExample2:
    def test_shape(self):
        curve, L, G, filt, div = example2_setup()
        tree = build_tree(div, L)
        assert tree.vertex_count() == 3
        root = tree.vertices[tree.root]
        assert len(root.marked) == 1  # only infinity
        assert div.points[root.marked[0]].is_infinity
        for child in root.children:
            assert len(tree.vertices[child].marked) == 2


class TestSmallTrees:
    def test_three_points_single_vertex(self):
        f = parse_poly("x^3 - x")
        curve = SuperellipticCurve(2, parse_poly("x^5 + x + 1"), 7)
        L0, _ = splitting_field(f, 7)
        # divisor with 3 points: construct directly
        from superell.curve import BranchDivisor, BranchPoint
        roots = roots_of_qpoly(L0, f).lift()
        pts = [BranchPoint(r, 1) for r in roots]
        div = BranchDivisor(pts)
        tree = build_tree(div, L0)
        assert tree.vertex_count() == 1
        assert tree.edges == []

    def test_coincident_points_rejected(self):
        from superell.curve import BranchDivisor, BranchPoint
        f = parse_poly("x^2-1")
        L, roots = splitting_field(f, 7)
        pts = [BranchPoint(roots[0], 1), BranchPoint(roots[0], 1),
               BranchPoint(roots[1], 1)]
        with pytest.raises(NotSplit):
            build_tree(BranchDivisor(pts), L)


class TestGaloisAction:
    def test_example1_inertia_action(self):
        curve, L, G, filt, div = example1_setup()
        tree = build_tree(div, L)
        act = galois_on_tree(G, tree)
        gen4 = [g for g in G.inertia if element_order(G, g) == 4][0]
        perm = act.vertex_perm[gen4]
        assert perm[tree.root] == tree.root
        c1, c2 = tree.vertices[tree.root].children
        assert perm[c1] == c2 and perm[c2] == c1
        # on the root component the action is x -> -x
        a, b = act.affine(gen4, tree.root)
        assert a == -L.residue_field.one()
        assert b.is_zero()

    def test_example1_stabilizer_orders(self):
        curve, L, G, filt, div = example1_setup()
        tree = build_tree(div, L)
        act = galois_on_tree(G, tree)
        assert len(act.stabilizer[tree.root]) == 8
        for child in tree.vertices[tree.root].children:
            assert len(act.stabilizer[child]) == 4

    def test_example2_wild_translation(self):
        curve, L, G, filt, div = example2_setup()
        tree = build_tree(div, L)
        act = galois_on_tree(G, tree)
        wild = [g for g in filt.gamma(1) if g != G.identity_index][0]
        assert act.vertex_perm[wild] == list(range(3))
        for child in tree.vertices[tree.root].children:
            a, b = act.affine(wild, child)
            assert a == L.residue_field.one()
            assert not b.is_zero()

    def test_identity_acts_trivially(self):
        curve, L, G, filt, div = example1_setup()
        tree = build_tree(div, L)
        act = galois_on_tree(G, tree)
        e = G.identity_index
        assert act.vertex_perm[e] == list(range(tree.vertex_count()))
        for v in range(tree.vertex_count()):
            a, b = act.affine(e, v)
            assert a == L.residue_field.one() and b.is_zero()

    @pytest.mark.parametrize("name", ("ex1", "ex2", "good_reduction",
                                      "deg40", "ex1_non_integral"))
    def test_matches_scan(self, results_named, name):
        # point permutations of the generators by key lookup, the rest
        # composed along the words of G; ex1 under x -> 3x has its branch
        # points at valuation -1/2, keyed at a negative shift
        [result] = results_named(name)
        if name == "ex1_non_integral":
            assert min(x.shift for x in result.tree.points
                       if x != INF_POINT) < 0
        act = result.inertial.ctx.act
        assert (act.point_perm, act.vertex_perm) == \
            tree_action_by_scan(result.G, result.tree)

    @pytest.mark.parametrize("name",
                             ACTION_CASES + ("corpus_multi_vertex",))
    def test_matrices_match_application(self, results_named, name):
        """Read off three residues, and equal to direct application for
        every (g, v)."""
        for result in results_named(name):
            act = result.inertial.ctx.act
            for g in range(act.G.order()):
                for v in range(act.tree.vertex_count()):
                    assert act.matrix(g, v) == \
                        chart_matrix_by_application(act, g, v)

    @pytest.mark.parametrize("name", SAMPLES + ("deg40",))
    def test_applies_generators_to_branch_points(self, results_named, name,
                                                 applies):
        """Each generator is applied once to each finite branch point,
        and to nothing else."""
        [r] = results_named(name)
        tree = build_tree(r.divisor, r.L)
        applies[0] = 0
        galois_on_tree(r.G, tree)
        finite = [x for x in tree.points if x != INF_POINT]
        assert applies[0] == len(r.G.generators) * len(finite)

    def test_composed_matrices_apply_nothing(self, deg40_result, applies):
        r = deg40_result
        act = galois_on_tree(r.G, build_tree(r.divisor, r.L))
        applies[0] = 0
        for g in range(r.G.order()):
            for v in range(r.tree.vertex_count()):
                act.matrix(g, v)
        assert applies[0] == 0

    @pytest.mark.parametrize("name", SAMPLES + ("deg40", "padic_tree_pass0"))
    def test_chart_values_match_charts(self, results_named, name):
        """The chart values moved along on residues equal the values of
        the final charts, after ``build_tree`` and after the tame moves of
        ``galois_on_tree``."""
        for r in results_named(name):
            tree = build_tree(r.divisor, r.L)
            for step in ("build_tree", "galois_on_tree"):
                if step == "galois_on_tree":
                    galois_on_tree(r.G, tree)
                for v in tree.vertices:
                    assert v.red == [moebius_eval(v.chart, x, r.L)
                                     for x in tree.points], step

    # from the acceptance corpus: (x^2-3)(x^2-5)(x^2-10) with n = 2 and
    # (x^2-1)(x^2-2)(x^2+5) with n = 3, at p = 5
    @pytest.mark.parametrize("spec", [
        {"n": 2, "p": 5, "f": [-150, 0, 95, 0, -18, 0, 1]},
        {"n": 3, "p": 5, "f": [10, 0, -13, 0, 2, 0, 1]},
    ], ids=["n2", "n3"])
    def test_further_direction_catches_corrupt_residue(self, spec):
        """For a generator g and the least point P of a fourth or later
        direction of a vertex w, a change of red_{g w}(g P) that no
        transport reads breaks the check of g at w: M(g, w) sends the
        true value to sigma_g(red_w(P))."""
        r = compute_with_retry(SuperellipticCurve.from_json_dict(spec))
        act = r.inertial.ctx.act
        V = range(r.tree.vertex_count())
        read = {(act.vertex_perm[h][u], act.point_perm[h][j])
                for h in range(r.G.order()) for u in V
                for j in act.frames[u][:3]}
        g, w, j = next(
            (g, w, j) for g in r.G.generators for w in V
            for j in act.frames[w][3:]
            if (act.vertex_perm[g][w], act.point_perm[g][j])
            not in read | {(w, j)})
        tree = build_tree(r.divisor, r.L)
        red = tree.vertices[act.vertex_perm[g][w]].red
        k = act.point_perm[g][j]
        red[k] = r.L.residue_field.zero() if red[k] == INF_POINT \
            else INF_POINT
        with pytest.raises(NotInvariant, match="chart transport disagrees"):
            galois_on_tree(r.G, tree)

    def test_edges_preserved(self):
        # implicitly asserted during construction; rerun both examples
        for setup in (example1_setup, example2_setup):
            curve, L, G, filt, div = setup()
            tree = build_tree(div, L)
            galois_on_tree(G, tree)  # raises on violation


class TestMoebius:
    def test_triple_chart_normalization(self):
        f = parse_poly("(x^2-3)*(x^2+3)*(x^2-6*x-3)")
        L, roots = splitting_field(f, 3)
        pts = list(roots) + [INF_POINT]
        t = (0, 1, 2)
        m = triple_chart(L, pts, t)
        assert moebius_eval(m, pts[0], L) == L.residue_field.zero()
        assert moebius_eval(m, pts[1], L) == L.residue_field.one()
        assert moebius_eval(m, pts[2], L) == INF_POINT

    def test_triple_chart_with_infinity(self):
        f = parse_poly("x^2-1")
        L, roots = splitting_field(f, 7)
        pts = list(roots) + [INF_POINT]
        for t in [(2, 0, 1), (0, 2, 1), (0, 1, 2)]:
            m = triple_chart(L, pts, t)
            vals = [moebius_eval(m, pts[i], L) for i in t]
            assert vals[0] == L.residue_field.zero()
            assert vals[1] == L.residue_field.one()
            assert vals[2] == INF_POINT

    @pytest.mark.parametrize("name", SAMPLES)
    def test_leading_residues_match_division(self, sample_results, name):
        """Every ordered triple chart, and the same chart up to a scalar,
        at every marked point and at infinity."""
        r = sample_results[name]
        L, points = r.L, r.tree.points
        for t in itertools.permutations(range(len(points)), 3):
            chart = triple_chart(L, points, t)
            scaled = _chart_up_to_scalar(L, points, t)
            for x in points + [INF_POINT]:
                expected = moebius_eval_by_division(chart, x, L)
                assert moebius_eval(chart, x, L) == expected
                assert moebius_eval(scaled, x, L) == expected


class TestScaleMatrix:
    """The Gauss reduction of a chart-comparison matrix, as the oracle
    ``chart_matrix_by_application`` takes it."""

    def test_least_valuation_below_zero(self):
        L = LocalField(3, 1, [-3, 1], 20)
        third = L.from_fraction(Fraction(1, 3))
        m = (third, L.from_int(2), L.zero(), third * L.from_int(4))
        F = L.residue_field
        assert scale_matrix_integral(m, L) == (
            F.one(), F.zero(), F.zero(), F.one())

    def test_singular_reduction_raises(self):
        L = LocalField(3, 1, [-3, 1], 20)
        one = L.one()
        with pytest.raises(MatrixNotIntegral):
            scale_matrix_integral((one, one, one, one + L.pi()), L)

    def test_zero_to_precision_raises_precision_exhausted(self):
        L = LocalField(3, 1, [-3, 1], 20)
        fuzzy = LocalFieldElement(L, L.zero().vec, 0, 5, False)
        with pytest.raises(PrecisionExhausted):
            scale_matrix_integral((fuzzy,) * 4, L)


class TestInversionCounts:
    @pytest.mark.parametrize("name", SAMPLES)
    def test_build_tree_inverts_once_per_vertex(self, sample_results, name,
                                                inversions):
        r = sample_results[name]
        tree = build_tree(r.divisor, r.L)
        assert tree.vertex_count() == r.tree.vertex_count()
        assert inversions[0] <= tree.vertex_count()


def integer_divisor(p, ints, infinity=None):
    """Q_p and the divisor of the integer points ``ints``; infinity is
    marked first (``"first"``), last (``"last"``) or not at all."""
    L = LocalField(p, 1, [-p, 1], 30)
    pts = [BranchPoint(L.from_int(a), 1) for a in ints]
    inf = BranchPoint(None, 1, is_infinity=True)
    if infinity == "first":
        pts.insert(0, inf)
    elif infinity == "last":
        pts.append(inf)
    return BranchDivisor(pts), L


# (p, integer points, where infinity is marked)
HAND_BUILT = {
    # clusters {0,125} < {0,25,125} < {0,5,25,125} < all, nested 3 deep
    "q5_nested_inf_last": (5, [0, 1, 2, 5, 25, 125], "last"),
    "q5_nested_unmarked": (5, [125, 0, 2, 25, 1, 5], None),
    # a root with the four children {1,6}, {2,7}, {3,8}, {4,9}
    "q5_four_children_unmarked": (5, [0, 1, 6, 2, 7, 3, 8, 4, 9], None),
    "q5_four_children_inf_first": (5, [1, 6, 2, 7, 3, 8, 4, 9], "first"),
    # the exact zero centers {0, 7, 49}, of the radius of {1, 8}
    "q7_inf_first": (7, [0, 7, 49, 1, 8, 3], "first"),
    "q7_unmarked": (7, [3, 0, 7, 49, 1, 8, 15], None),
    "q7_three_points": (7, [0, 1], "last"),
    # {A1, A2} and {B1, B2} at radius 12, centers equal to 10 digits: the
    # tie in (radius, center digits) goes to the first triple, (0, 1, 2)
    "q5_tied_centers": (5, [1 + 5**11, 1 + 2 * 5**11, 1 + 2 * 5**11 + 5**12,
                            1 + 5**11 + 5**12, 0], "last"),
}


def element_key(x):
    """The representation of an L-element (or INF_POINT)."""
    if x == INF_POINT:
        return x
    return (x.vec, x.shift, x.prec, x.exact_zero)


def tree_key(tree):
    return {
        "edges": tree.edges, "psi": tree.psi, "root": tree.root,
        "vertices": [
            (v.index, v.disc_radius, element_key(v.disc_center),
             tuple(element_key(x) for x in v.chart), v.red, v.partition,
             v.members, v.marked, v.parent, v.children)
            for v in tree.vertices],
    }


class TestClusterBuilder:
    """``build_tree`` against the ordered-triple oracle."""

    @pytest.mark.parametrize("name", SAMPLES)
    def test_samples_match_triple_scan(self, sample_results, name):
        r = sample_results[name]
        assert tree_key(build_tree(r.divisor, r.L)) == \
            tree_key(build_tree_by_triples(r.divisor, r.L))

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_match_triple_scan(self, name):
        div, L = integer_divisor(*HAND_BUILT[name])
        tree = build_tree(div, L)
        assert tree_key(tree) == tree_key(build_tree_by_triples(div, L))

    def test_hand_built_shapes(self):
        tree = build_tree(*integer_divisor(*HAND_BUILT["q5_nested_inf_last"]))
        assert sorted(len(v.members) for v in tree.vertices) == [2, 3, 4, 6]
        depth = max(len(list(ancestors(tree, v.index)))
                    for v in tree.vertices)
        assert depth == 3
        for name in ("q5_four_children_unmarked",
                     "q5_four_children_inf_first"):
            tree = build_tree(*integer_divisor(*HAND_BUILT[name]))
            assert len(tree.vertices[tree.root].children) == 4

    def test_disconnected_configuration_raises_alike(self):
        """n = 4, p = 5, f = (x^2-5)(x-1)(x-6): the discs D(sqrt5, 1/2)
        and D(1, 1) meet only at an unmarked Gauss point."""
        curve = SuperellipticCurve(4, parse_poly("(x^2-5)*(x-1)*(x-6)"), 5)
        L, _ = splitting_field(curve.f, 5)
        div = branch_divisor(curve, splits_in(L, [
            g for g, _ in curve.f.squarefree_decomposition()]))
        messages = []
        for builder in (build_tree, build_tree_by_triples):
            with pytest.raises(NotInvariant) as exc:
                builder(div, L)
            messages.append(str(exc.value))
        assert messages == ["disconnected disc family"] * 2

    def test_zero_center_beside_same_radius(self):
        """Over Q_7(7^(1/3)), the vertex of {0, 7} is centered at the exact
        zero and has the radius of the vertex of {1, 8}; the shifted copy
        x -> x + 2 has no zero point and the same outcome."""
        outcomes = []
        for f in ([["(x-1)*(x-8)*x", 1], ["x-7", 2]],
                  [["(x+1)*(x-6)*(x+2)", 1], ["x-5", 2]]):
            r = compute_with_retry(SuperellipticCurve.from_json_dict(
                {"n": 3, "p": 7, "f": f}))
            report = r.to_json_dict()
            outcomes.append([report[k] for k in ("P1", "epsilon", "delta")])
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("name", SAMPLES)
    def test_moebius_calls_per_vertex(self, sample_results, name,
                                      moebius_calls):
        """One chart-fiber partition per vertex and two normalization
        evaluations, and none in the Galois action or the special fiber:
        at most V (m + 2) calls."""
        r = sample_results[name]
        tree = build_tree(r.divisor, r.L)
        galois_on_tree(r.G, tree)
        reduce_special_fiber(r.curve, tree, raw_gauss_values(r.curve, tree))
        m = len(tree.points)
        assert moebius_calls[0] <= tree.vertex_count() * (m + 2)


def ancestors(tree, v):
    while tree.vertices[v].parent is not None:
        v = tree.vertices[v].parent
        yield v
