"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  All tolerances are pinned here; nothing is deferred.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from superell.curve import SuperellipticCurve
from superell.errors import (
    CatalogExhausted,
    EnumerationBudgetExceeded,
    GenusMismatch,
    NonIntegralFactor,
    NotInvariant,
    PrecisionExhausted,
    SuperellError,
)
from superell import fieldsearch
from superell.fieldsearch import (
    SearchConfig,
    _SkipCandidate,
    catalog_entries,
    construct_candidate,
    residue_degree_bound,
    splits_in,
)
from superell.finitefield import (
    FqPoly,
    count_kummer_points,
    fq_make,
    power_class,
)
from superell.localfield import QpolyRootSearch
from superell.pipeline import compute_with_retry
from superell.qpoly import QPoly, parse_poly
from superell.reduction import gauss_valuation_f
from superell.tree import matrix_mul

from conftest import eq_approx, node_orbit_data
from oracles import (
    count_affine_brute,
    count_points_by_places,
    filtration_by_witness_search,
    node_orbit_data_by_label_field,
    places_at_infinity,
    roots_by_digit_search,
    semistable_field_by_two_scans,
)


EX1 = lambda: SuperellipticCurve(  # noqa: E731
    4, parse_poly("(x^2-3)*(x^2+3)*(x^2-6*x-3)"), 3)
EX2 = lambda: SuperellipticCurve(3, parse_poly("x^4-x^2+1"), 2)  # noqa: E731


def affine_twist_equivalent(mine, target, n):
    """Is mine(x) = target(c x + d) * w^n for some c != 0, d, w != 0?

    This is exactly the chart (affine) and scaling-unit freedom left after
    the canonical normalizations.
    """
    F = mine.field
    for ci in range(1, F.q):
        c = F.from_index(ci)
        if c.is_zero():
            continue
        for di in range(F.q):
            d = F.from_index(di)
            moved = target.compose(FqPoly(F, [d, c]))
            w0 = mine.lead() / moved.lead()
            if mine != moved * w0:
                continue
            # w0 must be an n-th power
            if F.nth_root(w0, n) is not None:
                return True
    return False


class TestCriterion1:
    def test_example1_end_to_end(self):
        t0 = time.time()
        r = compute_with_retry(EX1())
        elapsed = time.time() - t0
        assert r.lfactor.p1 == [1, 1, 3, 3]  # (1 + T)(1 + 3 T^2)
        assert r.conductor.conductor == 11
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
        print(f"\nPASS criterion 1: P1 = (1+T)(1+3T^2), f = 11 "
              f"({elapsed:.2f}s)")


class TestCriterion2:
    def test_example2_end_to_end(self):
        t0 = time.time()
        r = compute_with_retry(EX2())
        elapsed = time.time() - t0
        assert r.lfactor.p1 == [1, 0, 2]  # 1 + 2 T^2
        assert r.conductor.epsilon == 4
        assert r.conductor.delta == 4
        assert r.conductor.conductor == 8
        assert [len(g) for g in r.filt.groups] == [6, 2, 2, 2, 1]
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
        print(f"\nPASS criterion 2: P1 = 1+2T^2, eps = 4, delta = 4, f = 8, "
              f"filtration jumps at 3 ({elapsed:.2f}s)")


class TestCriterion3:
    def test_example1_intermediates(self):
        r = compute_with_retry(EX1())
        tree, L = r.tree, r.L
        assert tree.vertex_count() == 3
        # specialization map: {+-i sqrt3, oo} on the root, {sqrt3, alpha}
        # and {-sqrt3, alpha'} on the children
        quads = {"x^2-3": parse_poly("x^2-3"), "x^2+3": parse_poly("x^2+3"),
                 "x^2-6*x-3": parse_poly("x^2-6*x-3")}

        def label(bp):
            if bp.is_infinity:
                return "inf"
            for name, qp in quads.items():
                acc = L.zero()
                for c in reversed(qp.coeffs):
                    acc = acc * bp.value + L.from_fraction(c)
                v = acc.valuation_or_none()
                if v in ("infinite", None) or v >= L.e * 10:
                    return name
            raise AssertionError("root matches no factor")

        root_marked = sorted(label(r.divisor.points[j])
                             for j in tree.vertices[tree.root].marked)
        assert root_marked == ["inf", "x^2+3", "x^2+3"]
        for ch in tree.vertices[tree.root].children:
            pts = sorted(label(r.divisor.points[j])
                         for j in tree.vertices[ch].marked)
            assert pts == ["x^2-3", "x^2-6*x-3"]
        # eta values in the v(3) = 1 scale
        etas = {v: r.fiber.reductions[v].eta_vp1
                for v in r.fiber.reductions}
        assert etas[tree.root] == 3
        assert all(etas[c] == 4 for c in tree.vertices[tree.root].children)
        # reduced equations match the expected ones up to chart freedom
        F9 = L.residue_field
        x2 = FqPoly.x(F9)
        one = FqPoly(F9, [F9.one()])
        target_root = (x2**2 - one) ** 2 * (x2**2 + one)
        assert affine_twist_equivalent(
            r.fiber.reductions[tree.root].fbar, target_root, 4)
        target_child = x2 * (x2 - one) * FqPoly.constant(F9.from_int(2))
        for ch in tree.vertices[tree.root].children:
            assert affine_twist_equivalent(
                r.fiber.reductions[ch].fbar, target_child, 4)
        # component genera and node count
        genera = sorted(red.component_genus
                        for red in r.fiber.reductions.values())
        assert genera == [1, 1, 3]
        assert r.fiber.n_nodes == 4
        # |Z2(F_3)| = 4 on the genus-1 descended component
        piece = next(p for c in r.inertial.components
                     for p in c.geometric_pieces if p["genus"] == 1)
        assert count_kummer_points(piece["n_geo"], piece["equation"], 1) == 4
        print("\nPASS criterion 3: tree, specialization, eta = (3,4,4), "
              "reduced equations, genera (3,1,1), 4 nodes, |Z2(F3)| = 4")


class TestCriterion4:
    def test_example2_intermediates(self):
        r = compute_with_retry(EX2())
        tree, L = r.tree, r.L
        F4 = L.residue_field
        zbar = next(x for x in (F4.from_index(i) for i in range(4))
                    if not x.is_zero() and x != F4.one()
                    and x**3 == F4.one())
        x4 = FqPoly.x(F4)
        target0 = (x4**2 + x4 + FqPoly(F4, [F4.one()])) ** 2
        assert affine_twist_equivalent(
            r.fiber.reductions[tree.root].fbar, target0, 3)
        kids = tree.vertices[tree.root].children
        t1 = x4 * (x4 + FqPoly.constant(zbar))
        t2 = x4 * (x4 + FqPoly.constant(zbar * zbar))
        matched = 0
        for ch in kids:
            fb = r.fiber.reductions[ch].fbar
            if affine_twist_equivalent(fb, t1, 3) \
                    or affine_twist_equivalent(fb, t2, 3):
                matched += 1
        assert matched == 2
        # |Z0(F_2)| = 3
        piece = next(p for c in r.inertial.components
                     for p in c.geometric_pieces if p["genus"] == 1)
        assert piece["field"].q == 2
        assert count_kummer_points(piece["n_geo"], piece["equation"], 1) == 3
        # the orbit component lives over F_4 and is not absolutely
        # irreducible (d_j = 2, flagged genus-zero quotient)
        orbit_comp = next(c for c in r.inertial.components if c.d_v == 2)
        assert orbit_comp.flagged
        assert orbit_comp.geometric_pieces[0]["d_j"] == 2
        assert orbit_comp.geometric_pieces[0]["field"].q == 4
        print("\nPASS criterion 4: reduced equations over F_4, "
              "|Z0(F2)| = 3, orbit component over F_4 not absolutely "
              "irreducible")


def _recip_magnitudes(coeffs):
    """|1/root| for the distinct roots of an integer polynomial (exact
    squarefree part first, then numerics on the well-conditioned result)."""
    import numpy as np
    sf = QPoly(list(coeffs)).squarefree_part()
    if sf.degree() < 1:
        return []
    arr = np.array([float(c) for c in sf.coeffs][::-1], dtype=float)
    return [1.0 / abs(r) for r in np.roots(arr)]


def _corpus(seed=0x5EED, count=220):
    """Deterministic corpus of candidate (n, f, p) inputs."""
    rng = random.Random(seed)
    out = []
    primes = [3, 5, 7, 11, 13]
    for _ in range(count):
        p = rng.choice(primes)
        n = rng.choice([k for k in (2, 2, 3, 3, 4, 5, 6)
                        if gcd(k, p) == 1])
        nfac = rng.choice([2, 3, 3, 4])
        f = QPoly([1])
        for _ in range(nfac):
            kind = rng.random()
            if kind < 0.5:
                a = rng.randrange(-3, 4)
                f = f * QPoly([-a, 1])
            elif kind < 0.8:
                b = rng.choice([1, -1, 2, -2, 3, p, -p, 2 * p])
                f = f * QPoly([-b, 0, 1])
            else:
                a = rng.randrange(-2, 3)
                f = f * QPoly([-a, 1]) ** 2
            if f.degree() > 6:
                break
        if rng.random() < 0.3:
            f = f * QPoly([rng.choice([2, 3, p])])
        if f.degree() > 6 or f.degree() < 2:
            continue
        curve = SuperellipticCurve(n, f, p)
        if curve.validate():
            continue
        # keep the point counts of every component within a tractable
        # enumeration budget for the suite
        if p ** (curve.genus() + 1) > 300000:
            continue
        out.append((n, f, p))
    return out


class TestCriterion5:
    def test_property_suite(self):
        import numpy as np
        completed = 0
        checked_invariance = 0
        rng = random.Random(1234)
        # inputs needing fields beyond degree 24 exit as CatalogExhausted
        # and are excluded, exactly as the criterion scopes the corpus
        config = SearchConfig(max_degree=24)
        for n, f, p in _corpus():
            curve = SuperellipticCurve(n, f, p)
            if curve.validate():
                continue
            try:
                r = compute_with_retry(curve, config)
            except (CatalogExhausted, PrecisionExhausted,
                    EnumerationBudgetExceeded):
                continue
            completed += 1
            g = curve.genus()
            # (a) arithmetic genus of the special fiber equals g(Y)
            assert r.fiber.arithmetic_genus == g
            # (b) deg P1 = 2g - epsilon
            assert len(r.lfactor.p1) - 1 == 2 * g - r.conductor.epsilon
            # (c) P1(0) = 1 and Weil absolute values (1 or sqrt(p)) to 1e-6,
            # verified factor by factor on exact squarefree parts (products
            # and multiple roots are numerically ill-conditioned)
            assert r.lfactor.p1[0] == 1
            for mags in _recip_magnitudes(r.lfactor.graph_factor):
                assert abs(mags - 1.0) < 1e-6
            for factor in r.lfactor.component_factors:
                for mags in _recip_magnitudes(factor):
                    assert abs(mags - p**0.5) < 1e-6
            # (d) delta = 0 in the tame case
            if len(r.filt.gamma(1)) == 1:
                assert r.conductor.delta == 0
            # (e) trivial bound
            assert r.conductor.conductor <= r.conductor.bound
            # (f) chart-equivalence and twist invariance (spot check)
            if checked_invariance < 10:
                checked_invariance += 1
                L = r.L
                v = r.tree.vertices[rng.randrange(r.tree.vertex_count())]
                base = r.fiber.reductions[v.index]
                a = L.from_int(rng.randrange(1, p))
                b = L.from_int(rng.randrange(p)) * L.pi()
                N2, fb2 = gauss_valuation_f(
                    curve, r.tree,
                    matrix_mul((a, b, L.zero(), L.one()), v.chart))
                assert N2 == base.N_v
                pc2 = power_class(fb2, n)
                assert pc2.n_v == base.n_v
                assert power_class(pc2.witness, pc2.n_v).genus \
                    == base.component_genus
                u = L.residue_field.from_index(
                    rng.randrange(1, L.residue_field.q))
                if not u.is_zero():
                    tw = base.fbar * u**n
                    pct = power_class(tw, n)
                    assert pct.n_v == base.n_v
            if completed >= 55:
                break
        assert completed >= 50, f"only {completed} corpus runs completed"
        print(f"\nPASS criterion 5: {completed} corpus runs, all properties "
              f"(a)-(f) hold ({checked_invariance} invariance spot checks)")


class TestCriterion6:
    def test_counting_oracle_grid(self):
        rng = random.Random(77)
        fields = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1),
                  (11, 1), (13, 1)]
        cases = 0
        for p, k in fields:
            F = fq_make(p, k)
            q = F.q
            i_max = 1
            while q ** (i_max + 1) <= 200:
                i_max += 1
            for nbar in (2, 3, 4, 5, 6):
                if gcd(nbar, p) != 1:
                    continue
                for _ in range(7):
                    deg = rng.randrange(1, 7)
                    num = FqPoly(F, [F.from_index(rng.randrange(q))
                                     for _ in range(deg)]
                                 + [F.from_index(rng.randrange(1, q))])
                    # the oracle counts z^nbar = num/den, the package the
                    # isomorphic z^nbar = num * den^(nbar - 1)
                    if rng.random() < 0.3:
                        den = FqPoly(F, [F.from_index(rng.randrange(q)),
                                         F.one()])
                    else:
                        den = FqPoly(F, [F.one()])
                    if num.is_zero():
                        continue
                    for i in range(1, i_max + 1):
                        got = count_kummer_points(
                            nbar, num * den ** (nbar - 1), i)
                        want = count_points_by_places(nbar, (num, den), i)
                        assert got == want, (p, k, nbar, i, num, den)
                        cases += 1
        assert cases >= 500, f"grid only covered {cases} cases"
        print(f"\nPASS criterion 6: counting rule matches the place "
              f"enumeration oracle on {cases} cases, zero mismatches")


GOOD_CURVES = [
    (2, "x^5 - x + 1", 7),
    (2, "x^5 + 2*x + 1", 3),
    (2, "x^5 + x^2 + 1", 3),
    (2, "x^5 + 3*x + 2", 5),
    (2, "x^5 + x + 3", 5),
    (2, "x^6 + x + 2", 5),
    (2, "x^6 + 2*x + 1", 3),
    (2, "x^5 + x^4 + 2", 7),
    (3, "x^4 + x + 2", 5),
    (3, "x^4 + 2*x + 1", 5),
]


def _naive_numerator(n, fqpoly, p, genus):
    """Zeta numerator of the smooth reduction by exhaustive counting over
    F_{p^i} for i = 1..2g: a fully independent code path (affine points by
    table enumeration, places at infinity by the Puiseux oracle; the
    numerator is reconstructed from 2g counts without the functional
    equation)."""
    F = fq_make(p)
    counts = []
    for i in range(1, 2 * genus + 1):
        big = fq_make(p, i)
        emb = F.embedding(big)
        fb = fqpoly.map_coeffs(emb, big)
        counts.append(count_affine_brute(n, fb)
                      + places_at_infinity(n, fb))
    # log(P) = sum (N_i - 1 - q^i) T^i / i, exponentiate to degree 2g
    logp = [Fraction(0)] + [Fraction(counts[i - 1] - 1 - p**i, i)
                            for i in range(1, 2 * genus + 1)]
    pc = [Fraction(1)] + [Fraction(0)] * (2 * genus)
    for m in range(1, 2 * genus + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            acc += j * logp[j] * pc[m - j]
        pc[m] = acc / m
    assert all(c.denominator == 1 for c in pc)
    return [int(c) for c in pc]


class TestCriterion7:
    def test_good_reduction_sanity(self):
        done = 0
        for n, fs, p in GOOD_CURVES:
            f = parse_poly(fs)
            curve = SuperellipticCurve(n, f, p)
            assert curve.validate() == []
            Fp = fq_make(p)
            fbar = FqPoly(Fp, [Fp.from_int(int(c)) for c in f.coeffs])
            assert fbar.degree() == f.degree()
            assert fbar.gcd(fbar.derivative()).degree() == 0, \
                f"{fs} is not squarefree mod {p}"
            r = compute_with_retry(curve)
            assert r.conductor.conductor == 0, (n, fs, p)
            assert r.conductor.epsilon == 0 and r.conductor.delta == 0
            naive = _naive_numerator(n, fbar, p, curve.genus())
            assert r.lfactor.p1 == naive, (n, fs, p, r.lfactor.p1, naive)
            done += 1
        assert done == 10
        print(f"\nPASS criterion 7: {done} good-reduction curves give f = 0 "
              f"and P1 equal to the naive-count numerator, exact match")


def _shifted(f, c):
    """f(x + c)."""
    out = QPoly([0])
    for a in reversed(f.coeffs):
        out = out * QPoly([c, 1]) + QPoly([a])
    return out


class _SplitTests(list):
    """(L, g, search) for every root search of a split test made while
    recording, ``search.lifted`` the roots once the search is lifted."""

    def record(self, mp):
        search, lift = fieldsearch.roots_of_qpoly, QpolyRootSearch.lift

        def recorded(L, g):
            self.append((L, g, search(L, g)))
            return self[-1][2]

        def lifted(s, group=None):
            s.lifted = lift(s, group)
            return s.lifted

        mp.setattr(fieldsearch, "roots_of_qpoly", recorded)
        mp.setattr(QpolyRootSearch, "lift", lifted)


@pytest.fixture(scope="module")
def corpus24_run():
    """((curve, result) for the corpus at max_degree 24, the result None
    where the catalog is exhausted, and its split tests): computed once for
    the tests below, which compare it with oracles."""
    config = SearchConfig(max_degree=24)
    out, tests = [], _SplitTests()
    with pytest.MonkeyPatch.context() as mp:
        tests.record(mp)
        for n, f, p in _corpus():
            curve = SuperellipticCurve(n, f, p)
            try:
                out.append((curve, compute_with_retry(curve, config)))
            except CatalogExhausted:
                out.append((curve, None))
    return out, tests


@pytest.fixture(scope="module")
def corpus24(corpus24_run):
    return corpus24_run[0]


def _assert_digit_search_agrees(tests):
    """Each split test's search gives the one-pass digit search's split
    answer and, where it was lifted, its roots in the same order, equal to
    working precision.  Returns the (split, not split) counts."""
    counts, seen = [0, 0], set()
    for L, g, search in tests:
        if (id(L), g) in seen:
            continue
        seen.add((id(L), g))
        ref = roots_by_digit_search(L, g)
        split = search.count == g.degree()
        assert split == (len(ref) == g.degree()), (L.label, g)
        if hasattr(search, "lifted"):
            assert len(search.lifted) == len(ref), (L.label, g)
            assert all(eq_approx(x, y) for x, y in zip(search.lifted, ref))
        counts[not split] += 1
    return counts


class TestRootSearchOracle:
    """The split tests of the two-pass root search (residues first, Q_p
    roots by integers, conjugates by orbits) agree with the one-pass digit
    search on the catalog fields the corpus and the workloads reach."""

    def test_corpus(self, corpus24_run):
        split, not_split = _assert_digit_search_agrees(corpus24_run[1])
        assert split >= 100 and not_split >= 10

    @pytest.mark.parametrize("workload",
                             ["padic_tree", "point_count", "cold_cli"])
    def test_workload_shapes(self, perfbench, workload, monkeypatch):
        _, passes = perfbench.workloads.build(
            workload, perfbench.reference.DEFAULT_SEED)
        tests, shapes = _SplitTests(), set()
        tests.record(monkeypatch)
        for case in passes[0]:
            if case.shape not in shapes:
                shapes.add(case.shape)
                try:
                    compute_with_retry(
                        SuperellipticCurve.from_json_dict(case.spec))
                except SuperellError:
                    pass
        split, _ = _assert_digit_search_agrees(tests)
        assert split >= len(shapes) - 2


class TestGaloisActionOracles:
    """On the corpus at max_degree 24, every catalog field used has the
    filtration of the witness search, and the node labels, points of Q/Z,
    give the classes and orbits of the label-field oracle."""

    def test_corpus_matches_oracles(self, corpus24):
        fields, compared = set(), 0
        for curve, r in corpus24:
            if r is None:
                continue
            if (r.L.label, r.L.N) not in fields:
                fields.add((r.L.label, r.L.N))
                assert r.G.filt.groups == filtration_by_witness_search(r.G)
            ctx = r.inertial.ctx
            assert node_orbit_data(ctx) == \
                node_orbit_data_by_label_field(ctx), curve.f
            compared += 1
        assert compared >= 70 and len(fields) > 1


class TestOneScan:
    """The one catalog scan picks the field of the two-scan search (the
    smallest field L0 splitting f, then the fields containing a copy of
    L0), and its skip test on f0 never drops a field that splits f."""

    def test_corpus_matches_two_scans(self, corpus24):
        config = SearchConfig(max_degree=24)
        compared = 0
        for curve, r in corpus24:
            if r is None:
                assert semistable_field_by_two_scans(curve, config) is None
                continue
            L = semistable_field_by_two_scans(
                curve, SearchConfig(r.L.N, config.max_degree))
            assert (L.label, L.N) == (r.L.label, r.L.N), curve.f
            compared += 1
        assert compared >= 70

    @pytest.mark.parametrize("workload",
                             ["padic_tree", "point_count", "cold_cli"])
    def test_workload_shapes_match_two_scans(self, workload_pass0,
                                             workload):
        shapes = set()
        for case, r in workload_pass0(workload):
            if case.shape in shapes or isinstance(r, SuperellError):
                continue
            shapes.add(case.shape)
            L = semistable_field_by_two_scans(r.curve, SearchConfig(r.L.N))
            assert (L.label, L.N) == (r.L.label, r.L.N), case.shape
        assert shapes

    def test_residue_degree_bound_divides_f(self):
        """r | f(L) for every catalog field L of degree <= 6 over which f
        splits, on a seeded slice of the corpus."""
        config = SearchConfig(max_degree=6)
        bounds = []
        for n, f, p in random.Random(14).sample(_corpus(), 8):
            factors = [g for g, _ in f.squarefree_decomposition()]
            r = residue_degree_bound(factors, p)
            for _, f0, s, e, u_idx in catalog_entries(p, config):
                try:
                    L = construct_candidate(p, f0, s, e, u_idx, 50)
                    roots = splits_in(L, factors)
                except (_SkipCandidate, PrecisionExhausted):
                    continue
                if roots is not None:
                    assert L.f % r == 0, (f, p, L.label)
                    bounds.append(r)
        assert 1 in bounds and max(bounds) > 1

    def test_moved_example1_retries_at_fourfold_precision(self):
        """ex1 under x -> x + 1/3: at precision 50 the split test runs out
        of digits on the right field, and the retry at 200 finds it."""
        curve = SuperellipticCurve(4, _shifted(EX1().f, Fraction(1, 3)), 3)
        r = compute_with_retry(curve)
        assert r.lfactor.p1 == [1, 1, 3, 3]
        assert r.conductor.conductor == 11
        assert r.L.N == 200


def _compute_pinned_abort(curve, message):
    """Run the pipeline; an abort must carry exactly ``message``, so that a
    different failure is not taken for the known one."""
    try:
        compute_with_retry(curve)
    except (NotInvariant, GenusMismatch, NonIntegralFactor) as exc:
        assert str(exc) == message
        raise


class TestKnownDefects:
    """Curves with p not dividing n that abort with exit 5 today.  A fix
    makes these strict xfails pass, which fails the suite until the marker
    is removed."""

    @pytest.mark.xfail(strict=True, raises=NotInvariant,
                       reason="infinity is unmarked and the two vertex "
                              "discs are disjoint")
    def test_unmarked_infinity_two_maximal_discs(self):
        _compute_pinned_abort(
            SuperellipticCurve(4, parse_poly("(x^2-5)*(x-1)*(x-6)"), 5),
            "disconnected disc family")

    @pytest.mark.xfail(strict=True, raises=GenusMismatch,
                       reason="special fiber genus 3 against curve genus 2")
    def test_special_fiber_genus_mismatch(self):
        _compute_pinned_abort(
            SuperellipticCurve(2, parse_poly("(x^2-3)*(x^2-12)*(x-1)"), 3),
            "arithmetic genus 3 of the special fiber differs from the "
            "curve genus 2")

    @pytest.mark.xfail(strict=True, raises=NotInvariant,
                       reason="ROADMAP item 5: the disc family of a repeated "
                              "quadratic factor at p = 2 is disconnected")
    def test_repeated_factor_disc_family_at_two(self):
        _compute_pinned_abort(
            SuperellipticCurve(3, parse_poly("(x^2+2)^2*(x^2-2)"), 2),
            "disconnected disc family")

    @pytest.mark.xfail(strict=True, raises=NonIntegralFactor,
                       reason="ROADMAP item 15: the graph factor of a "
                              "repeated wild cubic factor is not integral")
    def test_repeated_wild_factor_graph_assembly(self):
        _compute_pinned_abort(
            SuperellipticCurve(4, parse_poly("(x^3-3)^2*(x+1)"), 3),
            "graph factor assembly is not integral")
