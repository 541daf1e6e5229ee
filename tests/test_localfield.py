import json
import random
from fractions import Fraction

import pytest

from superell import fieldsearch, localfield, pipeline
from superell.curve import SuperellipticCurve
from superell.errors import (
    CatalogExhausted,
    NotEisenstein,
    NotGalois,
    NotMonogenicWitness,
    PrecisionExhausted,
    PrecisionTooLow,
    SuperellError,
)
from superell.fieldsearch import (
    SearchConfig,
    build_tower,
    catalog_entries,
    construct_candidate,
    semistabilizing_candidates,
    semistabilizing_field,
    splits_in,
    splitting_field,
)
from superell.localfield import (
    INFINITE,
    Automorphism,
    KeyedImages,
    LocalField,
    LocalFieldElement,
    galois_group,
    ramification_filtration,
    roots_integral,
    sort_key,
)
from superell.pipeline import compute_with_retry
from superell.qpoly import QPoly, parse_poly

from conftest import SAMPLE_CURVES, as_vp1, element_order, eq_approx
from oracles import (
    digits_by_field_products,
    filtration_by_witness_search,
    galois_table_by_scan,
    gauss_reduce_by_division,
    roots_by_digit_search,
    taylor_shift_by_binomials,
    vec_mul_reduced_per_product,
)


def field_example1(prec=40):
    # Q_3(i, 3^(1/4))
    return LocalField(3, 2, [-3, 0, 0, 0, 1], prec)


def field_example2(prec=50):
    # Q_2(zeta_3, i, 2^(1/3)), flattened
    return construct_candidate(2, 2, 2, 3, 0, prec)


class TestTower:
    def test_build_simple(self):
        L = build_tower(3, 2, [[-3, 0, 0, 0, 1]], 40)
        assert L.e == 4 and L.f == 2 and L.degree == 8

    def test_qp_itself(self):
        L = build_tower(5, 1, [], 20)
        assert L.degree == 1
        assert L.from_int(5).valuation() == 1

    def test_two_step_tower(self):
        # Q_2(i) via x^2+2x+2, then a square root of its uniformizer
        L1 = build_tower(2, 1, [[2, 2, 1]], 40)
        assert L1.e == 2
        L2 = build_tower(2, 1, [[2, 2, 1], [[0, -1], 0, 1]], 40)
        assert L2.e == 4 and L2.degree == 4
        assert as_vp1(L2.pi()) == Fraction(1, 4)

    @pytest.mark.parametrize("steps", [
        [[-3, 0, 0, 0, 1]],
        # the second step is flattened by flatten_extension
        [[-3, 0, 1], [[0, 1], 0, 1]],
    ], ids=["one_step", "two_steps"])
    def test_tower_keeps_unramified_modulus(self, steps):
        # step coefficients are read in the basis of x^2 + x + 2, which is
        # irreducible over GF(3) and not the default x^2 + 1
        L = build_tower(3, 2, steps, 40, unramified_modulus=[2, 1, 1])
        assert L.U.modulus == (2, 1, 1)
        assert L.residue_field.modulus == (2, 1, 1)
        assert (L.e, L.f) == (4, 2)

    def test_not_eisenstein(self):
        with pytest.raises(NotEisenstein):
            build_tower(3, 1, [[-1, 0, 1]], 40)  # x^2 - 1

    def test_precision_too_low(self):
        with pytest.raises(PrecisionTooLow):
            LocalField(3, 1, [-3, 1], 2)


class TestArithmetic:
    def test_valuations(self):
        L = field_example1()
        assert as_vp1(L.pi()) == Fraction(1, 4)
        assert as_vp1(L.from_int(3)) == 1
        assert L.from_int(3).valuation() == 4
        sqrt3 = L.pi() * L.pi()
        alpha = L.from_int(3) - L.from_int(2) * sqrt3
        # alpha - sqrt(3) = 3 - 3*sqrt(3) = 3(1 - sqrt(3)) has v_p = 1
        assert as_vp1(alpha - sqrt3) == 1

    def test_valuation_axioms_random(self):
        L = field_example1()
        rng = random.Random(17)
        elems = [L.from_int(rng.randrange(1, 200)) * L.pi().pow_int(
            rng.randrange(0, 4)) for _ in range(12)]
        for x in elems:
            for y in elems:
                assert (x * y).valuation() == x.valuation() + y.valuation()
                s = x + y
                v = s.valuation_or_none()
                if v not in (None, INFINITE):
                    assert v >= min(x.valuation(), y.valuation())

    def test_residues(self):
        L = field_example1()
        assert L.from_int(3).residue().is_zero()
        two = L.from_int(2).residue()
        assert two == L.residue_field.from_int(2)
        i = L.gen_unramified()
        assert (i.residue() ** 2) == -L.residue_field.one()

    def test_residue_of_zeta12(self):
        L = field_example2()
        # zeta_3 in L reduces to a generator of GF(4)
        coeffs = [L.from_int(1), L.from_int(1), L.from_int(1)]
        roots = roots_integral(coeffs, L)
        assert len(roots) == 2
        r = roots[0].residue()
        assert not r.is_zero() and r != L.residue_field.one()
        assert r ** 3 == L.residue_field.one()

    def test_division_precision(self):
        L = field_example1()
        x = L.from_fraction(Fraction(5, 9))
        assert as_vp1(x) == -2
        y = x * L.from_int(9)
        assert eq_approx(y, L.from_int(5))

    def test_teichmueller(self):
        L = field_example2()
        r = L.residue_field.gen()
        t = L.teichmueller(r)
        assert eq_approx(t.pow_int(L.residue_field.q - 1), L.one())
        assert t.residue() == r


class TestUnitResidue:
    """``unit_residue`` against the residue of x * pi^-v, by division."""

    FIELDS = (
        lambda: LocalField(5, 1, [-5, 1], 30),        # Q_5
        lambda: LocalField(5, 1, [-15, 1], 30),       # e = 1, pi = 15
        lambda: LocalField(3, 3, [-3, 1], 30),        # unramified, f = 3
        lambda: LocalField(3, 1, [3, 3, 0, 1], 30),   # e = 3, pi^3 = -3 - 3 pi
        lambda: LocalField(5, 2, [10, 5, 1], 30),     # e = 2, f = 2
        field_example1,                               # e = 4, f = 2
        field_example2,                               # flattened, p = 2
    )

    @pytest.mark.parametrize("make", FIELDS)
    def test_matches_division(self, make):
        K = make()
        rng = random.Random(K.degree * K.p)
        piinv = K.pi().invert()
        signs = set()
        for _ in range(40):
            coords = [tuple(rng.randrange(K.U.pN) * K.p ** rng.randrange(3)
                            for _ in range(K.f)) for _ in range(K.e)]
            x = K.element_from_coords(coords, shift=rng.randrange(-2, 3))
            if x.is_zero_to_precision():
                continue
            v = x.valuation()
            signs.add((v > 0) - (v < 0))
            assert x.unit_residue() == (x * piinv.pow_int(v)).residue()
        assert signs == {-1, 0, 1}

    def test_wbar_is_nontrivial(self):
        # p / pi = 5 / 15: residue 1/3 = 2 mod 5
        K = LocalField(5, 1, [-15, 1], 30)
        assert K.wbar() == K.residue_field.from_int(2)
        assert K.from_int(5).unit_residue() == K.wbar()

    @pytest.mark.parametrize("make", FIELDS)
    def test_zero_raises(self, make):
        K = make()
        for x in (K.zero(), K.one() - K.one()):
            with pytest.raises(PrecisionExhausted):
                x.unit_residue()

    def test_digit_beyond_precision_raises(self):
        # 27 known to 2 digits only: its leading digit is not known
        K = LocalField(3, 1, [-3, 1], 30)
        x = LocalFieldElement(K, ((27,),), 0, 2, False)
        with pytest.raises(PrecisionExhausted):
            x.unit_residue()

    def test_exponent_zero_makes_no_multiply(self, fq_calls):
        # v = e k + i with k + shift = 0: the residue needs no wbar power
        K = field_example1()
        x = K.pi().mul_pi_power(2) + K.from_int(3).mul_pi_power(1)
        y = LocalFieldElement(K, K.from_int(9).vec, -2, K.N, False)
        for z in (K.pi(), x, y, K.gen_unramified()):
            assert z.unit_residue() == (z * K.pi_inverse().pow_int(
                z.valuation())).residue()
        fq_calls["__mul__"] = 0
        for z in (K.pi(), x, y, K.gen_unramified()):
            z.unit_residue()
        assert fq_calls["__mul__"] == 0

    def test_pi_inverse_is_cached(self):
        K = field_example1()
        assert K.pi_inverse() is K.pi_inverse()
        assert eq_approx(K.pi_inverse() * K.pi(), K.one())


class TestDigits:
    """``digits`` divides by pi with e products in U; the reference divides
    with a product in L, and the digits and sort keys agree."""

    @pytest.mark.parametrize("make", TestUnitResidue.FIELDS)
    def test_matches_field_products_random(self, make):
        K = make()
        rng = random.Random(K.degree + K.p)
        for _ in range(40):
            coords = [tuple(rng.randrange(K.U.pN) * K.p ** rng.randrange(3)
                            for _ in range(K.f)) for _ in range(K.e)]
            x = K.element_from_coords(coords, shift=rng.randrange(-2, 3))
            for count in (1, 12, K.N * K.e):
                assert x.digits(count) == digits_by_field_products(x, count)

    @pytest.mark.parametrize("name", ("ex1", "ex2", "good_reduction",
                                      "deg40", "padic_tree_pass0"))
    def test_sort_keys_of_roots(self, results_named, name):
        """The sort keys of the branch points and of their differences,
        on the samples, the deg40 curve and the ``padic_tree`` shapes."""
        checked = 0
        for r in results_named(name):
            xs = [bp.value for bp in r.divisor.points if not bp.is_infinity]
            for x in xs + [x - y for x in xs for y in xs]:
                d = digits_by_field_products(x, 12)
                assert sort_key(x) == ((1,) if d[0] == INFINITE else (0,) + d)
                checked += 1
        assert checked


def _random_element(K, rng, shift=0):
    coords = [tuple(rng.randrange(K.U.pN) * K.p ** rng.randrange(3)
                    for _ in range(K.f)) for _ in range(K.e)]
    return K.element_from_coords(coords, shift=shift)


def _fuzzy(K, prec):
    """Zero to working precision, known to ``prec`` digits."""
    return LocalFieldElement(K, K.zero().vec, 0, prec, False)


class TestGaussReduce:
    FIELDS = TestUnitResidue.FIELDS

    @pytest.mark.parametrize("make", FIELDS)
    def test_matches_division(self, make):
        """Against the residues of c * pi^-m, with exact zeros and a least
        valuation below, at and above 0."""
        K = make()
        rng = random.Random(K.degree * K.p + 1)
        mins = set()
        for _ in range(15):
            shift = rng.randrange(-2, 3)
            coeffs = [_random_element(K, rng, shift)
                      for _ in range(rng.randrange(1, 6))]
            coeffs.insert(rng.randrange(len(coeffs) + 1), K.zero())
            m, residues = localfield.gauss_reduce(coeffs, K)
            assert (m, residues) == gauss_reduce_by_division(K, coeffs)
            mins.add((m > 0) - (m < 0))
        assert mins == {-1, 0, 1}

    def test_least_valuation_below_zero(self):
        K = field_example1()
        unit = K.gen_unramified() + K.one()
        coeffs = [K.from_fraction(Fraction(1, 9)) * unit, K.from_int(1),
                  K.pi()]
        m, residues = localfield.gauss_reduce(coeffs, K)
        assert m == -2 * K.e
        assert residues[0] == (coeffs[0] * K.pi().pow_int(-m)).residue()
        assert not residues[0].is_zero()
        assert residues[1].is_zero() and residues[2].is_zero()

    def test_fuzzy_coefficient(self):
        # m = v(9) = 2e: a zero known to N digits reduces to 0, one known
        # to 2 digits does not reach pi^(m+1) and raises
        K = field_example1()
        m, residues = localfield.gauss_reduce([_fuzzy(K, K.N),
                                               K.from_int(9)], K)
        assert m == 2 * K.e and residues[0].is_zero()
        with pytest.raises(PrecisionExhausted):
            localfield.gauss_reduce([_fuzzy(K, 2), K.from_int(9)], K)

    def test_all_fuzzy_raises(self):
        K = field_example1()
        for coeffs in ([_fuzzy(K, K.N)], [_fuzzy(K, 3), K.zero()]):
            with pytest.raises(PrecisionExhausted):
                localfield.gauss_reduce(coeffs, K)


class TestTaylorShift:
    @pytest.mark.parametrize("make", TestUnitResidue.FIELDS)
    def test_matches_binomials(self, make):
        K = make()
        rng = random.Random(K.degree * K.p + 2)
        for trial in range(6):
            coeffs = [K.from_int(rng.randrange(-60, 61)) * K.pi().pow_int(
                rng.randrange(3)) for _ in range(rng.randrange(2, 8))]
            center = K.zero() if trial == 0 else _random_element(K, rng)
            j = rng.randrange(3)
            got = localfield.poly_shift_scale(coeffs, K, center, j)
            ref = taylor_shift_by_binomials(coeffs, K, center, j)
            assert len(got) == len(ref)
            assert all(eq_approx(x, y) for x, y in zip(got, ref))


class TestVecMul:
    """The product with one reduction per output coordinate gives the
    vectors of the product reduced after every integer product."""

    @staticmethod
    def _sparse(K, rng):
        x = _random_element(K, rng)
        keep = rng.sample(range(K.e), rng.randint(1, K.e))
        return tuple(c if i in keep else K.U.zero
                     for i, c in enumerate(x.vec))

    def test_matches_per_product_reduction(self, padic_tree_pass0,
                                           workload_pass0):
        fields = {id(r.L): r.L
                  for _, r in padic_tree_pass0 + workload_pass0("point_count")
                  if not isinstance(r, SuperellError)}
        fields = list(fields.values()) + [
            field_example1(), field_example2(),
            LocalField(5, 3, [-5, 1], 30)]
        rng = random.Random(23)
        assert any(K.e > 1 and K.f > 1 for K in fields)
        assert any(K.e == 1 and K.f > 1 for K in fields)
        for K in fields:
            for _ in range(20):
                v1, v2 = self._sparse(K, rng), self._sparse(K, rng)
                assert K._vec_mul(v1, v2) == \
                    vec_mul_reduced_per_product(K, v1, v2), K.label


class TestInversionCounts:
    def test_newton_refine_inverts_once(self, inversions, monkeypatch):
        per_call = []
        refine = localfield._newton_refine

        def counted(*args):
            before = inversions[0]
            out = refine(*args)
            per_call.append(inversions[0] - before)
            return out

        monkeypatch.setattr(localfield, "_newton_refine", counted)
        # simple residue roots, and the multiple residue root 0 of x^4 - 3
        galois_group(field_example1())
        assert per_call and max(per_call) <= 1

    def test_solve_linear_inverts_once_per_pivot(self, inversions):
        K = field_example1()
        rng = random.Random(11)
        cols = [[_random_element(K, rng) for _ in range(4)] for _ in range(3)]
        xs = [_random_element(K, rng) for _ in range(3)]
        rhs = [sum((x * c[i] for x, c in zip(xs, cols)), K.zero())
               for i in range(4)]
        inversions[0] = 0
        got = fieldsearch._solve_linear(K, cols, rhs)
        assert inversions[0] == len(cols)
        assert all(eq_approx(g, x, margin_digits=6) for g, x in zip(got, xs))


class TestGalois:
    def test_example1_dihedral8(self):
        G = galois_group(field_example1())
        assert G.order() == 8
        assert len(G.inertia) == 4
        inertia_orders = sorted(element_order(G, i) for i in G.inertia)
        assert inertia_orders == [1, 2, 4, 4]  # cyclic of order 4
        all_orders = sorted(element_order(G, i) for i in range(8))
        assert all_orders == [1, 2, 2, 2, 2, 2, 4, 4]  # dihedral

    def test_example2_dihedral12(self):
        G = galois_group(field_example2())
        assert G.order() == 12
        assert len(G.inertia) == 6
        inertia_orders = sorted(element_order(G, i) for i in G.inertia)
        assert inertia_orders == [1, 2, 3, 3, 6, 6]  # cyclic of order 6

    def test_trivial_group(self):
        L = build_tower(5, 1, [], 20)
        G = galois_group(L)
        assert G.order() == 1

    def test_not_galois(self):
        # Q_3(3^(1/4)) without i is not Galois (zeta_4 missing)
        L = LocalField(3, 1, [-3, 0, 0, 0, 1], 40)
        with pytest.raises(NotGalois):
            galois_group(L)

    def test_homomorphism_property(self):
        L = field_example1()
        G = galois_group(L)
        rng = random.Random(5)
        xs = [L.from_int(rng.randrange(1, 50)) + L.pi() * L.from_int(
            rng.randrange(5)) for _ in range(4)]
        for s in G.autos[:4]:
            for x in xs:
                for y in xs:
                    assert eq_approx(s.apply(x + y), s.apply(x) + s.apply(y))
                    assert eq_approx(s.apply(x * y), s.apply(x) * s.apply(y))
            # fixes Q_p elementwise
            assert eq_approx(s.apply(L.from_int(7)), L.from_int(7))

    def test_composition_closes(self):
        G = galois_group(field_example1())
        n = G.order()
        for i in range(n):
            row = G.table[i]
            assert sorted(row) == list(range(n))  # latin square row


DEG40_FIELD = (3, 4, 0, 10, 0, 50)  # construct_candidate: e = 10, f = 4


def _assert_matches_scan(G):
    table, inertia, frob, identity = galois_table_by_scan(G.autos)
    assert G.table == table
    assert (G.inertia, G.frobenius_index, G.identity_index) == \
        (inertia, frob, identity)


class TestGaloisFromGenerators:
    """``galois_group`` builds the table from generators and key lookups;
    ``oracles.galois_table_by_scan`` fills it pair by pair."""

    @pytest.mark.parametrize("make", (field_example1, field_example2))
    def test_matches_scan(self, make):
        _assert_matches_scan(galois_group(make()))

    def test_deg40_matches_scan(self, deg40_result):
        assert deg40_result.L.degree == 40
        _assert_matches_scan(deg40_result.G)

    def test_padic_tree_pass0_fields_match_scan(self, padic_tree_pass0):
        fields = {}
        for _, result in padic_tree_pass0:
            fields.setdefault(result.L.label, result.G)
        assert len(fields) > 3
        for G in fields.values():
            _assert_matches_scan(G)

    @pytest.mark.parametrize("make", (field_example1, field_example2))
    def test_associative(self, make):
        t = galois_group(make()).table
        n = len(t)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert t[t[i][j]][k] == t[i][t[j][k]]

    def test_words_build_every_element(self):
        G = galois_group(field_example2())
        assert set(G.words) | {G.identity_index} == set(range(G.order()))
        for y, (g, x) in G.words.items():
            assert g in G.generators and G.compose(g, x) == y

    def test_deg40_applies_generators_only(self, monkeypatch):
        L = fieldsearch.construct_candidate(*DEG40_FIELD)
        calls = [0]
        apply = Automorphism.apply

        def counted(self, x):
            calls[0] += 1
            return apply(self, x)

        monkeypatch.setattr(Automorphism, "apply", counted)
        G = galois_group(L)
        assert G.order() == 40
        assert 0 < calls[0] <= 2 * len(G.generators) * G.order()
        assert len(G.generators) < 4

    def test_unseparable_images_raise(self):
        # Q_2(i) at 4 digits: sigma(pi) - pi has valuation 2 = e, so the
        # images need keys of depth 2, which reaches N - _MARGIN
        L = fieldsearch.construct_candidate(2, 1, 2, 1, 0, 4)
        with pytest.raises(PrecisionExhausted,
                           match="cannot separate Galois images"):
            galois_group(L)
        assert galois_group(fieldsearch.construct_candidate(
            2, 1, 2, 1, 0, 20)).order() == 2

    def test_key_lookup(self):
        K = field_example1()
        x, y = K.from_int(1), K.from_int(1 + 3**3)
        keyed = KeyedImages([(x,), (y,)], K.N, "test elements")
        assert keyed.depth == 4
        assert keyed.find((K.from_int(1 + 3**5),)) == 0
        with pytest.raises(PrecisionExhausted, match="cannot separate"):
            keyed.find((K.from_int(2),))
        fuzzy = LocalFieldElement(K, x.vec, 0, 3, False)
        with pytest.raises(PrecisionExhausted, match="too few digits"):
            keyed.find((fuzzy,))
        with pytest.raises(PrecisionExhausted, match="cannot separate"):
            KeyedImages([(x,), (y,)], 4, "test elements")


class TestFiltration:
    def test_example2_wild_jumps(self):
        G = galois_group(field_example2())
        filt = ramification_filtration(G)
        sizes = [len(g) for g in filt.groups]
        assert sizes == [6, 2, 2, 2, 1]
        assert filt.last_jump == 3

    def test_tame_trivial_gamma1(self):
        G = galois_group(field_example1())
        filt = ramification_filtration(G)
        assert len(filt.gamma(0)) == 4
        assert len(filt.gamma(1)) == 1

    def test_unramified_trivial_gamma0(self):
        L = build_tower(5, 2, [], 20)
        G = galois_group(L)
        filt = ramification_filtration(G)
        assert len(filt.gamma(0)) == 1

    def test_reads_pi_images_only(self, sample_results, monkeypatch):
        """The filtration applies no automorphism and builds no
        Teichmueller lift, also on ex1's field, where f = 2 and pi does
        not generate O_L over Z_p; it is the one G carries."""
        r = sample_results["ex1"]
        assert r.G.K.f > 1
        calls = []
        for owner, name in ((Automorphism, "apply"),
                            (LocalField, "teichmueller")):
            def counted(*args, _method=getattr(owner, name), _name=name):
                calls.append(_name)
                return _method(*args)
            monkeypatch.setattr(owner, name, counted)
        filt = ramification_filtration(r.G)
        assert calls == []
        assert filt.groups == r.G.filt.groups == r.filt.groups

    def test_matches_witness_search(self):
        for L in (field_example1(), field_example2(),
                  build_tower(5, 2, [], 20)):
            G = galois_group(L)
            assert G.filt.groups == filtration_by_witness_search(G)

    def test_hilbert_check(self):
        """Moving one image of pi away from pi (i(sigma) 4 -> 2) breaks
        Hilbert's formula: sum i(sigma) no longer equals v_L(E'(pi))."""
        G = galois_group(field_example2())
        K = G.K
        wild = next(s for s in G.filt.gamma(1) if s != G.identity_index)
        s = G.autos[wild]
        assert (s.pi_img - K.pi()).valuation() == 4
        G.autos[wild] = Automorphism(K, s.a_img,
                                     s.pi_img + K.pi().pow_int(2))
        with pytest.raises(NotMonogenicWitness, match="Hilbert's formula"):
            ramification_filtration(G)

    def test_sizes_divide(self):
        for L in (field_example1(), field_example2()):
            filt = ramification_filtration(galois_group(L))
            for a, b in zip(filt.groups, filt.groups[1:]):
                assert len(a) % len(b) == 0
            # Gamma_1 is a p-group
            assert len(filt.gamma(1)) in (1, L.p, L.p**2, L.p**3)


class TestSearch:
    def test_splitting_example1(self):
        f = parse_poly("(x^2-3)*(x^2+3)*(x^2-6*x-3)")
        L, roots = splitting_field(f, 3)
        assert L.degree == 4 and L.e == 2 and L.f == 2
        assert len(roots) == 6
        assert all(as_vp1(r) == Fraction(1, 2) for r in roots)

    def test_splitting_example2(self):
        f = parse_poly("x^4-x^2+1")
        L, roots = splitting_field(f, 2)
        assert L.degree == 4 and L.f == 2 and L.e == 2
        assert len(roots) == 4
        assert all(as_vp1(r) == 0 for r in roots)

    def test_splitting_trivial(self):
        f = parse_poly("x^2-1")
        L, roots = splitting_field(f, 5)
        assert L.degree == 1
        assert sorted(r.residue().index() for r in roots) == [1, 4]

    def test_semistabilizing_example1(self):
        f = parse_poly("(x^2-3)*(x^2+3)*(x^2-6*x-3)")
        L, G, _ = semistabilizing_field(f, 4, 3)
        assert L.degree == 8 and L.e == 4
        assert G.order() == 8

    def test_semistabilizing_example2(self):
        f = parse_poly("x^4-x^2+1")
        L, G, _ = semistabilizing_field(f, 3, 2)
        assert L.degree == 12 and L.e == 6
        assert G.order() == 12

    def test_semistabilizing_trivial(self):
        f = parse_poly("x^2-1")
        L, G, _ = semistabilizing_field(f, 2, 5)
        assert L.e == 2 and L.f == 1
        assert G.order() == 2

    def test_catalog_exhausted(self):
        f = parse_poly("x^2-3")
        with pytest.raises(CatalogExhausted):
            splitting_field(f, 3, SearchConfig(max_degree=1))

    def test_catalog_exhausted_names_the_bound(self):
        f = parse_poly("x^2-3")
        with pytest.raises(CatalogExhausted) as exc:
            semistabilizing_field(f, 4, 3, SearchConfig(max_degree=2))
        assert str(exc.value) == (
            "no Galois catalog field of degree <= 2 splits f and contains "
            "zeta_4 and p^(1/4); supply an explicit field tower")

    def test_precision_shortfall_is_not_exhausted_catalog(self):
        """ex1 under x -> x + 1/3: at precision 50 the split test over ex1's
        field runs out of digits, which is a shortfall, not "no field"."""
        curve = SuperellipticCurve.from_json_dict({"n": 4, "p": 3, "f": [
            ["(x+1/3)^2-3", 1], ["(x+1/3)^2+3", 1],
            ["(x+1/3)^2-6*(x+1/3)-3", 1]]})
        with pytest.raises(PrecisionExhausted):
            semistabilizing_field(curve.f, 4, 3, SearchConfig(50, 8))
        L, _, _ = semistabilizing_field(curve.f, 4, 3, SearchConfig(200, 8))
        assert (L.e, L.f) == (4, 2)

    def test_good_reduction_builds_one_field(self, monkeypatch):
        """With an empty field cache the scan builds one catalog field for
        good_reduction, and the branch divisor searches no roots."""
        monkeypatch.setattr(fieldsearch, "_CANDIDATE_CACHE", {})
        counts = {"builds": 0, "divisor_searches": 0}
        in_divisor = [False]
        construct = fieldsearch._construct_candidate
        roots_integral = localfield.roots_integral
        divisor = pipeline.branch_divisor

        def counted_construct(*args):
            counts["builds"] += 1
            return construct(*args)

        def counted_roots(*args, **kwargs):
            counts["divisor_searches"] += in_divisor[0]
            return roots_integral(*args, **kwargs)

        def watched_divisor(*args):
            in_divisor[0] = True
            try:
                return divisor(*args)
            finally:
                in_divisor[0] = False

        monkeypatch.setattr(fieldsearch, "_construct_candidate",
                            counted_construct)
        monkeypatch.setattr(localfield, "roots_integral", counted_roots)
        monkeypatch.setattr(pipeline, "branch_divisor", watched_divisor)
        compute_with_retry(SuperellipticCurve(
            2, parse_poly("x^5 - x + 1"), 7))
        assert counts == {"builds": 1, "divisor_searches": 0}

    def test_tame_radical_rule_matches_root_test(self, monkeypatch):
        """On an entry without a wild step that passes n | e and
        n | p^f0 - 1, p^(1/n) is in L exactly when n | u_idx: 471 entries
        with p <= 13, 2 <= n <= 12, p not dividing n, degree <= 12."""
        monkeypatch.setattr(fieldsearch, "_CANDIDATE_CACHE", {})
        checked = 0
        for p in (2, 3, 5, 7, 11, 13):
            for _, f0, s, e, u_idx in catalog_entries(p, SearchConfig(20, 12)):
                for n in range(2, 13):
                    if s or n % p == 0 or e % n or (p**f0 - 1) % n:
                        continue
                    L = construct_candidate(p, f0, s, e, u_idx, 20)
                    radical = QPoly([-p] + [0] * (n - 1) + [1])
                    has_root = splits_in(L, [radical]) is not None
                    assert has_root == (u_idx % n == 0), (p, f0, e, u_idx, n)
                    checked += 1
        assert checked == 471

    def test_wild_entry_keeps_the_root_test(self):
        """Q_7(zeta_7) = Q_7((-7)^(1/6)) passes n | e and n | p - 1 for
        n = 2 and has u_idx = 0, but 7^(1/2) is not in it: -1 is not a
        square mod 7."""
        L = construct_candidate(7, 1, 1, 1, 0, 50)
        assert (L.e, L.f) == (6, 1)
        assert splits_in(L, [parse_poly("x^2-7")]) is None
        assert splits_in(L, [parse_poly("x^2+7")]) is not None

    @staticmethod
    def _count_groups(monkeypatch):
        fields = []
        group = fieldsearch.galois_group

        def counted(L):
            fields.append(L)
            return group(L)

        monkeypatch.setattr(fieldsearch, "galois_group", counted)
        return fields

    def test_one_group_per_field(self, perfbench, monkeypatch):
        """With an empty field cache, pass 0 of ``padic_tree`` computes
        Gal(L/Q_p) once per field it asks about, and pass 1, isomorphic
        copies of the same shapes, computes none."""
        monkeypatch.setattr(fieldsearch, "_CANDIDATE_CACHE", {})
        fields = self._count_groups(monkeypatch)
        _, passes = perfbench.workloads.build(
            "padic_tree", perfbench.reference.DEFAULT_SEED)
        for k in (0, 1):
            del fields[:]
            for case in passes[k]:
                compute_with_retry(
                    SuperellipticCurve.from_json_dict(case.spec))
            if k == 0:
                assert fields
                assert len({id(L) for L in fields}) == len(fields)
            else:
                assert fields == []

    def test_cached_not_galois_is_skipped(self, monkeypatch):
        """A non-Galois catalog field over which f splits is asked about
        once: the scan for an isomorphic copy of f skips it without a
        second ``galois_group`` call, and yields the same fields."""
        monkeypatch.setattr(fieldsearch, "_CANDIDATE_CACHE", {})
        fields = self._count_groups(monkeypatch)
        config = SearchConfig(50, 8)
        first = [L for L, _, _ in semistabilizing_candidates(
            parse_poly("x^2-3"), 2, 3, config)]
        failed = {key for key, (_, G) in fieldsearch._CANDIDATE_CACHE.items()
                  if isinstance(G, NotGalois)}
        assert (3, 1, 0, 4, 0, 50) in failed
        assert len(fields) == len(first) + len(failed)
        del fields[:]
        second = [L for L, _, _ in semistabilizing_candidates(
            parse_poly("(x+1)^2-3"), 2, 3, config)]
        assert second == first and fields == []

    def test_cached_not_galois_takes_no_newton_step(self, monkeypatch,
                                                    newton_refines):
        """The scan for an isomorphic copy skips an entry whose cached
        group is NotGalois before any Newton step over it."""
        monkeypatch.setattr(fieldsearch, "_CANDIDATE_CACHE", {})
        config = SearchConfig(50, 8)
        list(semistabilizing_candidates(parse_poly("x^2-3"), 2, 3, config))
        entry = fieldsearch._CANDIDATE_CACHE[(3, 1, 0, 4, 0, 50)]
        assert isinstance(entry[1], NotGalois)
        assert any(K is entry[0] for K in newton_refines)
        del newton_refines[:]
        list(semistabilizing_candidates(parse_poly("(x+1)^2-3"), 2, 3,
                                        config))
        assert newton_refines
        assert all(K is not entry[0] for K in newton_refines)

    def test_root_order_deterministic(self):
        f = parse_poly("(x^2-3)*(x^2+3)*(x^2-6*x-3)")
        L, roots1 = splitting_field(f, 3)
        _, roots2 = splitting_field(f, 3)
        keys1 = [r.digits(8) for r in roots1]
        keys2 = [r.digits(8) for r in roots2]
        assert keys1 == keys2


P5_CBRT5 = {"n": 3, "p": 5, "f": [["x^3-5", 1], ["x-1", 1]]}


def _curve(name):
    if name == "p5_cbrt5":
        return SuperellipticCurve.from_json_dict(P5_CBRT5)
    return SuperellipticCurve.from_json_dict(
        json.loads((SAMPLE_CURVES / f"{name}.json").read_text()))


class TestRootSearch:
    """The residue pass decides the split test before any Newton step;
    roots in Q_p are lifted with integers; Galois conjugates are images
    of a lifted root."""

    def test_no_split_no_newton(self, newton_refines):
        """Over Q_7(zeta_7), x^2 + 7 passes the residue test and x^2 - 7
        does not: the split test fails with no Newton step, also for
        x^2 + 7, which is tested first."""
        L = construct_candidate(7, 1, 1, 1, 0, 50)
        assert localfield.roots_of_qpoly(L, parse_poly("x^2-7")).count == 0
        assert splits_in(L, [parse_poly("x^2+7"),
                             parse_poly("x^2-7")]) is None
        assert newton_refines == []
        assert len(splits_in(L, [parse_poly("x^2+7")])[0]) == 2

    def test_failed_split_tests_take_no_newton_step(self, perfbench,
                                                    monkeypatch,
                                                    newton_refines):
        """On pass 0 of ``padic_tree``, with an empty field cache, every
        Newton lift is over a field whose residue tests passed: a field
        over which f does not split costs none."""
        monkeypatch.setattr(fieldsearch, "_CANDIDATE_CACHE", {})
        passed, failed = [], []
        residue_tests = fieldsearch._residue_tests

        def recorded(L, polys):
            searches = residue_tests(L, polys)
            (failed if searches is None else passed).append(id(L))
            return searches

        monkeypatch.setattr(fieldsearch, "_residue_tests", recorded)
        _, passes = perfbench.workloads.build(
            "padic_tree", perfbench.reference.DEFAULT_SEED)
        for case in passes[0]:
            compute_with_retry(SuperellipticCurve.from_json_dict(case.spec))
        assert newton_refines and failed
        assert {id(K) for K in newton_refines} <= set(passed)

    @pytest.mark.parametrize("p, poly", [
        (7, "(x-1)*(x-2)*(3*x-4)*(x-10)"),
        (7, "(7*x-1)*(x-3)"),
        (5, "(x-1)*(x+1)*(x-7)"),
    ])
    def test_qp_roots_take_no_l_newton(self, p, poly, newton_refines):
        """Roots that reduce to simple roots mod p are lifted with integers
        (also with a leading coefficient, a unit or not): no Newton step in
        L, and the roots of the digit search."""
        qp = parse_poly(poly)
        for L in (construct_candidate(p, 2, 0, 2, 0, 50),
                  construct_candidate(p, 1, 0, 1, 0, 50)):
            search = localfield.roots_of_qpoly(L, qp)
            assert search.count == qp.degree() and search.leaves == []
            roots = search.lift()
            ref = roots_by_digit_search(L, qp)
            assert len(roots) == len(ref) == qp.degree()
            assert all(eq_approx(x, y) for x, y in zip(roots, ref))
        assert newton_refines == []

    @pytest.mark.parametrize("name", ["ex2", "p5_cbrt5"])
    def test_orbits_lift_fewer_leaves(self, name, newton_refines):
        """With G, Newton lifts fewer leaves than there are, and the roots
        are those of the digit search and of the lift without G."""
        curve = _curve(name)
        r = compute_with_retry(curve)
        leaves = lifts = 0
        for g, _ in curve.f.squarefree_decomposition():
            search = localfield.roots_of_qpoly(r.L, g)
            del newton_refines[:]
            roots = search.lift(lambda: r.G)
            leaves += len(search.leaves)
            lifts += len(newton_refines)
            for other in (search.lift(), roots_by_digit_search(r.L, g)):
                assert len(other) == len(roots) == g.degree()
                assert all(eq_approx(x, y) for x, y in zip(roots, other))
        assert 0 < lifts < leaves

    @pytest.mark.parametrize("name, lifts", [
        ("ex1", 3), ("ex2", 1), ("good_reduction", 2), ("p5_cbrt5", 1)])
    def test_newton_lifts_per_curve(self, name, lifts, newton_refines):
        """The Newton lifts of the pipeline on a sample curve, its fields'
        groups known: one per orbit of roots outside Q_p, over the final
        field only."""
        curve = _curve(name)
        compute_with_retry(curve)
        del newton_refines[:]
        r = compute_with_retry(curve)
        assert len(newton_refines) == lifts
        assert all(K is r.L for K in newton_refines)
