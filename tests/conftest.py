import importlib.util
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from superell import fieldsearch, finitefield, localfield, tree
from superell.curve import SuperellipticCurve
from superell.descent import _frobenius_orbits, orbits
from superell.errors import SuperellError
from superell.fieldsearch import SearchConfig
from superell.finitefield import FqElement, FqField
from superell.localfield import (
    INFINITE,
    _MARGIN,
    Automorphism,
    LocalFieldElement,
)
from superell.pipeline import compute_with_retry

REPO = Path(__file__).resolve().parents[1]
SAMPLE_CURVES = REPO / "sample_curves"
DEG40_SPEC = {"n": 5, "f": [-12, -12, 1, 4, 1], "p": 3}  # [L:Q_3] = 40
# ex1 under x -> 3x: branch points at valuation -1/2
EX1_NON_INTEGRAL_SPEC = {"n": 4, "p": 3, "f": [
    ["9*x^2-3", 1], ["9*x^2+3", 1], ["9*x^2-18*x-3", 1]]}


def as_vp1(x):
    """The valuation of x in the v(p) = 1 scale."""
    v = x.valuation()
    return INFINITE if v == INFINITE else Fraction(v, x.K.e)


def eq_approx(x, y, margin_digits=_MARGIN):
    """Equality of two elements of L up to working precision less
    ``margin_digits`` digits."""
    d = x - y
    v = None if d.exact_zero else d.valuation_or_none()
    need = x.K.e * (min(x.prec, y.prec) + min(x.shift, y.shift)
                    - margin_digits)
    return v is None or v >= need


def element_order(G, i):
    """The order of element i of the Galois group G."""
    j, n = i, 1
    while j != G.identity_index:
        j = G.table[j][i]
        n += 1
    return n


def node_orbit_data(ctx):
    """(number of inertia classes of the nodes, sorted Frobenius orbit
    sizes on them, node orbit count under each group of ``ctx.G.filt``),
    by the package's orbit routines: the side compared with
    ``oracles.node_orbit_data_by_label_field``."""
    nodes = ctx.nodes()
    i_orbits, f_orbits = _frobenius_orbits(nodes, ctx.G, ctx.node_action)
    return (len(i_orbits), sorted(len(o) for o in f_orbits),
            [len(orbits(nodes, H, lambda g, x: ctx.node_action(g, x, 0)))
             for H in ctx.G.filt.groups])


@pytest.fixture(scope="session")
def sample_results():
    """The pipeline results of the three ``sample_curves`` specs, by name."""
    return {name: compute_with_retry(SuperellipticCurve.from_json_dict(
                json.loads((SAMPLE_CURVES / f"{name}.json").read_text())))
            for name in ("ex1", "ex2", "good_reduction")}


@pytest.fixture(scope="session")
def deg40_result():
    """The pipeline result of the ``cold_cli`` curve whose field L has
    degree 40 (e = 10, f = 4)."""
    return compute_with_retry(SuperellipticCurve.from_json_dict(DEG40_SPEC))


@pytest.fixture(scope="session")
def ex1_non_integral_result():
    """The pipeline result of ex1 under x -> 3x."""
    return compute_with_retry(
        SuperellipticCurve.from_json_dict(EX1_NON_INTEGRAL_SPEC))


@pytest.fixture(scope="session")
def corpus_multi_vertex_results():
    """The pipeline results, at max_degree 24, of the inputs among the
    first 30 of the acceptance corpus whose trees have two or more
    vertices."""
    from test_acceptance import _corpus

    config = SearchConfig(max_degree=24)
    out = []
    for n, f, p in _corpus()[:30]:
        try:
            r = compute_with_retry(SuperellipticCurve(n, f, p), config)
        except SuperellError:
            continue
        if r.tree.vertex_count() >= 2:
            out.append(r)
    return out


@pytest.fixture
def results_named(request):
    """results_named(name): the pipeline results of a sample curve, of
    ``"deg40"``, of ``"ex1_non_integral"``, of the curves of
    ``"padic_tree_pass0"`` that compute, or of
    ``"corpus_multi_vertex"``, as a list."""
    def results(name):
        if name == "corpus_multi_vertex":
            return request.getfixturevalue("corpus_multi_vertex_results")
        if name == "padic_tree_pass0":
            return [r for _, r in request.getfixturevalue(name)
                    if not isinstance(r, SuperellError)]
        if name in ("deg40", "ex1_non_integral"):
            return [request.getfixturevalue(f"{name}_result")]
        return [request.getfixturevalue("sample_results")[name]]
    return results


@pytest.fixture(scope="session")
def perfbench():
    """perfbench/workloads.py and reference.py, loaded by path (each is
    registered under its own name while loading, since ``reference``
    imports ``workloads``)."""
    modules = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("workloads", "reference"):
            spec = importlib.util.spec_from_file_location(
                name, REPO / "perfbench" / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
    return SimpleNamespace(**modules)


@pytest.fixture(scope="session")
def workload_pass0(perfbench):
    """workload_pass0(name): (case, outcome) for pass 0 of the benchmark
    workload ``name`` at its default seed, computed once per session: the
    outcome is the pipeline result, or the typed error the pipeline
    raised."""
    cache = {}

    def outcomes(workload):
        if workload not in cache:
            _, passes = perfbench.workloads.build(
                workload, perfbench.reference.DEFAULT_SEED)
            out = []
            for case in passes[0]:
                try:
                    out.append((case, compute_with_retry(
                        SuperellipticCurve.from_json_dict(case.spec))))
                except SuperellError as exc:
                    out.append((case, exc))
            cache[workload] = out
        return cache[workload]
    return outcomes


@pytest.fixture(scope="session")
def padic_tree_pass0(workload_pass0):
    """(case, outcome) for pass 0 of the ``padic_tree`` workload."""
    return workload_pass0("padic_tree")


@pytest.fixture
def inversions(monkeypatch):
    """A one-element list counting the ``LocalFieldElement.invert`` calls
    made while the test runs."""
    count = [0]
    invert = LocalFieldElement.invert

    def counted(self):
        count[0] += 1
        return invert(self)

    monkeypatch.setattr(LocalFieldElement, "invert", counted)
    return count


@pytest.fixture
def newton_refines(monkeypatch):
    """The fields of the Newton lifts in L (``localfield._newton_refine``
    calls) made while the test runs, one entry per lift."""
    fields = []
    refine = localfield._newton_refine

    def counted(coeffs, K, x, dcoeffs):
        fields.append(K)
        return refine(coeffs, K, x, dcoeffs)

    monkeypatch.setattr(localfield, "_newton_refine", counted)
    return fields


@pytest.fixture
def moebius_calls(monkeypatch):
    """A one-element list counting the ``tree.moebius_eval`` calls made
    while the test runs."""
    count = [0]
    moebius_eval = tree.moebius_eval

    def counted(m, x, L):
        count[0] += 1
        return moebius_eval(m, x, L)

    monkeypatch.setattr(tree, "moebius_eval", counted)
    return count


@pytest.fixture
def applies(monkeypatch):
    """A one-element list counting the ``Automorphism.apply`` calls made
    while the test runs."""
    count = [0]
    apply = Automorphism.apply

    def counted(self, x):
        count[0] += 1
        return apply(self, x)

    monkeypatch.setattr(Automorphism, "apply", counted)
    return count


@pytest.fixture
def factorizations(monkeypatch):
    """A Counter of the ``factor_poly`` calls made while the test runs,
    by the name of the calling function (``power_class``,
    ``residue_degree_bound``, ...)."""
    counts = Counter()
    factor_poly = finitefield.factor_poly

    def counted(g):
        counts[sys._getframe(1).f_code.co_name] += 1
        return factor_poly(g)

    monkeypatch.setattr(finitefield, "factor_poly", counted)
    monkeypatch.setattr(fieldsearch, "factor_poly", counted)
    return counts


@pytest.fixture
def fq_calls(monkeypatch):
    """Counts of the ``FqElement.__mul__`` and ``FqField._inv`` calls made
    while the test runs, by method name.  Every inversion in the module,
    ``FqElement.inverse`` and the leading-coefficient inversions of
    ``FqPoly``, goes through ``FqField._inv``."""
    counts = {}
    for cls, name in ((FqElement, "__mul__"), (FqField, "_inv")):
        method = getattr(cls, name)
        counts[name] = 0

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return counts
