import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from superell import tree
from superell.curve import SuperellipticCurve
from superell.errors import SuperellError
from superell.finitefield import FqElement, FqField
from superell.localfield import LocalFieldElement
from superell.pipeline import compute_with_retry

REPO = Path(__file__).resolve().parents[1]
SAMPLE_CURVES = REPO / "sample_curves"
DEG40_SPEC = {"n": 5, "f": [-12, -12, 1, 4, 1], "p": 3}  # [L:Q_3] = 40
# ex1 under x -> 3x: branch points at valuation -1/2
EX1_NON_INTEGRAL_SPEC = {"n": 4, "p": 3, "f": [
    ["9*x^2-3", 1], ["9*x^2+3", 1], ["9*x^2-18*x-3", 1]]}


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


@pytest.fixture
def results_named(request):
    """results_named(name): the pipeline results of a sample curve, of
    ``"deg40"``, of ``"ex1_non_integral"``, or of the curves of
    ``"padic_tree_pass0"`` that compute, as a list."""
    def results(name):
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
def padic_tree_pass0(perfbench):
    """(case, outcome) for pass 0 of the benchmark's ``padic_tree``
    workload at its default seed: the outcome is the pipeline result, or
    the typed error the pipeline raised."""
    _, passes = perfbench.workloads.build(
        "padic_tree", perfbench.reference.DEFAULT_SEED)
    out = []
    for case in passes[0]:
        try:
            out.append((case, compute_with_retry(
                SuperellipticCurve.from_json_dict(case.spec))))
        except SuperellError as exc:
            out.append((case, exc))
    return out


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
