import json
from pathlib import Path

import pytest

from superell import tree
from superell.curve import SuperellipticCurve
from superell.finitefield import FqElement, FqField
from superell.localfield import LocalFieldElement
from superell.pipeline import compute_with_retry

SAMPLE_CURVES = Path(__file__).resolve().parents[1] / "sample_curves"


@pytest.fixture(scope="session")
def sample_results():
    """The pipeline results of the three ``sample_curves`` specs, by name."""
    return {name: compute_with_retry(SuperellipticCurve.from_json_dict(
                json.loads((SAMPLE_CURVES / f"{name}.json").read_text())))
            for name in ("ex1", "ex2", "good_reduction")}


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
