import pytest

from superell import tree
from superell.localfield import LocalFieldElement


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
