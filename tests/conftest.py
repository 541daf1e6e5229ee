import pytest

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
