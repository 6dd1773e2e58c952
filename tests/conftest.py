import pytest

from hyperdeg.fields import VertexClasses


@pytest.fixture
def colex_route(monkeypatch):
    """Every solve and estimate sweeps all C(n, r) subsets (k = n classes)."""
    monkeypatch.setattr(
        VertexClasses, "for_degrees",
        classmethod(lambda cls, degrees, r: cls.singletons(len(degrees))),
    )
