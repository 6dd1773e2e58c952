import pytest

from hyperdeg.core import VertexClasses


@pytest.fixture
def colex_route(monkeypatch):
    """Every instance derived from here on sweeps all C(n, r) subsets (k = n
    classes).  An instance fixes its route when first derived, so build it in
    the test, after this fixture."""
    monkeypatch.setattr(
        VertexClasses, "route",
        classmethod(lambda cls, grouped, r: cls.singletons(grouped.n)),
    )
