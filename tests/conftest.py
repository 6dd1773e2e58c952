import pytest

from hyperdeg import fields, solver
from hyperdeg.core import VertexClasses


@pytest.fixture(autouse=True)
def empty_solve_slot(monkeypatch):
    """Every test starts with no remembered solve, so a test that patches the
    sweep or the solver's internals sees its first solve of an instance run."""
    monkeypatch.setattr(solver, "_last", None)


@pytest.fixture
def sweeps(monkeypatch):
    """The solver's field sweeps, counted: a list that grows by one per call."""
    calls = []
    real = solver.field_summary

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "field_summary", counted)
    return calls


@pytest.fixture
def colex_route(monkeypatch):
    """Every instance derived from here on sweeps all C(n, r) subsets (k = n
    classes).  An instance fixes its route when first derived, so build it in
    the test, after this fixture."""
    monkeypatch.setattr(
        VertexClasses, "route",
        classmethod(lambda cls, grouped, r: cls.singletons(grouped.n)),
    )


@pytest.fixture
def plan_cache():
    """The row-plan cache, empty when the test starts and when it ends, so its
    ``cache_info()`` counts only the test's own sweeps."""
    fields._row_plan.cache_clear()
    yield fields._row_plan
    fields._row_plan.cache_clear()
