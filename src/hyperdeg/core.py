"""Degree-sequence instances, derived scalars, and the quadrant symmetries.

An instance is (n, r, degrees): n vertices, edges of size r, and the number
of edges each vertex must lie in.  Two complement operations act on
instances, and counting is invariant under both:

* edge-complement: replace every edge by its complement in the vertex set
  (degrees become m - d_j, edge size becomes n - r);
* set-complement: complement the edge set inside the full r-subset family
  (degrees become C(n-1, r-1) - d_j, edge size unchanged).

Composing both gives the third non-trivial image.  Any instance can be moved
into the "first quadrant" r <= n/2, m <= C(n, r)/2 by at most one of each.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NonIntegral,
    ParityViolation,
    RangeViolation,
)


class QuadrantTransform(Enum):
    """A quadrant transform: the edge complement if ``edge``, then the set
    complement if ``complement``."""

    IDENTITY = "identity"
    EDGE_COMPLEMENT = "edge-complement"
    SET_COMPLEMENT = "set-complement"
    BOTH = "both"

    @property
    def edge(self) -> bool:
        return self in (QuadrantTransform.EDGE_COMPLEMENT, QuadrantTransform.BOTH)

    @property
    def complement(self) -> bool:
        return self in (QuadrantTransform.SET_COMPLEMENT, QuadrantTransform.BOTH)


@dataclass(frozen=True)
class DegreeSequence:
    """A validated problem instance.

    Edge sizes 1 and n-1 are admitted so that symmetry images stay
    representable, even though the asymptotic theory assumes 3 <= r <= n-3;
    an edge-complement image exists only if a hypergraph has these degrees.
    """

    n: int
    r: int
    degrees: tuple[int, ...]
    # the degree sum, taken once by validation
    _degree_sum: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        degrees = self.degrees
        if isinstance(degrees, np.ndarray) and degrees.ndim == 1 and degrees.dtype.kind in "iu":
            # an integer array converts to Python ints in one pass
            object.__setattr__(self, "degrees", tuple(degrees.tolist()))
        named = (("n", (self.n,)), ("r", (self.r,)), ("degree", self.degrees))
        plain = True
        for name, values in named:
            for value in values:
                # the type test first: plain ints skip the slower ABC check
                if type(value) is not int:
                    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                        raise NonIntegral(f"{name} {value!r} is not an integer")
                    plain = False
        if not plain:
            # numpy integers would sum in int64 and wrap: keep Python ints
            object.__setattr__(self, "n", int(self.n))
            object.__setattr__(self, "r", int(self.r))
            object.__setattr__(self, "degrees", tuple(map(int, self.degrees)))
        if self.n < 2:
            raise DimensionMismatch(f"need n >= 2, got n={self.n}")
        if not (1 <= self.r <= self.n - 1):
            raise RangeViolation(f"need 1 <= r <= n-1, got r={self.r}, n={self.n}")
        if len(self.degrees) != self.n:
            raise DimensionMismatch(
                f"{len(self.degrees)} degrees for n={self.n} vertices"
            )
        total = sum(self.degrees)
        object.__setattr__(self, "_degree_sum", total)
        if total % self.r != 0:
            raise ParityViolation(
                f"edge size {self.r} does not divide degree sum {total}"
            )
        cap = math.comb(self.n - 1, self.r - 1)
        for j, dj in enumerate(self.degrees):
            if dj < 0 or dj > cap:
                raise RangeViolation(
                    f"degree d_{j+1}={dj} outside [0, C(n-1, r-1)={cap}]"
                )

    @cached_property
    def params(self) -> "DerivedParams":
        """``derive(self)``, made once per instance and shared by every reader."""
        return derive(self)

    @property
    def edge_count(self) -> int:
        return self._degree_sum // self.r

    @property
    def degree_cap(self) -> int:
        return math.comb(self.n - 1, self.r - 1)

    def check_edge_bounds(self) -> None:
        """``RangeViolation`` unless every d_j lies in [m - C(n-1, r), m]: a
        vertex misses at most the C(n-1, r) subsets without it.  The bounds
        hold for both complement images or for neither; construction leaves
        them unchecked, as the exact oracles count such degrees as 0.  The
        least and greatest degree come from ``params``; the degrees are
        scanned only to name an offending vertex."""
        m = self.edge_count
        lo = m - math.comb(self.n - 1, self.r)
        params = self.params
        if params.min_degree < lo or params.max_degree > m:
            degrees = self.degrees
            j = next(j for j, dj in enumerate(degrees) if not lo <= dj <= m)
            raise RangeViolation(f"degree d_{j+1}={degrees[j]} outside [m - C(n-1, r)={lo}, "
                                 f"m={m}]: no hypergraph has these degrees")

    def to_json_dict(self) -> dict:
        return {"n": self.n, "r": self.r, "degrees": list(self.degrees)}

    @staticmethod
    def from_json_dict(data: dict) -> "DegreeSequence":
        try:
            n = _json_int(data["n"])
            r = _json_int(data["r"])
            degrees = tuple(_json_int(x) for x in data["degrees"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatch(f"malformed instance JSON: {exc}") from exc
        return DegreeSequence(n, r, degrees)


def _json_int(value):
    """An integral float such as 5.0 as an int; anything else unchanged."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


# Above this C(n, r) no instance takes the class route (so the subset
# budget refuses it); below it a multiplicity capped at C(n, r) times one
# more capped factor stays finite in float64.
CLASS_ROUTE_LIMIT = 2**500


@dataclass(frozen=True, eq=False)
class VertexClasses:
    """A partition of the vertices into classes that share one beta value.

    ``index[v]`` is the class of vertex v, ``sizes[i]`` the size of class i
    and ``first[i]`` its first vertex.  With k = n classes (singletons) a
    sweep is the plain colex sweep over the vertices.  A solve takes its
    classes from the degrees alone (``derive``); a beta is never split
    into classes by its values.
    """

    index: np.ndarray
    sizes: np.ndarray
    first: np.ndarray

    @property
    def n(self) -> int:
        return int(self.index.size)

    @property
    def k(self) -> int:
        return int(self.sizes.size)

    @classmethod
    def singletons(cls, n: int) -> "VertexClasses":
        every = np.arange(n, dtype=np.int64)
        return cls(every, np.ones(n, dtype=np.int64), every)

    @classmethod
    def route(cls, grouped: "VertexClasses", r: int) -> "VertexClasses":
        """The classes a solve sweeps, given the classes of equal degree.

        The solution is unique, so vertices of equal degree get equal beta.
        The degree classes are used when their C(k+r-1, r) compositions are
        fewer than the C(n, r) subsets; otherwise (always at k = n) every
        vertex is its own class, in vertex order.
        """
        if math.comb(grouped.k + r - 1, r) < math.comb(grouped.n, r) < CLASS_ROUTE_LIMIT:
            return grouped
        return cls.singletons(grouped.n)

    def rows(self, r: int) -> int:
        """The rows a sweep enumerates: subsets on singletons, else compositions."""
        if self.k == self.n:
            return math.comb(self.n, r)
        return math.comb(self.k + r - 1, r)


@dataclass(frozen=True)
class DerivedParams:
    """Every scalar the closed formulas consume, plus hypothesis flags.

    ``d``, ``lambda`` and ``Q`` are kept as exact rationals alongside their
    float values, so that Q is exactly invariant under the symmetries.  The
    power sums R_s = sum_j (d_j - d)^s are summed exactly and rounded once.
    """

    n: int
    r: int
    d_exact: Fraction
    m: int
    lambda_exact: Fraction
    q_exact: Fraction
    delta_max: float
    min_degree: int
    max_degree: int
    r2: float
    r3: float
    r4: float
    flags: dict
    # the classes a solve sweeps, and the degree of each
    classes: VertexClasses = field(compare=False, repr=False)
    class_degrees: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def d(self) -> float:
        return float(self.d_exact)

    @property
    def lam(self) -> float:
        return float(self.lambda_exact)

    @property
    def q(self) -> float:
        return float(self.q_exact)


def derive(seq: DegreeSequence) -> DerivedParams:
    """The scalars and the swept classes from one ``np.unique`` of the degrees;
    every sum runs over the k distinct degrees in Python ints."""
    n, r = seq.n, seq.r
    cap = math.comb(n - 1, r - 1)
    # degrees beyond int64 stay Python ints, in an object array; without
    # return_index np.unique needs no stable sort
    values, index, sizes = np.unique(
        np.fromiter(seq.degrees, np.int64 if cap < 2**63 else object, n),
        return_inverse=True, return_counts=True,
    )
    # the first vertex of each class is the least vertex in it
    first = np.full(values.size, n)
    np.minimum.at(first, index, np.arange(n))
    distinct, counts = values.tolist(), sizes.tolist()
    total = sum(c * dj for dj, c in zip(distinct, counts))
    d_exact = Fraction(total, n)
    m = total // r
    lam = Fraction(d_exact, cap)
    q = (1 - lam) * (n - r) * d_exact

    # d_j - d = (n d_j - total) / n: integer power sums over the distinct
    # degrees, divided by n^s once
    def power_sum(s: int) -> float:
        return float(Fraction(
            sum(c * (n * dj - total) ** s for dj, c in zip(distinct, counts)), n**s
        ))

    delta_max = max(max(abs(n * dj - total) for dj in distinct) / n, 1.0)
    r2, r3, r4 = power_sum(2), power_sum(3), power_sum(4)

    qf = float(q)
    flags = {
        "edge_size_in_range": 3 <= r <= n - 3,
        "density_nondegenerate": 0 < lam < 1,
        # growth condition of the general counting formula, constant 1
        "main_growth": (
            r**3 * (n - r) ** 3 * math.log(n)
            <= float(lam * (1 - lam)) * n * math.comb(n, r)
        ),
        # near-regular criterion, implicit constant 1
        "near_regular": (
            qf > 0 and delta_max <= qf ** 0.6 * n ** (-0.6)
        ),
        "first_quadrant": 2 * r <= n and 2 * m <= math.comb(n, r),
    }
    classes = VertexClasses.route(VertexClasses(index.reshape(n), sizes, first), r)
    return DerivedParams(
        n=n,
        r=r,
        d_exact=d_exact,
        m=m,
        lambda_exact=lam,
        q_exact=q,
        delta_max=delta_max,
        min_degree=distinct[0],
        max_degree=distinct[-1],
        r2=r2,
        r3=r3,
        r4=r4,
        flags=flags,
        classes=classes,
        class_degrees=tuple(distinct) if classes.k < n else seq.degrees,
    )


def apply_symmetry(seq: DegreeSequence, t: QuadrantTransform) -> DegreeSequence:
    """Image of an instance under a quadrant transform (exact integers).

    The edge complement needs ``seq.check_edge_bounds()`` to pass.
    """
    if t is QuadrantTransform.IDENTITY:
        return seq
    n, r, degrees = seq.n, seq.r, seq.degrees
    if t.edge:
        seq.check_edge_bounds()
        m = seq.edge_count
        r, degrees = n - r, tuple(m - dj for dj in degrees)
    if t.complement:
        cap = math.comb(n - 1, r - 1)
        degrees = tuple(cap - dj for dj in degrees)
    return DegreeSequence(n, r, degrees)


def canonicalize_first_quadrant(
    seq: DegreeSequence,
) -> tuple[DegreeSequence, QuadrantTransform]:
    """Move an instance into r <= n/2, m <= C(n, r)/2.

    Boundary cases (r = n/2 or m = C(n, r)/2 exactly) count as already
    inside, so the preference order identity > set > edge > both reduces to
    flipping each violated inequality exactly once: the edge complement
    flips only the r-condition and the set complement flips only the
    m-condition.
    """
    flips = (2 * seq.r > seq.n, 2 * seq.edge_count > math.comb(seq.n, seq.r))
    t = next(t for t in QuadrantTransform if (t.edge, t.complement) == flips)
    return apply_symmetry(seq, t), t
