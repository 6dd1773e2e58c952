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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NonIntegral,
    ParityViolation,
    RangeViolation,
)


class QuadrantTransform(Enum):
    IDENTITY = "identity"
    EDGE_COMPLEMENT = "edge-complement"
    SET_COMPLEMENT = "set-complement"
    BOTH = "both"


@dataclass(frozen=True)
class DegreeSequence:
    """A validated problem instance.

    Edge sizes 1 and n-1 are admitted so that symmetry images always stay
    representable, even though the asymptotic theory assumes 3 <= r <= n-3.
    """

    n: int
    r: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        named = (("n", (self.n,)), ("r", (self.r,)), ("degree", self.degrees))
        for name, values in named:
            for value in values:
                # the type test first: plain ints skip the slower ABC check
                if type(value) is not int and (
                    isinstance(value, bool) or not isinstance(value, numbers.Integral)
                ):
                    raise NonIntegral(f"{name} {value!r} is not an integer")
        if self.n < 2:
            raise DimensionMismatch(f"need n >= 2, got n={self.n}")
        if not (1 <= self.r <= self.n - 1):
            raise RangeViolation(f"need 1 <= r <= n-1, got r={self.r}, n={self.n}")
        if len(self.degrees) != self.n:
            raise DimensionMismatch(
                f"{len(self.degrees)} degrees for n={self.n} vertices"
            )
        total = sum(self.degrees)
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

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // self.r

    @property
    def degree_cap(self) -> int:
        return math.comb(self.n - 1, self.r - 1)

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
    r2: float
    r3: float
    r4: float
    flags: dict

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
    n, r = seq.n, seq.r
    total = sum(seq.degrees)
    d_exact = Fraction(total, n)
    m = total // r
    cap = math.comb(n - 1, r - 1)
    lam = Fraction(d_exact, cap)
    q = (1 - lam) * (n - r) * d_exact
    # d_j - d = (n d_j - total) / n: integer power sums over the distinct
    # degrees, divided by n^s once
    counts = Counter(seq.degrees)

    def power_sum(s: int) -> float:
        return float(Fraction(
            sum(c * (n * dj - total) ** s for dj, c in counts.items()), n**s
        ))

    delta_max = max(max(abs(n * dj - total) for dj in counts) / n, 1.0)
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
        # proxy for the solved-spread condition: degree log-spread at most 1/r
        "degree_spread_ok": (
            all(dj > 0 for dj in counts)
            and d_exact > 0
            and max(abs(math.log(dj / float(d_exact))) for dj in counts)
            <= 1.0 / r
        ),
        "first_quadrant": in_first_quadrant(seq),
    }
    return DerivedParams(
        n=n,
        r=r,
        d_exact=d_exact,
        m=m,
        lambda_exact=lam,
        q_exact=q,
        delta_max=delta_max,
        r2=r2,
        r3=r3,
        r4=r4,
        flags=flags,
    )


def apply_symmetry(seq: DegreeSequence, t: QuadrantTransform) -> DegreeSequence:
    """Image of an instance under a quadrant transform (exact integers)."""
    n, r = seq.n, seq.r
    m = seq.edge_count
    if t is QuadrantTransform.IDENTITY:
        return seq
    if t is QuadrantTransform.EDGE_COMPLEMENT:
        return DegreeSequence(n, n - r, tuple(m - dj for dj in seq.degrees))
    if t is QuadrantTransform.SET_COMPLEMENT:
        cap = seq.degree_cap
        return DegreeSequence(n, r, tuple(cap - dj for dj in seq.degrees))
    if t is QuadrantTransform.BOTH:
        base = math.comb(n - 1, r)
        return DegreeSequence(n, n - r, tuple(base - m + dj for dj in seq.degrees))
    raise ValueError(f"unknown transform {t!r}")


def in_first_quadrant(seq: DegreeSequence) -> bool:
    return 2 * seq.r <= seq.n and 2 * seq.edge_count <= math.comb(seq.n, seq.r)


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
    need_r = 2 * seq.r > seq.n
    need_m = 2 * seq.edge_count > math.comb(seq.n, seq.r)
    if need_r and need_m:
        t = QuadrantTransform.BOTH
    elif need_r:
        t = QuadrantTransform.EDGE_COMPLEMENT
    elif need_m:
        t = QuadrantTransform.SET_COMPLEMENT
    else:
        t = QuadrantTransform.IDENTITY
    return apply_symmetry(seq, t), t
