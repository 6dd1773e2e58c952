import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdeg.core import (
    DegreeSequence,
    QuadrantTransform,
    apply_symmetry,
    canonicalize_first_quadrant,
    derive,
)
import hyperdeg
from hyperdeg.counts import estimate_near_regular
from hyperdeg.errors import (
    DimensionMismatch,
    NonIntegral,
    ParityViolation,
    RangeViolation,
)


def test_regular_instance_scalars():
    p = derive(DegreeSequence(6, 3, (5,) * 6))
    assert p.d == 5.0
    assert p.m == 10
    assert p.lambda_exact == Fraction(1, 2)
    assert p.q == 7.5
    assert p.r2 == p.r3 == p.r4 == 0.0


def test_skew_instance_scalars():
    p = derive(DegreeSequence(4, 3, (2, 2, 1, 1)))
    assert p.m == 2
    assert p.lambda_exact == Fraction(1, 2)
    assert p.r2 == 1.0
    assert p.r3 == 0.0
    assert p.r4 == 0.25
    assert p.delta_max == 1.0


def reference_power_sums(degrees):
    """Reference: one Fraction deviation d_j - d per vertex, summed exactly."""
    d = Fraction(sum(degrees), len(degrees))
    delta = [Fraction(dj) - d for dj in degrees]
    delta_max = float(max(max(abs(x) for x in delta), Fraction(1)))
    return [float(sum(x**s for x in delta)) for s in (2, 3, 4)], delta_max


@pytest.mark.parametrize("shape", ["skewed", "near-regular"])
def test_power_sums_equal_the_per_vertex_fraction_sums(shape):
    rng = np.random.default_rng(11 if shape == "skewed" else 12)
    checked = 0
    while checked < 40:
        n = int(rng.integers(8, 201))
        r = int(rng.integers(2, 5))
        cap = math.comb(n - 1, r - 1)
        if shape == "skewed":
            degrees = rng.integers(0, cap + 1, size=n)
        else:
            degrees = int(rng.integers(3, cap - 2)) + rng.integers(-3, 4, size=n)
        seq = _force_valid(n, r, degrees.tolist())
        if seq is None:
            continue
        p = derive(seq)
        sums, delta_max = reference_power_sums(seq.degrees)
        assert [p.r2, p.r3, p.r4] == sums
        assert p.delta_max == delta_max
        checked += 1


def test_parity_violation():
    with pytest.raises(ParityViolation):
        derive(DegreeSequence(4, 3, (1, 1, 1, 1)))


def test_range_violation():
    with pytest.raises(RangeViolation):
        derive(DegreeSequence(4, 3, (4, 1, 1, 0)))
    with pytest.raises(RangeViolation):
        derive(DegreeSequence(4, 3, (-1, 2, 1, 1)))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        derive(DegreeSequence(4, 3, (1, 1, 1)))


@pytest.mark.parametrize("n, r, degrees", [
    (4, 3, (1.5, 1.5, 0, 0)),
    (4, 3, (1.0, 1, 1, 0)),
    (4.0, 3, (1, 1, 1, 0)),
    (4, True, (1, 1, 1, 0)),
    (4, 3, ("1", 1, 1, 0)),
    (4, 3, np.array([True, True, True, False])),
])
def test_library_construction_rejects_non_integers(n, r, degrees):
    with pytest.raises(NonIntegral):
        DegreeSequence(n, r, degrees)


def test_library_construction_accepts_numpy_integers():
    seq = DegreeSequence(np.int64(4), 3, tuple(np.array([1, 1, 1, 0])))
    assert derive(seq).m == 1
    # an integer array is read whole, into the tuple instance's Python ints
    for dtype in (np.int64, np.uint16):
        given = DegreeSequence(4, 3, np.array([1, 1, 1, 0], dtype=dtype))
        assert given == DegreeSequence(4, 3, (1, 1, 1, 0))
        assert isinstance(given.degrees, tuple)
        assert {type(x) for x in given.degrees} == {int}
    # at n = 10^5 the degree sum (r = 5) and R4 (r = 4) leave int64: given as
    # np.int64, the instance still holds Python ints and derives exactly
    for r in (4, 5):
        rng = np.random.default_rng(5)
        degrees = int(0.3 * math.comb(10**5 - 1, r - 1)) + rng.integers(-2, 3, size=10**5)
        degrees[-1] += -sum(degrees.tolist()) % r
        given = DegreeSequence(np.int64(10**5), np.int64(r), tuple(degrees))
        plain = DegreeSequence(10**5, r, tuple(degrees.tolist()))
        assert given == plain
        assert {type(x) for x in (given.n, given.r, *given.degrees)} == {int}
        assert given.edge_count == plain.edge_count == sum(degrees.tolist()) // r
        assert type(given.edge_count) is int
        assert given.params == plain.params
        assert (estimate_near_regular(given).ln_value
                == estimate_near_regular(plain).ln_value)


def test_out_of_hypothesis_edge_size_is_flagged_not_rejected():
    p = derive(DegreeSequence(4, 3, (2, 2, 1, 1)))
    assert not p.flags["edge_size_in_range"]
    p6 = derive(DegreeSequence(6, 3, (5,) * 6))
    assert p6.flags["edge_size_in_range"]


def test_symmetry_images_match_hand_computation():
    seq = DegreeSequence(4, 3, (2, 2, 1, 1))
    edge = apply_symmetry(seq, QuadrantTransform.EDGE_COMPLEMENT)
    assert (edge.n, edge.r, edge.degrees) == (4, 1, (0, 0, 1, 1))
    sett = apply_symmetry(seq, QuadrantTransform.SET_COMPLEMENT)
    assert (sett.n, sett.r, sett.degrees) == (4, 3, (1, 1, 2, 2))
    # C(n-1, r) - m + d_j
    both = apply_symmetry(seq, QuadrantTransform.BOTH)
    assert (both.n, both.r, both.degrees) == (4, 1, (1, 1, 0, 0))
    assert apply_symmetry(seq, QuadrantTransform.IDENTITY) == seq


def test_canonicalize_examples():
    # m = 10 = C(6,3)/2 is the boundary; counts as inside under <=
    reg = DegreeSequence(6, 3, (5,) * 6)
    canon, t = canonicalize_first_quadrant(reg)
    assert t is QuadrantTransform.IDENTITY and canon == reg

    # complete instance: r = 3 > n/2 and m = C(4,3) > C(4,3)/2, so both
    # inequalities must flip; edge size drops to 1 either way
    seq = DegreeSequence(4, 3, (3, 3, 3, 3))
    canon, t = canonicalize_first_quadrant(seq)
    assert canon.r == 1 and t is QuadrantTransform.BOTH
    assert canon.params.flags["first_quadrant"]

    dense = DegreeSequence(6, 3, (9,) * 6)
    canon, t = canonicalize_first_quadrant(dense)
    assert t is QuadrantTransform.SET_COMPLEMENT
    assert canon.degrees == (1,) * 6

    wide = DegreeSequence(6, 4, (4, 4, 4, 4, 0, 0))
    canon, t = canonicalize_first_quadrant(wide)
    assert t is QuadrantTransform.EDGE_COMPLEMENT
    assert (canon.r, canon.degrees) == (2, (0, 0, 0, 0, 4, 4))


small_instances = st.integers(5, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(2, n - 2),
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
    )
)


def _force_valid(n, r, degrees):
    cap = math.comb(n - 1, r - 1)
    degrees = [min(d, cap) for d in degrees]
    excess = sum(degrees) % r
    for i in range(n):
        if excess == 0:
            break
        drop = min(excess, degrees[i])
        degrees[i] -= drop
        excess -= drop
    if sum(degrees) % r != 0:
        return None
    return DegreeSequence(n, r, tuple(degrees))


@settings(max_examples=60, deadline=None)
@given(small_instances, st.sampled_from(list(QuadrantTransform)))
def test_symmetry_involution_and_q_invariance(data, t):
    seq = _force_valid(*data)
    if seq is None:
        return
    try:
        image = apply_symmetry(seq, t)
    except RangeViolation:
        # images of unrealizable sequences can leave the representable
        # range (for instance a degree above the edge count); rejected
        return
    if t in (QuadrantTransform.EDGE_COMPLEMENT, QuadrantTransform.SET_COMPLEMENT):
        assert apply_symmetry(image, t) == seq
    # Q is invariant exactly, as rationals
    assert derive(image).q_exact == derive(seq).q_exact


def test_edge_image_of_unrealizable_sequence_is_rejected():
    # degree 2 with a single edge is unrealizable; its edge image would
    # need degree -1
    seq = DegreeSequence(5, 2, (0, 0, 0, 0, 2))
    with pytest.raises(RangeViolation):
        apply_symmetry(seq, QuadrantTransform.EDGE_COMPLEMENT)


@settings(max_examples=40, deadline=None)
@given(small_instances)
def test_both_is_composition_and_canonical_lands_inside(data):
    seq = _force_valid(*data)
    if seq is None:
        return
    try:
        both = apply_symmetry(seq, QuadrantTransform.BOTH)
        via_two = apply_symmetry(
            apply_symmetry(seq, QuadrantTransform.EDGE_COMPLEMENT),
            QuadrantTransform.SET_COMPLEMENT,
        )
        canon, _ = canonicalize_first_quadrant(seq)
    except RangeViolation:
        return
    assert both == via_two
    assert apply_symmetry(both, QuadrantTransform.BOTH) == seq
    assert canon.params.flags["first_quadrant"]


def test_second_form_of_q_is_exact():
    for seq in [
        DegreeSequence(6, 3, (5,) * 6),
        DegreeSequence(7, 3, (6, 6, 6, 6, 6, 6, 6)),
        DegreeSequence(6, 3, (6, 5, 5, 5, 5, 4)),
    ]:
        p = derive(seq)
        lam = p.lambda_exact
        alt = lam * (1 - lam) * Fraction(p.r * (p.n - p.r), p.n) * math.comb(p.n, p.r)
        assert p.q_exact == alt


def test_json_round_trip():
    seq = DegreeSequence(6, 3, (6, 5, 5, 5, 5, 4))
    assert DegreeSequence.from_json_dict(seq.to_json_dict()) == seq


def test_no_public_function_takes_a_thread_count():
    # all work is serial; the CLI's --threads is parsed and ignored
    for name in hyperdeg.__all__:
        obj = getattr(hyperdeg, name)
        if inspect.isfunction(obj):
            assert "threads" not in inspect.signature(obj).parameters, name
