"""The sparse core shared by GradedSeries and RepRingElement.

The group-algebra arithmetic is checked against a Fraction-dict reference
kernel kept here, and the series' packed keys at the edges of the ring.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from equitau.gradedring import GradedSeries
from equitau.lattice import GroupDescriptor
from equitau.reprring import RepRingElement, torus_group

GROUPS = [
    torus_group(0),
    torus_group(1),
    torus_group(2),
    GroupDescriptor(0, (6,)),
    GroupDescriptor(0, (2, 4)),
    GroupDescriptor(1, (3,)),
]


# ---------------------------------------------------------------------------
# the reference kernel: {reduced coordinate tuple: nonzero Fraction}


def ref_reduce(group, coords):
    r = group.free_rank
    return tuple(coords[:r]) + tuple(c % d for c, d in zip(coords[r:], group.torsion_orders))


def ref_accumulate(group, pairs):
    out = {}
    for k, c in pairs:
        k = ref_reduce(group, k)
        out[k] = out.get(k, 0) + Fraction(c)
    return {k: c for k, c in out.items() if c}


def ref_add(group, a, b):
    return ref_accumulate(group, [*a.items(), *b.items()])


def ref_scale(group, a, s):
    return ref_accumulate(group, [(k, c * s) for k, c in a.items()])


def ref_mul(group, a, b):
    return ref_accumulate(
        group,
        [(tuple(x + y for x, y in zip(k1, k2)), c1 * c2) for k1, c1 in a.items() for k2, c2 in b.items()],
    )


def ref_pow(group, a, k):
    result = {(0,) * group.ngens: Fraction(1)}
    for _ in range(k):
        result = ref_mul(group, result, a)
    return result


def random_terms(rng, group):
    """Unreduced coordinates; int and Fraction coefficients that often cancel."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        coords = tuple(rng.randint(-4, 4) for _ in range(group.ngens))
        if rng.random() < 0.5:
            c = rng.randint(-3, 3)
        else:
            c = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
        terms[coords] = terms.get(coords, 0) + c
    return terms


def assert_matches(got, group, want):
    """got equals the reference dict, holds the canonical form, and its views
    give an int exactly where the value is integral."""
    assert got.group == group
    assert got.den > 0 and math.gcd(got.den, *got.num.values()) == 1
    assert got.num or got.den == 1
    for k, c in got.num.items():
        assert type(c) is int and c != 0
        assert ref_reduce(group, k) == k
    assert got.terms == want
    for k, value in want.items():
        integral = value.denominator == 1
        assert (type(got.terms[k]) is int) == integral
        assert got.coefficient(k) == value and (type(got.coefficient(k)) is int) == integral
    rank = sum(want.values(), Fraction(0))
    assert got.augmentation() == rank
    assert (type(got.augmentation()) is int) == (rank.denominator == 1)
    assert got == RepRingElement(group, want)
    assert hash(got) == hash(RepRingElement(group, want))


def test_group_algebra_arithmetic_matches_the_fraction_reference():
    rng = random.Random(8080)
    seen = set()
    for case in range(200):
        group = GROUPS[case % len(GROUPS)]
        ta, tb = random_terms(rng, group), random_terms(rng, group)
        a, b = RepRingElement(group, ta), RepRingElement(group, tb)
        ra, rb = ref_accumulate(group, ta.items()), ref_accumulate(group, tb.items())
        s = rng.choice((0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2)))
        k = rng.randint(0, 3)
        zero = (0,) * group.ngens
        cases = [
            (a + b, ref_add(group, ra, rb)),
            (a - b, ref_add(group, ra, ref_scale(group, rb, -1))),
            (a - a, {}),
            (-a, ref_scale(group, ra, -1)),
            (a * s, ref_scale(group, ra, s)),
            (s * a, ref_scale(group, ra, s)),
            (a + s, ref_add(group, ra, ref_accumulate(group, [(zero, s)]))),
            (s - a, ref_add(group, ref_scale(group, ra, -1), ref_accumulate(group, [(zero, s)]))),
            (a * b, ref_mul(group, ra, rb)),
            (a**k, ref_pow(group, ra, k)),
        ]
        for got, want in cases:
            assert_matches(got, group, want)
            seen.add((not want, got.den == 1))
    # zero, integral and fractional results all occurred
    assert seen == {(True, True), (False, True), (False, False)}


def test_absent_coefficients_and_augmentation_are_int_zero():
    a = RepRingElement(GroupDescriptor(0, (6,)), {(1,): Fraction(1, 2), (7,): Fraction(1, 2)})
    assert a.terms == {(1,): 1} and type(a.terms[(1,)]) is int
    assert a.coefficient((2,)) == 0 and type(a.coefficient((2,))) is int
    assert type((a - a).augmentation()) is int


# ---------------------------------------------------------------------------
# packed series keys at the edges of the ring


def dense_series(rank, n):
    """Every monomial of degree <= n, each with its own nonzero coefficient."""
    terms = {}
    for i, e in enumerate(product(range(n + 1), repeat=rank)):
        if sum(e) <= n:
            terms[e] = Fraction(i + 1, 1 + i % 3)
    return GradedSeries(rank, n, terms), terms


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_coefficient_is_zero_outside_the_ring(rank):
    n = 4
    s, terms = dense_series(rank, n)
    for e, c in terms.items():
        assert s.coefficient(e) == c and s.coefficient(list(e)) == c
    outside = [
        (n + 1,) + (0,) * (rank - 1),  # above N
        (0,) * (rank - 1) + (n + 1,),
        (-1,) + (1,) * (rank - 1),  # negative
        (1,) * (rank - 1) + (-1,),
        (1,) * (rank + 1),  # wrong length
        (1,) * (rank - 1),
        (2, -1),
    ]
    if rank > 1:
        outside.append((n,) * rank)  # above N, with every entry <= N
    for e in outside:
        assert s.coefficient(e) == 0, e


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_component_and_low_degree_read_the_degree_digit(rank):
    rng = random.Random(rank)
    for n in range(7):
        s, terms = dense_series(rank, n)
        for _ in range(4):
            kept = {e: c for e, c in terms.items() if rng.random() < 0.3}
            part = GradedSeries(rank, n, kept)
            degrees = {sum(e) for e in kept}
            assert part.low_degree() == min(degrees, default=None)
            for d in range(n + 2):
                want = {e: c for e, c in kept.items() if sum(e) == d}
                assert part.component(d).terms == want
        for cut in range(n + 1):
            want = {e: c for e, c in terms.items() if sum(e) <= cut}
            assert s.truncate(cut).terms == want and s.truncate(cut) == GradedSeries(rank, cut, want)


# ---------------------------------------------------------------------------
# elements of different types or rings do not mix


def test_mixing_types_or_rings_raises():
    series = GradedSeries.linear_form(1, 5, [1])
    rep = RepRingElement.character(torus_group(1), (1,))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        for x, y in ((series, rep), (rep, series)):
            with pytest.raises(TypeError):
                op(x, y)
        with pytest.raises(ValueError):
            op(series, GradedSeries.linear_form(1, 6, [1]))
        with pytest.raises(ValueError):
            op(series, GradedSeries.linear_form(2, 5, [1, 0]))
        with pytest.raises(ValueError):
            op(rep, RepRingElement.one(GroupDescriptor(1, (2,))))
    assert series != rep and rep != series
    assert GradedSeries.one(1, 5) != GradedSeries.one(1, 6)
    assert RepRingElement.one(torus_group(1)) != RepRingElement.one(torus_group(2))


# ---------------------------------------------------------------------------
# powers by repeated squaring


@pytest.mark.parametrize("d, multiplies", [(1, 0), (2, 1), (3, 2), (4, 2), (7, 4), (8, 3)])
def test_power_makes_no_wasted_multiply(monkeypatch, d, multiplies):
    group = torus_group(2)
    x = RepRingElement.character(group, (1, 0)) - 1
    expected = RepRingElement.one(group)
    for _ in range(d):
        expected = expected * x
    calls = []
    original = RepRingElement.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(RepRingElement, "__mul__", counting)
    assert x**d == expected
    assert len(calls) == multiplies


def test_power_equals_repeated_multiplication():
    from equitau.gradedring import BundleRing

    series = GradedSeries(2, 6, {(0, 0): Fraction(1, 2), (1, 0): -1, (0, 2): Fraction(3, 4)})
    rep = RepRingElement(GroupDescriptor(1, (3,)), {(1, 2): 2, (-1, 0): Fraction(-1, 3), (0, 0): 1})
    ring = BundleRing([(1, 0), (0, 1), (1, 1)], 2, 4)
    bundle = ring.hyperplane() + ring.embed(GradedSeries.linear_form(2, 4, (1, Fraction(-1, 2))))
    for x in (series, rep, bundle, bundle + 1, GradedSeries.zero(1, 3)):
        product = x._one()
        for k in range(10):
            assert x**k == product, (x, k)
            product = product * x
    with pytest.raises(ValueError):
        series**-1
