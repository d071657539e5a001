import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from equitau.gradedring import GradedSeries, exp
from equitau.lattice import GroupDescriptor
from equitau.reprring import (
    RepRingElement,
    SymmetricElement,
    augmentation,
    augmentation_order,
    chern_character,
    elementary_symmetric_character,
    gl_augmentation_generators,
    ideal_membership_certificate,
    lambda_minus_one,
    symmetric_to_laurent,
    torus_group,
)

T1 = torus_group(1)
T2 = torus_group(2)


def char(group, *coords):
    return RepRingElement.character(group, coords)


# ---------------------------------------------------------------------------
# oracles


def convolve(terms1, terms2):
    """Independent rank-1 Laurent multiplication over {exponent: coeff} dicts."""
    out = {}
    for e1, c1 in terms1.items():
        for e2, c2 in terms2.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def exp_coeff_list(w, n):
    """Coefficients of e^{w t} up to degree n."""
    return [Fraction(w**k, math.factorial(k)) for k in range(n + 1)]


def chern_character_by_exp_series(a, truncation):
    """The defining sum: sum_w c_w * exp(w.t), one exp series per weight."""
    rank = a.group.ngens
    total = GradedSeries.zero(rank, truncation)
    for coords, c in a.terms.items():
        total = total + exp(GradedSeries.linear_form(rank, truncation, coords)) * Fraction(c)
    return total


# ---------------------------------------------------------------------------
# group algebra arithmetic


def test_product_one_minus_u_times_conjugate():
    u = char(T1, 1)
    uinv = char(T1, -1)
    product = (1 - u) * (1 - uinv)
    expected = convolve({0: 1, 1: -1}, {0: 1, -1: -1})
    assert product.terms == {(e,): c for e, c in expected.items()}
    assert str(product) == "2 - u - u^-1"


def test_multiplicative_identity():
    a = char(T2, 3, -2) * 5 - char(T2, 0, 1)
    assert a * RepRingElement.one(T2) == a


def test_torsion_reduction():
    z2 = GroupDescriptor(0, (2,))
    v = char(z2, 1)
    assert v * v == RepRingElement.one(z2)


def test_mismatched_groups_raise():
    with pytest.raises(ValueError):
        char(T1, 1) * char(T2, 1, 0)
    with pytest.raises(ValueError):
        char(T1, 1) + RepRingElement.one(T2)


def test_random_products_against_convolution_oracle():
    rng = random.Random(3)
    for _ in range(50):
        t1 = {rng.randint(-5, 5): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))}
        t2 = {rng.randint(-5, 5): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))}
        a = RepRingElement(T1, {(e,): c for e, c in t1.items()})
        b = RepRingElement(T1, {(e,): c for e, c in t2.items()})
        t1 = {e: c for e, c in t1.items() if c}
        t2 = {e: c for e, c in t2.items() if c}
        assert (a * b).terms == {(e,): c for e, c in convolve(t1, t2).items()}


# ---------------------------------------------------------------------------
# augmentation and lambda_{-1}


def test_augmentation_examples():
    u = char(T1, 1)
    assert augmentation(1 - u) == 0
    assert augmentation(3 * RepRingElement.one(T1) + 2 * u) == 5
    assert augmentation(RepRingElement.zero(T1)) == 0


def test_lambda_minus_one_examples():
    u = char(T1, 1)
    assert lambda_minus_one(T1, [(1,)]) == 1 - u
    assert lambda_minus_one(T1, []) == RepRingElement.one(T1)
    assert lambda_minus_one(T1, [(1,), (-1,)]) == 2 - u - char(T1, -1)


def test_lambda_minus_one_augmentation_vanishes():
    rng = random.Random(21)
    for _ in range(40):
        rank = rng.choice((1, 2))
        group = torus_group(rank)
        ws = [
            tuple(rng.randint(-4, 4) for _ in range(rank))
            for _ in range(rng.randint(1, 5))
        ]
        assert augmentation(lambda_minus_one(group, ws)) == 0


# ---------------------------------------------------------------------------
# Chern character


def test_chern_character_of_u_plus_uinv():
    a = char(T1, 1) + char(T1, -1)
    got = chern_character(a, 10)
    for k in range(11):
        expected = Fraction(1 + (-1) ** k, math.factorial(k))
        assert got.coefficient((k,)) == expected


def test_chern_character_of_one():
    assert chern_character(RepRingElement.one(T1), 6) == GradedSeries.one(1, 6)


def test_chern_character_of_product_by_multiplying_expansions():
    n = 10
    a = 1 - char(T1, 1)
    b = 1 - char(T1, -1)
    # multiply the exponential expansions coefficientwise
    ca = [a - b for a, b in zip(exp_coeff_list(0, n), exp_coeff_list(1, n))]
    cb = [a - b for a, b in zip(exp_coeff_list(0, n), exp_coeff_list(-1, n))]
    prod = [
        sum((ca[i] * cb[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)
    ]
    got = chern_character(a * b, n)
    assert got == GradedSeries(1, n, {(k,): c for k, c in enumerate(prod)})
    assert got.low_degree() == 2


def test_closed_form_chern_character_matches_exp_series_sum():
    rng = random.Random(20260905)
    seen = set()
    for case in range(240):
        rank = case % 4
        truncation = case % 17 if case < 68 else rng.randint(0, 16)
        terms = {}
        for _ in range(rng.randint(0, 4)):
            coords = tuple(rng.randint(-4, 4) for _ in range(rank))
            if rng.random() < 0.5:
                c = rng.randint(-5, 5)
            else:
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
            terms[coords] = terms.get(coords, 0) + c
        a = RepRingElement(torus_group(rank), terms)
        got = chern_character(a, truncation)
        expected = chern_character_by_exp_series(a, truncation)
        assert got.terms == expected.terms, (rank, truncation, terms)
        assert str(got) == str(expected)
        assert all(type(c) is Fraction for c in got.terms.values())
        seen.update((rank, truncation, type(c).__name__) for c in a.terms.values())
    assert {r for r, _, _ in seen} == {0, 1, 2, 3}
    assert {n for _, n, _ in seen} == set(range(17))
    assert {kind for _, _, kind in seen} == {"int", "Fraction"}


def test_chern_character_requires_torus():
    z2 = GroupDescriptor(0, (2,))
    with pytest.raises(ValueError):
        chern_character(RepRingElement.one(z2), 4)


def test_chern_character_is_ring_homomorphism():
    rng = random.Random(8)
    for _ in range(40):
        rank = rng.choice((1, 2))
        group = torus_group(rank)

        def rand():
            return RepRingElement(
                group,
                {
                    tuple(rng.randint(-5, 5) for _ in range(rank)): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 3))
                },
            )

        a, b = rand(), rand()
        cha, chb = chern_character(a, 12), chern_character(b, 12)
        assert chern_character(a * b, 12) == cha * chb
        assert chern_character(a + b, 12) == cha + chb
        assert Fraction(a.augmentation()) == cha.constant_term()


def test_augmentation_order_examples():
    u = char(T1, 1)
    assert augmentation_order(1 - u, 8) == 1
    assert augmentation_order(u + char(T1, -1) - 2, 8) == 2
    assert augmentation_order(RepRingElement.zero(T1), 8) is None


def test_augmentation_order_filtration():
    rng = random.Random(31)
    for _ in range(30):
        rank = rng.choice((1, 2))
        group = torus_group(rank)
        k = rng.randint(1, 6)
        prod = RepRingElement.one(group)
        for _ in range(k):
            while True:
                a = RepRingElement(
                    group,
                    {
                        tuple(rng.randint(-3, 3) for _ in range(rank)): rng.randint(-3, 3)
                        for _ in range(rng.randint(1, 3))
                    },
                )
                a = a - a.augmentation()
                if not a.is_zero():
                    break
            prod = prod * a
        order = augmentation_order(prod, 12)
        assert order is None or order >= k


# ---------------------------------------------------------------------------
# symmetric functions


def test_e1_in_two_variables():
    assert symmetric_to_laurent(SymmetricElement.generator(2, 1)) == char(T2, 1, 0) + char(T2, 0, 1)


def test_power_sum_via_newton_identity():
    e1 = SymmetricElement.generator(2, 1)
    e2 = SymmetricElement.generator(2, 2)
    p2 = e1 * e1 - 2 * e2
    assert symmetric_to_laurent(p2) == char(T2, 2, 0) + char(T2, 0, 2)


def test_inverse_determinant_twist():
    e1 = SymmetricElement.generator(2, 1)
    e2inv = SymmetricElement.generator(2, 2, power=-1)
    assert symmetric_to_laurent(e1 * e2inv) == char(T2, -1, 0) + char(T2, 0, -1)


def test_negative_exponent_only_on_last_generator():
    with pytest.raises(ValueError):
        SymmetricElement.generator(2, 1, power=-1)


def permute_element(a, perm):
    return RepRingElement(
        a.group, {tuple(k[p] for p in perm): c for k, c in a.terms.items()}
    )


def test_images_are_symmetric():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.choice((2, 3))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (rng.randint(-2, 2),)
            terms[exps] = rng.randint(-3, 3)
        img = symmetric_to_laurent(SymmetricElement(n, terms))
        for perm in permutations(range(n)):
            assert permute_element(img, perm) == img


# ---------------------------------------------------------------------------
# ideal-membership certificates


def combine(cofactors, generators):
    total = RepRingElement.zero(generators[0].group)
    for c, g in zip(cofactors, generators):
        total = total + c * g
    return total


def test_certificate_for_squared_target():
    gens = gl_augmentation_generators(2)
    target = (char(T2, 1, 0) - 1) ** 2
    cofactors = ideal_membership_certificate(target, gens, 1)
    assert cofactors is not None
    assert combine(cofactors, gens) == target


def test_certificate_trivial_target_is_generator():
    gens = gl_augmentation_generators(2)
    cofactors = ideal_membership_certificate(gens[0], gens, 1)
    assert cofactors is not None
    assert combine(cofactors, gens) == gens[0]


def test_certificate_for_mixed_product():
    # (t1-1)(t2-1) = (e2-1) - (e1-2)
    gens = gl_augmentation_generators(2)
    target = (char(T2, 1, 0) - 1) * (char(T2, 0, 1) - 1)
    assert target == (gens[1] - gens[0])
    cofactors = ideal_membership_certificate(target, gens, 1)
    assert cofactors is not None
    assert combine(cofactors, gens) == target


def test_certificate_not_found_for_nonzero_rank_target():
    gens = gl_augmentation_generators(2)
    assert ideal_membership_certificate(RepRingElement.one(T2), gens, 2) is None


def test_random_combinations_are_recovered():
    rng = random.Random(55)
    gens = gl_augmentation_generators(2)
    for _ in range(10):
        cofs = []
        for _ in gens:
            terms = {
                (rng.randint(-1, 1), rng.randint(-1, 1)): rng.randint(-2, 2)
                for _ in range(rng.randint(0, 2))
            }
            cofs.append(RepRingElement(T2, terms))
        target = combine(cofs, gens)
        found = ideal_membership_certificate(target, gens, 2)
        assert found is not None
        assert combine(found, gens) == target


def test_gl_generators_have_zero_augmentation():
    for n in (2, 3):
        for g in gl_augmentation_generators(n):
            assert augmentation(g) == 0
    assert elementary_symmetric_character(3, 2).augmentation() == 3
