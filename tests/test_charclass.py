import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from equitau.charclass import (
    ProjSpaceModel,
    chern_character_bundle,
    line_class,
    mu_model,
    tangent_class,
    todd_class_bundle,
    torus_model,
)
from equitau.gradedring import (
    BundleRingElement,
    GradedSeries,
    _scaled_coefficients,
    apply_power_series,
    exp,
    exp_coefficient,
    root_series_coordinates,
    todd_coefficient,
    todd_inverse_coefficient,
)
from equitau.lattice import GroupDescriptor

P1 = torus_model([1, -1], 8)


def root_series_product(ring, factors):
    """prod_r f_r(x_r) as an element: ``root_series_coordinates`` packed by the ring."""
    return ring.newton_element(*root_series_coordinates(ring, factors))


def test_model_validation():
    g = GroupDescriptor(1)
    with pytest.raises(ValueError):
        ProjSpaceModel(g, ((1,),))  # needs n >= 1
    with pytest.raises(ValueError, match="^expected 1 coordinates, got 2$"):
        ProjSpaceModel(g, ((1,), (1, 0)))


def test_model_weights_are_tuples_reduced_by_the_group():
    assert mu_model(6, [7, -1]).weights == ((1,), (5,))
    assert mu_model((2, 1, 4), [(3, 9, -1), (0, 0, 6)]).weights == ((1, 3), (0, 2))
    assert torus_model([(1, -2), [0, 3]]).weights == ((1, -2), (0, 3))


def test_chow_side_requires_torus():
    model = mu_model(2, [0, 1])
    with pytest.raises(ValueError):
        model.hyperplane()


def test_tangent_class_merges_repeated_weights():
    model = torus_model([(1, 0), (0, 1), (1, 0)], 4)
    assert tangent_class(model) == {(1, (1, 0)): 2, (1, (0, 1)): 1, (0, ()): -1}


def root(model, key):
    """The Chern root k.h + c.t of a K-class key (k, c), built from public operations."""
    k, c = key
    x = model.hyperplane() * k
    return x + model.ring.embed(GradedSeries.linear_form(model.rank, model.truncation, c)) if c else x


def degree_one(x):
    """The degree-1 part a.h + L of a bundle element of a model of dimension at least 1."""
    ring = x.ring
    return ring.embed(x.coeffs[0].component(1)) + ring.hyperplane() * x.coeffs[1].constant_term()


MODELS = (
    ([1, -1], 8),
    ([0, 0, 0], 4),
    ([(1, 0), (0, 1), (1, 0)], 4),
    ([(1, 0, 2), (0, 1, -1), (2, 0, 0), (1, 1, 1)], 3),
)


def test_line_twist_roots():
    # a line's c_1 is its root, read off as the degree-1 part of ch
    h = P1.hyperplane()
    assert line_class(3) == {(3, ()): 1}
    assert degree_one(chern_character_bundle(P1, line_class(3))) == h * 3
    assert degree_one(chern_character_bundle(P1, line_class(0))).is_zero()
    # character twist shifts by the base linear form
    t_form = P1.ring.embed(GradedSeries.linear_form(1, 8, (5,)))
    assert degree_one(chern_character_bundle(P1, line_class(2, [5]))) == h * 2 + t_form
    for weights, n in MODELS:
        model = torus_model(weights, n)
        for k, c in ((3, ()), (0, ()), (0, (5,) * model.rank), (-2, tuple(range(model.rank)))):
            ch = chern_character_bundle(model, line_class(k, c))
            assert ch.constant_term() == 1 and degree_one(ch) == root(model, (k, c)), weights


def test_tangent_roots_give_first_chern_class_2h():
    assert degree_one(chern_character_bundle(P1, tangent_class(P1))) == P1.hyperplane() * 2
    for weights, n in MODELS:
        model = torus_model(weights, n)
        # the tangent's c_1 = (n + 1)h + (sum_i w_i).t, its trivial root adding nothing
        total = [sum(column) for column in zip(*model.weights)]
        c1 = root(model, (model.dim + 1, tuple(total)))
        assert degree_one(chern_character_bundle(model, tangent_class(model))) == c1, weights


def test_chern_character_of_twists():
    h = P1.hyperplane()
    assert chern_character_bundle(P1, line_class(0)) == P1.ring.embed(1)
    assert chern_character_bundle(P1, line_class(4)) == exp(h * 4)


def test_chern_character_of_tangent():
    t_form = P1.ring.embed(GradedSeries.linear_form(1, 8, (1,)))
    h = P1.hyperplane()
    expected = exp(h + t_form) + exp(h - t_form) - 1
    got = chern_character_bundle(P1, tangent_class(P1))
    assert got == expected
    assert got.constant_term() == 1  # virtual rank


def test_todd_of_trivial_bundle_is_one():
    assert todd_class_bundle(P1, line_class(0)) == P1.ring.embed(1)


def test_todd_tangent_two_ways():
    via_roots = todd_class_bundle(P1, tangent_class(P1))
    via_2h = apply_power_series(todd_coefficient, P1.hyperplane() * 2)
    assert via_roots == via_2h
    assert via_roots.constant_term() == 1


def test_todd_tangent_on_trivial_pm():
    for m in (1, 2, 3):
        model = torus_model([0] * (m + 1), 8)
        td = todd_class_bundle(model, tangent_class(model))
        assert td.constant_term() == 1
        # degree-1 part is (m+1)h/2
        assert td.coeffs[1].constant_term() == Fraction(m + 1, 2)
        assert td.coeffs[0].component(1).is_zero()


def test_ch_additive_and_td_multiplicative_over_sums():
    rng = random.Random(2)
    for _ in range(10):
        twists = [
            line_class(rng.randint(-2, 2), (rng.randint(-2, 2),)) for _ in range(rng.randint(1, 3))
        ]
        sum_bundle = Counter()
        for tw in twists:
            sum_bundle.update(tw)
        ch_sum = chern_character_bundle(P1, sum_bundle)
        td_sum = todd_class_bundle(P1, sum_bundle)
        ch_parts = P1.ring.embed(0)
        td_parts = P1.ring.embed(1)
        for tw in twists:
            ch_parts = ch_parts + chern_character_bundle(P1, tw)
            td_parts = td_parts * todd_class_bundle(P1, tw)
        assert ch_sum == ch_parts
        assert td_sum == td_parts
        assert ch_sum.constant_term() == len(twists)


def test_ch_multiplicative_over_tensor_of_twists():
    rng = random.Random(23)
    for _ in range(10):
        (pa, ca), (pb, cb) = ((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2))
        a, b = line_class(pa, (ca,)), line_class(pb, (cb,))
        lhs = chern_character_bundle(P1, line_class(pa + pb, (ca + cb,)))  # a tensor b
        rhs = chern_character_bundle(P1, a) * chern_character_bundle(P1, b)
        assert lhs == rhs


def test_tangent_todd_is_built_once_per_model(monkeypatch):
    from equitau import charclass
    from equitau.riemannroch import hrr_chi, verify_weyl

    walks, moment_counts = [], []
    walk, moments = charclass.todd_coordinates, charclass.newton_moments

    def counting_walk(model, bundle):
        walks.append(bundle)
        return walk(model, bundle)

    def counting_moments(ring, coords, count):
        moment_counts.append(count)
        return moments(ring, coords, count)

    monkeypatch.setattr(charclass, "todd_coordinates", counting_walk)
    monkeypatch.setattr(charclass, "newton_moments", counting_moments)
    model = torus_model([(1, 0), (0, 1), (1, 1)], 6)
    first = hrr_chi(model, line_class(1))
    assert hrr_chi(model, line_class(1)) == first and hrr_chi(model, line_class(2)) != first
    assert walks == [tangent_class(model)] and moment_counts == [6 + 2 + 1]  # mu_0 .. mu_(N+n)
    # the coordinates the model keeps are the h-basis Todd class's, which walks on its own
    kept = model.ring.newton_element(*model.tangent_todd_coordinates)
    assert walks == [tangent_class(model)]
    assert kept == todd_class_bundle(model, tangent_class(model))
    assert walks == [tangent_class(model)] * 2
    other = torus_model([(1, 0), (0, 1), (1, 1)], 6)
    assert other.tangent_todd_coordinates is not model.tangent_todd_coordinates
    # a twist with no h-part reads mu_0 alone; a later one extends the moments once
    model, walks[:], moment_counts[:] = torus_model([(1, 0), (0, 1), (1, 1)], 6), [], []
    hrr_chi(model, line_class(0, (1, 2)))
    hrr_chi(model, line_class(3))
    hrr_chi(model, line_class(-1))
    assert walks == [tangent_class(model)] and moment_counts == [1, 6 + 2 + 1]
    walks.clear()
    moment_counts.clear()
    assert verify_weyl(10, 32).all_pass
    assert walks == [{(1, (1,)): 1, (1, (-1,)): 1, (0, ()): -1}]  # one Todd walk for the table
    assert moment_counts == [32 + 1 + 1]  # and one set of moments


# ---------------------------------------------------------------------------
# the Newton-coordinates Todd class against the route it replaced


def todd_factor(x):
    """x/(1 - e^(-x)) of one degree-1 root, by the power-series kernel."""
    return apply_power_series(todd_coefficient, x)


def inverse(x):
    """1/x of a unit as (1/a0) sum_k (1 - x/a0)^k."""
    a0 = x.constant_term()
    return apply_power_series(lambda k: Fraction(1), 1 - x * (1 / a0)) * (1 / a0)


def reference_todd_class_bundle(model, bundle):
    """|m| todd_factors per root, inverses for nonzero roots with m < 0, dense products."""
    total = model.ring.embed(1)
    for key, m in bundle.items():
        x = root(model, key)
        factor = todd_factor(x) if m > 0 or x.is_zero() else inverse(todd_factor(x))
        for _ in range(abs(m)):
            total = total * factor
    return total


def random_line_twist(rng, rank):
    power = rng.choice((-3, 0, 1, 3))
    if rng.random() < 0.5:
        return line_class(power)
    return line_class(power, tuple(rng.randint(-2, 2) for _ in range(rank)))


def omega_class(model, p):
    """[Omega^p] = sum_(j <= p) (-1)^(p-j) [wedge^j(V^* (x) O(-1))] by the Euler sequence.

    The signed sum of O(-j) (x) chi_(-w_S) over the j-subsets S of the weights.
    """
    bundle = Counter()
    for j in range(p + 1):
        for subset in combinations(model.weights, j):
            bundle[-j, tuple(-sum(c) for c in zip(*subset))] += (-1) ** (p - j)
    return bundle


# P^3 over a rank-3 torus at truncation 10, and its Omega^2-shaped class of 11 keys
OMEGA_MODEL = torus_model([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 10)
OMEGA_2 = omega_class(OMEGA_MODEL, 2)


def test_todd_class_matches_the_dense_product_route():
    rng = random.Random(1010)
    seen = set()
    for case in range(200):
        rank, dim, n = 1 + case % 3, 1 + case // 3 % 4, rng.randint(0, 12)
        weights = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
        model = torus_model(weights, n, rank=rank)
        kind = rng.choice(("tangent", "twist", "sum"))
        if kind == "tangent":
            bundle = tangent_class(model)
        elif kind == "twist":
            bundle = random_line_twist(rng, rank)
        else:  # a virtual class: signed line classes, repeats adding up
            bundle = Counter()
            for _ in range(rng.randint(1, 3)):
                bundle.update({key: rng.choice((1, -1)) for key in random_line_twist(rng, rank)})
        got = todd_class_bundle(model, bundle)
        want = reference_todd_class_bundle(model, bundle)
        assert got == want, (case, weights, n, bundle)
        assert [(c.den, c.num) for c in got.coeffs] == [(c.den, c.num) for c in want.coeffs]
        seen.add((rank, dim, kind))
    assert len(seen) == 3 * 4 * 3
    assert len(OMEGA_2) == 11
    want = reference_todd_class_bundle(OMEGA_MODEL, OMEGA_2)
    assert todd_class_bundle(OMEGA_MODEL, OMEGA_2) == want


def shifted_coefficient(k):
    """Coefficients of a series that starts at 2, so that its factor at a zero root is 2, not 1."""
    return Fraction(k + 2)


def test_root_series_product_takes_integer_key_roots():
    model = torus_model([(1, 0), (0, 1), (1, 1), (2, -1)], 7)
    ring = model.ring
    x, y, flat = (3, (1, -5)), (-2, (1, -1)), (0, (2, -3))  # k < 0 in y; k = 0 with a form in flat
    assert root_series_product(ring, [(todd_coefficient, x)]) == todd_factor(root(model, x))
    y_inverse = inverse(todd_factor(root(model, y)))  # the factor of a key of multiplicity m < 0
    assert root_series_product(ring, [(todd_inverse_coefficient, y)]) == y_inverse
    both = [(todd_coefficient, x), (todd_inverse_coefficient, y), (todd_coefficient, flat)]
    want = todd_factor(root(model, x)) * y_inverse * todd_factor(root(model, flat))
    assert root_series_product(ring, both) == want
    assert root_series_product(ring, []) == ring.one()
    # a character of the wrong length is refused, even on a zero root
    for bad in ((1, (1,)), (0, (0, 0, 0)), (-1, (1, 2, 3))):
        with pytest.raises(ValueError, match="expected 2 coefficients"):
            root_series_product(ring, [(todd_coefficient, x), (todd_coefficient, bad)])
        with pytest.raises(ValueError, match="expected 2 coefficients"):
            chern_character_bundle(model, {bad: 1})
        with pytest.raises(ValueError, match="expected 2 coefficients"):
            todd_class_bundle(model, {bad: -1})
    # a zero root first, in the middle and last, next to a root with k = 0 and a nonzero form
    p2, p3 = [(1, 0), (0, 1), (1, 1)], [(1, 0, 2), (0, 1, -1), (2, 0, 0), (1, 1, 1)]
    for weights, n, form in (([1, -1], 9, (3,)), (p2, 6, (-2, 1)), (p3, 5, (1, 3, -2))):
        model = torus_model(weights, n)
        ring = model.ring
        neg = tuple(-c for c in form)
        roots = [(todd_coefficient, (2, neg)), (todd_inverse_coefficient, (0, form))]
        roots.append((todd_coefficient, (1, ())))
        for place in range(len(roots) + 1):
            for fn in (todd_coefficient, todd_inverse_coefficient, shifted_coefficient):
                for zero in ((0, ()), (0, (0,) * model.rank)):
                    factors = roots[:place] + [(fn, zero)] + roots[place:]
                    want = model.ring.embed(1)
                    for f, key in factors:
                        want = want * apply_power_series(f, root(model, key))
                    got = root_series_product(ring, factors)
                    assert got == want, (weights, place, fn, zero)
                    scale = 2 if fn is shifted_coefficient else 1
                    assert got == root_series_product(ring, roots) * scale


def test_chern_character_matches_the_exp_route():
    """ch by one-root Newton walks against sum m . exp(k.h + c.t) by the power-series kernel."""
    rng = random.Random(2710)
    seen = set()
    for case in range(176):  # every (rank, dim, truncation) in 0-3 x 1-4 x 0-10
        rank, dim, n = case % 4, 1 + case // 4 % 4, case % 11
        weights = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
        if case % 5 == 0:
            weights[-1] = weights[0]  # a repeated weight
        elif case % 5 == 1:
            weights[0] = (0,) * rank  # a zero weight
        model = torus_model(weights, n, rank=rank)
        if case % 3 == 0:
            bundle = tangent_class(model)
        else:  # a virtual class with signed multiplicities
            bundle = Counter()
            for _ in range(rng.randint(1, 3)):
                key = random_line_twist(rng, rank)
                bundle.update({k: rng.choice((1, -1, 2, -3)) for k in key})
        got = chern_character_bundle(model, bundle)
        want = sum((exp(root(model, key)) * m for key, m in bundle.items()), model.ring.embed(0))
        assert (got.num, got.den) == (want.num, want.den), (case, weights, n, bundle)
        seen.add((rank, dim, n))
    assert len(seen) == 4 * 4 * 11
    got = chern_character_bundle(OMEGA_MODEL, OMEGA_2)
    want = OMEGA_MODEL.ring.embed(0)
    for key, m in OMEGA_2.items():
        want += exp(root(OMEGA_MODEL, key)) * m
    assert (got.num, got.den) == (want.num, want.den)
    assert got.constant_term() == 3  # the rank of Omega^2 on P^3, C(3, 2)


def test_coefficient_tables_are_built_once_per_function_dx_and_count():
    # P^1 at truncation 8 and P^2 at truncation 7 share the count N + n + 1 = 10
    models = [torus_model([1, -1], 8), torus_model([1, 2, 3], 7), torus_model([(1, 0), (0, 1)], 5)]
    _scaled_coefficients.cache_clear()
    for _ in range(3):
        for model in models:
            exp(model.hyperplane())
            t = GradedSeries.linear_form(model.rank, model.truncation, [1] + [0] * (model.rank - 1))
            exp(t)
            todd_class_bundle(model, tangent_class(model))
    counts = {model.truncation + model.dim + 1 for model in models}
    functions = (exp_coefficient, todd_coefficient, todd_inverse_coefficient)
    keys = {(fn, 1, c) for fn in functions for c in counts}
    keys |= {(exp_coefficient, 1, model.truncation + 1) for model in models}
    assert _scaled_coefficients.cache_info().currsize == len(keys) == 9
    for key in keys:
        multipliers, den = _scaled_coefficients(*key)
        assert type(multipliers) is tuple and len(multipliers) == key[2]
        assert multipliers[0] == den  # every coefficient function here has f(0) = 1
    assert _scaled_coefficients.cache_info().currsize == len(keys)


def test_todd_class_makes_no_bundle_multiply(monkeypatch):
    model = torus_model([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 8)
    want = reference_todd_class_bundle(model, tangent_class(model))
    calls = []
    original = BundleRingElement.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(BundleRingElement, "__mul__", counting)
    monkeypatch.setattr(BundleRingElement, "__rmul__", counting)
    assert todd_class_bundle(model, tangent_class(model)) == want
    assert calls == []
