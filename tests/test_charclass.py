import random
from collections import Counter
from fractions import Fraction

import pytest

from equitau.charclass import (
    ProjSpaceModel,
    chern_character_bundle,
    chern_roots,
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
from equitau.lattice import GroupDescriptor, Weight

P1 = torus_model([1, -1], 8)


def root_series_product(ring, factors):
    """prod_r f_r(x_r) in the h-basis: ``root_series_coordinates`` converted by the ring."""
    return ring.newton_element(*root_series_coordinates(ring, factors))


def test_model_validation():
    g = GroupDescriptor(1)
    with pytest.raises(ValueError):
        ProjSpaceModel(g, (Weight(g, (1,)),))  # needs n >= 1
    g2 = GroupDescriptor(2)
    with pytest.raises(ValueError):
        ProjSpaceModel(g, (Weight(g, (1,)), Weight(g2, (1, 0))))


def test_chow_side_requires_torus():
    model = mu_model(2, [0, 1])
    with pytest.raises(ValueError):
        model.hyperplane()


def test_line_twist_roots():
    h = P1.hyperplane()
    assert line_class(3) == {(3, ()): 1}
    assert chern_roots(P1, line_class(3)) == [(1, h * 3)]
    [(m, x)] = chern_roots(P1, line_class(0))
    assert m == 1 and x.is_zero()
    # character twist shifts by the base linear form
    t_form = P1.embed(GradedSeries.linear_form(1, 8, (5,)))
    assert chern_roots(P1, line_class(2, [5])) == [(1, h * 2 + t_form)]


def test_tangent_class_merges_repeated_weights():
    model = torus_model([(1, 0), (0, 1), (1, 0)], 4)
    assert tangent_class(model) == {(1, (1, 0)): 2, (1, (0, 1)): 1, (0, ()): -1}


def test_tangent_roots_give_first_chern_class_2h():
    total = P1.embed(0)
    for m, x in chern_roots(P1, tangent_class(P1)):
        total = total + x * m
    assert total == P1.hyperplane() * 2


def test_chern_character_of_twists():
    h = P1.hyperplane()
    assert chern_character_bundle(P1, line_class(0)) == P1.embed(1)
    assert chern_character_bundle(P1, line_class(4)) == exp(h * 4)


def test_chern_character_of_tangent():
    t_form = P1.embed(GradedSeries.linear_form(1, 8, (1,)))
    h = P1.hyperplane()
    expected = exp(h + t_form) + exp(h - t_form) - 1
    got = chern_character_bundle(P1, tangent_class(P1))
    assert got == expected
    assert got.constant_term() == 1  # virtual rank


def test_todd_of_trivial_bundle_is_one():
    assert todd_class_bundle(P1, line_class(0)) == P1.embed(1)


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
        ch_parts = P1.embed(0)
        td_parts = P1.embed(1)
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
    total = model.embed(1)
    for m, x in chern_roots(model, bundle):
        factor = todd_factor(x) if m > 0 or x.is_zero() else inverse(todd_factor(x))
        for _ in range(abs(m)):
            total = total * factor
    return total


def random_line_twist(rng, rank):
    power = rng.choice((-3, 0, 1, 3))
    if rng.random() < 0.5:
        return line_class(power)
    return line_class(power, tuple(rng.randint(-2, 2) for _ in range(rank)))


def test_todd_class_matches_the_dense_product_route():
    rng, scales = random.Random(1010), random.Random(1011)
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
        if case % 4 == 0:  # one coeff_fn on roots over different denominators
            factors = [
                (todd_coefficient, x * Fraction(1, scales.randint(1, 3)))
                for _, x in chern_roots(model, bundle)
            ]
            want = model.embed(1)
            for _, x in factors:
                want = want * todd_factor(x)
            assert root_series_product(model.ring, factors) == want, (case, weights, n, bundle)
        seen.add((rank, dim, kind))
    assert len(seen) == 3 * 4 * 3
    # a zero root first, in the middle and last, next to a root with a = 0 and a nonzero form
    p3 = [(1, 0, 2), (0, 1, -1), (2, 0, 0), (1, 1, 1)]
    for weights, n in (([1, -1], 9), ([(1, 0), (0, 1), (1, 1)], 6), (p3, 5)):
        model = torus_model(weights, n)
        ring, h, rank = model.ring, model.hyperplane(), model.rank
        form = [rng.choice((1, -2, 3)) for _ in range(rank)]
        flat = ring.embed(GradedSeries.linear_form(rank, n, form))  # a = 0
        roots = [(todd_coefficient, h * 2 - flat), (todd_inverse_coefficient, flat)]
        roots.append((todd_coefficient, h))
        for place in range(len(roots) + 1):
            for fn in (todd_coefficient, todd_inverse_coefficient, shifted_coefficient):
                factors = roots[:place] + [(fn, model.embed(0))] + roots[place:]
                want = model.embed(1)
                for f, x in factors:
                    want = want * apply_power_series(f, x)
                got = root_series_product(ring, factors)
                assert got == want, (weights, place, fn)
                scale = 2 if fn is shifted_coefficient else 1
                assert got == root_series_product(ring, roots) * scale


def shifted_coefficient(k):
    """Coefficients of a series that starts at 2, so that its factor at a zero root is 2, not 1."""
    return Fraction(k + 2)


def test_root_series_product_takes_negative_and_fraction_roots():
    model = torus_model([(1, 0), (0, 1), (1, 1), (2, -1)], 7)
    ring, h = model.ring, model.hyperplane()
    t = ring.embed(GradedSeries.linear_form(2, 7, (Fraction(1, 3), Fraction(-5, 2))))
    x, y = h * Fraction(3, 4) + t, h * -2 + ring.embed(GradedSeries.linear_form(2, 7, (1, -1)))
    assert root_series_product(ring, [(todd_coefficient, x)]) == todd_factor(x)
    assert root_series_product(ring, [(todd_inverse_coefficient, y)]) == inverse(todd_factor(y))
    both = [(todd_coefficient, x), (todd_inverse_coefficient, y), (todd_coefficient, t)]
    assert root_series_product(ring, both) == todd_factor(x) * inverse(todd_factor(y)) * todd_factor(t)
    assert root_series_product(ring, []) == ring.one()
    for bad in (h * h, h + 1, ring.embed(GradedSeries.linear_form(2, 7, [1, 0]) ** 2), h * h * h + h):
        with pytest.raises(ValueError):
            root_series_product(ring, [(todd_coefficient, bad)])
    with pytest.raises(ValueError):
        root_series_product(ring, [(todd_coefficient, P1.hyperplane())])


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
