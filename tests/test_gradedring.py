import itertools
import math
import random
from fractions import Fraction

import pytest

from equitau import gradedring
from equitau._format import rational_str, variable_names
from equitau.gradedring import (
    BundleRing,
    BundleRingElement,
    GradedSeries,
    apply_power_series,
    bernoulli_number,
    exp,
    newton_moments,
    pushforward,
    reduce,
    segre_pushforward,
    segre_series,
    times_exp_linear_form,
    todd_coefficient,
)

P1 = ((1,), (-1,))


def variable(rank, truncation, index=0):
    """The series t_index, as the linear form of a unit vector."""
    return GradedSeries.linear_form(rank, truncation, [int(i == index) for i in range(rank)])


def sorted_numerators(s):
    """The (exponents, numerator over s.den) items of s by total degree, then exponents."""
    items = [(e, int(c * s.den)) for e, c in s.terms.items()]
    return sorted(items, key=lambda item: (sum(item[0]), item[0]))


# ---------------------------------------------------------------------------
# oracles


def bernoulli_akiyama_tanigawa(n):
    """B_0..B_n in the B_1 = +1/2 convention, by the Akiyama-Tanigawa scheme."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def series_coeff(s, k):
    return s.coefficient((k,))


def todd_factor(x):
    """x/(1 - e^(-x)) of one degree-1 root: the per-root route to the Todd class."""
    return apply_power_series(todd_coefficient, x)


def inverse(x):
    """1/x of a unit (series or bundle element) as (1/a0) sum_k (1 - x/a0)^k."""
    a0 = x.constant_term()
    return apply_power_series(lambda k: Fraction(1), 1 - x * (1 / a0)) * (1 / a0)


# ---------------------------------------------------------------------------
# series arithmetic


def test_geometric_inverse():
    n = 10
    one_plus_t = GradedSeries.one(1, n) + variable(1, n)
    expected = GradedSeries(1, n, {(k,): (-1) ** k for k in range(n + 1)})
    assert inverse(one_plus_t) == expected
    assert one_plus_t * expected == GradedSeries.one(1, n)


def test_exp_product_is_one():
    t = variable(1, 12)
    assert exp(t) * exp(-t) == GradedSeries.one(1, 12)


def test_exp_coefficients_against_factorials():
    t = variable(1, 9)
    e = exp(t * 3)
    for k in range(10):
        assert series_coeff(e, k) == Fraction(3**k, math.factorial(k))


def test_power_series_rejects_a_constant_term():
    t, h = variable(1, 5), make_h(5)
    for unit in (t + 1, GradedSeries.const(1, 5, Fraction(1, 2)), h + 1, h._one() * 3):
        with pytest.raises(ValueError, match="zero constant term"):
            apply_power_series(todd_coefficient, unit)


def test_rank_truncation_mismatch():
    with pytest.raises(ValueError):
        variable(1, 5) * variable(1, 6)
    with pytest.raises(ValueError):
        variable(1, 5) + variable(2, 5)


def test_ring_laws_random():
    rng = random.Random(99)

    def rand_series(rank):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = tuple(rng.randint(0, 4) for _ in range(rank))
            terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return GradedSeries(rank, 10, terms)

    for _ in range(60):
        rank = rng.choice((1, 2, 3))
        a, b, c = rand_series(rank), rand_series(rank), rand_series(rank)
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def naive_product(a, b):
    """Every pair of terms, through the validating constructor."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return GradedSeries(a.rank, a.truncation, terms)


def assert_series_invariant(s):
    assert s == GradedSeries(s.rank, s.truncation, s.terms)
    for e, c in s.terms.items():
        assert type(c) is Fraction and c != 0
        assert len(e) == s.rank and all(x >= 0 for x in e) and sum(e) <= s.truncation


def test_arithmetic_results_hold_the_series_invariant():
    rng = random.Random(404)

    def rand_series(rank, n):
        # few small exponents, so that sums and products cancel
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = tuple(rng.randint(0, 2) for _ in range(rank))
            terms[e] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        return GradedSeries(rank, n, terms)

    for _ in range(150):
        rank, n = rng.randint(0, 3), rng.randint(0, 6)
        a, b = rand_series(rank, n), rand_series(rank, n)
        b = b + a.component(rng.randint(0, 2)) * -1
        k = rng.choice((0, 1, -2, Fraction(3, 4)))
        results = [
            a + b, a - b, b - a, -a, a - a, a + k, k - a, a * k, k * a, a / 3,
            a * b, b * a, a * a, a**3, a.component(rng.randint(0, 3)),
            a.truncate(rng.randint(0, n)),
        ]
        for r in results:
            assert r.rank == rank and r.truncation <= n
            assert_series_invariant(r)
        assert a * b == naive_product(a, b)
        assert a * a == naive_product(a, a)


def test_truncation_discards_high_degrees():
    t = variable(1, 3)
    assert (t**2 * t**2).is_zero()
    assert t**3 == GradedSeries(1, 3, {(3,): 1})


# ---------------------------------------------------------------------------
# Bernoulli numbers and the Todd factor


def test_bernoulli_against_akiyama_tanigawa():
    at = bernoulli_akiyama_tanigawa(12)
    for k in range(13):
        expected = at[k] if k != 1 else -at[k]  # recurrence convention has B_1 = -1/2
        assert bernoulli_number(k) == expected
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(3) == 0


def test_todd_coefficients_by_series_division():
    # x/(1 - e^{-x}) is the inverse of sum_k (-x)^k/(k+1)!
    n = 12
    denom = GradedSeries(
        1, n, {(k,): Fraction((-1) ** k, math.factorial(k + 1)) for k in range(n + 1)}
    )
    inv = inverse(denom)
    for k in range(n + 1):
        assert todd_coefficient(k) == series_coeff(inv, k)


def test_bernoulli_and_todd_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_exp, rs_series_inversion
    from sympy.polys.rings import ring

    n = 30
    _, x = ring("x", sympy.QQ)
    # x/(e^x - 1) = sum B_k x^k / k! (B_1 = -1/2); x/(1 - e^-x) = sum todd_k x^k
    bernoulli_egf = rs_series_inversion((rs_exp(x, x, n + 2) - 1).quo(x), x, n + 1)
    todd = rs_series_inversion((1 - rs_exp(-x, x, n + 2)).quo(x), x, n + 1)
    for k in range(n + 1):
        b = bernoulli_number(k)
        assert b == Fraction(str(bernoulli_egf.coeff(x**k))) * math.factorial(k)
        if k != 1:  # sympy's own B_1 convention changed between versions
            assert b == Fraction(str(sympy.bernoulli(k)))
        assert todd_coefficient(k) == Fraction(str(todd.coeff(x**k)))


def test_todd_factor_of_zero_is_one():
    assert todd_factor(GradedSeries.zero(1, 6)) == GradedSeries.one(1, 6)


def test_todd_factor_frozen_values():
    t = variable(1, 4)
    expected = GradedSeries(
        1, 4, {(0,): 1, (1,): Fraction(1, 2), (2,): Fraction(1, 12), (4,): Fraction(-1, 720)}
    )
    assert todd_factor(t) == expected
    # the doubled form used for the tangent class of P^1
    expected2 = GradedSeries(
        1, 4, {(0,): 1, (1,): 1, (2,): Fraction(1, 3), (4,): Fraction(-1, 45)}
    )
    assert todd_factor(t * 2) == expected2


# ---------------------------------------------------------------------------
# reduction modulo the defining relation


def make_h(truncation=8):
    return BundleRing(P1, 1, truncation).hyperplane()


def test_reduce_h_squared_is_t_squared():
    h = make_h()
    t = variable(1, 8)
    assert h * h == BundleRingElement(h.ring, [t * t, GradedSeries.zero(1, 8)])


def test_reduce_left_alone_below_degree():
    h = make_h()
    zero = GradedSeries.zero(1, 8)
    one = GradedSeries.one(1, 8)
    assert reduce([zero, one], h.ring) == h


def test_reduce_h_cubed():
    h = make_h()
    t = variable(1, 8)
    assert h**3 == BundleRingElement(h.ring, [GradedSeries.zero(1, 8), t * t])


def test_reduce_is_idempotent_and_multiplicative():
    rng = random.Random(5)
    trunc = 8
    ring = BundleRing(P1, 1, trunc)

    def rand_poly(deg):
        return [
            GradedSeries(1, trunc, {(rng.randint(0, 2),): rng.randint(-4, 4)})
            for _ in range(deg + 1)
        ]

    for _ in range(25):
        p = rand_poly(rng.randint(0, 6))
        q = rand_poly(rng.randint(0, 6))
        rp, rq = reduce(p, ring), reduce(q, ring)
        assert reduce(list(rp.coeffs), ring) == rp
        # convolve then reduce == reduce then multiply
        conv = [GradedSeries.zero(1, trunc) for _ in range(len(p) + len(q) - 1)]
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                conv[i + j] = conv[i + j] + a * b
        assert reduce(conv, ring) == rp * rq


def test_repeated_weights_allowed():
    # trivial action on P^2: relation is h^3
    weights = ((0,), (0,), (0,))
    t = variable(1, 6)
    r = reduce([t * 0, t * 0, t * 0, GradedSeries.one(1, 6)], BundleRing(weights, 1, 6))
    assert r.is_zero()


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_examples():
    h = make_h()
    one = GradedSeries.one(1, 8)
    t = variable(1, 8)
    assert pushforward(h) == one
    assert pushforward(h._one()) == GradedSeries.zero(1, 8)
    assert pushforward(h**3) == t * t


def test_pushforward_rejects_raw_polynomials():
    with pytest.raises(ValueError):
        pushforward([GradedSeries.one(1, 8)])


def odd_part(coeffs, truncation):
    """(p(t) - p(-t)) / (2t) of an h-polynomial with rank-1 series coefficients, term by term.

    The pushforward on P^1 with weights (1, -1): c.t^a.h^k gives c.t^(a+k-1) for odd k.
    """
    terms = {}
    for k, c in enumerate(coeffs):
        for (a,), v in c.terms.items():
            if k % 2:
                terms[(a + k - 1,)] = terms.get((a + k - 1,), 0) + v
    return GradedSeries(1, truncation, terms)  # drops the degrees above the truncation


def test_pushforward_agrees_with_odd_part_closed_form():
    rng = random.Random(17)
    trunc = 16
    ring = BundleRing(P1, 1, trunc)
    for _ in range(40):
        deg = rng.randint(0, 10)
        # polynomial coefficients of degree <= 3 keep everything exact
        coeffs = [
            GradedSeries(1, trunc, {(rng.randint(0, 3),): rng.randint(-5, 5)})
            for _ in range(deg + 1)
        ]
        want = pushforward(reduce(coeffs, ring))
        assert want == segre_pushforward(ring, coeffs) == odd_part(coeffs, trunc)
    # and on seeded P^n models, whose closed form is the Segre series'
    for case in range(60):
        ring = random_ring(rng, case)
        ctx, dim = ring.ctx, len(ring.weights) - 1
        coeffs = [random_series(rng, ctx.rank, ctx.truncation) for _ in range(2 * dim + 4)]
        del coeffs[rng.randint(1, len(coeffs)):]  # degrees 0 .. 2n + 3
        assert pushforward(reduce(coeffs, ring)) == segre_pushforward(ring, coeffs), (case, ring)


def test_pushforward_degree_shift():
    trunc = 10
    t = variable(1, trunc)
    h = make_h(trunc)
    for a in range(3):
        for k in range(2):
            cls = h**k * t**a
            result = pushforward(cls)
            if not result.is_zero():
                degrees = {sum(e) for e in result.terms}
                assert degrees == {a + k - 1}


def test_trivial_action_point_class():
    for m in (1, 2, 3):
        weights = tuple((0,) for _ in range(m + 1))
        h = BundleRing(weights, 1, 6).hyperplane()
        assert pushforward(h**m) == GradedSeries.one(1, 6)
        for k in range(m):
            assert pushforward(h**k).is_zero()


def test_bundle_inverse():
    h = make_h()
    t = variable(1, 8)
    for unit in (h._one() + h, h * t * Fraction(-2, 3) + Fraction(5, 2) - t):
        assert unit * inverse(unit) == h._one()


def test_bundle_exp_homomorphism():
    h = make_h()
    t = variable(1, 8)
    x = h * 2
    y = h._one() * t - h  # t - h, degree 1, no constant term
    assert exp(x) * exp(y) == exp(x + y)


# ---------------------------------------------------------------------------
# the integer-numerator kernel against the Fraction-dict kernel it replaced


def fraction_kernel_mul(a, b, n):
    """The old kernel's product: all pairs of Fraction terms, degrees above n dropped."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= n:
                terms[e] = terms.get(e, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def fraction_kernel_add(a, b):
    terms = dict(a)
    for e, c in b.items():
        s = terms.get(e, 0) + c
        if s:
            terms[e] = s
        else:
            del terms[e]
    return terms


def fraction_kernel_scale(a, k):
    return {e: c * k for e, c in a.items()} if k else {}


def fraction_kernel_pow(a, k, rank, n):
    result = {(0,) * rank: Fraction(1)} if n >= 0 else {}
    for _ in range(k):
        result = fraction_kernel_mul(result, a, n)
    return result


def fraction_kernel_inverse(a, rank, n):
    """1/a as (1/a0) * sum_k u^k with u = 1 - a/a0, as the old kernel did."""
    one = {(0,) * rank: Fraction(1)}
    a0 = a[(0,) * rank]
    u = fraction_kernel_add(one, fraction_kernel_scale(a, -1 / a0))
    total, power = dict(one), dict(one)
    while True:
        power = fraction_kernel_mul(power, u, n)
        if not power:
            return fraction_kernel_scale(total, 1 / a0)
        total = fraction_kernel_add(total, power)


def assert_canonical(s):
    assert s.den >= 1 and math.gcd(s.den, *s.num.values()) == 1
    assert all(type(c) is int and c != 0 for c in s.num.values())
    if not s.num:
        assert s.den == 1
    assert_series_invariant(s)


def test_integer_kernel_matches_the_fraction_kernel():
    rng = random.Random(2024)
    seen = set()

    def rand_terms(rank, n):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, min(n, 3)) for _ in range(rank))
            if sum(e) <= n:
                terms[e] = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9, 35)))
        return {e: c for e, c in terms.items() if c}

    for case in range(240):
        rank, n = case % 4, rng.randint(0, 16)
        ta, tb = rand_terms(rank, n), rand_terms(rank, n)
        a, b = GradedSeries(rank, n, ta), GradedSeries(rank, n, tb)
        # b2 cancels against part of a, so sums and differences reach zero
        tb2 = fraction_kernel_add(tb, {e: -c for e, c in ta.items() if rng.random() < 0.7})
        b2 = GradedSeries(rank, n, tb2)
        k = rng.choice((0, 1, -1, 3, -4, Fraction(-5, 6), Fraction(7, 2)))
        d = rng.choice((1, -2, 3, Fraction(2, 5), Fraction(-9, 4)))
        degree = rng.randint(0, n)
        cut = rng.randint(0, n)
        power = rng.randint(0, 3)
        expected = [
            (a + b, fraction_kernel_add(ta, tb)),
            (a + b2, fraction_kernel_add(ta, tb2)),
            (a - b, fraction_kernel_add(ta, fraction_kernel_scale(tb, -1))),
            (a - a, {}),
            (-a, fraction_kernel_scale(ta, -1)),
            (a * k, fraction_kernel_scale(ta, Fraction(k))),
            (k * a, fraction_kernel_scale(ta, Fraction(k))),
            (a / d, fraction_kernel_scale(ta, 1 / Fraction(d))),
            (a * b, fraction_kernel_mul(ta, tb, n)),
            (a * b2, fraction_kernel_mul(ta, tb2, n)),
            (a**power, fraction_kernel_pow(ta, power, rank, n)),
            (a.component(degree), {e: c for e, c in ta.items() if sum(e) == degree}),
            (a.truncate(cut), {e: c for e, c in ta.items() if sum(e) <= cut}),
        ]
        unit = a + (1 - a.constant_term())  # constant term 1
        expected.append((inverse(unit), fraction_kernel_inverse(unit.terms, rank, n)))
        for got, want in expected:
            assert_canonical(got)
            assert got.terms == want, (case, rank, n)
            assert got == GradedSeries(rank, got.truncation, want)
            seen.add((rank, not want, got.den == 1))
    # every rank met a zero result, a nonzero integer one and a fractional one
    assert seen == {(r, z, i) for r in range(4) for z, i in ((True, True), (False, True), (False, False))}


def test_canonical_form_of_constructed_series():
    assert GradedSeries.zero(2, 5).den == 1
    s = GradedSeries(1, 4, {(0,): Fraction(1, 6), (1,): Fraction(1, 4), (2,): 3})
    assert (sorted_numerators(s), s.den) == ([((0,), 2), ((1,), 3), ((2,), 36)], 12)
    assert (s * 12).den == 1 and sorted_numerators(s * 12) == [((0,), 2), ((1,), 3), ((2,), 36)]
    assert (s - s).den == 1 and (s * 0).den == 1
    assert s.coefficient((1,)) == Fraction(1, 4) and s.constant_term() == Fraction(1, 6)
    view = s.terms
    view[(3,)] = Fraction(1)
    assert (3,) not in s.terms  # the view is derived, not the storage
    for series in (s, s * s, inverse(s), s - s, s / 7):
        assert_canonical(series)


def test_equal_series_by_different_routes_hash_equal():
    t = variable(2, 9)
    u = variable(2, 9, 1)
    a = exp(t + u * Fraction(1, 3))
    routes = [
        (exp(t) * exp(-t), GradedSeries.one(2, 9)),
        ((a + t) - t, a),
        (a * 6 / 6, a),
        (a * Fraction(2, 3) + a * Fraction(1, 3), a),
        (exp(t) * exp(u * Fraction(1, 3)), a),
        (inverse(inverse(a)), a),
        (GradedSeries(2, 9, a.terms), a),
        (a - a, GradedSeries.zero(2, 9)),
        (GradedSeries(2, 9, {(1, 0): Fraction(2, 4)}), t / 2),
    ]
    for x, y in routes:
        assert x == y and hash(x) == hash(y)
        assert (x.den, x.num) == (y.den, y.num)
    h = make_h()
    t1 = variable(1, 8)
    other = BundleRingElement(h.ring, [t1 * t1, GradedSeries.zero(1, 8)])
    assert h * h == other and hash(h * h) == hash(other)


def test_hrr_chi_builds_no_h_basis_view(monkeypatch):
    from equitau import gradedring
    from equitau.charclass import line_class, torus_model
    from equitau.riemannroch import hrr_chi

    calls = []
    original = gradedring._newton_slots

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gradedring, "_newton_slots", counting)
    model = torus_model([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 6)
    chi = hrr_chi(model, line_class(1, (1, -2, 3)))
    assert chi.constant_term() == 4
    hrr_chi(model, line_class(0))
    assert len(calls) == 0  # chi reads Newton coordinates and moments only


def test_exp_of_linear_forms_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_exp
    from sympy.polys.rings import ring

    rng = random.Random(31)
    cases = [(0, 5, ())] + [
        (rank, n, tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(rank)))
        for rank, n in ((1, 16), (1, 7), (2, 16), (2, 9), (3, 12), (3, 16), (3, 0), (2, 1))
    ]
    for rank, n, coeffs in cases:
        # s grades by total degree: exp(s * (a . t)) cut above s^n
        names = ["s"] + [f"t{i}" for i in range(rank)]
        R, *gens = ring(",".join(names), sympy.QQ)
        s, ts = gens[0], gens[1:]
        form = sum((sympy.QQ(c.numerator, c.denominator) * x for c, x in zip(coeffs, ts)), R.zero)
        expansion = rs_exp(s * form, s, n + 1) if rank else R.one
        expected = {}
        for monom, c in expansion.terms():
            expected[monom[1:]] = Fraction(int(c.numerator), int(c.denominator))
        got = exp(GradedSeries.linear_form(rank, n, coeffs))
        assert got.terms == expected, (rank, n, coeffs)


def test_exp_linear_form_twist_matches_the_exp_series_product():
    rng = random.Random(2323)
    for case in range(120):
        rank, n = 1 + case % 3, case % 13
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, n) for _ in range(rank))
            terms[e] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
        series = GradedSeries(rank, n, terms)
        # zero, negative and positive entries, and an all-zero character now and then
        coeffs = tuple(rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(rank))
        want = exp(GradedSeries.linear_form(rank, n, coeffs)) * series
        got = times_exp_linear_form(series, coeffs)
        assert got == want, (rank, n, coeffs, series)
        with pytest.raises(ValueError, match=f"expected {rank} coefficients"):
            times_exp_linear_form(series, coeffs + (1,))


# ---------------------------------------------------------------------------
# the fused packed bundle kernel against the slot-by-slot multiply and reduce
# it replaced, here on the Fraction-dict kernel above


def reference_relation(weights, rank, n):
    """e_1..e_{n+1} of prod_i(h + w_i.t) as Fraction dicts, multiplied out slot by slot."""
    poly = [{(0,) * rank: Fraction(1)}]
    for w in weights:
        form = {tuple(int(i == j) for j in range(rank)): Fraction(c) for i, c in enumerate(w) if c}
        new = [{} for _ in range(len(poly) + 1)]
        for k, c in enumerate(poly):
            new[k + 1] = fraction_kernel_add(new[k + 1], c)
            new[k] = fraction_kernel_add(new[k], fraction_kernel_mul(c, form, n))
        poly = new
    return [poly[len(weights) - j] for j in range(1, len(weights) + 1)]


def reference_reduce(coeffs, relation, n):
    """Fold h^k for k > n down by h^(n+1) = -(e_1 h^n + ... + e_(n+1)), from the top."""
    coeffs = list(coeffs)
    n1 = len(relation)
    for k in range(len(coeffs) - 1, n1 - 1, -1):
        top = coeffs[k]
        coeffs[k] = {}
        for j in range(1, n1 + 1):
            product = fraction_kernel_mul(relation[j - 1], top, n)
            coeffs[k - j] = fraction_kernel_add(coeffs[k - j], fraction_kernel_scale(product, -1))
    return coeffs[:n1] + [{}] * (n1 - len(coeffs))


def reference_bundle_mul(a, b, relation, n):
    prod = [{} for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = fraction_kernel_add(prod[i + j], fraction_kernel_mul(x, y, n))
    return reference_reduce(prod, relation, n)


def test_fused_bundle_kernel_matches_the_slot_by_slot_reference():
    rng = random.Random(606)
    seen = set()

    def rand_slot(rank, n):
        terms = {}
        if rng.random() < 0.3:
            return terms  # a zero slot
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, min(n, 3)) for _ in range(rank))
            if sum(e) <= n:
                terms[e] = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4, 6)))
        return {e: c for e, c in terms.items() if c}

    for case in range(150):
        rank, dim, n = 1 + case % 3, rng.randint(1, 4), case % 13
        weights = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
        relation = reference_relation(weights, rank, n)
        ring = BundleRing(weights, rank, n)
        slots = [[rand_slot(rank, n) for _ in range(dim + 1)] for _ in range(3)]
        x, y, z = (BundleRingElement(ring, [GradedSeries(rank, n, s) for s in ss]) for ss in slots)
        product = x * y
        want = reference_bundle_mul(slots[0], slots[1], relation, n)
        assert [c.terms for c in product.coeffs] == want, (case, weights, n)
        for c in product.coeffs:
            assert_canonical(c)
        assert product == y * x
        assert (x * y) * z == x * (y * z)
        # the public reduce runs the same reduction on a longer h-polynomial
        poly = [rand_slot(rank, n) for _ in range(rng.randint(0, 2 * dim + 3))]
        reduced = reduce([GradedSeries(rank, n, s) for s in poly], ring)
        assert [c.terms for c in reduced.coeffs] == reference_reduce(poly, relation, n)
        seen.add((n == 0, product.is_zero()))
    assert seen == {(z, p) for z in (True, False) for p in (True, False)}


def test_reduce_lifts_scalars_and_rejects_mismatched_series():
    ring = BundleRing(P1, 1, 6)
    t = variable(1, 6)
    assert reduce([Fraction(1, 2), 0, 3], ring) == reduce(
        [GradedSeries.const(1, 6, Fraction(1, 2)), t * 0, GradedSeries.const(1, 6, 3)], ring
    )
    assert reduce([0, 0, 3], ring) == BundleRingElement(ring, [t * t * 3])
    with pytest.raises(ValueError):
        reduce([GradedSeries.one(1, 5)], ring)
    with pytest.raises(ValueError):
        ring.embed(GradedSeries.one(2, 6))


def test_named_constructors_are_canonical():
    for rank, n in ((0, 0), (1, 0), (2, 0), (1, 3), (3, 5)):
        built = [
            (GradedSeries.zero(rank, n), {}),
            (GradedSeries.one(rank, n), {(0,) * rank: 1}),
            (GradedSeries.const(rank, n, Fraction(-3, 6)), {(0,) * rank: Fraction(-1, 2)}),
            (GradedSeries.const(rank, n, 0), {}),
        ]
        coeffs = [Fraction(i - 1, 1 + i % 3) for i in range(rank)]
        unit = {tuple(int(i == j) for j in range(rank)): c for i, c in enumerate(coeffs) if c}
        built.append((GradedSeries.linear_form(rank, n, coeffs), unit if n else {}))
        for index in range(rank):
            e = tuple(int(i == index) for i in range(rank))
            built.append((variable(rank, n, index), {e: 1} if n else {}))
        for got, terms in built:
            assert_canonical(got)
            assert got == GradedSeries(rank, n, terms)
        if rank:
            ring = BundleRing([(1,) * rank, (0,) * rank], rank, n)
            h = BundleRingElement(ring, [GradedSeries(rank, n), GradedSeries.one(rank, n)])
            half = GradedSeries(rank, n, {(0,) * rank: Fraction(1, 2)})
            assert ring.hyperplane() == h
            assert ring.embed(Fraction(2, 4)) == BundleRingElement(ring, [half])


# ---------------------------------------------------------------------------
# the closed-form pushforward keeps its top degree


def test_odd_part_quotient_keeps_the_top_degree():
    rng = random.Random(23)
    for n in range(7):
        ring = BundleRing(P1, 1, n)
        for degree in range(n + 4):
            for coeffs in ([0] * degree + [1], [rng.randint(-4, 4) for _ in range(degree + 1)]):
                # p(h) pushes forward to sum over odd k of c_k t^(k-1)
                expected = GradedSeries(1, n, {(k - 1,): c for k, c in enumerate(coeffs) if k % 2})
                assert segre_pushforward(ring, coeffs) == expected, (n, coeffs)
                assert pushforward(reduce(coeffs, ring)) == expected
    # on seeded P^n models the degree-N part comes from h^(n+N), past the reduced h-degrees
    for case in range(78):
        ring = random_ring(rng, case)
        ctx, dim = ring.ctx, len(ring.weights) - 1
        top = [0] * (dim + ctx.truncation) + [1]
        want = segre_series(ring, ctx.truncation).component(ctx.truncation)
        assert segre_pushforward(ring, top) == want == pushforward(reduce(top, ring)), (case, ring)
        assert segre_pushforward(ring, top + [0, 3]) == want  # degree N + 2 is cut


# ---------------------------------------------------------------------------
# the integer power-series kernel against the per-step loop it replaced, here
# on the Fraction-dict kernels above


def reference_apply_power_series(coeff_fn, x, one, mul):
    """sum_k coeff_fn(k) x^k step by step: power = power * x, total += c_k power.

    x and one are lists of Fraction dicts, one per h-degree; the loop stops at
    the first power that is zero.
    """
    c0 = Fraction(coeff_fn(0))
    total = [fraction_kernel_scale(s, c0) for s in one]
    power = one
    k = 0
    while True:
        k += 1
        power = mul(power, x)
        if not any(power):
            return total
        c = Fraction(coeff_fn(k))
        if c:
            total = [fraction_kernel_add(t, fraction_kernel_scale(p, c)) for t, p in zip(total, power)]


def sparse_coefficient(k):
    """A coefficient function with zeros, the constant term among the nonzero ones."""
    return Fraction((-1) ** k * (k + 1), k + 2) if k % 3 != 1 else 0


COEFFICIENT_FUNCTIONS = {
    "exp": lambda k: Fraction(1, math.factorial(k)),
    "todd": todd_coefficient,
    "inverse": lambda k: Fraction(1),
    "sparse": sparse_coefficient,
}


def random_nilpotent(rng, rank, n, kind, slots):
    """Fraction dicts, one per h-degree, of an element with no constant term.

    kind "linear": homogeneous of degree 1 (a form in t plus a multiple of h);
    "mixed": a few terms of total degree 1 to 3; "zero": nothing.
    """
    x = [{} for _ in range(slots)]
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    if kind == "linear":
        for e in units:
            x[0][e] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
        if slots > 1:
            x[1][(0,) * rank] = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    elif kind == "mixed":
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, min(slots - 1, 2))
            e = tuple(rng.randint(0, 2) for _ in range(rank))
            if 1 <= sum(e) + k <= 3 and sum(e) <= n:
                x[k][e] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
    return [{e: c for e, c in s.items() if c} for s in x]


def test_power_series_kernel_matches_the_per_step_reference():
    rng = random.Random(9090)
    seen = set()
    for case in range(200):
        kind = rng.choice(("linear", "mixed", "mixed", "zero"))
        name = rng.choice(sorted(COEFFICIENT_FUNCTIONS))
        coeff_fn = COEFFICIENT_FUNCTIONS[name]
        if case % 2:
            rank, n = case % 4, rng.randint(0, 12)  # a series: ranks 0-3
            if rank == 0:
                kind = "zero"  # no term of positive degree exists
            x_terms = random_nilpotent(rng, rank, n, kind, 1)
            x = GradedSeries(rank, n, x_terms[0])
            got = [apply_power_series(coeff_fn, x).terms]
            one = [{(0,) * rank: Fraction(1)}]
            want = reference_apply_power_series(
                coeff_fn, x_terms, one, lambda a, b: [fraction_kernel_mul(a[0], b[0], n)]
            )
        else:
            rank, dim = 1 + case // 2 % 3, rng.randint(1, 4)
            # the Fraction reference is slow: keep each slot at <= 56 monomials
            n = rng.randint(0, max(k for k in range(13) if math.comb(k + rank, rank) <= 56))
            weights = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
            relation = reference_relation(weights, rank, n)
            ring = BundleRing(weights, rank, n)
            x_terms = random_nilpotent(rng, rank, n, kind, dim + 1)
            x = BundleRingElement(ring, [GradedSeries(rank, n, s) for s in x_terms])
            got = [c.terms for c in apply_power_series(coeff_fn, x).coeffs]
            one = [{(0,) * rank: Fraction(1)}] + [{}] * dim
            want = reference_apply_power_series(
                coeff_fn, x_terms, one, lambda a, b: reference_bundle_mul(a, b, relation, n)
            )
        assert got == want, (case, name, kind, rank, n)
        seen.add((case % 2, name, kind))
    assert len(seen) == 2 * 4 * 3  # both rings, every function, every kind of x


def pushforward_moments(element, count):
    """The series pushforward(h^j * element), j < count, on the Fraction-dict reference.

    The reference for ``newton_moments``: each moment from the last by one
    shift and one ``reference_reduce`` fold by ``reference_relation``.
    """
    ring = element.ctx
    rank, n = ring.rank, ring.truncation
    relation = reference_relation(ring.weights, rank, n)
    slots, moments = [c.terms for c in element.coeffs], []
    for j in range(count):
        if j:
            slots = reference_reduce([{}] + slots, relation, n)
        moments.append(GradedSeries(rank, n, slots[-1]))
    return moments


def test_pushforward_moments_are_the_pushforwards_of_h_powers_times_the_element():
    rng = random.Random(4321)
    for case in range(60):
        rank, dim, n = 1 + case % 3, rng.randint(1, 4), rng.randint(0, 8)
        weights = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
        ring = BundleRing(weights, rank, n)
        slots = []
        for _ in range(dim + 1):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                e = tuple(rng.randint(0, 2) for _ in range(rank))
                terms[e] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4)))
            slots.append(GradedSeries(rank, n, terms))
        e, h = BundleRingElement(ring, slots), ring.hyperplane()
        count = n + dim + 3  # two past h^(N+n) = 0
        moments = pushforward_moments(e, count)
        assert len(moments) == count
        for j, mu in enumerate(moments):
            assert mu == pushforward(h**j * e), (case, weights, n, j)
        assert all(mu.is_zero() for mu in moments[-2:])
        assert pushforward_moments(e, 2) == moments[:2]


def random_ring(rng, case):
    """A seeded bundle ring: ranks 1-3, dimensions 1-4, repeated and zero weights, N = 0..12."""
    rank, dim, n = 1 + case % 3, 1 + case // 3 % 4, case % 13
    pool = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
    weights = [rng.choice(pool + [(0,) * rank]) for _ in range(dim + 1)]
    return BundleRing(weights, rank, n)


def random_series(rng, rank, n, dens=(1, 2, 3)):
    """A seeded series of up to five terms, each exponent at most 3."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 3) for _ in range(rank))
        terms[e] = Fraction(rng.randint(-9, 9), rng.choice(dens))
    return GradedSeries(rank, n, terms)


def random_coords(rng, ring):
    """n + 1 seeded Newton coordinates {series key: integer numerator} of a ring."""
    rank, n = ring.rank, ring.truncation
    return [dict(random_series(rng, rank, n, (1,)).num) for _ in ring.weights]


def ring_shape(ring):
    """(rank, dimension, repeated weight?, zero weight?, truncation 0?) of a ring."""
    rank, dim = ring.rank, len(ring.weights) - 1
    zero = (0,) * rank in ring.weights
    return rank, dim, len(set(ring.weights)) < dim + 1, zero, ring.truncation == 0


def newton_sum(ring, coords, den):
    """sum_m coords[m].N_m / den multiplied out by bundle products: h-degree <= n, nothing folds."""
    ctx, h = ring.ctx, ring.hyperplane()
    y, newton = ring.embed(0), ring.one()
    for m, c in enumerate(coords):
        if m:
            form = GradedSeries.linear_form(ctx.rank, ctx.truncation, ring.weights[m - 1])
            newton = newton * (h + form)
        y = y + newton * GradedSeries._trusted(ctx, dict(c), den)
    return y


def test_newton_element_is_the_sum_of_coordinates_times_newton_products():
    rng = random.Random(2627)
    seen = set()
    for case in range(156):
        ring = random_ring(rng, case)
        coords = random_coords(rng, ring)
        den = rng.choice((1, 6, 35))
        got = ring.newton_element(coords, den)
        assert got == newton_sum(ring, coords, den), (case, ring)
        assert_bundle_canonical(got)
        seen.add(ring_shape(ring))
    assert {s[:2] for s in seen} == {(r, d) for r in (1, 2, 3) for d in (1, 2, 3, 4)}
    assert {s[2:] for s in seen} == {(r, z, t) for r in (0, 1) for z in (0, 1) for t in (0, 1)}


def test_newton_storage_agrees_with_its_h_basis_view():
    rng = random.Random(2627)
    seen = set()
    for case in range(156):
        ring = random_ring(rng, case)
        ctx, dim = ring.ctx, len(ring.weights) - 1
        x = ring.newton_element(random_coords(rng, ring), rng.choice((1, 6, 35)))
        view = x.coeffs
        assert len(view) == dim + 1 and BundleRingElement(ring, view) == x, (case, ring)
        assert pushforward(x) == view[-1]
        assert x.constant_term() == view[0].constant_term()
        degree = rng.randint(-1, 2 * dim + 3)  # -1: the empty polynomial
        poly = [random_series(rng, ctx.rank, ctx.truncation) for _ in range(degree + 1)]
        relation = reference_relation(ring.weights, ctx.rank, ctx.truncation)
        want = reference_reduce([c.terms for c in poly], relation, ctx.truncation)
        assert [c.terms for c in reduce(poly, ring).coeffs] == want, (case, ring)
        seen.add(ring_shape(ring))
    assert {s[:2] for s in seen} == {(r, d) for r in (1, 2, 3) for d in (1, 2, 3, 4)}
    assert {s[2:] for s in seen} == {(r, z, t) for r in (0, 1) for z in (0, 1) for t in (0, 1)}


def test_newton_element_reduce_products_and_pushforward_make_no_series_arithmetic(monkeypatch):
    rng = random.Random(2727)
    cases = []
    for case in range(39):
        ring = random_ring(rng, case)
        ctx, dim = ring.ctx, len(ring.weights) - 1
        coords = random_coords(rng, ring)
        x = newton_sum(ring, coords, 7)
        y = ring.newton_element(random_coords(rng, ring), 5)
        poly = [random_series(rng, ctx.rank, ctx.truncation) for _ in range(2 * dim + 2)]
        wants = (x, reduce(poly, ring), x * y, pushforward(x))
        cases.append((ring.weights, ctx.rank, ctx.truncation, coords, poly, x, y, wants))

    def refuse(*args):
        raise AssertionError("GradedSeries arithmetic")

    for name in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__pow__", "__truediv__"):
        monkeypatch.setattr(GradedSeries, name, refuse)
    for weights, rank, n, coords, poly, x, y, wants in cases:
        ring = BundleRing(weights, rank, n)
        got = (ring.newton_element(coords, 7), reduce(poly, ring), x * y, pushforward(x))
        assert got == wants


def test_newton_moments_match_the_shift_and_fold_moments():
    rng = random.Random(2424)
    seen = set()
    for case in range(156):
        ring = random_ring(rng, case)
        ctx, dim = ring.ctx, len(ring.weights) - 1
        coords = []
        for _ in ring.weights:
            terms = {}
            for _ in range(rng.randint(0, 5)):
                e = tuple(rng.randint(0, 3) for _ in range(ctx.rank))
                terms[e] = rng.randint(-9, 9)
            coords.append(dict(GradedSeries(ctx.rank, ctx.truncation, terms).num))
        den = rng.choice((1, 6, 35))
        # y = sum_m c_m N_m / den, multiplied out in the ring: no Newton basis, no conversion
        y, newton, h = ring.embed(0), ring.one(), ring.hyperplane()
        for c, w in zip(coords, ring.weights):
            y = y + newton * GradedSeries._trusted(ctx, c, den)
            newton = newton * (h + GradedSeries.linear_form(ctx.rank, ctx.truncation, w))
        last = ctx.truncation + dim + 1
        want = pushforward_moments(y, last)
        for count in range(1, last + 1):
            got = newton_moments(ring, coords, count)
            assert len(got) == count and all(all(mu.values()) for mu in got)
            assert [GradedSeries._trusted(ctx, mu, den) for mu in got] == want[:count], (
                case, ring, count)
        assert newton_moments(ring, coords, 1) == [{k: v for k, v in coords[-1].items() if v}]
        seen.add((ctx.rank, dim, len(set(ring.weights)) < dim + 1, (0,) * ctx.rank in ring.weights))
    assert {(r, d) for r, d, _, _ in seen} == {(r, d) for r in (1, 2, 3) for d in (1, 2, 3, 4)}
    assert {(repeated, zero) for *_, repeated, zero in seen} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_segre_series_parts_are_the_pushforwards_of_h_powers():
    rng = random.Random(77)
    for case in range(78):
        ring = random_ring(rng, case)
        ctx, dim = ring.ctx, len(ring.weights) - 1
        s = segre_series(ring, ctx.truncation)
        assert s.den == 1 and s == segre_series(ring, ctx.truncation + 3)
        for i in range(ctx.truncation + 1):
            h_power = reduce([0] * (dim + i) + [1], ring)
            assert s.component(i) == pushforward(h_power), (case, ring, i)
            low = segre_series(ring, i)  # stops at degree i
            zero = GradedSeries.zero(ctx.rank, ctx.truncation)
            assert low == sum((s.component(d) for d in range(i + 1)), zero)


def test_power_series_on_bundle_elements_make_no_bundle_multiply(monkeypatch):
    ring = BundleRing([(1, 0), (0, 1), (1, 1), (2, -1)], 2, 8)
    h = ring.hyperplane()
    roots = [h + ring.embed(GradedSeries.linear_form(2, 8, w)) for w in ring.weights]
    calls = []
    original = BundleRingElement.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(BundleRingElement, "__mul__", counting)
    monkeypatch.setattr(BundleRingElement, "__rmul__", counting)
    for x in roots:
        exp(x)
        todd_factor(x)
    assert calls == []


# ---------------------------------------------------------------------------
# bundle elements on the sparse core against the slot-by-slot element they replaced


def assert_bundle_canonical(x):
    """One canonical (num, den), the one the public constructor builds from x's slots."""
    assert x.den >= 1 and math.gcd(x.den, *x.num.values()) == 1
    assert all(type(c) is int and c != 0 for c in x.num.values())
    assert x.num or x.den == 1
    assert all(0 <= k < len(x.ring.weights) * x.ring.ctx.limit for k in x.num)
    rebuilt = BundleRingElement(x.ring, x.coeffs)
    assert (rebuilt.den, rebuilt.num) == (x.den, x.num) and hash(rebuilt) == hash(x)


def test_bundle_elements_hold_only_the_core_fields():
    h = make_h()
    assert BundleRingElement.__slots__ == () and not hasattr(h, "__dict__")
    ctx = h.ring.ctx  # h = N_1 - l_0, with l_0 = t on P^1 (1, -1)
    assert h.ctx is h.ring and (h.num, h.den) == ({ctx.limit: 1, ctx.places[0]: -1}, 1)


def test_bundle_arithmetic_is_slotwise_and_canonical():
    rng = random.Random(1212)
    seen = set()

    def rand_slot(rank, n):
        if rng.random() < 0.3:
            return {}  # a zero slot
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, min(n, 2)) for _ in range(rank))
            if sum(e) <= n:
                terms[e] = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4, 6)))
        return {e: c for e, c in terms.items() if c}

    for case in range(150):
        rank, dim, n = 1 + case % 3, rng.randint(1, 3), rng.randint(0, 6)
        weights = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
        ring = BundleRing(weights, rank, n)
        xs = [rand_slot(rank, n) for _ in range(dim + 1)]
        # ys cancels part of xs, so sums and differences reach zero slots
        ys = [
            fraction_kernel_scale(a, -1) if rng.random() < 0.4 else rand_slot(rank, n)
            for a in xs
        ]
        x, y = (BundleRingElement(ring, [GradedSeries(rank, n, s) for s in ss]) for ss in (xs, ys))
        k = rng.choice((0, 1, -3, Fraction(5, 6), Fraction(-7, 4)))
        unit = {(0,) * rank: Fraction(k)} if k else {}
        series = rand_slot(rank, n)
        s = GradedSeries(rank, n, series)
        zero = [{}] * dim
        expected = [
            (x + y, [fraction_kernel_add(a, b) for a, b in zip(xs, ys)]),
            (x - y, [fraction_kernel_add(a, fraction_kernel_scale(b, -1)) for a, b in zip(xs, ys)]),
            (x - x, [{}] + zero),
            (-x, [fraction_kernel_scale(a, -1) for a in xs]),
            (x * k, [fraction_kernel_scale(a, Fraction(k)) for a in xs]),
            (k * x, [fraction_kernel_scale(a, Fraction(k)) for a in xs]),
            (x + k, [fraction_kernel_add(xs[0], unit)] + xs[1:]),
            (k - x, [fraction_kernel_add(unit, fraction_kernel_scale(xs[0], -1))]
             + [fraction_kernel_scale(a, -1) for a in xs[1:]]),
            (x + s, [fraction_kernel_add(xs[0], series)] + xs[1:]),
            (s * x, [fraction_kernel_mul(series, a, n) for a in xs]),
            (ring.embed(s), [series] + zero),
            (ring.embed(k), [unit] + zero),
            (ring.one(), [{(0,) * rank: 1}] + zero),
            (ring.hyperplane(), [{}, {(0,) * rank: 1}] + zero[1:]),
        ]
        for got, want in expected:
            assert_bundle_canonical(got)
            assert [c.terms for c in got.coeffs] == want, (case, weights, n)
            assert got == BundleRingElement(ring, [GradedSeries(rank, n, w) for w in want])
            seen.add((not any(want), got.den == 1))
    assert seen == {(True, True), (False, True), (False, False)}
    with pytest.raises(ValueError):
        make_h() + BundleRing(P1, 1, 7).hyperplane()
    with pytest.raises(ValueError):
        make_h() * variable(1, 7)


def monomial_string(names, exponents):
    """The per-term monomial renderer: u1^a1 u2^a2 ..., omitting unit exponents and zeros."""
    return " ".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e)


def join_signed_terms(terms, den=1):
    """The per-term joiner: (numerator, monomial) pairs over den as "2 - u + 1/12 t^4"."""
    out = []
    for p, mono in terms:
        mag = rational_str(abs(p), den)
        body = mag if not mono else mono if mag == "1" else f"{mag} {mono}"
        out.append(("-" if p < 0 else "") + body if not out else f" {'-' if p < 0 else '+'} {body}")
    return "".join(out) if out else "0"


def reference_bundle_str(x):
    """The slot-by-slot renderer: terms by total degree, then t-exponents, then h-degree."""
    names = variable_names("t", x.ring.rank) + ["h"]
    den = math.lcm(*(c.den for c in x.coeffs))
    items = []
    for k, c in enumerate(x.coeffs):
        scale = den // c.den
        for e, p in sorted_numerators(c):
            items.append((sum(e) + k, e, k, p * scale))
    items.sort(key=lambda it: it[:3])
    return join_signed_terms(((p, monomial_string(names, e + (k,))) for _, e, k, p in items), den)


def test_bundle_rendering_matches_the_slot_by_slot_renderer():
    rng = random.Random(3131)
    for case in range(80):
        rank, dim, n = 2 + case % 2, rng.randint(1, 3), rng.randint(0, 5)
        weights = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
        ring = BundleRing(weights, rank, n)
        slots = []
        for _ in range(dim + 1):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                e = tuple(rng.randint(0, 2) for _ in range(rank))
                terms[e] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
            slots.append(GradedSeries(rank, n, terms))
        x = BundleRingElement(ring, slots)
        for y in (x, x * x, x * ring.hyperplane(), x - x):
            assert str(y) == repr(y) == reference_bundle_str(y), (case, weights, n)


# ---------------------------------------------------------------------------
# the dense product from a per-ring plan


def fraction_product(a, b):
    """a * b from the terms, in Fractions, truncated: the reference for both product routes."""
    out = {}
    for e, x in a.terms.items():
        for f, y in b.terms.items():
            g = tuple(i + j for i, j in zip(e, f))
            if sum(g) <= a.truncation:
                out[g] = out.get(g, 0) + x * y
    return {g: c for g, c in out.items() if c}


def random_share(rng, rank, truncation, share, low=0):
    """A series on about `share` of the monomials of degree low..N, small numerators, den > 1."""
    den = rng.choice((1, 2, 6, 35))
    terms = {}
    for e in itertools.product(range(truncation + 1), repeat=rank):
        if low <= sum(e) <= truncation and rng.random() < share:
            terms[e] = Fraction(rng.randint(-2, 2), den)  # small: outputs often cancel
    return GradedSeries(rank, truncation, terms)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("truncation", [0, 1, 5, 12])
def test_the_plan_convolve_and_fractions_agree(rank, truncation):
    # a plan for every ring, the small ones too, outside the plan cache
    plan = gradedring._product_plan.__wrapped__(rank, truncation)
    keys, outputs = plan
    assert len(keys) == math.comb(truncation + rank, rank) and keys == sorted(keys)
    # every getter returns a tuple, none of them a 20-tuple (see _product_plan)
    padded = [0] * (len(keys) + 1)
    assert all(type(got := i(padded)) is tuple and len(got) != 20 for _, i, _ in outputs)
    ctx = gradedring.series_ring(rank, truncation)
    assert ctx.dense_least in (0, math.ceil(Fraction(4, 5) * len(keys)))
    rng = random.Random(f"plan/{rank}/{truncation}")
    cases = 12 if rank < 3 or truncation < 12 else 2
    cancelled = 0
    for share in (0, 0.1, 0.5, 0.8, 0.95, 1):
        for _ in range(cases):
            a, b = (random_share(rng, rank, truncation, share) for _ in range(2))
            convolved = {}
            gradedring._convolve(a.num.items(), sorted(b.num.items()), ctx.limit, convolved)
            dense = gradedring._dense_product(plan, a.num, b.num)
            assert dense == {k: c for k, c in convolved.items() if c}
            assert 0 not in dense.values() and list(dense) == sorted(dense)
            product = GradedSeries._trusted(ctx, dense, a.den * b.den)
            assert product == a * b == b * a
            assert product.terms == fraction_product(a, b)
            cancelled += len(dense) < len({k for k, c in convolved.items()})
    # past degree N / 2 each, every product leaves the ring: the dense route gives 0
    low = truncation // 2 + 1
    for _ in range(cases):
        a, b = (random_share(rng, rank, truncation, 1, low) for _ in range(2))
        assert gradedring._dense_product(plan, a.num, b.num) == {}
        assert (a * b).is_zero()
    assert truncation < 2 or cancelled  # some outputs summed to 0 and were dropped


def count_routes(monkeypatch):
    """Count the products that run from the plan and the ones that convolve."""
    counts = {"plan": 0, "convolve": 0}
    dense, convolve = gradedring._dense_product, gradedring._convolve

    def counting_dense(*args):
        counts["plan"] += 1
        return dense(*args)

    def counting_convolve(*args):
        counts["convolve"] += 1
        return convolve(*args)

    monkeypatch.setattr(gradedring, "_dense_product", counting_dense)
    monkeypatch.setattr(gradedring, "_convolve", counting_convolve)
    return counts


def test_the_plan_serves_only_dense_operands_in_rings_with_enough_pairs(monkeypatch):
    # (2, 12): 91 monomials, 1,820 pairs, 20 per output; (1, 12): 7 per output
    assert gradedring.series_ring(1, 12).dense_least == 0
    assert gradedring.series_ring(3, 13).dense_least == 0  # 27,132 pairs, past the cap
    least = gradedring.series_ring(2, 12).dense_least
    assert least == 73
    counts = count_routes(monkeypatch)
    rng = random.Random(33)
    monomials = [e for e in itertools.product(range(13), repeat=2) if sum(e) <= 12]
    full = [GradedSeries(2, 12, {e: rng.choice((-3, -1, 1, 2)) for e in monomials}) for _ in "ab"]
    thin = GradedSeries._trusted(full[0].ctx, dict(list(full[0].num.items())[: least - 1]), 1)
    gradedring._product_plan.cache_clear()
    assert thin * full[1] == full[1] * thin == GradedSeries(2, 12, fraction_product(thin, full[1]))
    assert counts == {"plan": 0, "convolve": 2}
    assert gradedring._product_plan.cache_info().currsize == 0  # no plan for sparse products
    assert full[0] * full[1] == GradedSeries(2, 12, fraction_product(*full))
    assert counts == {"plan": 1, "convolve": 2}
    keys, outputs = gradedring._product_plan(2, 12)
    assert (len(keys), len(outputs)) == (91, 91)


def test_the_sparse_factors_of_newton_moments_convolve(monkeypatch):
    # the tails S_m = S_(m-1).(1 + l_(m-1)) multiply a dense series by a two-term one
    ring = BundleRing([(1, 0), (0, 1), (1, 1), (2, -1)], 2, 12)
    coords = [dict(exp(GradedSeries.linear_form(2, 12, [1, 2])).num) for _ in ring.weights]
    counts = count_routes(monkeypatch)
    moments = newton_moments(ring, coords, 12 + len(ring.weights))
    assert any(moments) and counts["plan"] == 0 and counts["convolve"] > 0
