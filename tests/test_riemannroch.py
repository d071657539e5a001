import math
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from operator import add

import pytest

from equitau.charclass import (
    chern_character_bundle,
    line_class,
    mu_model,
    tangent_class,
    torus_model,
)
from equitau.gradedring import GradedSeries, SeriesRing, exp, pushforward
from equitau.reprring import RepRingElement, chern_character, torus_group
from equitau.riemannroch import (
    ORACLE_MONOMIAL_LIMIT,
    _monomial_characters,
    chi_with_oracle,
    hrr_chi,
    sections_character_oracle,
    verify_weyl,
    weyl_closed_form,
    weyl_closed_forms,
)

TRUNC = 12
P1 = torus_model([1, -1], TRUNC)
T1 = torus_group(1)


def test_chi_structure_sheaf():
    assert hrr_chi(P1, line_class(0)) == GradedSeries.one(1, TRUNC)


def test_chi_o1_is_cosh_like():
    t = GradedSeries.linear_form(1, TRUNC, [1])
    expected = exp(t) + exp(-t)
    assert hrr_chi(P1, line_class(1)) == expected


def test_chi_o_minus_one_vanishes():
    assert hrr_chi(P1, line_class(-1)).is_zero()


def test_hrr_requires_torus():
    with pytest.raises(ValueError):
        hrr_chi(mu_model(2, [0, 1]), line_class(1))


@pytest.mark.parametrize("character", [(1, 2), (0, 0)])
def test_hrr_refuses_a_character_of_the_wrong_length(character):
    with pytest.raises(ValueError, match="expected 1 coefficients"):
        hrr_chi(P1, line_class(1, character))


def test_closed_form_examples():
    assert weyl_closed_form(0, 8) == GradedSeries.one(1, 8)
    two = weyl_closed_form(2, 8)
    expected = (
        exp(GradedSeries.linear_form(1, 8, (2,)))
        + 1
        + exp(GradedSeries.linear_form(1, 8, (-2,)))
    )
    assert two == expected
    assert weyl_closed_form(-1, 8).is_zero()
    for n_trunc in (0, 1, 8, 30):
        rows = weyl_closed_forms(12, n_trunc)
        assert len(rows) == 14
        for n, row in enumerate(rows, -1):  # every row against its direct sum of exp(k t)
            direct = GradedSeries.zero(1, n_trunc)
            for k in range(-n, n + 1, 2):
                direct = direct + exp(GradedSeries.linear_form(1, n_trunc, (k,)))
            assert row == direct == weyl_closed_form(n, n_trunc), (n, n_trunc)
    for n_max in (0, 1):
        report = verify_weyl(n_max, 0)
        assert report.all_pass and [r.twist for r in report.rows] == list(range(-1, n_max + 1))


def test_closed_form_by_power_sums_matches_the_running_sums():
    for truncation in (0, 1, 8, 33):
        table = weyl_closed_forms(1000, truncation)  # W(-1), W(0), ..., W(1000)
        for n in range(-12, 1001):
            expected = table[n + 1] if n >= -1 else -table[-n - 1]
            assert weyl_closed_form(n, truncation) == expected, (n, truncation)


def test_closed_form_serre_symmetry():
    for n in range(0, 7):
        assert weyl_closed_form(-n - 2, 10) == -weyl_closed_form(n, 10)


def test_sections_oracle_examples():
    assert sections_character_oracle(P1, 2) == RepRingElement(
        T1, {(2,): 1, (0,): 1, (-2,): 1}
    )
    assert sections_character_oracle(P1, -1) == RepRingElement.zero(T1)
    # Serre duality below -dim: chi(O(-2)) on P^1 is -H^0(O(0))^dual = -1
    assert sections_character_oracle(P1, -2) == -RepRingElement.one(T1)

    p2 = torus_model([0, 0, 0], TRUNC)
    assert sections_character_oracle(p2, 2) == 6 * RepRingElement.one(T1)


def test_oracle_counts_match_binomials():
    for m in (1, 2, 3):
        model = torus_model([0] * (m + 1), 8)
        for n in range(0, 5):
            oracle = sections_character_oracle(model, n)
            assert oracle.augmentation() == math.comb(n + m, m)


def test_three_way_agreement():
    report = verify_weyl(10, 16)
    assert report.all_pass
    assert len(report.rows) == 12
    row3 = next(r for r in report.rows if r.twist == 3)
    expected = RepRingElement(T1, {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1})
    assert row3.oracle_character == expected


def test_nonequivariant_recovery():
    for m in (1, 2, 3):
        model = torus_model([0] * (m + 1), 10)
        for n in range(0, 7):
            chi = hrr_chi(model, line_class(n))
            assert chi.constant_term() == math.comb(n + m, m)


def test_twist_by_character_equivariance():
    for w in (-2, 1, 3):
        for n in (-1, 0, 2):
            plain = hrr_chi(P1, line_class(n))
            twisted = hrr_chi(P1, line_class(n, (w,)))
            factor = exp(GradedSeries.linear_form(1, TRUNC, (w,)))
            assert twisted == factor * plain


def test_chi_with_oracle_flags():
    res = chi_with_oracle(P1, line_class(2))
    assert res.matches_oracle is True
    assert res.oracle_character == sections_character_oracle(P1, 2)
    assert chern_character(res.oracle_character, TRUNC) == res.series

    res_neg = chi_with_oracle(P1, line_class(-2))
    assert res_neg.oracle_character == -RepRingElement.one(T1)
    assert res_neg.matches_oracle is True
    # and the closed form agrees
    assert res_neg.series == weyl_closed_form(-2, TRUNC)


def test_chi_with_oracle_character_twist():
    res = chi_with_oracle(P1, line_class(1, (2,)))
    assert res.matches_oracle is True
    expected = RepRingElement(T1, {(3,): 1, (1,): 1})
    assert res.oracle_character == expected


def test_rank_two_torus_oracle_agreement():
    model = torus_model([(1, 0), (0, 1)], 8)
    res = chi_with_oracle(model, line_class(1))
    assert res.matches_oracle is True
    assert res.oracle_character == RepRingElement(
        torus_group(2), {(-1, 0): 1, (0, -1): 1}
    )
    p2 = torus_model([(1, 0), (0, 1), (1, 1)], 6)
    for n in (-1, 0, 2):
        assert chi_with_oracle(p2, line_class(n)).matches_oracle is True


def test_verify_weyl_rejects_negative_nmax():
    with pytest.raises(ValueError):
        verify_weyl(-1, 8)


def test_serre_duality_oracle_below_minus_dim():
    """Below -dim the oracle is the Serre dual, and the pipeline matches it exactly."""
    models = [
        torus_model([1, -1], 10),
        torus_model([3, 1], 10),
        torus_model([(1, 0), (0, 1)], 8),
        torus_model([(2, -1), (0, 3)], 8),
        torus_model([2, 0, -1], 8),
        torus_model([5, 5, 5], 8),
        torus_model([(1, 0), (0, 1), (1, 1)], 6),
        torus_model([(1, 2), (-1, 0), (0, -3)], 6),
    ]
    for model in models:
        n = model.dim
        for twist in range(-n - 1, -n - 6, -1):
            oracle = sections_character_oracle(model, twist)
            # rank of chi(O(k)) is (-1)^n * C(-k-1, n) below -dim
            assert oracle.augmentation() == (-1) ** n * math.comb(-twist - 1, n)
            assert chern_character(oracle, model.truncation) == hrr_chi(model, line_class(twist))
            res = chi_with_oracle(model, line_class(twist, (1,) * model.rank))
            assert res.matches_oracle is True


def weight_sum(group, weights):
    """The sum of the weights in the group, reduced after each addition."""
    total = (0,) * group.ngens
    for w in weights:
        total = group.reduce_coords(map(add, total, w))
    return total


def weight_sum_characters(model, degree, sign):
    """The weight-by-weight enumeration the counted one replaced, kept as the oracle."""
    group = model.group
    total = RepRingElement.zero(group)
    for combo in combinations_with_replacement(model.weights, degree):
        w = weight_sum(group, combo)
        total = total + RepRingElement.character(group, [sign * c for c in w])
    return total


ORACLE_MODELS = [
    torus_model([1, -1], 6),
    torus_model([2, 0, -1], 6),
    torus_model([(1, 0), (0, 1), (1, 1)], 6),
    torus_model([(2, -1), (0, 3)], 6),
    mu_model(6, [0, 1, 5], 6),
    mu_model((2, 4), [(0, 0), (1, 3), (1, 1)], 6),
]


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: f"{m.group}:{m.weights}")
def test_counted_monomial_characters_match_the_weight_sums(model):
    for degree in range(6):
        for sign in (1, -1):
            got = _monomial_characters(model, degree, sign)
            assert got == weight_sum_characters(model, degree, sign), (degree, sign)
            assert all(model.group.reduce_coords(k) == k for k in got.terms)
            assert got.augmentation() == math.comb(degree + model.dim, model.dim)


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: f"{m.group}:{m.weights}")
def test_sections_oracle_matches_the_weight_sum_route_on_both_branches(model):
    group, n = model.group, model.dim
    det = weight_sum(group, model.weights)
    for twist in range(-n - 5, 5):
        if twist >= 0:
            expected = weight_sum_characters(model, twist, -1)
        elif twist < -n:
            dual = weight_sum_characters(model, -twist - n - 1, 1)
            expected = dual * RepRingElement.character(group, det) * (-1) ** n
        else:
            expected = RepRingElement.zero(group)
        assert sections_character_oracle(model, twist) == expected, twist


def test_closed_form_equals_the_sum_of_exp_series():
    for n in range(41):
        # e^(kt) as an exp series, the route the closed form replaced
        exps = {k: exp(GradedSeries.linear_form(1, n, (k,))) for k in range(-12, 13)}

        def exp_sum(m):
            if m == -1:
                return GradedSeries.zero(1, n)
            if m < -1:
                return -exp_sum(-m - 2)
            return sum((exps[k] for k in range(-m, m + 1, 2)), GradedSeries.zero(1, n))

        for m in range(-12, 13):
            assert weyl_closed_form(m, n) == exp_sum(m), (m, n)


def test_the_closed_form_builds_its_packed_keys_itself(monkeypatch):
    expected = [GradedSeries(1, 9, dict(weyl_closed_form(m, 9).terms)) for m in range(-4, 5)]
    monkeypatch.setattr(SeriesRing, "keys", None)  # no exponent tuple is encoded
    assert [weyl_closed_form(m, 9) for m in range(-4, 5)] == expected


def test_the_oracle_refuses_more_monomials_than_its_limit():
    limit = ORACLE_MONOMIAL_LIMIT
    p1 = torus_model([1, -1], 2)
    # C(d + 1, 1) = d + 1 monomials of degree d on P^1, on both branches
    assert sections_character_oracle(p1, limit - 1).augmentation() == limit
    for twist in (limit, -limit - 2):
        with pytest.raises(ValueError, match=f"would enumerate {limit + 1} monomials"):
            sections_character_oracle(p1, twist)
    # the weyl table sums C(n + 1, 1) over n <= nmax: C(447, 2) fits, C(448, 2) does not
    assert math.comb(447, 2) <= limit < math.comb(448, 2)
    with pytest.raises(ValueError, match=f"would enumerate {math.comb(448, 2)} monomials"):
        verify_weyl(446, 2)


def random_twist(rng, rank, dim):
    twist = rng.choice((0, rng.randint(-dim - 3, 5)))
    if rng.random() < 0.5:
        return line_class(twist)
    return line_class(twist, tuple(rng.randint(-3, 3) for _ in range(rank)))


@pytest.mark.parametrize("argv", [
    ["chi", "--weights=1,-1", "--twist=-1", "--trunc=8"],
    ["chi", "--weights", "1,0;1,0;0,1;1,1", "--twist", "2", "--char", "1,-1", "--trunc", "10"],
    ["chi", "--weights", "1,0,0;0,1,0;0,0,1;1,1,1", "--twist", "0", "--char", "1,-2,3",
     "--trunc", "8"],
])
def test_chi_reads_its_moments_without_the_h_basis(monkeypatch, capsys, argv):
    """No h-basis (no ``_newton_slots``: no relation, no conversion); Segre tails are series products."""
    from equitau import gradedring
    from equitau.cli import main

    def refuse(*args):
        raise AssertionError("chi took the h-basis route")

    products, mul = [], GradedSeries.__mul__

    def counting(a, b):
        products.append(type(b))
        return mul(a, b)

    monkeypatch.setattr(gradedring, "_newton_slots", refuse)
    monkeypatch.setattr(gradedring.BundleRing, "newton_element", refuse)
    monkeypatch.setattr(GradedSeries, "__mul__", counting)
    assert main(argv) == 0
    assert GradedSeries in products
    capsys.readouterr()


def test_chi_from_todd_moments_matches_the_pushforward_of_ch_times_td():
    rng = random.Random(1313)
    seen = set()
    for case in range(210):
        rank, dim = 1 + case % 3, 1 + case // 3 % 4
        n = rng.randint(0, 12)
        pool = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
        weights = [rng.choice(pool + [(0,) * rank]) for _ in range(dim + 1)]
        model = torus_model(weights, n, rank=rank)
        kind = ("twist", "tangent", "sum", "twist")[case // 12 % 4]
        if kind == "tangent":
            bundle = tangent_class(model)
        elif kind == "twist":
            bundle = random_twist(rng, rank, dim)
        else:
            bundle = Counter()
            for _ in range(rng.randint(1, 3)):
                bundle.update(random_twist(rng, rank, dim))
        got = hrr_chi(model, bundle)
        td = model.ring.newton_element(*model.tangent_todd_coordinates)
        want = pushforward(chern_character_bundle(model, bundle) * td)
        assert got == want, (case, weights, n, bundle)
        assert (got.den, got.num) == (want.den, want.num)
        seen.add((rank, dim, kind, len(set(weights)) < len(weights), (0,) * rank in weights))
    assert {(r, d, k) for r, d, k, _, _ in seen} == {
        (r, d, k) for r in (1, 2, 3) for d in (1, 2, 3, 4) for k in ("twist", "tangent", "sum")
    }
    assert {(repeated, zero) for *_, repeated, zero in seen} == {(0, 0), (0, 1), (1, 0), (1, 1)}


# ---------------------------------------------------------------------------
# the section oracle by linearity, on classes that are not line twists


def euler_class_models(seed, count):
    """Seeded torus models: ranks 1-2, P^1 to P^3, weights in [-2, 2] with repeats and zeros."""
    rng = random.Random(seed)
    for case in range(count):
        rank, dim = 1 + case % 2, 1 + case // 2 % 3
        weights = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim + 1)]
        yield torus_model(weights, rng.randint(2, 6), rank=rank)


def omega_class(model, p, k):
    """Omega^p(k) = sum_(j <= p) (-1)^(p - j) sum_(|S| = j) O(k - j) (x) chi_(-w_S)."""
    bundle = Counter()
    for j in range(p + 1):
        for subset in combinations(model.weights, j):
            character = tuple(-sum(c) for c in zip(*subset))
            bundle[k - j, character] += (-1) ** (p - j)
    return bundle


def chi_line(n, m):
    """chi(P^n, O(m)) = C(n + m, n) as a polynomial in m, so also for m < 0."""
    return math.prod(range(m + 1, m + n + 1)) // math.factorial(n)


def test_the_oracle_checks_the_tangent_class_by_linearity():
    seen = set()
    for model in euler_class_models(3030, 30):
        n = model.dim
        res = chi_with_oracle(model, tangent_class(model))
        assert res.matches_oracle is True, model.weights
        assert res.oracle_character.augmentation() == n * n + 2 * n
        assert res.series.constant_term() == n * n + 2 * n
        seen.add((model.rank, n))
    assert seen == {(r, n) for r in (1, 2) for n in (1, 2, 3)}


def test_the_oracle_checks_twisted_forms_by_linearity():
    cases = 0
    for model in euler_class_models(4040, 30):
        n = model.dim
        for p in range(n + 1):
            for k in range(-n - 2, 3):
                res = chi_with_oracle(model, omega_class(model, p, k))
                want = sum(
                    (-1) ** (p - j) * math.comb(n + 1, j) * chi_line(n, k - j) for j in range(p + 1)
                )
                assert res.matches_oracle is True, (model.weights, p, k)
                assert res.oracle_character.augmentation() == want
                assert res.series.constant_term() == want
                if k == 0:
                    assert want == (-1) ** p
                cases += 1
    assert cases > 500


def test_a_one_term_class_keeps_the_oracle_element(monkeypatch):
    from equitau import riemannroch

    oracles = []

    def recording(model, k):
        oracles.append(sections_character_oracle(model, k))
        return oracles[-1]

    monkeypatch.setattr(riemannroch, "sections_character_oracle", recording)
    model = torus_model([(1, 0), (0, 1), (1, 1)], 4)
    res = chi_with_oracle(model, line_class(2))
    assert res.oracle_character is oracles[0]  # not copied
    twice = chi_with_oracle(model, {(2, ()): 2, (-1, (1, 1)): 0})
    assert twice.oracle_character == res.oracle_character * 2 and twice.matches_oracle is True
    empty = chi_with_oracle(model, {})
    assert empty.oracle_character.is_zero() and empty.series.is_zero() and empty.matches_oracle
