import gc
import math
import random
import re
import sys
from fractions import Fraction
from itertools import product

import pytest

from equitau import reprring
from equitau.charclass import mu_model
from equitau.gradedring import GradedSeries, SeriesRing, exp
from equitau.lattice import GroupDescriptor
from equitau.reprring import (
    CertificateError,
    RepRingElement,
    augmentation_order,
    chern_character,
    elementary_symmetric_character,
    gl_augmentation_generators,
    ideal_membership_certificate,
    lambda_minus_one,
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
    assert (1 - u).augmentation() == 0
    assert (3 * RepRingElement.one(T1) + 2 * u).augmentation() == 5
    assert RepRingElement.zero(T1).augmentation() == 0


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
        assert lambda_minus_one(group, ws).augmentation() == 0


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


def run_merge_cases(rng):
    """(element, truncation) pairs for the run merge of ``chern_character``.

    20-60 weights at ranks 2-3 whose later coordinates repeat, so that the
    runs sharing coordinates i+1.. hold many weights; a column of zeros; a
    truncation 0; and the empty element at ranks 0-3.
    """
    for case in range(24):
        rank = 2 + case % 2
        zero_column = rng.randrange(rank) if case % 3 == 0 else None
        terms = {}
        for _ in range(rng.randint(20, 60)):
            coords = [rng.randint(-6, 6)] + [rng.randint(-1, 1) for _ in range(rank - 1)]
            if zero_column is not None:
                coords[zero_column] = 0
            if rng.random() < 0.7:
                c = rng.randint(-5, 5)
            else:
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
            terms[tuple(coords)] = terms.get(tuple(coords), 0) + c
        truncation = 0 if case % 8 == 5 else rng.randint(1, 8 if rank == 2 else 5)
        yield RepRingElement(torus_group(rank), terms), truncation
    for rank in range(4):
        yield RepRingElement.zero(torus_group(rank)), rng.randint(0, 6)


def test_closed_form_chern_character_matches_exp_series_sum():
    rng = random.Random(20260905)
    seen = set()
    for a, truncation in run_merge_cases(random.Random(20261019)):
        got = chern_character(a, truncation)
        assert got.terms == chern_character_by_exp_series(a, truncation).terms, (truncation, a)
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


# Ranks 0-3 and groups with torsion, for the equivalence tests of the rewritten routes.
GROUPS = [torus_group(rank) for rank in range(4)] + [
    GroupDescriptor(0, (6,)),
    GroupDescriptor(1, (2, 4)),
    GroupDescriptor(2, (3,)),
]


def random_element(rng, group, size, spread=4):
    """Up to `size` terms with coordinates in [-spread, spread], a Fraction now and then."""
    terms = {}
    for _ in range(rng.randint(0, size)):
        coords = tuple(rng.randint(-spread, spread) for _ in range(group.ngens))
        c = rng.randint(-5, 5)
        if rng.random() < 0.2:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
        terms[coords] = terms.get(coords, 0) + c
    return RepRingElement(group, terms)


def rank_zero_product(rng, group, k):
    """A product of k nonzero rank-zero elements (none over rank 0): adic order >= k."""
    prod = RepRingElement.one(group)
    for _ in range(k):
        a = random_element(rng, group, 3, spread=2)
        a = a - a.augmentation()
        if not a.is_zero():
            prod = prod * a
    return prod


def test_augmentation_order_is_the_low_degree_of_the_chern_character():
    rng = random.Random(202610)
    tori = GROUPS[:4]
    cases = [(RepRingElement.zero(group), rng.randint(0, 6)) for group in tori]
    for case in range(200):
        group = tori[case % 4]
        a = random_element(rng, group, 12) if case % 5 == 0 else rank_zero_product(
            rng, group, rng.randint(1, 6))
        cases.append((a, rng.randint(0, 9)))
    cases.extend(run_merge_cases(random.Random(2026)))
    nones = 0
    for a, truncation in cases:
        expected = chern_character(a, truncation).low_degree()
        assert augmentation_order(a, truncation) == expected, (a, truncation)
        nones += expected is None and not a.is_zero()
    assert nones >= 20  # nonzero elements whose moments all vanish through N
    assert augmentation_order((char(T1, 1) - 1) ** 4, 3) is None
    assert augmentation_order((char(T2, 1, 0) - 1) ** 4 * (char(T2, 0, 1) - 1), 5) == 5
    for a, truncation in ((RepRingElement.one(GroupDescriptor(1, (3,))), 4),
                          (RepRingElement.one(T2), -1)):
        with pytest.raises(ValueError) as raised:
            chern_character(a, truncation)
        with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
            augmentation_order(a, truncation)



def test_the_moment_walks_leave_no_garbage_cycle():
    # the recursive walk refers to itself through its cell; unbroken, every
    # call would leave its branch state for the cycle collector
    a = (char(T2, 1, 2) - 1) * (char(T2, -1, 1) + char(T2, 2, 0) - 2)
    gc.collect()
    gc.disable()
    try:
        assert not chern_character(a, 6).is_zero() and augmentation_order(a, 6) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()

def reference_print_order(coords):
    """The print key (sum_i |c_i|, -c_1, ..., -c_r): total height, then descending lex."""
    return (sum(map(abs, coords)), *(-c for c in coords))


def test_print_keys_sort_by_height_then_descending_lex():
    rng = random.Random(1129)
    for case in range(140):
        a = random_element(rng, GROUPS[case % len(GROUPS)], 40)
        assert a.print_keys() == sorted(a.num, key=reference_print_order)


def test_lambda_minus_one_is_the_product_of_one_minus_characters():
    rng = random.Random(4471)
    for case in range(140):
        group = GROUPS[case % len(GROUPS)]
        weights = [tuple(rng.randint(-8, 8) for _ in range(group.ngens))
                   for _ in range(rng.randint(0, 5))]
        expected = RepRingElement.one(group)
        for w in weights:
            expected = expected * (RepRingElement.one(group) - RepRingElement.character(group, w))
        assert lambda_minus_one(group, weights) == expected, (group, weights)
        assert lambda_minus_one(group, [group.reduce_coords(w) for w in weights]) == expected
        assert lambda_minus_one(group, []) == RepRingElement.one(group)


# ---------------------------------------------------------------------------
# ideal-membership certificates


def test_certificate_search_rejects_a_negative_bound():
    gens = gl_augmentation_generators(2)
    target = (char(T2, 1, 0) - 1) ** 3
    with pytest.raises(ValueError, match="nonnegative"):
        ideal_membership_certificate(target, gens, -1)


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
            assert g.augmentation() == 0
    assert elementary_symmetric_character(3, 2).augmentation() == 3


# ---------------------------------------------------------------------------
# Segal non-members, decided by their normal form


def e_monomials(n):
    """The x-monomials of e_1(x), .., e_n(x), as ``segal_certificate`` passes them."""
    return [list(elementary_symmetric_character(n, k).num) for k in range(1, n + 1)]


def x_elementary(xs, k):
    """e_k of the ring elements xs, by e_k(x_1..x_j) = e_k(x_1..x_(j-1)) + x_j e_(k-1)(..)."""
    group = xs[0].group if xs else T1
    e = [RepRingElement.one(group)] + [RepRingElement.zero(group)] * k
    for x in xs:
        for i in range(k, 0, -1):
            e[i] = e[i] + x * e[i - 1]
    return e[k]


def x_element(xs, monomials):
    """sum_m c_m prod_i x_i^(m_i) in the torus ring, for {m: c_m}."""
    total = RepRingElement.zero(xs[0].group)
    for m, c in monomials.items():
        term = RepRingElement.one(xs[0].group) * c
        for x, a in zip(xs, m):
            term = term * x**a
        total = total + term
    return total


@pytest.mark.parametrize("n", range(1, 8))
def test_the_segal_identity_and_remainder_hold_in_the_torus_ring(n):
    group = torus_group(n)
    xs = [char(group, *(int(i == j) for j in range(n))) - 1 for i in range(n)]
    for d in range(n + 2):
        remainder = reprring.segal_normal_form(d, e_monomials(n))
        assert bool(remainder) == (d < n), d
        # squarefree and free of x_1: no leading term x_k^k of {h_k(x_k..x_n)} divides it
        assert all(m[0] == 0 and max(m) <= 1 for m in remainder)
        assert x_element(xs, remainder) == (-1) ** d * x_elementary(xs[1:], d)
        closed_form = sum((x_elementary(xs, k) * xs[0] ** (d - k) * (-1) ** (k + 1)
                           for k in range(1, min(d, n) + 1)), RepRingElement.zero(group))
        assert xs[0] ** d - x_element(xs, remainder) == closed_form, d


@pytest.mark.parametrize("n", range(1, 6))
def test_the_remainder_is_the_normal_form_modulo_the_lex_groebner_basis(n):
    sympy = pytest.importorskip("sympy")
    from itertools import combinations, combinations_with_replacement

    xs = sympy.symbols(f"x1:{n + 1}")

    def elementary(k, variables):
        return sum((sympy.Mul(*c) for c in combinations(variables, k)), sympy.Integer(0))

    basis = sympy.groebner([elementary(k, xs) for k in range(1, n + 1)], *xs, order="lex")
    complete = [sum(sympy.Mul(*c) for c in combinations_with_replacement(xs[k - 1:], k))
                for k in range(1, n + 1)]
    assert set(map(sympy.expand, basis.exprs)) == set(map(sympy.expand, complete))
    for d in range(n + 2):
        remainder = reprring.segal_normal_form(d, e_monomials(n))
        expected = sum((c * sympy.Mul(*(x**a for x, a in zip(xs, m)))
                        for m, c in remainder.items()), sympy.Integer(0))
        assert sympy.expand(basis.reduce(xs[0] ** d)[1] - expected) == 0, d


def test_the_box_search_finds_no_certificate_for_a_segal_non_member():
    for n in (1, 2, 3):
        generators = gl_augmentation_generators(n)
        for d in range(n):
            target = (char(torus_group(n), 1, *(0,) * (n - 1)) - 1) ** d
            for bound in (0, 1, 2):
                assert ideal_membership_certificate(target, generators, bound) is None, (n, d, bound)


def test_a_segal_non_member_builds_no_box_system(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched a box")

    monkeypatch.setattr(reprring, "ideal_membership_certificate", no_search)
    for n in range(1, 8):
        for d in range(n):
            target, generators, cofactors, bound = reprring.segal_certificate(n, d, 0)
            assert cofactors is None and bound == 0
            assert target == (char(torus_group(n), 1, *(0,) * (n - 1)) - 1) ** d
            assert generators == gl_augmentation_generators(n)
    assert reprring.segal_certificate(3, 2)[2:] == (None, 1)
    # a member still goes to the box search
    with pytest.raises(AssertionError, match="searched a box"):
        reprring.segal_certificate(2, 2)


# ---------------------------------------------------------------------------
# the sparse linear solver: modular solve against the Fraction reference


def random_system(rng, max_rows=40, max_cols=60):
    """A sparse system of one of four kinds, as a list of (row dict, rhs).

    "random" rows with a random rhs (solutions with denominators, often
    inconsistent when tall), "consistent" rows with rhs A.x0, "deficient"
    rows built from fewer base rows with rhs A.x0, and "inconsistent" ones:
    deficient rows plus one combination of two rows with its rhs shifted.
    About one system in six has one row and its rhs scaled by 1/d.
    """
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    density = rng.uniform(0.05, 0.3)
    kind = rng.choice(("random", "consistent", "deficient", "inconsistent"))

    def sparse_row():
        return {k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in range(n) if rng.random() < density}

    if kind in ("random", "consistent"):
        rows = [sparse_row() for _ in range(m)]
    else:
        base = [sparse_row() for _ in range(rng.randint(1, max(1, min(m, n) // 2)))]
        rows = []
        for _ in range(m):
            row = {}
            for j in rng.sample(range(len(base)), min(2, len(base))):
                q = rng.choice((-2, -1, 1, 2))
                for k, v in base[j].items():
                    row[k] = row.get(k, 0) + q * v
            rows.append({k: v for k, v in row.items() if v})
    if kind == "random":
        equations = [(row, rng.randint(-5, 5)) for row in rows]
    else:
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        equations = [(row, sum(v * x0[k] for k, v in row.items())) for row in rows]
    if kind == "inconsistent":
        (r1, b1), (r2, b2) = rng.choice(equations), rng.choice(equations)
        q1, q2 = rng.choice((1, 2, -1)), rng.choice((1, -3))
        row = {k: q1 * r1.get(k, 0) + q2 * r2.get(k, 0) for k in set(r1) | set(r2)}
        row = {k: v for k, v in row.items() if v}
        equations.insert(rng.randint(0, m), (row, q1 * b1 + q2 * b2 + rng.choice((-1, 1, 2))))
    if rng.random() < 1 / 6:
        i = rng.randrange(len(equations))
        d = rng.randint(2, 7)
        row, b = equations[i]
        equations[i] = ({k: Fraction(v, d) for k, v in row.items()}, Fraction(b, d))
    return equations


def satisfies_exactly(equations, solution):
    return all(
        sum(Fraction(c) * solution.get(k, 0) for k, c in row.items()) == b
        for row, b in equations
    )


def farkas_holds(equations, y):
    """y.A = 0 and y.b = 1, summed exactly over Fraction."""
    columns = {}
    for i, yi in y.items():
        for k, a in equations[i][0].items():
            columns[k] = columns.get(k, 0) + Fraction(a) * yi
    rhs = sum(Fraction(equations[i][1]) * yi for i, yi in y.items())
    return not any(columns.values()) and rhs == 1


def fraction_solver(equations):
    """The exact reference solver: Gauss-Jordan elimination over Fraction.

    Same pivot rule as ``_solve_sparse_linear``, with mutually reduced pivot
    rows, so the two return the same solution unless the first prime is
    unlucky.
    """
    pivot_rows = {}  # var -> (row dict without the pivot var, value)
    for row, b in equations:
        row = {k: Fraction(v) for k, v in row.items() if v}
        b = Fraction(b)
        for var in [v for v in row if v in pivot_rows]:
            c = row.pop(var)
            prow, pval = pivot_rows[var]
            for k2, v2 in prow.items():
                s = row.get(k2, Fraction(0)) - c * v2
                if s:
                    row[k2] = s
                else:
                    row.pop(k2, None)
            b -= c * pval
        if not row:
            if b != 0:
                return None
            continue
        var = min(row)
        c = row.pop(var)
        row = {k: v / c for k, v in row.items()}
        b /= c
        for pvar, (prow, pval) in pivot_rows.items():
            if var in prow:
                c2 = prow.pop(var)
                for k2, v2 in row.items():
                    s = prow.get(k2, Fraction(0)) - c2 * v2
                    if s:
                        prow[k2] = s
                    else:
                        prow.pop(k2, None)
                pivot_rows[pvar] = (prow, pval - c2 * b)
        pivot_rows[var] = (row, b)
    return {var: val for var, (_, val) in pivot_rows.items() if val}


@pytest.fixture
def solver_log(monkeypatch):
    """Counts the solver's internal paths; keeps every Farkas vector it accepts.

    "moduli" records the modulus of every ``_solve_mod_p`` call and
    "escalations" counts the calls modulo a second prime, past ``_PRIME``.
    """
    log = {"moduli": [], "escalations": 0, "failed_reconstructions": 0, "farkas": []}
    solve_mod_p = reprring._solve_mod_p
    reconstruction = reprring._rational_reconstruction
    is_farkas_vector = reprring._is_farkas_vector

    def counting_solve_mod_p(equations, p):
        log["moduli"].append(p)
        log["escalations"] += p != reprring._PRIME
        return solve_mod_p(equations, p)

    def counting_reconstruction(a, p):
        value = reconstruction(a, p)
        log["failed_reconstructions"] += value is None
        return value

    def recording_farkas_check(equations, y):
        holds = is_farkas_vector(equations, y)
        if holds:
            log["farkas"].append((equations, y))
        return holds

    monkeypatch.setattr(reprring, "_solve_mod_p", counting_solve_mod_p)
    monkeypatch.setattr(reprring, "_rational_reconstruction", counting_reconstruction)
    monkeypatch.setattr(reprring, "_is_farkas_vector", recording_farkas_check)
    return log


def within(bound, value):
    value = Fraction(value)
    return abs(value.numerator) <= bound and value.denominator <= bound


def test_modular_solve_equals_the_fraction_solver(solver_log):
    rng = random.Random(9905081)
    systems = 200
    outcomes = set()
    for _ in range(systems):
        equations = random_system(rng)
        solution = reprring._solve_sparse_linear(equations)
        assert solution == fraction_solver(equations)
        if solution is not None:
            assert satisfies_exactly(equations, solution)
            # the Hadamard bound H bounds every value the reference returns
            bound = reprring._hadamard_bound(equations)
            assert all(within(bound, v) for v in solution.values())
        outcomes.add(solution is None)
    assert outcomes == {True, False}
    # most answers come from the first prime, a few from the second modulus
    assert 0 < solver_log["escalations"] < systems // 4
    assert len(solver_log["farkas"]) > 20
    for equations, y in solver_log["farkas"]:
        assert farkas_holds(equations, y)
        assert all(within(reprring._hadamard_bound(equations), v) for v in y.values())


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_small_primes_stay_exact_through_the_fallback(monkeypatch, solver_log, prime):
    # a first modulus of 3, 5 or 7 fails often; the second one decides every system
    monkeypatch.setattr(reprring, "_PRIME", prime)
    rng = random.Random(prime)
    systems = 80
    for _ in range(systems):
        equations = random_system(rng, max_rows=25, max_cols=35)
        solution = reprring._solve_sparse_linear(equations)
        assert (solution is None) == (fraction_solver(equations) is None)
        if solution is not None:
            assert satisfies_exactly(equations, solution)
    assert 0 < solver_log["escalations"] < systems
    if prime > 3:  # mod 3 every residue reconstructs, to 0 or +-1
        assert solver_log["failed_reconstructions"] > 0
    assert all(farkas_holds(eqs, y) for eqs, y in solver_log["farkas"])


def test_large_entries_escalate_to_a_wide_mersenne_prime(monkeypatch, solver_log):
    # entries up to 10^6 and Fraction rows, first modulus 3: the second
    # modulus reaches past 2^127
    monkeypatch.setattr(reprring, "_PRIME", 3)
    rng = random.Random(606)
    for _ in range(40):
        m, n = rng.randint(1, 8), rng.randint(1, 10)
        equations = [
            ({k: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 9))
              for k in rng.sample(range(n), rng.randint(1, n))}, rng.randint(-10**6, 10**6))
            for _ in range(m)
        ]
        assert reprring._solve_sparse_linear(equations) == fraction_solver(equations)
    assert max(solver_log["moduli"]) > 2**127


def test_mersenne_exponents_increase_from_61():
    q = reprring._MERSENNE_EXPONENTS
    assert q[0] == 61 and 2**q[0] - 1 == reprring._PRIME
    assert all(a < b for a, b in zip(q, q[1:]))


def test_tabled_mersenne_numbers_are_prime():
    sympy = pytest.importorskip("sympy")
    assert all(sympy.isprime(2**q - 1) for q in reprring._MERSENNE_EXPONENTS if q <= 4423)


def test_the_hadamard_bound_counts_each_row_denominator(solver_log):
    # y = (-7, 1) on (1/7) x = 0, x = 1: the row's d = 7 exceeds 7 |(1/7, 0)| = 1
    equations = [({0: Fraction(1, 7)}, 0), ({0: 1}, 1)]
    assert reprring._solve_sparse_linear(equations) is None
    assert solver_log["farkas"] == [(equations, {0: -7, 1: 1})]
    assert reprring._hadamard_bound(equations) == 7 * 2


def test_a_second_modulus_that_fails_its_check_raises(monkeypatch, solver_log):
    monkeypatch.setattr(reprring, "_satisfies", lambda equations, solution: False)
    monkeypatch.setattr(reprring, "_is_farkas_vector", lambda equations, y: False)
    for equations in ([({0: 1, 1: 2}, 3)], [({0: 1}, 0), ({0: 1}, 1)]):
        solver_log["moduli"].clear()
        with pytest.raises(CertificateError):
            reprring._solve_sparse_linear(equations)
        assert len(solver_log["moduli"]) == 2 and solver_log["moduli"][0] == reprring._PRIME


def test_a_hadamard_bound_past_the_table_raises_value_error(monkeypatch):
    # 10^10 x = 1 mod 3 lifts to x = 1, which fails; 2 H^2 needs 68 bits
    monkeypatch.setattr(reprring, "_PRIME", 3)
    monkeypatch.setattr(reprring, "_MERSENNE_EXPONENTS", (61,))
    with pytest.raises(ValueError, match="needs a prime of 68 bits"):
        reprring._solve_sparse_linear([({0: 10**10}, 1)])


# ---------------------------------------------------------------------------
# the one-pass modular elimination against the two-pass reference: forward
# elimination with dict pivot rows, and a Farkas vector solved from the
# transposed system by a second elimination


def two_pass_solve_mod_p(equations, p):
    """{var: nonzero residue} with free variables at zero, or None when the
    system is inconsistent mod p."""
    names = sorted({k for row, _ in equations for k in row})
    number = {k: i for i, k in enumerate(names)}
    pivots = {}  # var -> (row of variables above var, rhs), pivot coefficient 1
    for row, b in equations:
        row = {number[k]: a for k, a in row.items()}
        for var in range(min(row, default=len(names)), len(names)):
            if var not in pivots or var not in row:
                continue
            c = row.pop(var)
            prow, pb = pivots[var]
            for k, a in prow.items():
                s = (row.get(k, 0) - c * a) % p
                if s:
                    row[k] = s
                else:
                    del row[k]
            b = (b - c * pb) % p
        if not row:
            if b:
                return None
            continue
        var = min(row)
        inverse = pow(row.pop(var), -1, p)
        pivots[var] = ({k: a * inverse % p for k, a in row.items()}, b * inverse % p)
    values = {}
    for var in sorted(pivots, reverse=True):
        prow, pb = pivots[var]
        x = (pb - sum(a * values[k] for k, a in prow.items() if k in values)) % p
        if x:
            values[var] = x
    return {names[var]: x for var, x in values.items()}


def two_pass_farkas_vector(equations, reduced, p):
    """y with y.A = 0 and y.b = 1 ({row index: Fraction}), solved mod p from
    the transposed system and lifted, or None if it does not lift or hold."""
    columns = {}
    for i, (row, _) in enumerate(reduced):
        for k, a in row.items():
            columns.setdefault(k, {})[i] = a
    transposed = [(columns[k], 0) for k in sorted(columns)]
    transposed.append(({i: b for i, (_, b) in enumerate(reduced) if b}, 1))
    residues = two_pass_solve_mod_p(transposed, p)
    y = None if residues is None else reprring._lift(residues, p)
    return y if y is not None and farkas_holds(equations, y) else None


def farkas_holds_mod_p(reduced, y, p):
    columns = {}
    for i, yi in y.items():
        for k, a in reduced[i][0].items():
            columns[k] = (columns.get(k, 0) + a * yi) % p
    return not any(columns.values()) and sum(reduced[i][1] * yi for i, yi in y.items()) % p == 1


def compare_one_pass_with_two_pass(equations):
    """Checks the one-pass answer against the two-pass one.

    Returns (outcome, y): "solved", "farkas" (the one-pass Farkas vector y
    lifts and holds exactly), "unlifted" (it holds mod p but does not lift)
    or "unreduced" (a denominator vanishes mod p).
    """
    p = reprring._PRIME
    reduced = reprring._reduce_mod_p(equations, p)
    if reduced is None:
        return "unreduced", None
    values, farkas = reprring._solve_mod_p(reduced, p)
    assert values == two_pass_solve_mod_p(reduced, p)
    if values is not None:
        assert farkas is None
        return "solved", None
    assert farkas and all(0 < r < p for r in farkas.values())
    assert farkas_holds_mod_p(reduced, farkas, p)
    y = reprring._lift(farkas, p)
    if y is None:
        return "unlifted", None
    assert farkas_holds(equations, y)
    return "farkas", y


def test_one_pass_equals_two_pass_on_random_systems():
    rng = random.Random(9905081)
    outcomes = {}
    two_pass_lifted = 0
    for _ in range(200):
        equations = random_system(rng)
        outcome, _ = compare_one_pass_with_two_pass(equations)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome in ("farkas", "unlifted"):
            reduced = reprring._reduce_mod_p(equations, reprring._PRIME)
            y = two_pass_farkas_vector(equations, reduced, reprring._PRIME)
            two_pass_lifted += y is not None
    assert outcomes["solved"] > 0 and outcomes["farkas"] > 0
    # reading y off the record lifts no less often than the transposed solve
    assert outcomes["farkas"] >= two_pass_lifted


def solve_mod_p_line_events(equations):
    """Line events run inside ``_solve_mod_p`` on a system: its interpreted work."""
    code, count = reprring._solve_mod_p.__code__, 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        reprring._solve_mod_p(reprring._reduce_mod_p(equations, reprring._PRIME), reprring._PRIME)
    finally:
        sys.settrace(previous)
    return count


def test_the_row_scan_stops_at_the_highest_live_variable():
    # a diagonal system costs in proportion to its rows, not rows x unknowns
    diagonal = [solve_mod_p_line_events([({i: 1}, i) for i in range(m)]) for m in (300, 600)]
    assert diagonal[1] < 2.2 * diagonal[0]
    # the last row meets pivot 0, whose row brings in 2 past the zero at 1, whose
    # row brings in 4, ...: the live range grows with every pivot row subtracted
    m = 60
    odd = [({2 * i + 1: 1}, 0) for i in range(m)]
    chain = odd + [({2 * i: 1, 2 * i + 2: -1}, 0) for i in range(m)] + [({0: 2}, 1)]
    assert compare_one_pass_with_two_pass(chain) == ("solved", None)
    values, _ = reprring._solve_mod_p(reprring._reduce_mod_p(chain, reprring._PRIME), reprring._PRIME)
    assert reprring._lift(values, reprring._PRIME) == {2 * i: Fraction(1, 2) for i in range(m + 1)}


SEGAL_CASES = [(2, d, b) for d in range(2, 8) for b in range(1, 7)]
SEGAL_CASES += [(3, d, b) for d in range(2, 5) for b in (1, 2)]


def segal_systems(monkeypatch):
    """The linear system of every case in ``SEGAL_CASES``, in order."""
    systems = []
    monkeypatch.setattr(reprring, "_solve_sparse_linear", lambda eqs: systems.append(eqs))
    for n, degree, bound in SEGAL_CASES:
        target = (char(torus_group(n), 1, *(0,) * (n - 1)) - 1) ** degree
        ideal_membership_certificate(target, gl_augmentation_generators(n), bound)
    monkeypatch.undo()
    assert len(systems) == len(SEGAL_CASES)
    return systems


def tuple_keyed_cofactors(target, generators, bound):
    """The cofactors from the system on (i, m) unknowns, as first written,
    solved by ``fraction_solver`` and split by (i, m); None if inconsistent."""
    box = list(product(range(-bound, bound + 1), repeat=target.group.ngens))
    columns = {}
    for i, g in enumerate(generators):
        for m in box:
            for e, c in g.terms.items():
                w = tuple(a + b for a, b in zip(m, e))
                columns.setdefault(w, {})[(i, m)] = c
    support = set(columns) | set(target.terms)
    equations = [(columns.get(w, {}), target.terms.get(w, 0)) for w in sorted(support)]
    # the answer does not depend on the row order; by decreasing least
    # variable, most rows meet no pivot row that holds their pivot (far faster)
    equations.sort(key=lambda eq: min(eq[0], default=(len(generators),)), reverse=True)
    solution = fraction_solver(equations)
    if solution is None:
        return None
    return [RepRingElement(target.group, {m: c for (j, m), c in solution.items() if j == i})
            for i in range(len(generators))]


def test_integer_unknowns_give_the_tuple_keyed_cofactors():
    found = set()
    for n, degree, bound in SEGAL_CASES:
        target = (char(torus_group(n), 1, *(0,) * (n - 1)) - 1) ** degree
        generators = gl_augmentation_generators(n)
        cofactors = ideal_membership_certificate(target, generators, bound)
        assert cofactors == tuple_keyed_cofactors(target, generators, bound), (n, degree, bound)
        found.add(cofactors is not None)
    assert found == {True, False}


def random_laurent(rng, group, terms, spread=3, fractional=False):
    """A nonzero element with up to ``terms`` terms, exponents in [-spread, spread]."""
    def coefficient():
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        return Fraction(c, rng.randint(2, 5)) if fractional and rng.random() < 0.5 else c

    monomials = {tuple(rng.randint(-spread, spread) for _ in range(group.ngens))
                 for _ in range(rng.randint(1, terms))}
    return RepRingElement(group, {m: coefficient() for m in monomials})


def test_packed_keys_give_the_tuple_keyed_cofactors_on_random_generators():
    """Generators of rank 1-3 with exponents in [-3, 3] (some with Fraction
    coefficients), bounds from 0, and targets that are combinations of the
    generators, random elements, or hold a monomial outside every product's
    range (which also moves the least coordinate the keys are offset by)."""
    rng = random.Random(1718)
    kinds = ("combination", "random", "outside")
    found, fractional, bounds = set(), 0, set()
    for trial in range(90):
        rank = rng.randint(1, 3)
        group = torus_group(rank)
        bound = rng.randint(0, 4 - rank)  # at most 81 unknowns for the Fraction reference
        with_fractions = trial % 5 == 0
        generators = [random_laurent(rng, group, 3, fractional=with_fractions)
                      for _ in range(rng.randint(1, 3))]
        kind = kinds[trial % 3]
        if kind == "random":
            target = random_laurent(rng, group, 4)
        else:
            target = sum((random_laurent(rng, group, 2, spread=bound) * g for g in generators),
                         RepRingElement.zero(group))
        if kind == "outside":
            far = 3 + bound + rng.randint(1, 4)
            target = target + char(group, *(rng.choice((-far, far)) for _ in range(rank)))
        cofactors = ideal_membership_certificate(target, generators, bound)
        assert cofactors == tuple_keyed_cofactors(target, generators, bound), trial
        if kind == "combination":
            assert cofactors is not None, trial
        if kind == "outside":
            assert cofactors is None, trial
        found.add(cofactors is not None)
        fractional += any(g.den != 1 for g in generators)
        bounds.add(bound)
    assert found == {True, False} and fractional > 0 and 0 in bounds


def test_segal_systems_are_numbered_in_pair_order(monkeypatch):
    # unknown i * |box| + index(m): every number below len(generators) * |box| occurs
    for (n, _, bound), equations in zip(SEGAL_CASES, segal_systems(monkeypatch)):
        unknowns = set().union(*(row for row, _ in equations))
        assert unknowns == set(range(n * (2 * bound + 1) ** n))


def triangular_integer_system(rng, p):
    """A system with one solution or none: a triangular core with nonzero
    diagonal, entries scaled by p (so = 0 mod p), shifted past p or huge, plus
    rows combined from the core, one of them with a shifted rhs half the time."""
    n = rng.randint(1, 12)

    def entry():
        v = rng.choice((-3, -2, -1, 1, 2, 3))
        return rng.choice((v, v * p, v + rng.randint(1, 5) * p, v * 10**40 + rng.randint(0, 9)))

    core = [({k: entry() for k in range(i, n) if k == i or rng.random() < 0.4}, entry())
            for i in range(n)]
    equations = list(core)
    for _ in range(rng.randint(0, 3)):
        (r1, b1), (r2, b2) = rng.choice(core), rng.choice(core)
        row = {k: v for k in set(r1) | set(r2) if (v := 2 * r1.get(k, 0) - r2.get(k, 0))}
        equations.append((row, 2 * b1 - b2))
    if rng.random() < 0.5:
        row, b = equations.pop()
        equations.append((row, b + rng.choice((-1, 1))))
    rng.shuffle(equations)
    return equations


@pytest.mark.parametrize("prime", [7, 2**61 - 1])
def test_integer_systems_are_solved_without_a_reduced_copy(monkeypatch, solver_log, prime):
    monkeypatch.setattr(reprring, "_PRIME", prime)
    reduce_mod_p = reprring._reduce_mod_p
    reduced = []
    monkeypatch.setattr(reprring, "_reduce_mod_p",
                        lambda equations, p: reduced.append(p) or reduce_mod_p(equations, p))
    rng = random.Random(prime)
    outcomes = set()
    for _ in range(120):
        equations = triangular_integer_system(rng, prime)
        solution = reprring._solve_sparse_linear(equations)
        assert solution == fraction_solver(equations)
        outcomes.add(solution is None)
    assert outcomes == {True, False}
    assert reduced == []
    # entries = 0 mod p make the first modulus fail, the second decides
    assert solver_log["escalations"] > 0
    reprring._solve_sparse_linear([({0: Fraction(1, 2)}, 1)])
    assert reduced[0] == prime


def test_unreduced_integer_entries_give_the_reduced_systems_residues():
    p, rng = reprring._PRIME, random.Random(16)
    outcomes = set()
    for _ in range(150):
        equations = triangular_integer_system(rng, p)
        reduced = reprring._reduce_mod_p(equations, p)
        values, y = reprring._solve_mod_p(equations, p)
        assert values == reprring._solve_mod_p(reduced, p)[0]
        if y is not None:
            assert farkas_holds_mod_p(reduced, y, p)
        outcomes.add(values is None)
    assert outcomes == {True, False}


def test_one_pass_equals_two_pass_on_segal_systems(monkeypatch):
    """Every segal system of n = 2 (degree 2-7, bound 1-6) and n = 3
    (degree 2-4, bound 1-2): same residues, and each Farkas vector lifts with
    numerators and denominators of at most 7 bits and holds exactly."""
    cases, systems = SEGAL_CASES, segal_systems(monkeypatch)
    outcomes = set()
    for case, equations in zip(cases, systems):
        outcome, y = compare_one_pass_with_two_pass(equations)
        assert outcome in ("solved", "farkas"), case
        outcomes.add(outcome)
        if y is not None:
            assert max(max(abs(v.numerator), v.denominator) for v in y.values()) < 2**7, case
    assert outcomes == {"solved", "farkas"}


def assert_row_order_free(equations, rng, copies=3):
    """Row-shuffled copies solve to the same values mod p; each Farkas vector,
    indexed back to the original rows, holds mod p."""
    p = reprring._PRIME
    reduced = reprring._reduce_mod_p(equations, p)
    if reduced is None:
        return None
    values, _ = reprring._solve_mod_p(reduced, p)
    for _ in range(copies):
        perm = rng.sample(range(len(reduced)), len(reduced))
        shuffled_values, y = reprring._solve_mod_p([reduced[i] for i in perm], p)
        assert shuffled_values == values
        if y is not None:
            assert farkas_holds_mod_p(reduced, {perm[i]: r for i, r in y.items()}, p)
    return values is not None


def test_row_order_does_not_change_the_answer_on_random_systems():
    rng = random.Random(9905081)
    solved = [assert_row_order_free(random_system(rng), rng) for _ in range(200)]
    assert True in solved and False in solved


def test_row_order_does_not_change_the_answer_on_segal_systems(monkeypatch):
    rng = random.Random(2)
    solved = [assert_row_order_free(eqs, rng) for eqs in segal_systems(monkeypatch)]
    assert True in solved and False in solved


def test_an_unreachable_constant_row_ends_the_solve_at_once():
    # the row 0 = 1 is taken first, whatever the number or place of the others
    p, events = reprring._PRIME, []
    for m in (50, 500):
        others = [({i: 1, i + 1: 2}, i) for i in range(m)]
        for system in (others + [({}, 1)], [({}, 1)] + others):
            events.append(solve_mod_p_line_events(system))
            _, y = reprring._solve_mod_p(reprring._reduce_mod_p(system, p), p)
            assert y == {system.index(({}, 1)): 1}
    assert len(set(events)) == 1


# ---------------------------------------------------------------------------
# the trusted group-algebra kernel and the integer Chern character, against
# constructor-built results


KERNEL_GROUPS = [
    torus_group(1),
    torus_group(2),
    mu_model(6, [0, 1]).group,
    mu_model((2, 4), [(0, 0), (1, 3)]).group,
    GroupDescriptor(1, (3,)),
]


def random_raw_terms(rng, group):
    """Unreduced coordinates; half-integral coefficients, so sums and products
    of Fractions often become integers."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        coords = tuple(rng.randint(-7, 7) for _ in range(group.ngens))
        c = rng.randint(-3, 3) if rng.random() < 0.5 else Fraction(rng.randint(-5, 5), 2)
        terms[coords] = terms.get(coords, 0) + c
    return terms


def accumulate(pairs):
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return out


def assert_canonical_and_equal(got, expected):
    """Equal terms, reduced keys, nonzero coefficients, integral values as ints."""
    group = got.group
    assert got.group == expected.group
    assert sorted((k, c, type(c)) for k, c in got.terms.items()) == sorted(
        (k, c, type(c)) for k, c in expected.terms.items()
    )
    for k, c in got.terms.items():
        assert group.reduce_coords(k) == k
        assert c != 0
        assert type(c) is int or c.denominator != 1


@pytest.mark.parametrize("group", KERNEL_GROUPS, ids=str)
def test_kernel_arithmetic_matches_constructor_built_results(group):
    rng = random.Random(f"kernel/{group}")
    for _ in range(300):
        a = RepRingElement(group, random_raw_terms(rng, group))
        b = RepRingElement(group, random_raw_terms(rng, group))
        s = rng.choice((0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2)))
        neg_b = RepRingElement(group, {k: -c for k, c in b.terms.items()})
        product_terms = accumulate(
            (tuple(x + y for x, y in zip(k1, k2)), c1 * c2)
            for k1, c1 in a.terms.items()
            for k2, c2 in b.terms.items()
        )
        zero = (0,) * group.ngens
        cases = [
            (a + b, accumulate([*a.terms.items(), *b.terms.items()])),
            (a - b, accumulate([*a.terms.items(), *neg_b.terms.items()])),
            (-b, neg_b.terms),
            (a * s, {k: c * s for k, c in a.terms.items()}),
            (s * a, {k: c * s for k, c in a.terms.items()}),
            (a + s, accumulate([*a.terms.items(), (zero, s)])),
            (s - a, accumulate([(zero, s), *((k, -c) for k, c in a.terms.items())])),
            (a * b, product_terms),
        ]
        for got, terms in cases:
            assert_canonical_and_equal(got, RepRingElement(group, terms))


def test_fraction_products_that_become_integers_are_ints():
    half = RepRingElement(T1, {(1,): Fraction(1, 2), (0,): Fraction(3, 2)})
    two = RepRingElement(T1, {(-1,): 2})
    for got in (half * two, two * half, half * 2, half + half, (half * 4) - half * 2):
        assert all(type(c) is int for c in got.terms.values()), got.terms
    assert (half * two).terms == {(0,): 1, (-1,): 3}
    z6 = mu_model(6, [0, 1]).group
    x = RepRingElement(z6, {(5,): Fraction(1, 2)})
    y = RepRingElement(z6, {(1,): 2, (4,): Fraction(1, 2)})
    assert_canonical_and_equal(x * y, RepRingElement(z6, {(0,): 1, (3,): Fraction(1, 4)}))


def chern_character_by_fractions(a, truncation):
    """sum_w c_w w^e / e! for every e of degree <= N, as Fractions, through the
    public constructor."""
    rank = a.group.ngens
    terms = {}
    for e in product(range(truncation + 1), repeat=rank):
        if sum(e) <= truncation:
            value = sum(
                Fraction(c) * math.prod(wi**ei for wi, ei in zip(w, e)) for w, c in a.terms.items()
            )
            terms[e] = value / math.prod(math.factorial(ei) for ei in e)
    return GradedSeries(rank, truncation, terms)


def test_integer_chern_character_is_canonical_and_matches_fractions():
    rng = random.Random(20261018)
    for case in range(200):
        rank = case % 4
        truncation = rng.randint(0, 10 if rank < 3 else 6)
        terms = {}
        for _ in range(rng.randint(0, 4)):
            coords = tuple(rng.randint(-4, 4) for _ in range(rank))
            c = rng.randint(-5, 5) if rng.random() < 0.5 else Fraction(rng.randint(-9, 9), rng.randint(1, 8))
            terms[coords] = terms.get(coords, 0) + c
        a = RepRingElement(torus_group(rank), terms)
        got = chern_character(a, truncation)
        assert got == chern_character_by_fractions(a, truncation), (rank, truncation, terms)
        assert (got.rank, got.truncation) == (rank, truncation)
        assert got.den > 0 and math.gcd(got.den, *got.num.values()) == 1
        assert got.num or got.den == 1
        for e, c in zip(got.ctx.exponents(list(got.num)), got.num.values()):
            assert type(c) is int and c != 0
            assert len(e) == rank and min(e, default=0) >= 0 and sum(e) <= truncation
    merged = 0
    for a, truncation in run_merge_cases(random.Random(20261020)):
        got = chern_character(a, truncation)
        assert got == chern_character_by_fractions(a, truncation), (truncation, a)
        assert got.den > 0 and math.gcd(got.den, *got.num.values()) == 1
        tails = {k[1:] for k in a.num}
        merged += len(tails) < len(a.num)
    assert merged >= 20  # most cases have runs of more than one weight


def test_chern_character_builds_its_packed_keys_without_re_keying(monkeypatch):
    a = RepRingElement(T2, {(1, -2): 3, (0, 1): -1, (0, 0): Fraction(1, 2)})
    expected = chern_character_by_fractions(a, 7)
    monkeypatch.setattr(SeriesRing, "keys", None)  # no exponent tuple is encoded
    assert chern_character(a, 7) == expected


def test_chern_character_rejects_a_negative_truncation():
    with pytest.raises(ValueError, match="nonnegative"):
        chern_character(RepRingElement.one(T1), -1)
