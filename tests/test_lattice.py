import math
import random
import re
from fractions import Fraction
from itertools import combinations, product
from operator import add

import pytest

from equitau.lattice import (
    GroupDescriptor,
    TorsionCharacterPoint,
    integer_kernel_basis,
    kernel_of_character_point,
    quotient_group,
    quotient_with_projection,
    smith_normal_form,
)


# ---------------------------------------------------------------------------
# independent oracles


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def minor_gcd_factors(mat):
    """Invariant factors via determinantal divisors: d_k = D_k / D_{k-1}."""
    m, n = len(mat), len(mat[0])
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = math.gcd(g, det(sub))
        if g == 0:
            factors.extend([0] * (min(m, n) - len(factors)))
            break
        factors.append(g // prev)
        prev = g
    return factors


def assert_valid_snf(mat):
    factors, u, v = smith_normal_form(mat)
    m, n = len(mat), len(mat[0]) if mat else 0
    if m and n:
        d = matmul(matmul(u, mat), v)
        for i in range(m):
            for j in range(n):
                expected = factors[i] if i == j and i < len(factors) else 0
                assert d[i][j] == expected
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    for a, b in zip(factors, factors[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return factors


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_diag_2_3():
    factors = assert_valid_snf([[2, 0], [0, 3]])
    assert factors == [1, 6]


def test_snf_identity():
    assert assert_valid_snf([[1, 0], [0, 1]]) == [1, 1]


def test_snf_2x2_example_against_minor_gcds():
    mat = [[2, 4], [6, 8]]
    assert assert_valid_snf(mat) == minor_gcd_factors(mat) == [2, 4]


def test_snf_2x2_example_against_bounded_transform_search():
    # brute force over unimodular transforms with entries in [-2, 2]
    mat = [[2, 4], [6, 8]]
    unimodular = [
        [[a, b], [c, d]]
        for a, b, c, d in product(range(-2, 3), repeat=4)
        if abs(a * d - b * c) == 1
    ]
    diagonals = set()
    for u in unimodular:
        um = matmul(u, mat)
        for v in unimodular:
            d = matmul(um, v)
            if d[0][1] == 0 and d[1][0] == 0:
                diagonals.add(tuple(sorted((abs(d[0][0]), abs(d[1][1])))))
    assert (2, 4) in diagonals
    assert tuple(smith_normal_form(mat)[0]) in diagonals


def test_snf_empty_and_zero():
    assert smith_normal_form([])[0] == []
    assert assert_valid_snf([[0, 0], [0, 0]]) == [0, 0]


def test_snf_rectangular_and_random_vs_minor_gcds():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert assert_valid_snf(mat) == minor_gcd_factors(mat)


def test_snf_invariant_factors_against_sympy():
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(20)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.choice((0, 0, rng.randint(-12, 12))) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            mat[rng.randrange(m)] = [0] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in mat:
                row[j] = 0
        reference = sympy_snf(Matrix(mat), domain=ZZ)
        expected = [abs(int(reference[i, i])) for i in range(min(m, n))]
        assert smith_normal_form(mat)[0] == expected, mat


def test_integer_kernel_basis():
    basis = integer_kernel_basis([[1, 3]])
    assert len(basis) == 1
    x, y = basis[0]
    assert x + 3 * y == 0 and (x, y) != (0, 0)


# ---------------------------------------------------------------------------
# group descriptors and weights


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor(0, (2, 3))  # 2 does not divide 3
    with pytest.raises(ValueError):
        GroupDescriptor(0, (1,))
    with pytest.raises(ValueError):
        GroupDescriptor(-1)


def test_descriptor_rendering():
    assert str(GroupDescriptor(0, ())) == "1"
    assert str(GroupDescriptor(1)) == "Z"
    assert str(GroupDescriptor(2, (2, 4))) == "Z^2 x Z/2 x Z/4"


def plus(group, a, b):
    """a + b in the group: coordinates added, then reduced."""
    return group.reduce_coords(map(add, a, b))


def test_weight_reduction_and_arithmetic():
    g = GroupDescriptor(1, (3,))
    w = g.reduce_coords((5, 7))
    assert w == (5, 1)
    assert plus(g, w, w) == (10, 2)
    assert g.reduce_coords(-c for c in w) == (-5, 2)
    assert g.reduce_coords(2 * c for c in w) == (10, 2)
    with pytest.raises(ValueError):
        g.reduce_coords((1,))


def test_character_point_validation():
    g = GroupDescriptor(0, (6,))
    TorsionCharacterPoint(g, (Fraction(1, 3),))
    with pytest.raises(ValueError):
        TorsionCharacterPoint(g, (Fraction(1, 4),))  # 6 * 1/4 not integral


# ---------------------------------------------------------------------------
# quotients, by coset enumeration


def subgroup_closure(group, generators):
    zero = (0,) * group.ngens
    elems = {zero}
    frontier = [zero]
    gens = [group.reduce_coords(g) for g in generators]
    while frontier:
        w = frontier.pop()
        for g in gens:
            nxt = plus(group, w, g)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return elems


def quotient_element_orders(group, generators):
    """Multiset of element orders of N/<generators> for finite N, by enumeration."""
    sub = subgroup_closure(group, generators)
    elems = list(group.elements())
    reps = {}
    for w in elems:
        key = min(plus(group, w, s) for s in sub)
        reps.setdefault(key, w)
    orders = []
    for w in reps.values():
        k = 1
        acc = w
        while acc not in sub:
            acc = plus(group, acc, w)
            k += 1
        orders.append(k)
    return sorted(orders)


def descriptor_element_orders(desc):
    orders = []
    for coords in product(*(range(d) for d in desc.torsion_orders)):
        orders.append(math.lcm(*(d // math.gcd(c, d) for c, d in zip(coords, desc.torsion_orders))) if coords else 1)
    return sorted(orders)


def test_quotient_z6_by_3():
    g = GroupDescriptor(0, (6,))
    q = quotient_group(g, [(3,)])
    assert q == GroupDescriptor(0, (3,))
    assert quotient_element_orders(g, [(3,)]) == descriptor_element_orders(q)


def test_quotient_trivial_subgroup_of_z():
    assert quotient_group(GroupDescriptor(1), []) == GroupDescriptor(1)


def test_quotient_z2_lattice():
    q = quotient_group(GroupDescriptor(2), [(2, 0), (0, 3)])
    assert q == GroupDescriptor(0, (6,))


def test_quotient_matches_enumeration_on_small_groups():
    rng = random.Random(11)
    for desc in [GroupDescriptor(0, (4,)), GroupDescriptor(0, (2, 4)), GroupDescriptor(0, (12,))]:
        for _ in range(8):
            gens = [
                tuple(rng.randrange(d) for d in desc.torsion_orders)
                for _ in range(rng.randint(0, 2))
            ]
            q = quotient_group(desc, gens)
            assert quotient_element_orders(desc, gens) == descriptor_element_orders(q)


def test_quotient_projection_is_a_homomorphism():
    desc = GroupDescriptor(0, (2, 4))
    q, project = quotient_with_projection(desc, [(1, 2)])
    for a in desc.elements():
        for b in desc.elements():
            assert project(plus(desc, a, b)) == plus(q, project(a), project(b))
    assert all(project((k, 2 * k)) == (0,) * q.ngens for k in range(5))


# ---------------------------------------------------------------------------
# kernels of character points


def brute_force_kernel(group, point):
    return {w for w in group.elements() if point(w) == 0}


def test_kernel_examples_on_z6():
    g = GroupDescriptor(0, (6,))
    phi = TorsionCharacterPoint(g, (Fraction(1, 3),))
    gens = kernel_of_character_point(g, phi)
    assert subgroup_closure(g, gens) == brute_force_kernel(g, phi)
    assert brute_force_kernel(g, phi) == {(0,), (3,)}

    zero = TorsionCharacterPoint.zero(g)
    gens = kernel_of_character_point(g, zero)
    assert subgroup_closure(g, gens) == set(g.elements())

    phi6 = TorsionCharacterPoint(g, (Fraction(1, 6),))
    gens = kernel_of_character_point(g, phi6)
    assert subgroup_closure(g, gens) == {(0,)}


def all_finite_groups_up_to(limit):
    chains = [()]
    i = 0
    while i < len(chains):
        chain = chains[i]
        i += 1
        prod_so_far = math.prod(chain)
        for d in range(chain[-1] if chain else 2, limit + 1):
            if chain and d % chain[-1] != 0:
                continue
            if prod_so_far * d <= limit:
                chains.append(chain + (d,))
    return [GroupDescriptor(0, c) for c in chains]


def test_quotient_by_kernel_has_image_order_exhaustive_up_to_24():
    for desc in all_finite_groups_up_to(24):
        for residues in product(*(range(d) for d in desc.torsion_orders)):
            values = tuple(Fraction(r, d) for r, d in zip(residues, desc.torsion_orders))
            point = TorsionCharacterPoint(desc, values)
            kernel = kernel_of_character_point(desc, point)
            q = quotient_group(desc, kernel)
            assert q.order() == point.order()


def test_reduce_coords_reduces_torsion_and_refuses_the_wrong_length():
    assert GroupDescriptor(1, (2, 6)).reduce_coords((-3, 5, -1)) == (-3, 1, 5)
    free = GroupDescriptor(2).reduce_coords([1.0, -2])
    assert free == (1, -2) and all(type(c) is int for c in free)
    for group in (GroupDescriptor(0), GroupDescriptor(2), GroupDescriptor(0, (4,)),
                  GroupDescriptor(1, (2, 6))):
        for length in range(group.ngens + 3):
            if length != group.ngens:
                message = f"expected {group.ngens} coordinates, got {length}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    group.reduce_coords((1,) * length)


def test_kernels_and_projections_are_tuples_reduced_by_their_group():
    group = GroupDescriptor(1, (2, 6))
    points = [TorsionCharacterPoint(group, values) for values in
              product([Fraction(0), Fraction(2, 5), Fraction(-1, 3)], [0, Fraction(1, 2)],
                      [Fraction(1, 6), Fraction(5, 6), Fraction(1, 2)])]
    for point in points:
        for w in kernel_of_character_point(group, point):
            assert type(w) is tuple and w == group.reduce_coords(w)
            assert point(w) == 0
    for gens in ([], [(1, 1, 2)], [(3, 0, 4), (0, 1, 3)], [(2, 0, 0)]):
        q, project = quotient_with_projection(group, gens)
        for w in product(range(-7, 8, 3), range(-2, 3), range(-7, 8)):
            image = project(w)
            assert type(image) is tuple and image == q.reduce_coords(image)
            assert image == project(group.reduce_coords(w))
