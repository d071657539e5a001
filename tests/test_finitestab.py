import math
import random
from fractions import Fraction
from itertools import product

import pytest

from equitau.charclass import mu_model
from equitau.cli import parse_weights
from equitau.finitestab import (
    FixedComponent,
    character_orbits,
    ktheory_free_module_dimension,
    sector_dimensions,
    support_subgroup,
    vistoli_kernel_dimension,
)
from equitau.lattice import (
    GroupDescriptor,
    TorsionCharacterPoint,
    kernel_of_character_point,
    quotient_with_projection,
)


def euler_phi(n: int) -> int:
    """Euler's totient by counting, the reference for a sector's residue degree."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def fixed_locus(model, vanishing_characters):
    """Components of the subscheme fixed by the subgroup H dual to N/K, on Smith normal form.

    H is specified by K = `vanishing_characters`, the subgroup of characters
    restricting trivially to it.  Coordinates are grouped by their weight
    modulo K; a group of size s contributes a P^{s-1}.  The reference for the
    components `sector_dimensions` reads off integer residues.
    """
    _, project = quotient_with_projection(model.group, vanishing_characters)
    groups = {}
    for i, w in enumerate(model.weights):
        groups.setdefault(project(w), []).append(i)
    return [
        FixedComponent(tuple(indices), tuple(model.weights[i] for i in indices))
        for indices in sorted(groups.values())
    ]


def reference_character_orbits(orders):
    """The Galois orbits as sets of residue tuples, visiting every group element."""
    seen = set()
    for residues in product(*(range(d) for d in orders)):
        if residues in seen:
            continue
        e = math.lcm(*(d // math.gcd(r, d) for r, d in zip(residues, orders)))
        orbit = {
            tuple(a * r % d for r, d in zip(residues, orders))
            for a in range(1, e + 1)
            if math.gcd(a, e) == 1
        }
        seen.update(orbit)
        yield residues, e, len(orbit)


def divisibility_chains(limit, least=2):
    """Every chain least <= d_1 | d_2 | ... with product at most limit, the empty one included."""
    yield ()
    for d in range(least, limit + 1):
        for rest in divisibility_chains(limit // d, d):
            if all(r % d == 0 for r in rest[:1]):
                yield (d, *rest)


def character_orbit_representatives(group: GroupDescriptor):
    """The least TorsionCharacterPoint of each Galois orbit of a finite group's characters."""
    orders = group.torsion_orders
    return [TorsionCharacterPoint(group, tuple(map(Fraction, r, orders)))
            for r, _, _ in character_orbits(orders)]


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 9)] == [1, 1, 2, 2, 4, 2, 6, 4]


def test_support_subgroup_examples():
    z6 = GroupDescriptor(0, (6,))
    assert support_subgroup(z6, TorsionCharacterPoint(z6, (Fraction(1, 3),))) == GroupDescriptor(0, (3,))
    assert support_subgroup(z6, TorsionCharacterPoint.zero(z6)) == GroupDescriptor(0, ())
    assert support_subgroup(z6, TorsionCharacterPoint(z6, (Fraction(1, 6),))) == z6


def test_support_order_equals_point_order_exhaustive():
    descriptors = [
        GroupDescriptor(0, ()),
        GroupDescriptor(0, (8,)),
        GroupDescriptor(0, (24,)),
        GroupDescriptor(0, (2, 4)),
        GroupDescriptor(0, (2, 2, 2)),
        GroupDescriptor(0, (3, 3)),
    ]
    for desc in descriptors:
        for residues in product(*(range(d) for d in desc.torsion_orders)):
            values = tuple(Fraction(r, d) for r, d in zip(residues, desc.torsion_orders))
            point = TorsionCharacterPoint(desc, values)
            assert support_subgroup(desc, point).order() == point.order()


def test_fixed_locus_two_points():
    for d in (2, 4, 6):
        model = mu_model(d, [0, 1])
        for e in (d_ for d_ in range(2, d + 1) if d % d_ == 0):
            # H = mu_e is cut out by the characters that are multiples of e
            components = fixed_locus(model, [(e % d,)])
            assert [c.indices for c in components] == [(0,), (1,)]


def test_fixed_locus_trivial_subgroup_gives_whole_space():
    model = mu_model(4, [0, 1])
    components = fixed_locus(model, [(1,)])  # K = N, so H is trivial
    assert [c.indices for c in components] == [(0, 1)]
    assert components[0].dim == 1


def test_fixed_locus_on_p2():
    model = mu_model(2, [0, 0, 1])
    components = fixed_locus(model, [])  # H = mu_2 itself
    assert [c.indices for c in components] == [(0, 1), (2,)]
    assert [c.dim for c in components] == [1, 0]


def test_fixed_locus_partitions_coordinates():
    model = mu_model((2, 4), [(1, 0), (0, 1), (1, 2), (0, 0)])
    for kernel_gens in ([], [(1, 0)], [(0, 1)], [(1, 2)]):
        components = fixed_locus(model, kernel_gens)
        covered = sorted(i for c in components for i in c.indices)
        assert covered == list(range(len(model.weights)))


def test_character_orbits_cover_the_group():
    for desc in [GroupDescriptor(0, (6,)), GroupDescriptor(0, (2, 4))]:
        reps = character_orbit_representatives(desc)
        assert sum(euler_phi(p.order()) for p in reps) == desc.order()


def test_sector_table_mu2():
    decomp = sector_dimensions(mu_model(2, [0, 1]))
    assert [(s.order, s.dimension) for s in decomp.sectors] == [(1, 2), (2, 2)]
    assert decomp.total_dimension == 4
    assert vistoli_kernel_dimension(decomp) == 2


def test_sector_table_mu6():
    decomp = sector_dimensions(mu_model(6, [0, 1]))
    assert [(s.order, s.dimension) for s in decomp.sectors] == [(1, 2), (2, 2), (3, 4), (6, 4)]
    assert decomp.total_dimension == 12
    assert vistoli_kernel_dimension(decomp) == 10
    supports = [s.support for s in decomp.sectors]
    assert supports == [
        GroupDescriptor(0, ()),
        GroupDescriptor(0, (2,)),
        GroupDescriptor(0, (3,)),
        GroupDescriptor(0, (6,)),
    ]


def test_sector_table_trivial_action():
    for d in (2, 5):
        decomp = sector_dimensions(mu_model(d, [0, 0]))
        assert decomp.total_dimension == 2 * d
        for s in decomp.sectors:
            assert [c.indices for c in s.components] == [(0, 1)]
            assert s.dimension == 2 * s.residue_degree


def test_trivial_group_has_no_twisted_sectors():
    decomp = sector_dimensions(mu_model(1, [0, 1]))
    assert len(decomp.sectors) == 1
    assert vistoli_kernel_dimension(decomp) == 0


def test_totals_match_free_module_dimension():
    for d in range(1, 9):
        model = mu_model(d, [0, 1])
        decomp = sector_dimensions(model)
        assert decomp.total_dimension == ktheory_free_module_dimension(model) == 2 * d
        assert decomp.untwisted_dimension == 2
        assert vistoli_kernel_dimension(decomp) == 2 * d - 2


@pytest.mark.parametrize("orders", [(1,), (7,), (2, 2), (6, 12), (2, 4, 8)], ids=str)
def test_free_module_dimension_counts_the_group_elements(orders):
    weights = [(0,) * len(orders), (1,) * len(orders), tuple(range(len(orders)))]
    model = mu_model(orders, weights)
    assert ktheory_free_module_dimension(model) == 3 * sum(1 for _ in model.group.elements())


def test_sectors_on_noncyclic_group():
    model = mu_model((2, 2), [(0, 0), (1, 0), (0, 1)])
    decomp = sector_dimensions(model)
    # four characters, all of order <= 2, each a singleton orbit
    assert len(decomp.sectors) == 4
    assert decomp.total_dimension == 3 * 4 == ktheory_free_module_dimension(model)
    assert decomp.untwisted_dimension == 3


def test_sector_requires_finite_group():
    from equitau.charclass import torus_model

    with pytest.raises(ValueError):
        sector_dimensions(torus_model([1, -1]))


def fraction_orbit_representatives(group):
    """The Galois-orbit enumeration on Fraction value tuples, as first written."""
    seen = set()
    reps = []
    for residues in product(*(range(d) for d in group.torsion_orders)):
        values = tuple(Fraction(r, d) for r, d in zip(residues, group.torsion_orders))
        if values in seen:
            continue
        point = TorsionCharacterPoint(group, values)
        e = point.order()
        orbit = {
            tuple((a * v) % 1 for v in values)
            for a in range(1, e + 1)
            if math.gcd(a, e) == 1
        }
        seen.update(orbit)
        reps.append(TorsionCharacterPoint(group, min(orbit)))
    return reps


@pytest.mark.parametrize(
    "orders",
    [(), *((d,) for d in range(2, 31)), (6, 12), (12, 60), (4, 8), (8, 8), (2, 2, 2)],
    ids=lambda orders: "x".join(map(str, orders)) or "trivial",
)
def test_integer_orbits_equal_the_fraction_enumeration(orders):
    group = GroupDescriptor(0, orders)
    got = character_orbit_representatives(group)
    assert got == fraction_orbit_representatives(group)


def test_character_orbits_equal_the_reference_on_every_small_chain():
    # every chain with |N| <= 2,000, the trivial group included, then seeded 3-factor chains
    chains = list(divisibility_chains(2000))
    assert () in chains and (2, 2, 2) in chains and (12, 60) in chains and (30, 90) not in chains
    assert len(chains) == 4278
    rng = random.Random(21)
    while len(chains) < 4278 + 24:
        d1 = rng.randint(2, 6)
        d2 = d1 * rng.randint(1, 6)
        d3 = d2 * rng.randint(1, 6)
        if d1 * d2 * d3 <= 20000:
            chains.append((d1, d2, d3))
    for orders in chains:
        assert list(character_orbits(orders)) == list(reference_character_orbits(orders)), orders


def test_cyclic_groups_have_one_row_per_divisor():
    for d in [*range(1, 201), 99991]:
        divisors = [e for e in range(1, d + 1) if d % e == 0]
        # the orbit of order e is the generator d/e of the subgroup of order e
        assert list(character_orbits((d,))) == sorted(
            ((d // e % d,), e, euler_phi(e)) for e in divisors
        )
        decomp = sector_dimensions(mu_model(d, [0, 1]))
        assert [(s.order, s.point.values) for s in decomp.sectors] == [
            (e, (Fraction(d // e % d, d),) if d > 1 else ()) for e in divisors
        ]
        assert decomp.total_dimension == 2 * d


def test_group_orders_past_the_limit_are_refused_before_enumeration(monkeypatch):
    from equitau import finitestab

    assert finitestab.GROUP_ORDER_LIMIT == 10**5
    enumerated = []
    monkeypatch.setattr(finitestab, "character_orbits", lambda orders: enumerated.append(orders) or [])
    at_limit = mu_model((10**5,), [0, 1])
    assert sector_dimensions(at_limit).sectors == ()  # admitted: only the stub ran
    assert enumerated == [(10**5,)]
    over = mu_model((2, 50002), [(0, 0), (1, 1)])  # order 100,004
    for refused in (sector_dimensions, ktheory_free_module_dimension):
        with pytest.raises(ValueError, match=r"order 100004 \(limit 100000\)"):
            refused(over)
    assert enumerated == [(10**5,)]  # the refusal came before the enumeration


# The sectors models of the certificates benchmark pool, then seeded random ones.
POOL_SECTOR_MODELS = [
    ((6, 12), "0,0;1,0;0,1"), ((6, 12), "0,1;1,0;1,1"), ((6, 12), "1,2;0,5;3,1"),
    ((12, 60), "0,0;1,5;3,1"), ((12, 60), "0,1;1,0"), ((12, 60), "2,3;1,1;0,7"),
    ((4, 8), "0,0;1,1;2,3;1,5"), ((4, 8), "1,0;0,1"),
    ((30,), "0,1,2"), ((30,), "0,5,6,10"), ((30,), "1,7"),
    ((8, 8), "0,0;1,3"), ((8, 8), "1,0;0,1;1,1"),
]
RANDOM_SECTOR_CHAINS = [(2,), (30,), (2, 4), (6, 12), (12, 60), (8, 8), (2, 2, 2), (2, 6, 12), (1,)]


def _random_sector_models(count, seed=20141):
    rng = random.Random(seed)
    for _ in range(count):
        orders = rng.choice(RANDOM_SECTOR_CHAINS)
        weights = [tuple(rng.randint(-70, 70) for _ in orders) for _ in range(rng.randint(2, 6))]
        yield orders, weights


def test_sector_rows_match_the_smith_normal_form_route():
    models = [(orders, parse_weights(weights)) for orders, weights in POOL_SECTOR_MODELS]
    models += _random_sector_models(216)
    by_group = {}  # points, supports and kernels depend on the group alone
    for orders, weights in models:
        model = mu_model(orders, weights)
        group = model.group
        if group not in by_group:
            points = sorted(fraction_orbit_representatives(group), key=lambda p: (p.order(), p.values))
            by_group[group] = points, [
                (support_subgroup(group, p), kernel_of_character_point(group, p), euler_phi(p.order()))
                for p in points
            ]
        points, expected = by_group[group]
        decomp = sector_dimensions(model)
        assert [s.point for s in decomp.sectors] == points
        for s, (support, kernel, residue_degree) in zip(decomp.sectors, expected):
            assert s.order == s.point.order()
            assert s.support == support
            assert s.components == tuple(fixed_locus(model, kernel))
            assert s.residue_degree == residue_degree
            assert s.dimension == sum(c.dim + 1 for c in s.components) * s.residue_degree
