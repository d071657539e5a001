"""Twisted-sector bookkeeping for finite diagonalizable group actions.

Maximal primes of the rational group algebra Q[N] of a finite abelian N
correspond to Galois orbits of characters phi: N -> Q/Z; for N = Z/d this is
Q[u]/(u^d - 1) = prod_{e | d} Q(zeta_e).  For phi of order e, the orbit's
sector has support dual to N/ker(phi) = im(phi), cyclic of order e; its fixed
components are the coordinates grouped by the value phi(w) of their weights;
its residue degree is the orbit's size phi_Euler(e), as (Z/e)^x acts freely.
Its dimension is (sum over components of (dim + 1)) * residue degree, one row
per orbit.  An orbit is the generators of one cyclic subgroup, so
`character_orbits` writes down each least generator a coordinate at a time
and never visits the group's elements: the work is per row, not per element.
`support_subgroup` is the Smith-normal-form route; `tests/test_finitestab.py`
keeps `fixed_locus`, the same route to the fixed components, as the reference
for the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from operator import mul

from .charclass import ProjSpaceModel
from .lattice import (
    GroupDescriptor,
    TorsionCharacterPoint,
    kernel_of_character_point,
    quotient_group,
)


# Larger groups are refused before their orbits are listed.  No element is
# visited, so the limit bounds the rows (one per cyclic subgroup, at most the
# order) and the output; the largest benchmark job has order 720.
GROUP_ORDER_LIMIT = 10**5


def _check_group_order(group: GroupDescriptor) -> None:
    if (order := group.order()) > GROUP_ORDER_LIMIT:
        raise ValueError(f"the group has order {order} (limit {GROUP_ORDER_LIMIT})")


def support_subgroup(group: GroupDescriptor, point: TorsionCharacterPoint) -> GroupDescriptor:
    """The unique subgroup H with character group N/ker(point), in invariant factors.

    |H| equals the order of the point; the zero point gives the trivial group.
    """
    kernel = kernel_of_character_point(group, point)
    return quotient_group(group, kernel)


@dataclass(frozen=True)
class FixedComponent:
    """A sub-projective-space of coordinates sharing one weight mod the kernel."""

    indices: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.indices) - 1


@dataclass(frozen=True)
class Sector:
    point: TorsionCharacterPoint
    order: int
    residue_degree: int
    support: GroupDescriptor
    components: tuple[FixedComponent, ...]
    dimension: int

    @property
    def is_untwisted(self) -> bool:
        return self.order == 1


@dataclass(frozen=True)
class SectorDecomposition:
    group: GroupDescriptor
    sectors: tuple[Sector, ...]

    @property
    def total_dimension(self) -> int:
        return sum(s.dimension for s in self.sectors)

    @property
    def untwisted_dimension(self) -> int:
        return sum(s.dimension for s in self.sectors if s.is_untwisted)


def _factorization(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) for each prime dividing n >= 1, by trial division."""
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n, k = n // p, k + 1
            factors.append((p, k))
        p += 1
    return factors + [(n, 1)] if n > 1 else factors


def _totient(n: int) -> int:
    """Euler's phi(n), the size of a Galois orbit of order n."""
    return math.prod(p ** (k - 1) * (p - 1) for p, k in _factorization(n))


def _least_residues(d: int, divisors, m: int) -> list[tuple[int, int]]:
    """(least residue, order) of each orbit of Z/d under the units a = 1 (mod m), sorted.

    The elements of order o are (d/o) * u for the units u mod o, and the
    units a = 1 (mod m) move u through its class mod g = gcd(m, o): one orbit
    per unit class c mod g, least at the least unit z = c (mod g).
    """
    residues = []
    for o in divisors:
        if o == 1:
            residues.append((0, 1))
            continue
        g = math.gcd(m, o)
        for c in range(1, g + 1):
            if math.gcd(c, g) == 1:
                z = next(z for z in range(c, o, g) if math.gcd(z, o) == 1)
                residues.append((d // o * z, o))
    residues.sort()
    return residues


def character_orbits(orders: tuple[int, ...]):
    """(least residue tuple, order e, orbit size) for each Galois orbit of characters.

    A character of Z/d_1 + ... + Z/d_s is a residue tuple r, with value r_i / d_i
    on the i-th generator; its orbit {a * r : gcd(a, e) = 1} for e = ord(r) is
    the phi_Euler(e) generators of one cyclic subgroup of order e.  The least
    tuple is chosen a coordinate at a time: once r_1..r_k are least, with m the
    lcm of their orders, the units a = 1 (mod m) fix them and move r_{k+1}
    (`_least_residues`).  No group element is visited, and the orbits come in
    lexicographic order of their least tuples.
    """
    prefixes = [((), 1)]  # least prefixes in lexicographic order, with the lcm of their orders
    for d in orders:
        divisors = [1]
        for p, k in _factorization(d):
            divisors = [q * p**j for q in divisors for j in range(k + 1)]
        residues = cache(partial(_least_residues, d, divisors))  # one list per m, this call only
        prefixes = [(prefix + (r,), math.lcm(m, o))
                    for prefix, m in prefixes for r, o in residues(m)]
    sizes = cache(_totient)
    for prefix, e in prefixes:
        yield prefix, e, sizes(e)


def sector_dimensions(model: ProjSpaceModel) -> SectorDecomposition:
    """Sector table of the action: one row per prime of the rational group algebra.

    A row is read off the least residues r of its orbit, of order e: with
    L = lcm(d_i), phi(w) = k(w) / L for k(w) = sum_i w_i r_i (L / d_i) mod L.
    The support is Z/e (trivial for e = 1), the fixed components group the
    coordinates by k(w), and the residue degree is the orbit's size.  Rows are
    sorted by (e, r), which is the order of (e, values of phi).  Each distinct
    support, component tuple and value is built once, so the work is per row.
    """
    group = model.group
    if not group.is_finite:
        raise ValueError("sector decomposition requires a finite acting group")
    _check_group_order(group)
    orders = group.torsion_orders
    lcm = math.lcm(*orders)
    weights = model.weights
    scaled = [[c * (lcm // d) for c, d in zip(w, orders)] for w in weights]
    # each distinct support, value and component tuple is built once per call
    supports = cache(lambda e: GroupDescriptor(0, (e,) if e > 1 else ()))
    # 0 <= r < d: each value r/d is already a valid reduced value
    values = cache(Fraction)

    @cache
    def components(key):
        # an index tuple starts at its least index, so insertion order is sorted order
        comps = tuple(FixedComponent(ix, tuple(weights[i] for i in ix)) for ix in key)
        return comps, sum(c.dim + 1 for c in comps)

    sectors = []
    for residues, e, size in sorted(character_orbits(orders), key=lambda o: (o[1], o[0])):
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(scaled):
            groups.setdefault(sum(map(mul, c, residues)) % lcm, []).append(i)
        comps, width = components(tuple(map(tuple, groups.values())))
        point = TorsionCharacterPoint._trusted(group, tuple(map(values, residues, orders)))
        sectors.append(Sector(point, e, size, supports(e), comps, width * size))
    return SectorDecomposition(group, tuple(sectors))


def vistoli_kernel_dimension(decomp: SectorDecomposition) -> int:
    """Dimension of the kernel of localization at the augmentation ideal.

    These are exactly the classes killed by some virtual representation of
    nonzero rank: everything away from the untwisted sector.
    """
    return decomp.total_dimension - decomp.untwisted_dimension


def ktheory_free_module_dimension(model: ProjSpaceModel) -> int:
    """Q-dimension of equivariant K-theory of P(V) from its free-module presentation.

    K_G(P(V)) is free of rank dim V over R(G), and dim_Q R(G)_Q = |N|, the
    size of the group-element basis of the group algebra.
    """
    _check_group_order(model.group)
    return len(model.weights) * model.group.order()
