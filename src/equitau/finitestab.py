"""Twisted-sector bookkeeping for finite diagonalizable group actions.

Maximal primes of the rational group algebra Q[N] of a finite abelian N
correspond to Galois orbits of characters phi: N -> Q/Z; for N = Z/d this is
Q[u]/(u^d - 1) = prod_{e | d} Q(zeta_e).  For phi of order e, the orbit's
sector has support dual to N/ker(phi) = im(phi), cyclic of order e; its fixed
components are the coordinates grouped by the value phi(w) of their weights;
its residue degree is the orbit's size phi_Euler(e), as (Z/e)^x acts freely.
Its dimension is (sum over components of (dim + 1)) * residue degree, one row
per orbit.  `support_subgroup` and `fixed_locus` are the Smith-normal-form route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .charclass import ProjSpaceModel
from .lattice import (
    GroupDescriptor,
    TorsionCharacterPoint,
    Weight,
    kernel_of_character_point,
    quotient_group,
    quotient_with_projection,
)


# Larger groups are refused before they are enumerated, like the section
# oracle's monomial limit; the largest benchmark job has order 720.
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
    weights: tuple[Weight, ...]

    @property
    def dim(self) -> int:
        return len(self.indices) - 1


def fixed_locus(model: ProjSpaceModel, vanishing_characters) -> list[FixedComponent]:
    """Components of the subscheme fixed by the subgroup H dual to N/K.

    H is specified by K = `vanishing_characters`, the subgroup of characters
    restricting trivially to it.  Coordinates are grouped by their weight
    modulo K; a group of size s contributes a P^{s-1}.  The components
    partition the coordinate set (trivial H gives the whole space back).
    """
    _, project = quotient_with_projection(model.group, vanishing_characters)
    groups: dict[Weight, list[int]] = {}
    for i, w in enumerate(model.weights):
        groups.setdefault(project(w), []).append(i)
    return [
        FixedComponent(tuple(indices), tuple(model.weights[i] for i in indices))
        for indices in sorted(groups.values())
    ]


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
    model: ProjSpaceModel
    sectors: tuple[Sector, ...]

    @property
    def total_dimension(self) -> int:
        return sum(s.dimension for s in self.sectors)

    @property
    def untwisted_dimension(self) -> int:
        return sum(s.dimension for s in self.sectors if s.is_untwisted)


def character_orbits(orders: tuple[int, ...]):
    """(least residue tuple, order e, orbit size) for each Galois orbit of characters.

    A character of Z/d_1 + ... + Z/d_s is a residue tuple r, with value r_i / d_i
    on the i-th generator; its orbit {a * r : gcd(a, e) = 1} for e = ord(r) has
    phi_Euler(e) elements.  Tuples are visited in lexicographic order, so each
    orbit is met first at its least tuple, which is also its least value tuple.
    """
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


def sector_dimensions(model: ProjSpaceModel) -> SectorDecomposition:
    """Sector table of the action: one row per prime of the rational group algebra.

    A row is read off the least residues r of its orbit, of order e: with
    L = lcm(d_i), phi(w) = k(w) / L for k(w) = sum_i w_i r_i (L / d_i) mod L.
    The support is Z/e (trivial for e = 1), the fixed components group the
    coordinates by k(w), and the residue degree is the orbit's size.  Rows are
    sorted by (e, r), which is the order of (e, values of phi).
    """
    group = model.group
    if not group.is_finite:
        raise ValueError("sector decomposition requires a finite acting group")
    _check_group_order(group)
    orders = group.torsion_orders
    lcm = math.lcm(*orders)
    coords = [w.coords for w in model.weights]
    sectors = []
    for residues, e, size in sorted(character_orbits(orders), key=lambda o: (o[1], o[0])):
        scaled = [r * (lcm // d) for r, d in zip(residues, orders)]
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(coords):
            groups.setdefault(sum(map(mul, c, scaled)) % lcm, []).append(i)
        # an index list starts at its least index, so insertion order is sorted order
        components = tuple(FixedComponent(tuple(ix), tuple(model.weights[i] for i in ix))
                           for ix in groups.values())
        # 0 <= r < d: each value r/d is already a valid reduced value
        point = TorsionCharacterPoint._trusted(group, tuple(map(Fraction, residues, orders)))
        sectors.append(Sector(point, e, size, GroupDescriptor(0, (e,) if e > 1 else ()),
                              components, sum(c.dim + 1 for c in components) * size))
    return SectorDecomposition(group, model, tuple(sectors))


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
