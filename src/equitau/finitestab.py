"""Twisted-sector bookkeeping for finite diagonalizable group actions.

Maximal primes of the rational group algebra Q[N] of a finite abelian N
correspond to Galois orbits of characters N -> Q/Z: an orbit is determined
by a representative point phi, has residue degree phi_Euler(ord phi), and its
support subgroup is dual to N/ker(phi).  For N = Z/d this is the familiar
one-prime-per-divisor factorization Q[u]/(u^d - 1) = prod_{e | d} Q(zeta_e).

A sector's rational dimension is bookkept as (sum over fixed components of
(dim + 1)) * residue degree; the untwisted sector is the orbit of the zero
character.  Primes with equal supports are listed separately, one row per
orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


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
    return _components(model, project)


def _components(model: ProjSpaceModel, project) -> list[FixedComponent]:
    """The coordinates grouped by their image under `project`, as components."""
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


def character_orbit_representatives(group: GroupDescriptor):
    """One TorsionCharacterPoint per Galois orbit of characters of a finite group.

    The orbit of phi is {a * phi : gcd(a, ord phi) = 1} and has size
    phi_Euler(ord phi); representatives are the orbit-minimal value tuples.
    The orbits are enumerated on integer residue tuples (r_i for the value
    r_i / d_i): each coordinate has a fixed denominator d_i, so the least
    residue tuple is the least value tuple.
    """
    if not group.is_finite:
        raise ValueError("character enumeration requires a finite group")
    orders = group.torsion_orders
    seen = set()
    reps = []
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
        values = tuple(Fraction(r, d) for r, d in zip(min(orbit), orders))
        reps.append(TorsionCharacterPoint(group, values))
    return reps


def sector_dimensions(model: ProjSpaceModel) -> SectorDecomposition:
    """Sector table of the action: one row per prime of the rational group algebra.

    Each sector records its character point, support subgroup, fixed
    components, and Q-dimension (sum of (component dim + 1)) * residue degree.
    """
    group = model.group
    if not group.is_finite:
        raise ValueError("sector decomposition requires a finite acting group")
    _check_group_order(group)
    sectors = []
    for point in character_orbit_representatives(group):
        e = point.order()
        kernel = kernel_of_character_point(group, point)
        support, project = quotient_with_projection(group, kernel)
        components = tuple(_components(model, project))
        chow_dim = sum(c.dim + 1 for c in components)
        residue = euler_phi(e)
        sectors.append(Sector(point, e, residue, support, components, chow_dim * residue))
    sectors.sort(key=lambda s: (s.order, s.point.values))
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
