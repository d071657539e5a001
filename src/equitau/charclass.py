"""Projective-space models with diagonalizable group actions and their bundles.

Convention (validated against the brute-force section-character oracle):
V = direct sum of one-dimensional eigenspaces k_{w_i}, P(V) = lines in V,
defining relation prod_i(h + w_i.t), c_1(O(1)) = h, and global sections of
O(n) for n >= 0 carry the character of Sym^n V^* (negated sums of n of the
w_i).  A model holds its group once; its weights w_i are coordinate tuples
reduced by that group.  A bundle is a K-class: a dict {(k, c): m} standing
for the signed sum of m . O(k) tensor chi_c, c a coordinate tuple (() the
trivial character).  The tangent class is the Euler-sequence virtual
difference [sum_i O(1) tensor chi_{w_i}] - [O].  A key's Chern root is
k.h + c.t, and ch and td pass it to ``root_series_coordinates`` as the key's
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .gradedring import (
    BundleRing,
    BundleRingElement,
    exp_coefficient,
    newton_moments,
    root_series_coordinates,
    todd_coefficient,
    todd_inverse_coefficient,
)
from .lattice import GroupDescriptor

DEFAULT_TRUNCATION = 16

# Sizes past which a torus model's series pipeline is refused (``check_series_size``).
TRUNCATION_LIMIT = 128
SERIES_WORK_LIMIT = 8 * 10**6


def check_series_size(rank: int, dim: int, truncation: int) -> None:
    """Refuse, with ValueError, a model of P^dim over a rank-`rank` torus too large to run.

    It works from the sizes alone, before anything is built, and counts the
    work of the two steps that grow fastest (the rest of a run scales with
    them): the Todd walk, n + 1 roots of N + n + 1 powers each over n + 1
    coordinates of at most C(N + r, r) terms, on numerators that grow by one
    root's denominator per root, (n + 1)^3 (N + n + 1) C(N + r, r); and the
    moments, n + 1 truncated products of two series, (n + 1) C(N + 2r, 2r)
    term pairs.  Past truncation 128 the coefficients' bit sizes take over
    on their own (rank 1 at truncation 512 takes about 20 s), so the
    truncation is capped as well.
    """
    if truncation > TRUNCATION_LIMIT:
        raise ValueError(f"truncation {truncation} is above the limit {TRUNCATION_LIMIT}")
    n1 = dim + 1
    walk = n1**3 * (truncation + n1) * math.comb(truncation + rank, rank)
    work = walk + n1 * math.comb(truncation + 2 * rank, 2 * rank)
    if work > SERIES_WORK_LIMIT:
        raise ValueError(
            f"P^{dim} over a rank-{rank} torus at truncation {truncation} is too large: "
            f"{work} units of work (limit {SERIES_WORK_LIMIT})"
        )


@dataclass(frozen=True)
class ProjSpaceModel:
    """P(V) for V a sum of weight lines: coordinate tuples reduced by the model's group."""

    group: GroupDescriptor
    weights: tuple[tuple[int, ...], ...]
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        weights = tuple(map(self.group.reduce_coords, self.weights))
        object.__setattr__(self, "weights", weights)
        if len(weights) < 2:
            raise ValueError("a projective-space model needs at least two weights")

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def _require_torus(self):
        if not self.group.is_free:
            raise ValueError("this operation requires a torus action (free character lattice)")

    @property
    def rank(self) -> int:
        return self.group.free_rank

    @cached_property
    def ring(self) -> BundleRing:
        """The bundle ring of the model, built once: its elements share its forms."""
        self._require_torus()
        return BundleRing(self.weights, self.rank, self.truncation)

    @cached_property
    def tangent_todd_coordinates(self):
        """(c, den): td(tangent) = sum_m c[m].N_m / den, built once per model for ``hrr_chi``."""
        return todd_coordinates(self, tangent_class(self))

    def todd_moments(self, count):
        """The numerators of mu_p = pushforward(h^p.td(tangent)), p < count, over its den.

        Read off the Newton coordinates by ``newton_moments``, kept on the model
        and rebuilt to extend.
        """
        moments = self.__dict__.get("_todd_moments", ())
        if len(moments) < count:
            coords, _ = self.tangent_todd_coordinates
            moments = self.__dict__["_todd_moments"] = newton_moments(self.ring, coords, count)
        return moments

    def hyperplane(self) -> BundleRingElement:
        return self.ring.hyperplane()


def torus_model(weights, truncation=DEFAULT_TRUNCATION, rank=None) -> ProjSpaceModel:
    """Model for a torus action; weights are ints (rank 1) or coordinate tuples."""
    weights = [(w,) if isinstance(w, int) else tuple(w) for w in weights]
    if rank is None:
        rank = len(weights[0]) if weights else 1
    return ProjSpaceModel(GroupDescriptor(rank, ()), weights, truncation)


def mu_model(orders, weights, truncation=DEFAULT_TRUNCATION) -> ProjSpaceModel:
    """Model for a finite diagonalizable group mu_{d1} x ... x mu_{dk}.

    Unit orders are dropped (mu_1 is trivial); weight coordinates for dropped
    factors are discarded along with them.
    """
    if isinstance(orders, int):
        orders = (orders,)
    orders = tuple(orders)
    keep = [i for i, d in enumerate(orders) if d != 1]
    group = GroupDescriptor(0, tuple(orders[i] for i in keep))
    normalized = []
    for w in weights:
        coords = (w,) if isinstance(w, int) else tuple(w)
        if len(coords) != len(orders):
            raise ValueError(f"weight {coords} does not match {len(orders)} cyclic factors")
        normalized.append(tuple(coords[i] for i in keep))
    return ProjSpaceModel(group, normalized, truncation)


# ---------------------------------------------------------------------------
# K-classes: a bundle is a dict {(k, c): m}, the signed sum of m . O(k) (x) chi_c


def line_class(power: int, character=()) -> dict:
    """The K-class of O(power) tensored with the character of a coordinate tuple."""
    return {(power, tuple(character)): 1}


def tangent_class(model: ProjSpaceModel) -> dict:
    """The tangent class sum_i O(1) (x) chi_(w_i) - O of the Euler sequence."""
    bundle = {}
    for w in model.weights:
        bundle[1, w] = bundle.get((1, w), 0) + 1
    bundle[0, ()] = -1
    return bundle


def chern_character_bundle(model: ProjSpaceModel, bundle) -> BundleRingElement:
    """sum m . exp(k.h + c.t) over the keys (k, c): one-root Newton walks, summed as coordinates."""
    ring, total = model.ring, model.ring.embed(0)
    for key, m in bundle.items():
        total += ring.newton_element(*root_series_coordinates(ring, [(exp_coefficient, key)])) * m
    return total


def todd_coordinates(model: ProjSpaceModel, bundle):
    """(c, den) of td(bundle) = sum_m c[m].N_m / den: ``root_series_coordinates`` of the roots.

    |m| factors per key (k, c), at its root k.h + c.t: x/(1-e^(-x)), or (1-e^(-x))/x when m < 0.
    """
    factors = []
    for key, m in bundle.items():
        factors += [(todd_coefficient if m > 0 else todd_inverse_coefficient, key)] * abs(m)
    return root_series_coordinates(model.ring, factors)


def todd_class_bundle(model: ProjSpaceModel, bundle) -> BundleRingElement:
    """Product of td(x)^m over the roots, td(x) = x/(1-e^(-x)): ``todd_coordinates`` packed.

    Always a unit with constant term 1.  A zero root, such as the tangent's trivial
    one, contributes the factor 1; ch still needs it (it subtracts the class of O).
    """
    return model.ring.newton_element(*todd_coordinates(model, bundle))
