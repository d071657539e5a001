"""Projective-space models with diagonalizable group actions and their bundles.

Convention (validated against the brute-force section-character oracle):
V = direct sum of one-dimensional eigenspaces k_{w_i}, P(V) = lines in V,
defining relation prod_i(h + w_i.t), c_1(O(1)) = h, and global sections of
O(n) for n >= 0 carry the character of Sym^n V^* (negated sums of n of the
w_i).  The tangent class is the Euler-sequence virtual difference
[sum_i O(1) tensor chi_{w_i}] - [O], which gives closed-form Chern roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gradedring import (
    BundleRing,
    BundleRingElement,
    GradedSeries,
    exp,
    pushforward_moments,
    reduce,
    root_series_product,
    todd_coefficient,
    todd_inverse_coefficient,
)
from .lattice import GroupDescriptor, Weight

DEFAULT_TRUNCATION = 16


@dataclass(frozen=True)
class ProjSpaceModel:
    """P(V) for V a sum of weight lines over a fixed diagonalizable group."""

    group: GroupDescriptor
    weights: tuple[Weight, ...]
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        weights = tuple(
            w if isinstance(w, Weight) else Weight(self.group, w) for w in self.weights
        )
        object.__setattr__(self, "weights", weights)
        if len(weights) < 2:
            raise ValueError("a projective-space model needs at least two weights")
        for w in weights:
            if w.group != self.group:
                raise ValueError("all weights must live over the model's group")

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def _require_torus(self):
        if not self.group.is_free:
            raise ValueError("this operation requires a torus action (free character lattice)")

    @property
    def rank(self) -> int:
        return self.group.ngens if self.group.is_free else self.group.free_rank

    def weight_vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(w.coords for w in self.weights)

    @cached_property
    def ring(self) -> BundleRing:
        """The bundle ring of the model, built once: its elements share one relation."""
        self._require_torus()
        return BundleRing(self.weight_vectors(), self.rank, self.truncation)

    @cached_property
    def tangent_todd(self) -> BundleRingElement:
        """td of the tangent class, built once per model (``hrr_chi`` uses it)."""
        return todd_class_bundle(self, TANGENT)

    def todd_moments(self, count):
        """``pushforward_moments(tangent_todd, count)``, kept on the model and rebuilt to extend."""
        moments = self.__dict__.get("_todd_moments", ())
        if len(moments) < count:
            moments = self.__dict__["_todd_moments"] = pushforward_moments(self.tangent_todd, count)
        return moments

    def hyperplane(self) -> BundleRingElement:
        return self.ring.hyperplane()

    def base_form(self, coords) -> BundleRingElement:
        """The degree-1 class w.t of a character, embedded in the bundle ring."""
        ring = self.ring
        return ring.embed(GradedSeries.linear_form(ring.rank, ring.truncation, coords))

    def embed(self, value) -> BundleRingElement:
        return self.ring.embed(value)

    def reduce_poly(self, coeffs) -> BundleRingElement:
        return reduce(coeffs, self.ring)


def torus_model(weights, truncation=DEFAULT_TRUNCATION, rank=None) -> ProjSpaceModel:
    """Model for a torus action; weights are ints (rank 1) or coordinate tuples."""
    weights = [(w,) if isinstance(w, int) else tuple(w) for w in weights]
    if rank is None:
        rank = len(weights[0]) if weights else 1
    group = GroupDescriptor(rank, ())
    return ProjSpaceModel(group, tuple(Weight(group, w) for w in weights), truncation)


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
    return ProjSpaceModel(group, tuple(Weight(group, w) for w in normalized), truncation)


# ---------------------------------------------------------------------------
# Bundle specifications


@dataclass(frozen=True)
class LineTwist:
    """O(power) tensored with the character of the given coordinate vector."""

    power: int = 0
    character: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Tangent:
    """The tangent class of P(V), as an Euler-sequence virtual difference."""


@dataclass(frozen=True)
class BundleSum:
    """A direct sum of line twists."""

    summands: tuple[LineTwist, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        for s in self.summands:
            if not isinstance(s, LineTwist):
                raise ValueError("only line twists can be summed")


TANGENT = Tangent()


def chern_roots(model: ProjSpaceModel, bundle):
    """(positive_roots, negative_roots) as degree-1 bundle ring elements."""
    h = model.hyperplane()
    if isinstance(bundle, LineTwist):
        root = h * bundle.power
        if bundle.character is not None:
            root = root + model.base_form(bundle.character)
        return [root], []
    if isinstance(bundle, BundleSum):
        positives = []
        for summand in bundle.summands:
            positives.extend(chern_roots(model, summand)[0])
        return positives, []
    if isinstance(bundle, Tangent):
        positives = [h + model.base_form(w.coords) for w in model.weights]
        trivial = model.embed(GradedSeries.zero(model.rank, model.truncation))
        return positives, [trivial]
    raise ValueError(f"unsupported bundle kind: {bundle!r}")


def chern_character_bundle(model: ProjSpaceModel, bundle) -> BundleRingElement:
    """sum exp(x_i) over positive roots minus the same over negative roots."""
    positives, negatives = chern_roots(model, bundle)
    total = model.embed(0)
    for x in positives:
        total = total + exp(x)
    for x in negatives:
        total = total - exp(x)
    return total


def todd_class_bundle(model: ProjSpaceModel, bundle) -> BundleRingElement:
    """Product of x/(1-e^(-x)) over positive roots and (1-e^(-x))/x over negatives.

    Always a unit with constant term 1, built by one ``root_series_product``
    call (Newton coordinates, no dense product).  A zero root, such as the
    tangent's trivial negative one, contributes the factor 1; ch still needs
    it (it subtracts the class of O).
    """
    positives, negatives = chern_roots(model, bundle)
    return root_series_product(
        model.ring,
        [(todd_coefficient, x) for x in positives]
        + [(todd_inverse_coefficient, x) for x in negatives],
    )
