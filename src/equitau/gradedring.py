"""Degree-truncated graded power series over exact rationals.

GradedSeries models the completed graded ring Q[[t_1..t_r]] cut off above a
fixed total degree N: all arithmetic silently discards degrees > N, so any
equality of series is an equality *up to the configured truncation*, never an
absolute one.

A series is stored as integer numerators over one shared denominator:
``num`` maps exponent tuples of length r with nonnegative entries and total
degree <= N to nonzero ints, and ``den`` is a positive int.  The form is
canonical: gcd(den, *numerators) == 1, and den == 1 for the zero series, so
equality and hashing compare (rank, truncation, den, num) directly.  Add
brings both operands over the lcm of their denominators, series multiply
convolves the numerators and multiplies the denominators, and scalar multiply
scales both.  ``terms`` is a derived view {exponent tuple: Fraction}, and
``coefficient`` and ``constant_term`` return Fractions.  ``str()`` renders
from ``num`` and ``den`` directly (``sorted_num`` gives the items in print
order), so printing builds no Fraction either.

The public constructor checks its input and brings it to that form.  Every
other series - results of arithmetic, ``component``, ``truncate`` and the
named constructors ``zero``, ``one``, ``const``, ``variable`` and
``linear_form`` - is built through ``GradedSeries._trusted``, which skips the
checks and restores the canonical form with one gcd.

Multiplication works on packed exponents (Monagan-Pearce): with B = N + 1,
the monomial t^e becomes the single int |e|.B^r + sum_i e_i.B^(r-1-i).  Every
entry of an exponent of degree <= N is below B, so adding two keys adds the
exponents without a carry as long as the product stays in degree <= N, which
is exactly ``k1 + k2 < B^(r+1)``; sorted keys run by total degree, then by
exponent, which is also the print order.  ``_convolve`` adds the product of
two packed numerator lists into a dict, scanning the sorted right operand
only up to that bound.  Packing is internal: ``num`` keeps tuple keys, and a
``_Packing`` translates at the boundary of each multiply.

BundleRingElement models the quotient (series ring)[h] / prod_i(h + w_i.t)
for a list of base weights w_i: polynomials in one extra degree-1 symbol h,
kept reduced below h-degree n+1.  The relation is homogeneous, so total
degree (t-degree + h-degree) is preserved by reduction.  Each element points
to a BundleRing, which holds the weights, rank and truncation, one
``_Packing`` and the relation's coefficients e_1..e_{n+1} as sorted packed
lists, built on the first reduction.  A product of two elements is one fused
kernel: both operands' slots are packed over one denominator each, every slot
pair is convolved into 2n+1 packed dicts, and ``_reduce_slots`` folds slots
2n..n+1 back from the top down with h^(n+1) = -(e_1 h^n + ... + e_{n+1}).
The public ``reduce`` runs the same reduction, and ``GradedSeries.__mul__``
the same convolution.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from ._format import join_signed_terms, monomial_string, variable_names


class GradedSeries:
    """Sparse truncated power series: integer numerators over one denominator."""

    __slots__ = ("rank", "truncation", "num", "den")

    def __init__(self, rank, truncation, terms=None):
        if rank < 0 or truncation < 0:
            raise ValueError("rank and truncation must be nonnegative")
        self.rank = rank
        self.truncation = truncation
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != rank or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for rank {rank}")
            c = Fraction(c)
            if c != 0 and sum(exps) <= truncation:
                clean[exps] = c
        # over the lcm of reduced denominators, the numerators share no factor with it
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self.den = den

    @classmethod
    def _trusted(cls, rank, truncation, num, den):
        """The series num / den, brought to canonical form without the constructor's checks.

        Only for nonzero integer numerators on valid exponents and a positive
        den (see the module docstring); the dict is taken over, not copied.
        """
        g = math.gcd(den, *num.values())
        if g != 1:  # for the zero series g == den, so den becomes 1
            den //= g
            num = {e: c // g for e, c in num.items()}
        series = object.__new__(cls)
        series.rank = rank
        series.truncation = truncation
        series.num = num
        series.den = den
        return series

    @property
    def terms(self):
        """{exponent tuple: nonzero Fraction}, built afresh on every access."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(rank, truncation):
        return GradedSeries._trusted(rank, truncation, {}, 1)

    @staticmethod
    def const(rank, truncation, value):
        value = Fraction(value)
        num = {(0,) * rank: value.numerator} if value else {}
        return GradedSeries._trusted(rank, truncation, num, value.denominator)

    @staticmethod
    def one(rank, truncation):
        return GradedSeries._trusted(rank, truncation, {(0,) * rank: 1}, 1)

    @staticmethod
    def variable(rank, truncation, index=0):
        exps = [0] * rank
        exps[index] = 1
        num = {tuple(exps): 1} if truncation else {}
        return GradedSeries._trusted(rank, truncation, num, 1)

    @staticmethod
    def linear_form(rank, truncation, coeffs):
        """Sum of coeffs[i] * t_i; the degree-1 series attached to a weight vector."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != rank:
            raise ValueError(f"expected {rank} coefficients")
        if not truncation:
            return GradedSeries.zero(rank, truncation)
        den = math.lcm(*(c.denominator for c in coeffs))
        num = {}
        for i, c in enumerate(coeffs):
            if c:
                exps = [0] * rank
                exps[i] = 1
                num[tuple(exps)] = c.numerator * (den // c.denominator)
        return GradedSeries._trusted(rank, truncation, num, den)

    # -- structure ----------------------------------------------------------

    def _check_compatible(self, other):
        if self.rank != other.rank or self.truncation != other.truncation:
            raise ValueError(
                f"rank/truncation mismatch: ({self.rank},{self.truncation}) "
                f"vs ({other.rank},{other.truncation})"
            )

    def is_zero(self):
        return not self.num

    def _one(self) -> GradedSeries:
        return GradedSeries.one(self.rank, self.truncation)

    def coefficient(self, exps) -> Fraction:
        return Fraction(self.num.get(tuple(exps), 0), self.den)

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get((0,) * self.rank, 0), self.den)

    def component(self, degree) -> GradedSeries:
        """Homogeneous part of the given total degree."""
        return GradedSeries._trusted(
            self.rank,
            self.truncation,
            {e: c for e, c in self.num.items() if sum(e) == degree},
            self.den,
        )

    def low_degree(self):
        """Smallest total degree with a nonzero term, or None for the zero series."""
        return min((sum(e) for e in self.num), default=None)

    def truncate(self, new_truncation) -> GradedSeries:
        if new_truncation > self.truncation:
            raise ValueError("cannot extend a truncated series")
        if new_truncation < 0:
            raise ValueError("rank and truncation must be nonnegative")
        return GradedSeries._trusted(
            self.rank,
            new_truncation,
            {e: c for e, c in self.num.items() if sum(e) <= new_truncation},
            self.den,
        )

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, GradedSeries):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Fraction)):
            return GradedSeries.const(self.rank, self.truncation, other)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        num = {e: c * m1 for e, c in self.num.items()} if m1 != 1 else dict(self.num)
        for e, c in other.num.items():
            s = num.get(e, 0) + c * m2
            if s:
                num[e] = s
            else:
                del num[e]
        return GradedSeries._trusted(self.rank, self.truncation, num, den)

    __radd__ = __add__

    def __neg__(self):
        return GradedSeries._trusted(
            self.rank, self.truncation, {e: -c for e, c in self.num.items()}, self.den
        )

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            num = {e: c * p for e, c in self.num.items()} if p else {}
            return GradedSeries._trusted(
                self.rank, self.truncation, num, self.den * other.denominator
            )
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_compatible(other)
        packing = _Packing(self.rank, self.truncation)
        num = {}
        _convolve(packing.pack(self.num), packing.pack(other.num), packing.limit, num)
        return GradedSeries._trusted(
            self.rank, self.truncation, packing.unpack(num), self.den * other.den
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers: use inverse() on a unit")
        result = GradedSeries.one(self.rank, self.truncation)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> GradedSeries:
        """Multiplicative inverse of a unit (nonzero constant term)."""
        a0 = self.constant_term()
        if a0 == 0:
            raise ValueError("series with zero constant term is not a unit")
        u = GradedSeries.one(self.rank, self.truncation) - self * (Fraction(1) / a0)
        return apply_power_series(lambda k: Fraction(1), u) * (Fraction(1) / a0)

    def __eq__(self, other):
        return (
            isinstance(other, GradedSeries)
            and self.rank == other.rank
            and self.truncation == other.truncation
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rank, self.truncation, self.den, frozenset(self.num.items())))

    # -- rendering ----------------------------------------------------------

    def sorted_num(self):
        """The (exponents, numerator) items by total degree, then exponents."""
        return sorted(self.num.items(), key=lambda item: (sum(item[0]), item[0]))

    def __str__(self):
        names = variable_names("t", self.rank)
        return join_signed_terms(
            ((c, monomial_string(names, e)) for e, c in self.sorted_num()), self.den
        )

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Packed exponents and the shared multiply / reduce helpers


class _Packing:
    """Packed keys for the monomials of rank r and truncation N (module docstring).

    ``keys`` and ``exponents`` translate the monomials met so far in both
    directions, so each exponent tuple is packed and unpacked once per packing.
    """

    __slots__ = ("base", "places", "limit", "keys", "exponents")

    def __init__(self, rank, truncation):
        base = truncation + 1
        top = base**rank
        self.base = base
        # key(e) = sum_i e_i * places[i] = |e| * B^r + sum_i e_i * B^(r-1-i)
        self.places = tuple(top + base ** (rank - 1 - i) for i in range(rank))
        self.limit = base * top  # key sums below this stay in degree <= N
        self.keys = {}
        self.exponents = {}

    def _key(self, exps):
        key = sum(map(mul, exps, self.places))
        self.keys[exps] = key
        self.exponents[key] = exps
        return key

    def _exps(self, key):
        base, exps = self.base, []
        low = key % (self.limit // base)  # drop the total-degree digit
        for _ in self.places:
            low, e = divmod(low, base)
            exps.append(e)
        exps = tuple(reversed(exps))
        self.keys[exps] = key
        self.exponents[key] = exps
        return exps

    def pack(self, num, scale=1):
        """The items of a numerator dict as [(key, numerator * scale)], sorted by key."""
        keys = self.keys
        return sorted(
            [(keys[e] if e in keys else self._key(e), c * scale) for e, c in num.items()]
        )

    def unpack(self, packed):
        """{exponent tuple: numerator} of a {key: numerator} dict, zeros dropped."""
        exponents = self.exponents
        return {
            exponents[k] if k in exponents else self._exps(k): c
            for k, c in packed.items()
            if c
        }


def _convolve(a, b, limit, out):
    """Add the product of the packed lists a and b into the {key: numerator} dict out.

    b is sorted by key, so its scan stops at the first key whose sum with the
    current key of a would leave degree <= N (sum >= limit).
    """
    get = out.get
    for ka, ca in a:
        room = limit - ka
        for kb, cb in b:
            if kb >= room:
                break
            k = ka + kb
            out[k] = get(k, 0) + ca * cb


def _reduce_slots(slots, relation, limit):
    """Reduce packed h-coefficients (low h-degree first) in place, down to n+1 slots.

    ``relation`` is [e_1, ..., e_{n+1}] as sorted packed lists; each slot k
    above n is folded into slots k-1 .. k-n-1 by
    h^k = -(e_1 h^(k-1) + ... + e_{n+1} h^(k-n-1)), from the top down.
    """
    n1 = len(relation)
    for k in range(len(slots) - 1, n1 - 1, -1):
        top = [(key, -c) for key, c in slots[k].items() if c]
        if top:
            for j, e in enumerate(relation, 1):
                _convolve(top, e, limit, slots[k - j])
    del slots[n1:]


def apply_power_series(coeff_fn, x):
    """Evaluate sum_k coeff_fn(k) * x^k for nilpotent x (zero constant term).

    Works for GradedSeries and BundleRingElement alike; terminates because
    powers of an element without constant term eventually truncate to zero.
    """
    if x.constant_term() != 0:
        raise ValueError("substitution requires a zero constant term")
    one = x._one()
    total = one * coeff_fn(0)
    power = one
    k = 0
    while True:
        k += 1
        power = power * x
        if power.is_zero():
            return total
        c = coeff_fn(k)
        if c:
            total = total + power * c


def exp(x):
    """exp of a series or bundle element without constant term."""
    return apply_power_series(lambda k: Fraction(1, math.factorial(k)), x)


def compose(outer: GradedSeries, inner):
    """Substitute inner (no constant term) into a one-variable series."""
    if outer.rank != 1:
        raise ValueError("outer series must have rank 1")
    if outer.truncation != inner.truncation:
        raise ValueError("truncation mismatch between outer and inner series")
    return apply_power_series(lambda k: outer.coefficient((k,)), inner)


# ---------------------------------------------------------------------------
# Bernoulli numbers and the Todd factor x/(1 - e^(-x))


@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """B_m by the recurrence sum_{j<=m} C(m+1, j) B_j = 0 (convention B_1 = -1/2)."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli_number(j)
    return -acc / (m + 1)


def todd_coefficient(k: int) -> Fraction:
    """Coefficient of x^k in x/(1 - e^(-x)): 1, 1/2, 1/12, 0, -1/720, ..."""
    if k == 1:
        return Fraction(1, 2)
    return bernoulli_number(k) / math.factorial(k)


def todd_factor(x):
    """The multiplicative Todd factor x/(1 - e^(-x)) of a degree-1 form (or zero).

    Accepts a GradedSeries or BundleRingElement with no constant term;
    todd_factor(0) = 1.
    """
    if isinstance(x, GradedSeries) and any(sum(e) != 1 for e in x.num):
        raise ValueError("todd_factor expects a homogeneous degree-1 form or zero")
    return apply_power_series(todd_coefficient, x)


# ---------------------------------------------------------------------------
# The projective-bundle quotient ring


def relation_elementary_symmetric(weights, rank, truncation):
    """Coefficients e_1..e_{n+1} of prod_i(h + w_i.t) below the leading h power.

    weights is a list of integer coordinate vectors over a rank-`rank` base;
    returns [e_1, ..., e_{n+1}] with e_j homogeneous of degree j.
    """
    # multiply out prod (h + l_i) as an h-polynomial, low h-degree first
    poly = [GradedSeries.one(rank, truncation)]
    for w in weights:
        l = GradedSeries.linear_form(rank, truncation, w)
        new = [GradedSeries.zero(rank, truncation) for _ in range(len(poly) + 1)]
        for k, c in enumerate(poly):
            new[k + 1] = new[k + 1] + c
            new[k] = new[k] + c * l
        poly = new
    # poly[k] is the coefficient of h^k; e_j is the coefficient of h^{n+1-j}
    n1 = len(weights)
    return [poly[n1 - j] for j in range(1, n1 + 1)]


class BundleRing:
    """The quotient (truncated series ring)[h] / prod_i(h + w_i.t) for fixed weights.

    Holds the weights, rank and truncation, the ``_Packing`` of its series,
    and the relation's coefficients e_1..e_{n+1}, built on the first
    reduction, both as series and as sorted packed lists.  Elements derived
    from one ring share it, so their products reduce without rebuilding the
    relation.
    """

    __slots__ = ("weights", "rank", "truncation", "_packing", "_relation", "_packed_relation")

    def __init__(self, weights, rank, truncation):
        self.weights = tuple(tuple(int(c) for c in w) for w in weights)
        if not self.weights:
            raise ValueError("relation needs at least one weight")
        if rank < 0 or truncation < 0:
            raise ValueError("rank and truncation must be nonnegative")
        self.rank = rank
        self.truncation = truncation
        self._packing = _Packing(rank, truncation)
        self._relation = None
        self._packed_relation = None

    @property
    def relation(self):
        """[e_1, ..., e_{n+1}] (see ``relation_elementary_symmetric``)."""
        if self._relation is None:
            self._relation = relation_elementary_symmetric(
                self.weights, self.rank, self.truncation
            )
        return self._relation

    def _key(self):
        return self.weights, self.rank, self.truncation

    def __eq__(self, other):
        return isinstance(other, BundleRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def one(self) -> BundleRingElement:
        return self.embed(1)

    def _padded(self, coeffs):
        zero = GradedSeries.zero(self.rank, self.truncation)
        return BundleRingElement._trusted(
            self, list(coeffs) + [zero] * (len(self.weights) - len(coeffs))
        )

    def embed(self, value) -> BundleRingElement:
        """Lift a scalar or base series into this ring."""
        if isinstance(value, (int, Fraction)):
            value = GradedSeries.const(self.rank, self.truncation, value)
        self._check_series(value)
        return self._padded([value])

    def hyperplane(self) -> BundleRingElement:
        """The class h."""
        if len(self.weights) < 2:
            raise ValueError("need at least two weights for a positive-dimensional model")
        zero = GradedSeries.zero(self.rank, self.truncation)
        return self._padded([zero, GradedSeries.one(self.rank, self.truncation)])

    def _check_series(self, c):
        if not isinstance(c, GradedSeries) or (c.rank, c.truncation) != (self.rank, self.truncation):
            raise ValueError("coefficients must be series of matching rank/truncation")

    def _pack_slots(self, coeffs):
        """([sorted packed numerators per series], den): the series over one denominator."""
        den = math.lcm(*(c.den for c in coeffs))
        pack = self._packing.pack
        return [pack(c.num, den // c.den) for c in coeffs], den

    def _element(self, slots, den) -> BundleRingElement:
        """The reduced element of packed h-coefficients {key: numerator} over den."""
        if any(slots[len(self.weights):]):
            if self._packed_relation is None:
                self._packed_relation = [self._packing.pack(e.num) for e in self.relation]
            _reduce_slots(slots, self._packed_relation, self._packing.limit)
        unpack, rank, n = self._packing.unpack, self.rank, self.truncation
        return self._padded(
            [GradedSeries._trusted(rank, n, unpack(s), den) for s in slots[: len(self.weights)]]
        )


def _as_ring(weights, coeffs, rank, truncation) -> BundleRing:
    """`weights` if it is a BundleRing, else the ring over those weights.

    A missing rank or truncation is read off the first series in `coeffs`.
    """
    if isinstance(weights, BundleRing):
        return weights
    if rank is None or truncation is None:
        probe = next((c for c in coeffs if isinstance(c, GradedSeries)), None)
        if probe is None:
            raise ValueError("rank and truncation required without series coefficients")
        rank, truncation = probe.rank, probe.truncation
    return BundleRing(weights, rank, truncation)


class BundleRingElement:
    """Element of (truncated series ring)[h] / prod_i(h + w_i.t), kept reduced."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, weights, coeffs, rank=None, truncation=None):
        """`weights` is the relation's list of weight vectors, or a BundleRing."""
        coeffs = list(coeffs)
        ring = _as_ring(weights, coeffs, rank, truncation)
        rank, truncation = ring.rank, ring.truncation
        if len(coeffs) > len(ring.weights):
            raise ValueError("coefficients exceed the reduced h-degree bound")
        coeffs += [GradedSeries.zero(rank, truncation)] * (len(ring.weights) - len(coeffs))
        for c in coeffs:
            if not isinstance(c, GradedSeries) or c.rank != rank or c.truncation != truncation:
                raise ValueError("coefficients must be series of matching rank/truncation")
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @classmethod
    def _trusted(cls, ring, coeffs):
        """An element over `ring` with one matching series per weight, unchecked."""
        element = object.__new__(cls)
        element.ring = ring
        element.coeffs = tuple(coeffs)
        return element

    @property
    def weights(self):
        return self.ring.weights

    @property
    def rank(self):
        return self.ring.rank

    @property
    def truncation(self):
        return self.ring.truncation

    @property
    def hdim(self):
        """n, the largest retained power of h (= number of weights minus 1)."""
        return len(self.ring.weights) - 1

    def _check_compatible(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("bundle elements over different models")

    def _one(self):
        return self.ring.one()

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def constant_term(self) -> Fraction:
        return self.coeffs[0].constant_term()

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GradedSeries)):
            other = self.ring.embed(other)
        if not isinstance(other, BundleRingElement):
            return NotImplemented
        self._check_compatible(other)
        return BundleRingElement._trusted(
            self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return BundleRingElement._trusted(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GradedSeries)):
            other = self.ring.embed(other)
        if not isinstance(other, BundleRingElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GradedSeries)):
            return BundleRingElement._trusted(self.ring, [c * other for c in self.coeffs])
        if not isinstance(other, BundleRingElement):
            return NotImplemented
        self._check_compatible(other)
        ring = self.ring
        a, da = ring._pack_slots(self.coeffs)
        b, db = ring._pack_slots(other.coeffs)
        limit = ring._packing.limit
        prod = [{} for _ in range(len(a) + len(b) - 1)]
        for i, pa in enumerate(a):
            if pa:
                for j, pb in enumerate(b):
                    if pb:
                        _convolve(pa, pb, limit, prod[i + j])
        return ring._element(prod, da * db)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers: use inverse() on a unit")
        result = self._one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self):
        a0 = self.constant_term()
        if a0 == 0:
            raise ValueError("bundle element with zero constant term is not a unit")
        u = self._one() - self * (Fraction(1) / a0)
        return apply_power_series(lambda k: Fraction(1), u) * (Fraction(1) / a0)

    def __eq__(self, other):
        return (
            isinstance(other, BundleRingElement)
            and self.weights == other.weights
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.weights, self.coeffs))

    def __str__(self):
        names = variable_names("t", self.rank) + ["h"]
        den = math.lcm(*(c.den for c in self.coeffs))
        items = []
        for k, c in enumerate(self.coeffs):
            scale = den // c.den
            for e, p in c.num.items():
                items.append((sum(e) + k, e, k, p * scale))
        items.sort(key=lambda it: it[:3])
        return join_signed_terms(
            ((p, monomial_string(names, e + (k,))) for _, e, k, p in items), den
        )

    __repr__ = __str__


def hyperplane_class(weights, rank, truncation) -> BundleRingElement:
    """The class h in the quotient ring for the given relation weights."""
    return BundleRing(weights, rank, truncation).hyperplane()


def reduce(poly_coeffs, weights, rank=None, truncation=None) -> BundleRingElement:
    """Reduce an h-polynomial (list of series, low degree first) modulo prod(h + w_i.t).

    `weights` is the relation's list of weight vectors, or a BundleRing,
    whose relation is then reused.  Scalars are lifted to constant series.
    """
    coeffs = list(poly_coeffs)
    ring = _as_ring(weights, coeffs, rank, truncation)
    coeffs = [
        c if isinstance(c, GradedSeries) else GradedSeries.const(ring.rank, ring.truncation, c)
        for c in coeffs
    ]
    for c in coeffs:
        ring._check_series(c)
    packed, den = ring._pack_slots(coeffs)
    return ring._element([dict(p) for p in packed], den)


def pushforward(p: BundleRingElement) -> GradedSeries:
    """Proper pushforward to the base: picks off the h^n coefficient.

    The class of a point pushes to 1 and lower h-powers push to 0; a class of
    pure total degree d maps to a class of pure degree d - n.
    """
    if not isinstance(p, BundleRingElement):
        raise ValueError("pushforward expects a reduced bundle ring element")
    return p.coeffs[p.hdim]


def odd_part_quotient(coeffs, truncation) -> GradedSeries:
    """(p(t) - p(-t)) / (2t) for an h-polynomial given by its coefficient list.

    This is the closed-form pushforward on P^1 with weights (1, -1);
    coefficients may be integers, Fractions, or rank-1 series.  The
    difference is formed at truncation N + 1, so its degree-(N+1) part
    survives the division by t.
    """
    top = truncation + 1
    t = GradedSeries.variable(1, top)
    diff = GradedSeries.zero(1, top)
    for k, c in enumerate(coeffs):
        if isinstance(c, GradedSeries):
            c = GradedSeries(1, top, c.terms)
        diff = diff + (t**k - (-t) ** k) * c
    # every term of t^k - (-t)^k has degree k >= 1
    return GradedSeries(1, truncation, {(e - 1,): c / 2 for (e,), c in diff.terms.items()})
