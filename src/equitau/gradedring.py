"""Degree-truncated graded power series over exact rationals.

GradedSeries models the completed graded ring Q[[t_1..t_r]] cut off above a
fixed total degree N: all arithmetic silently discards degrees > N, so any
equality of series is an equality *up to the configured truncation*, never an
absolute one.

A series is a ``_sparse.SparseElement``: integer numerators over one shared
denominator in canonical form (gcd 1, denominator 1 for zero), whose context
``ctx`` is the ``SeriesRing`` of its rank and truncation, built once per pair
by ``series_ring``.  Add, negate, scalar multiply, powers, equality and
hashing are the core's; this module adds the series product, the named
constructors and the rendering.

Monomials are keyed by packed ints (Monagan-Pearce): with B = N + 1, t^e has
the key |e|.B^r + sum_i e_i.B^(r-1-i), the ring's ``top`` = B^r times the
total degree plus the exponents' base-B digits.  Every entry of an exponent
of degree <= N is below B, so adding two keys adds the exponents without a
carry as long as the product stays in degree <= N, which is exactly
``k1 + k2 < limit`` = B^(r+1); sorted keys run by total degree, then by
exponent, which is also the print order.  The public constructor and
``truncate`` encode keys; ``terms``, ``coefficient`` and ``text`` decode
them (``text`` reads the ``term_table``, the sorted keys and reduced
coefficients that ``cli.series_to_json`` reads too, and the ring's table of
the monomial texts it has printed); the closed forms
``reprring.chern_character`` and ``riemannroch.weyl_closed_forms`` build
their keys from the ring's ``places`` (t^e has key sum_i e_i places[i]) and
hand them to ``_trusted``, and ``times_exp_linear_form`` multiplies a series
by e^(c.t) by adding multiples of one place at a time to its keys.
``terms`` is a view {exponent tuple: Fraction}; ``coefficient`` is 0 for an
exponent vector outside the ring.  A product sorts the right operand's items
and ``_convolve`` adds the products into a dict, scanning the right operand
only up to the bound.  A product of two dense series runs output by output
instead (``_dense_product``): a ring with at least ``DENSE_PAIRS_PER_OUTPUT``
index pairs per monomial and at most ``DENSE_PAIR_CAP`` pairs in all builds,
on its first such product, a plan that lists for each monomial the pairs of
monomials whose product it is, and the plan serves every product whose
operands each hold at least ``DENSE_SHARE`` of the ring's monomials.  Both
routes sum the same integers, so they give the same series.

BundleRingElement models the quotient (series ring)[h] / prod_i(h + w_i.t)
for base weights w_i.  With l_i = w_i.t, the classes N_m = prod_(i<m)(h + l_i)
of the invariant linear subspaces are monic of h-degree m, so N_0..N_n is a
basis, and N_(n+1) = 0 is the relation (Fulton, *Intersection Theory*,
Section 3.1).  An element is a ``SparseElement`` in these Newton
coordinates, whose ``ctx`` is its BundleRing, with t^e.N_m keyed by
m.limit + key(t^e); the ring keeps the weights, the series ring and the
forms l_i as (series key, coefficient) items, and no relation.  One kernel,
``_horner``, multiplies an h-polynomial into coordinates by Horner's rule,
with h.N_m = N_(m+1) - l_m.N_m, whose top shift drops as N_(n+1) = 0: it
serves ``reduce`` (so the public constructor), the bundle product and
``apply_power_series``, on integers.  The h-basis is a view for ``coeffs``
and ``__str__``, by the Horner step y <- (h + l_m).y + c_m (``_newton_slots``).

A Chern root x = a.h + c.t, read off a K-class key (a, c) as integers, acts
bidiagonally, x.N_m = a.N_(m+1) + (c.t - a.l_m).N_m, so
``root_series_coordinates`` (the Todd class and ch) multiplies by it with a
shift and a product by one linear form per coordinate, in one fused loop
that also adds each power into the running sum: no dense product.  It skips
a zero root whose series starts at 1, coordinates that are empty and the
inner loop of a one-term form.  The coefficient tables c_j / dx^j of a
power series (``_scaled_coefficients``) are built once per process for each
(coefficient function, dx, count).

The pushforward reads the N_n coordinate, since N_n is the class of a
point and N_m, m < n, pushes to 0.  The closed-form Gysin map gives the same
on the h-basis: pushforward(h^(n+i)) is the degree-i part of the Segre series
S_0 = prod_i 1/(1 + l_i) (Fulton, *Intersection Theory*, Section 3.1), and
pushforward(N_m.h^k) is the degree-(k - n + m) part of its tail
S_m = S_0.prod_(i<m)(1 + l_i).  ``newton_moments`` gives every
mu_p = pushforward(h^p.y) of y = sum_m c_m.N_m from n + 1 products c_m.S_m,
bucketed by p, with no h-basis; ``riemannroch.hrr_chi``
reads chi off the moments of the tangent Todd class.  ``segre_pushforward``
pushes an h-polynomial forward by the same Gysin map, the closed-form check
of the reduction-based ``pushforward``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, repeat
from operator import itemgetter, mul

from ._format import monomial_texts, term_table, terms_string, terms_text, variable_names
from ._sparse import SparseElement


@dataclass(frozen=True, slots=True)
class SeriesRing:
    """The series ring in `rank` variables cut above total degree `truncation`.

    Holds its monomials' key layout (module docstring): ``base`` B = N + 1,
    ``top`` B^r, ``digits`` (B^(r-1-i), the place of exponent i below the
    degree digit), ``places`` (top + digits[i], the key of t_i) and
    ``limit`` B^(r+1); ``dense_least`` is the fewest terms each operand of a
    product must hold for it to run from the ring's plan (``_dense_least``, 0
    for a ring that gets no plan); ``texts`` {key: monomial text} holds the
    keys printed so far and takes no part in equality.  Build it with
    ``series_ring``.
    """

    rank: int
    truncation: int
    base: int
    top: int
    digits: tuple
    places: tuple
    limit: int
    dense_least: int
    texts: dict = field(default_factory=dict, compare=False, repr=False)

    # Both conversions work a column (one variable) at a time over all the
    # monomials, which is about twice as fast as one monomial at a time.

    def keys(self, exponents):
        """The keys of a sized collection of exponent tuples of the ring, in order."""
        keys = [0] * len(exponents)
        for column, place in zip(zip(*exponents), self.places):
            keys = [k + e * place for k, e in zip(keys, column)]
        return keys

    def columns(self, keys):
        """Per variable, the list of its exponents in a list of keys, in order."""
        # top is a multiple of B times every digit, so the degree digit drops out
        base = self.base
        return [[k // d % base for k in keys] for d in self.digits]

    def exponents(self, keys):
        """The exponent tuples of a list of keys, in the same order."""
        return list(zip(*self.columns(keys))) if self.rank else [()] * len(keys)

    def monomials(self, keys):
        """The monomial texts of a list of keys, each built the first time it is printed."""
        new = [k for k in keys if k not in self.texts]
        if new:
            names = variable_names("t", self.rank)
            self.texts.update(zip(new, monomial_texts(names, self.columns(new), len(new))))
        return list(map(self.texts.__getitem__, keys))


@lru_cache(maxsize=None)
def series_ring(rank, truncation) -> SeriesRing:
    if rank < 0 or truncation < 0:
        raise ValueError("rank and truncation must be nonnegative")
    base = truncation + 1
    top = base**rank
    digits = tuple(base ** (rank - 1 - i) for i in range(rank))
    # key(e) = sum_i e_i * places[i] = |e| * B^r + sum_i e_i * B^(r-1-i)
    places = tuple(top + d for d in digits)
    return SeriesRing(
        rank, truncation, base, top, digits, places, base * top, _dense_least(rank, truncation)
    )


class GradedSeries(SparseElement):
    """Sparse truncated power series: integer numerators over one denominator."""

    __slots__ = ()

    def __init__(self, rank, truncation, terms=None):
        ctx = series_ring(rank, truncation)
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
        self.ctx = ctx
        self.num = dict(
            zip(ctx.keys(clean), [c.numerator * (den // c.denominator) for c in clean.values()])
        )
        self.den = den

    @staticmethod
    def _unit_key(ctx):
        return 0

    @property
    def rank(self):
        return self.ctx.rank

    @property
    def truncation(self):
        return self.ctx.truncation

    @property
    def terms(self):
        """{exponent tuple: nonzero Fraction}, built afresh on every access."""
        num, den = self.num, self.den
        return {e: Fraction(c, den) for e, c in zip(self.ctx.exponents(list(num)), num.values())}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(rank, truncation):
        return GradedSeries._trusted(series_ring(rank, truncation), {}, 1)

    @staticmethod
    def const(rank, truncation, value):
        return GradedSeries.zero(rank, truncation)._lift(Fraction(value))

    @staticmethod
    def one(rank, truncation):
        return GradedSeries._trusted(series_ring(rank, truncation), {0: 1}, 1)

    @staticmethod
    def linear_form(rank, truncation, coeffs):
        """Sum of coeffs[i] * t_i; the degree-1 series attached to a weight vector."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != rank:
            raise ValueError(f"expected {rank} coefficients")
        ctx = series_ring(rank, truncation)
        if not truncation:
            return GradedSeries._trusted(ctx, {}, 1)
        den = math.lcm(*(c.denominator for c in coeffs))
        num = {
            place: c.numerator * (den // c.denominator)
            for place, c in zip(ctx.places, coeffs)
            if c
        }
        return GradedSeries._trusted(ctx, num, den)

    # -- structure ----------------------------------------------------------

    def coefficient(self, exps) -> Fraction:
        """The coefficient of t^exps; 0 for an exponent vector outside the ring."""
        exps, ctx = tuple(exps), self.ctx
        if len(exps) != ctx.rank or min(exps, default=0) < 0 or sum(exps) > ctx.truncation:
            return Fraction(0)
        return Fraction(self.num.get(ctx.keys([exps])[0], 0), self.den)

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get(0, 0), self.den)

    def component(self, degree) -> GradedSeries:
        """Homogeneous part of the given total degree."""
        top = self.ctx.top
        num = {k: c for k, c in self.num.items() if k // top == degree}
        return GradedSeries._trusted(self.ctx, num, self.den)

    def low_degree(self):
        """Smallest total degree with a nonzero term, or None for the zero series."""
        return min(self.num) // self.ctx.top if self.num else None

    def truncate(self, new_truncation) -> GradedSeries:
        if new_truncation > self.truncation:
            raise ValueError("cannot extend a truncated series")
        old, ctx = self.ctx, series_ring(self.rank, new_truncation)
        bound = (new_truncation + 1) * old.top  # the keys of degree <= new_truncation
        keys = [k for k in self.num if k < bound]
        num = dict(zip(ctx.keys(old.exponents(keys)), map(self.num.__getitem__, keys)))
        return GradedSeries._trusted(ctx, num, self.den)

    # -- arithmetic ---------------------------------------------------------

    # Bound here too, so that vars(GradedSeries) holds every arithmetic
    # method: perfbench's tracer patches them there.
    __add__ = __radd__ = SparseElement.__add__
    __sub__ = SparseElement.__sub__
    __rsub__ = SparseElement.__rsub__
    __neg__ = SparseElement.__neg__

    def __mul__(self, other):
        if type(other) is not GradedSeries:
            return super().__mul__(other)
        self._check(other)
        ctx, a, b = self.ctx, self.num, other.num
        least = ctx.dense_least
        if least and len(a) >= least and len(b) >= least:
            num = _dense_product(_product_plan(ctx.rank, ctx.truncation), a, b)
        else:
            num = {}
            _convolve(a.items(), sorted(b.items()), ctx.limit, num)
            num = {k: c for k, c in num.items() if c}
        return GradedSeries._trusted(ctx, num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(scalar))

    # -- rendering ----------------------------------------------------------

    def term_table(self):
        """``_format.term_table`` of the terms by degree, then exponents: what the CLI renders."""
        return term_table(self.num, sorted(self.num), self.den)

    def text(self, table=None):
        """``str(self)``, or from ``table``, its ``term_table()``, which the CLI reads too."""
        table = table or self.term_table()
        return terms_text(self.ctx.monomials(table[0]), table)

    __str__ = __repr__ = text


# ---------------------------------------------------------------------------
# The shared multiply / reduce helpers


def _convolve(a, b, limit, out):
    """Add the product of the (key, numerator) lists a and b into the dict out.

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


# When a series product runs from a plan.  Set from alternated in-process
# timings of products of two Chern characters of rank-zero characters (2
# cores, Python 3.11.7, 25 rounds each, median ratio against ``_convolve``):
# with (nearly) every monomial held, 1.6x at rank 2, truncation 12 (20 pairs
# per output), 1.1-1.3x at 10-13 pairs per output, 0.9-1.1x at 7-9 (0.9x at
# rank 1, truncation 12); at rank 2, truncation 12 with both operands thinned
# to a share d of the monomials, 1.16x at d = 0.85, 1.08x at 0.8, 0.88x at
# 0.7 and 0.52x at 0.5.  The cap keeps a plan small: the rank-2,
# truncation-12 plan holds 62 KiB, and the rank-3, truncation-12 ring's
# 18,564 pairs, 0.46 MiB, still fit.
DENSE_PAIRS_PER_OUTPUT = 10
DENSE_SHARE = Fraction(4, 5)
DENSE_PAIR_CAP = 20_000


def _dense_least(rank, truncation):
    """The fewest terms each operand must hold for a product to run from a plan.

    ``DENSE_SHARE`` of the ring's C(N + r, r) monomials, or 0 (no plan) for
    a ring with fewer than ``DENSE_PAIRS_PER_OUTPUT`` pairs per monomial or
    more than ``DENSE_PAIR_CAP`` of its C(N + 2r, 2r) pairs.
    """
    size = math.comb(truncation + rank, rank)
    pairs = math.comb(truncation + 2 * rank, 2 * rank)
    if pairs < DENSE_PAIRS_PER_OUTPUT * size or pairs > DENSE_PAIR_CAP:
        return 0
    return math.ceil(DENSE_SHARE * size)


@lru_cache(maxsize=32)  # the last 32 rings with a dense product, at most 0.5 MB each
def _product_plan(rank, truncation):
    """(keys, outputs) for the dense product in series_ring(rank, truncation).

    keys are the ring's C(N + r, r) monomial keys in order; outputs holds,
    for each key k, (k, I, J) with ``itemgetter``s I and J of the index
    pairs (i, j) with keys[i] + keys[j] = k, C(N + 2r, 2r) pairs in all.
    Index len(keys) reads a padding 0: a pair (len(keys), len(keys)) is added
    where k has 1 pair, so that its getters return tuples, and where it has
    20, so that they do not return 20-tuples: CPython 3.11 and 3.12 keep
    every freed 20-tuple on a free list that they never take from (up to
    2,000 of them, 0.37 MB).  Built on the ring's first product whose
    operands both hold ``dense_least`` terms, never for a ring without one.
    """
    ctx = series_ring(rank, truncation)
    top, limit = ctx.top, ctx.limit
    keys = [0]
    for place in ctx.places:  # raise each key's exponent of t_i while its degree allows
        keys = [k + e * place for k in keys for e in range(truncation + 1 - k // top)]
    keys.sort()
    where = {k: i for i, k in enumerate(keys)}
    left, right = [[] for _ in keys], [[] for _ in keys]
    for i, ka in enumerate(keys):
        room = limit - ka
        for j, kb in enumerate(keys):
            if kb >= room:
                break
            o = where[ka + kb]
            left[o].append(i)
            right[o].append(j)
    for i, j in zip(left, right):
        if len(i) in (1, 20):
            i.append(len(keys))
            j.append(len(keys))
    outputs = [(k, itemgetter(*i), itemgetter(*j)) for k, i, j in zip(keys, left, right)]
    return keys, outputs


def _dense_product(plan, a, b):
    """The nonzero numerators of the product of the dicts a and b, one output at a time."""
    keys, outputs = plan
    zeros = repeat(0)
    x = [*map(a.get, keys, zeros), 0]
    y = [*map(b.get, keys, zeros), 0]
    return {k: s for k, i, j in outputs if (s := sum(map(mul, i(x), j(y))))}


def _horner(ctx, forms, hcoeffs, coords):
    """Newton coordinates of (sum_k hcoeffs[k].h^k).y, y = sum_m coords[m].N_m, zeros kept.

    hcoeffs[k] is a sorted (series key, numerator) list and coords[m] a
    (series key, numerator) iterable; absent coordinates are 0.  Horner's
    rule from the top h-degree down, z <- h.z + hcoeffs[k].y, with
    h.N_m = N_(m+1) - l_m.N_m: the top shift lands on N_(n+1) = 0 and drops.
    """
    limit, bound = ctx.limit, ctx.limit - ctx.top
    z = [{} for _ in forms]
    for a in reversed(hcoeffs):
        if any(z):
            for m in range(len(z) - 1, -1, -1):  # from the top down: z[m - 1] is still old
                out = dict(z[m - 1]) if m else {}
                get = out.get
                for k, c in z[m].items():
                    if k < bound:  # a key of degree N times a linear form leaves the ring
                        for p, e in forms[m]:
                            out[k + p] = get(k + p, 0) - c * e
                z[m] = out
        if a:
            for out, c in zip(z, coords):
                _convolve(c, a, limit, out)
    return z


@lru_cache(maxsize=128)
def _scaled_coefficients(coeff_fn, dx, count):
    """((m_0, ..., m_(count-1)), den), m_j / den = coeff_fn(j) / dx^j: f(X / dx) over one den.

    Built once per process for each (coeff_fn, dx, count), as ``bernoulli_number``
    is, so callers pass module-level coefficient functions, not a new lambda per call.
    """
    coeffs = [coeff_fn(j) for j in range(count)]
    dens = [c.denominator * dx**j for j, c in enumerate(coeffs)]
    den = math.lcm(*dens)
    return tuple(c.numerator * (den // q) for c, q in zip(coeffs, dens)), den


def _power_series_sum(multipliers, power, times_x):
    """The slot dicts of sum_j multipliers[j] * y_j for y_0 = power, y_j = times_x(y_(j-1)).

    power holds n+1 dicts {key: numerator}, and ``times_x`` takes such a
    list to its product by X; zero entries are kept, and the sum stops early
    once a power is empty.
    """
    total = [{} for _ in power]
    for j, m in enumerate(multipliers):
        if j:
            power = times_x(power)
            if not any(power):
                break
        if m:
            for t, p in zip(total, power):
                get = t.get
                for k, v in p.items():
                    t[k] = get(k, 0) + m * v
    return total


def apply_power_series(coeff_fn, x):
    """Evaluate sum_k coeff_fn(k) * x^k for nilpotent x (zero constant term).

    Works for GradedSeries and BundleRingElement alike, on integers
    (``_power_series_sum``) in Newton coordinates: X^(j-1) times X is one
    ``_horner`` pass of X's h-coefficients, and a series is the
    one-coordinate case, with the single form ().  x^(N+n+1) = 0, as x has
    no term below degree 1.
    """
    if x.constant_term() != 0:
        raise ValueError("substitution requires a zero constant term")
    if isinstance(x, GradedSeries):
        ctx, forms, xs = x.ctx, ((),), [sorted(x.num.items())]
    else:
        ring = x.ctx
        ctx, forms, xs = ring.ctx, ring.forms, x._h_items()

    def times_x(power):
        return _horner(ctx, forms, xs, [p.items() for p in power])

    multipliers, den = _scaled_coefficients(coeff_fn, x.den, ctx.truncation + len(forms))
    unit = [{0: 1}, *({} for _ in forms[1:])]
    total = _power_series_sum(multipliers, unit, times_x)
    if isinstance(x, GradedSeries):
        return GradedSeries._trusted(ctx, {k: c for k, c in total[0].items() if c}, den)
    return ring.newton_element(total, den)


def exp_coefficient(k: int) -> Fraction:
    """Coefficient of x^k in e^x: 1 / k!."""
    return Fraction(1, math.factorial(k))


def exp(x):
    """exp of a series or bundle element without constant term."""
    return apply_power_series(exp_coefficient, x)


def times_exp_linear_form(series, coeffs) -> GradedSeries:
    """series * e^(sum_p coeffs[p] t_p) for integer coeffs, one variable at a time.

    e^(c t_p) = sum_k c^k t_p^k / k!, so each term t^e spreads along t_p, up to
    degree N, with numerators c^k N!/k! over N!: no exp series, no dense product.
    """
    ctx = series.ctx
    if len(coeffs) != ctx.rank:
        raise ValueError(f"expected {ctx.rank} coefficients")
    if not any(coeffs):
        return series
    n, top = ctx.truncation, ctx.top
    num, den, scale = series.num, series.den, math.factorial(n)
    for place, c in zip(ctx.places, coeffs):
        if not c:
            continue
        weights = [scale]  # c^k N!/k!, k = 0..N; each division is exact
        for k in range(1, n + 1):
            weights.append(weights[-1] * c // k)
        runs = [weights[: n + 1 - d] for d in range(n + 1)]  # t_p^k stays in degree <= N
        out = {}
        get = out.get
        for key, v in num.items():
            for w in runs[key // top]:
                out[key] = get(key, 0) + v * w
                key += place
        num, den = {k: v for k, v in out.items() if v}, den * scale
    return GradedSeries._trusted(ctx, num, den)


# ---------------------------------------------------------------------------
# Bernoulli numbers and the coefficients of the Todd factor x/(1 - e^(-x))


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


def todd_inverse_coefficient(k: int) -> Fraction:
    """Coefficient of x^k in (1 - e^(-x))/x, the inverse Todd factor: (-1)^k / (k+1)!."""
    return Fraction((-1) ** k, math.factorial(k + 1))


# ---------------------------------------------------------------------------
# The projective-bundle quotient ring


def _newton_slots(forms, coords, ctx):
    """The h-basis view: the h-coefficient dicts, low degree first, of sum_m coords[m].N_m.

    forms[i] is l_i as (series key, coefficient) items, coords[m] a dict
    {series key: numerator}; zeros are kept.  Horner's rule from the top
    coordinate down.
    """
    bound, y = ctx.limit - ctx.top, [dict(coords[-1])]  # degree N times a form leaves the ring
    for m in range(len(coords) - 2, -1, -1):
        # h.y moves every slot up one, and l_m times slot k + 1 of y lands in slot k
        y = [dict(coords[m]), *y]
        for out, here in zip(y, y[1:]):
            get = out.get
            for k, c in here.items():
                if k < bound:
                    for p, e in forms[m]:
                        out[k + p] = get(k + p, 0) + c * e
    return y


def root_series_coordinates(ring, factors):
    """(c, den): prod_r f_r(x_r) = sum_m c[m].N_m / den, for pairs (coeff_fn, (k, chi)).

    f_r = sum_j coeff_fn(j) x^j at the Chern root x_r = k.h + chi.t of a K-class
    key: integers, chi of the ring's rank or () (else ValueError).  c[m] is a
    dict {series key: numerator}, zeros dropped, over the least common den.
    Built in Newton coordinates (module docstring); each root's series is
    summed in one loop: a step takes the power y to x.y coordinate by
    coordinate, from the top down, so that N_(m-1)'s old value is still there
    to shift, and adds multiplier * power into the running total.  A zero
    root whose series starts at 1 (the Euler sequence's -O) is the factor 1
    and is skipped; an empty coordinate with nothing to shift into it stays
    empty untouched; a one-term form is applied without an inner loop.
    """
    ctx, weights = ring.ctx, ring.weights
    count, bound, top = ctx.truncation + len(weights), ctx.limit - ctx.top, len(weights) - 1
    coords, den = [{0: 1}, *({} for _ in weights[1:])], 1
    for coeff_fn, (a, chi) in factors:
        chi = chi or (0,) * ctx.rank
        if len(chi) != ctx.rank:
            raise ValueError(f"expected {ctx.rank} coefficients")
        multipliers, d = _scaled_coefficients(coeff_fn, 1, count)
        if not (a or any(chi)) and multipliers[0] == d:
            continue  # the factor 1 of a zero root, such as the Euler sequence's -O
        # x = a.(h + l_m) + (chi - a.w_m).t: the second part keeps N_m
        forms = [
            [(p, e) for p, c, w in zip(ctx.places, chi, wm) if (e := c - a * w)] for wm in weights
        ]
        m = multipliers[0]
        power, total = coords, [{k: m * c for k, c in u.items()} for u in coords]
        for m in multipliers[1:]:
            # the top coordinate's shift lands on N_(n+1) = 0; with a = 0 nothing shifts
            for i in range(top, -1, -1):
                here, below = power[i], power[i - 1] if i and a else {}
                if not (here or below):
                    continue  # a coordinate that is still, or already, empty stays so
                out = dict(below) if a == 1 else {k: a * c for k, c in below.items()}
                get, f = out.get, forms[i]
                if len(f) == 1:
                    [(p, e)] = f
                    for k, c in here.items():
                        if k < bound:  # a key of degree N times a linear form leaves the ring
                            out[k + p] = get(k + p, 0) + c * e
                elif f:
                    for k, c in here.items():
                        if k < bound:
                            for p, e in f:
                                q = k + p
                                out[q] = get(q, 0) + c * e
                power[i] = out
                if m:
                    t = total[i]
                    tget = t.get
                    for k, c in out.items():
                        t[k] = tget(k, 0) + m * c
            if not any(power):
                break
        coords, den = total, den * d
    g = math.gcd(den, *(c for u in coords for c in u.values()))
    return [{k: c // g for k, c in u.items() if c} for u in coords], den // g


def segre_series(ring, degree) -> GradedSeries:
    """S_0 = prod_i 1/(1 + l_i) through degree min(degree, N), on integer numerators.

    Its degree-i part is pushforward(h^(n+i)) (Fulton, *Intersection Theory*,
    Section 3.1).  Each weight divides by 1 + l in one pass by degree,
    T_d = S_d - l.T_(d-1), in place from degree 1 up.
    """
    ctx = ring.ctx
    parts = [{0: 1}] + [{} for _ in range(min(degree, ctx.truncation))]  # by degree
    for form in ring.forms:
        for below, out in zip(parts, parts[1:]):
            get = out.get
            for k, c in below.items():
                for p, e in form:
                    out[k + p] = get(k + p, 0) - e * c
    return GradedSeries._trusted(ctx, {k: c for part in parts for k, c in part.items() if c}, 1)


def segre_pushforward(ring, coeffs) -> GradedSeries:
    """pushforward(sum_k coeffs[k].h^k) = sum_(k >= n) coeffs[k].[S_0]_(k - n), any degree.

    coeffs are integers, Fractions or series of the ring.  On P^1 with weights
    (1, -1), S_0 = 1/(1 - t^2), so this is the odd part (p(t) - p(-t))/(2t).
    """
    n, zero = len(ring.weights) - 1, GradedSeries.zero(ring.rank, ring.truncation)
    s = segre_series(ring, len(coeffs) - 1 - n)
    return sum((s.component(i) * c for i, c in enumerate(coeffs[n:])), zero)


def newton_moments(ring, coords, count) -> list:
    """The numerators {series key: int} of mu_p = pushforward(h^p.y), p < count, over y's den.

    y = sum_m coords[m].N_m.  pushforward(N_m.h^k) is the degree-(k - n + m)
    part of the Segre tail S_m = prod_(i >= m) 1/(1 + l_i) = S_0.prod_(i<m)(1 + l_i),
    the Segre series of the last n + 1 - m lines, so
    mu_p = sum_m c_m.[S_m]_(p - n + m): one product of c_m by S_m per
    coordinate, each part [S_m]_d landing in bucket p = d + n - m.  No mu_p
    with p < count reads S_0 past degree count - 1, so S_0 stops there, and
    the tails are exact where they are read.
    """
    ctx, n = ring.ctx, len(ring.weights) - 1
    limit, top = ctx.limit, ctx.top
    moments = [{} for _ in range(count)]
    tail = segre_series(ring, count - 1)
    for m, c in enumerate(coords):
        if m:
            # GradedSeries products on purpose: perfbench/test_perfbench.py expects
            # an hrr job to trace one
            tail = tail * GradedSeries._trusted(ctx, {0: 1, **dict(ring.forms[m - 1])}, 1)
        if not c:
            continue
        items = sorted(c.items())
        for d, part in groupby(sorted(tail.num.items()), key=lambda kv: kv[0] // top):
            if d + n - m >= count:
                break
            _convolve(part, items, limit, moments[d + n - m])
    return [{k: v for k, v in mu.items() if v} for mu in moments]


class BundleRing:
    """The quotient (truncated series ring)[h] / prod_i(h + w_i.t) for fixed weights.

    The context of its elements: the weights, the ``SeriesRing`` of their
    coefficients and the linear forms l_i = w_i.t as (series key, coefficient)
    items, all that Newton coordinates need; the relation is never stored.
    """

    __slots__ = ("weights", "ctx", "forms")

    def __init__(self, weights, rank, truncation):
        self.weights = tuple(tuple(int(c) for c in w) for w in weights)
        if not self.weights:
            raise ValueError("a bundle ring needs at least one weight")
        self.ctx = series_ring(rank, truncation)
        places = self.ctx.places if truncation else ()  # a linear form is 0 at truncation 0
        self.forms = tuple(tuple((p, e) for p, e in zip(places, w) if e) for w in self.weights)

    @property
    def rank(self):
        return self.ctx.rank

    @property
    def truncation(self):
        return self.ctx.truncation

    def _key(self):
        return self.weights, self.ctx

    def __eq__(self, other):
        return isinstance(other, BundleRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"BundleRing({self.weights}, {self.rank}, {self.truncation})"

    def one(self) -> BundleRingElement:
        return BundleRingElement._trusted(self, {0: 1}, 1)

    def embed(self, value) -> BundleRingElement:
        """Lift a scalar or base series into this ring (N_0 = 1 keys are series keys)."""
        if isinstance(value, (int, Fraction)):
            value = GradedSeries.const(self.rank, self.truncation, value)
        self._check_series(value)
        return BundleRingElement._trusted(self, dict(value.num), value.den)

    def hyperplane(self) -> BundleRingElement:
        """The class h = N_1 - l_0."""
        if len(self.weights) < 2:
            raise ValueError("need at least two weights for a positive-dimensional model")
        num = {p: -e for p, e in self.forms[0]}
        num[self.ctx.limit] = 1
        return BundleRingElement._trusted(self, num, 1)

    def _check_series(self, c):
        if not isinstance(c, GradedSeries) or c.ctx != self.ctx:
            raise ValueError("coefficients must be series of matching rank/truncation")

    def newton_element(self, coords, den) -> BundleRingElement:
        """The element sum_m coords[m].N_m / den, coords[m] a dict {series key: numerator}."""
        limit = self.ctx.limit
        num = {m * limit + k: c for m, u in enumerate(coords) for k, c in u.items() if c}
        return BundleRingElement._trusted(self, num, den)


class BundleRingElement(SparseElement):
    """Element of (truncated series ring)[h] / prod_i(h + w_i.t), in Newton coordinates.

    Its ``ctx`` is its ``BundleRing``; t^e.N_m is keyed by m.limit + key(t^e).
    Add, negate, scalar multiply, powers, equality and hashing are the core's.
    """

    __slots__ = ()

    def __init__(self, ring: BundleRing, coeffs):
        """At most n+1 series of the ring's rank and truncation, low h-degree first."""
        coeffs = list(coeffs)
        if len(coeffs) > len(ring.weights):
            raise ValueError("coefficients exceed the reduced h-degree bound")
        for c in coeffs:
            ring._check_series(c)
        x = reduce(coeffs, ring)
        self.ctx, self.num, self.den = ring, x.num, x.den

    @staticmethod
    def _unit_key(ctx):
        return 0

    def _lift(self, other):
        if isinstance(other, GradedSeries):
            return self.ctx.embed(other)
        return super()._lift(other)

    @property
    def ring(self):
        return self.ctx

    def _coordinates(self):
        """The Newton coordinates c_0..c_n as dicts {series key: numerator}."""
        limit, coords = self.ctx.ctx.limit, [{} for _ in self.ctx.weights]
        for key, c in self.num.items():
            m, key = divmod(key, limit)
            coords[m][key] = c
        return coords

    def _h_items(self):
        """The h-basis view: sorted (series key, numerator) lists over den, low h-degree first."""
        ring = self.ctx
        slots = _newton_slots(ring.forms, self._coordinates(), ring.ctx)
        return [sorted((k, c) for k, c in s.items() if c) for s in slots]

    @property
    def coeffs(self):
        """The h-coefficients, low degree first, as canonical series; built on every access."""
        ctx, den = self.ctx.ctx, self.den
        return tuple(GradedSeries._trusted(ctx, dict(s), den) for s in self._h_items())

    constant_term = GradedSeries.constant_term  # N_m has no constant term for m > 0

    def __mul__(self, other):
        if isinstance(other, GradedSeries):
            other = self._lift(other)
        if type(other) is not BundleRingElement:
            return super().__mul__(other)
        self._check(other)
        ring = self.ctx
        coords = [u.items() for u in other._coordinates()]
        z = _horner(ring.ctx, ring.forms, self._h_items(), coords)
        return ring.newton_element(z, self.den * other.den)

    __rmul__ = __mul__

    def __str__(self):
        """Terms of the h-basis view by total degree, then t-exponents, then h-degree."""
        ctx = self.ctx.ctx
        limit, top = ctx.limit, ctx.top
        # h^k.t^e is keyed K = k.limit + |e|.top + digits(e); its t-digits read
        # as a series key's, since limit is a multiple of B.digit
        num = {k * limit + key: c for k, s in enumerate(self._h_items()) for key, c in s}
        keys = sorted(num, key=lambda K: (K // limit + K % limit // top, K % top, K // limit))
        return terms_string(
            variable_names("t", ctx.rank) + ["h"],
            ctx.columns(keys) + [[K // limit for K in keys]],
            list(map(num.__getitem__, keys)),
            self.den,
        )

    __repr__ = __str__


def reduce(poly_coeffs, ring: BundleRing) -> BundleRingElement:
    """Reduce an h-polynomial (list of series, low degree first) modulo the ring's relation.

    Scalars are lifted to constant series.  The result's Newton coordinates
    are ``_horner``'s product of the polynomial by N_0 = 1, any h-degree.
    """
    coeffs = [
        c if isinstance(c, GradedSeries) else GradedSeries.const(ring.rank, ring.truncation, c)
        for c in poly_coeffs
    ]
    for c in coeffs:
        ring._check_series(c)
    den = math.lcm(*(c.den for c in coeffs))
    hs = [sorted((k, p * (den // c.den)) for k, p in c.num.items()) for c in coeffs]
    return ring.newton_element(_horner(ring.ctx, ring.forms, hs, [[(0, 1)]]), den)


def pushforward(p: BundleRingElement) -> GradedSeries:
    """Proper pushforward to the base: pi_*(sum_m c_m.N_m) = c_n, the h^n coefficient.

    N_n is the class of a point and pushes to 1; N_m for m < n pushes to 0.
    A class of pure total degree d maps to a class of pure degree d - n.
    """
    if not isinstance(p, BundleRingElement):
        raise ValueError("pushforward expects a reduced bundle ring element")
    return GradedSeries._trusted(p.ctx.ctx, p._coordinates()[-1], p.den)
