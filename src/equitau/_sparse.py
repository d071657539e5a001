"""The sparse core shared by series, bundle-ring and representation-ring elements.

An element is ``(ctx, num, den)``: a ring context, a dict ``num`` from keys to
nonzero ints, and a positive int ``den``, standing for sum_k num[k] * x^k / den.
The form is canonical: gcd(den, *num.values()) == 1, and den == 1 for zero,
so equality and hashing compare (ctx, den, num) directly.

What a key is belongs to the subclass: a packed monomial of a ``SeriesRing``
for ``GradedSeries``; m.limit + (that packed key) for a monomial times the
Newton class N_m in a ``BundleRingElement``, whose ctx is its ``BundleRing``;
a reduced coordinate tuple for ``RepRingElement``.  The core only adds,
negates and scales numerators under equal keys.  Its one hook is
``_unit_key(ctx)``, the key of the constant 1.  Each subclass adds its public
constructor, its product kernel (in ``__mul__``, deferring scalars to the
core) and its rendering.
"""

from __future__ import annotations

import math
from fractions import Fraction


class SparseElement:
    """Integer numerators over one denominator, on the keys of a ring context."""

    __slots__ = ("ctx", "num", "den")

    @classmethod
    def _trusted(cls, ctx, num, den):
        """The element num / den over ctx, brought to canonical form by one gcd.

        Only for nonzero int numerators on valid keys and a positive den; the
        dict is taken over, not copied.
        """
        if den != 1:  # over den 1 the form is canonical as it stands
            g = math.gcd(den, *num.values())
            if g != 1:  # for zero g == den, so den becomes 1
                den //= g
                num = {k: c // g for k, c in num.items()}
        element = object.__new__(cls)
        element.ctx = ctx
        element.num = num
        element.den = den
        return element

    @staticmethod
    def _unit_key(ctx):
        """The key of the constant 1 in ctx."""
        raise NotImplementedError

    def _one(self):
        return self._trusted(self.ctx, {self._unit_key(self.ctx): 1}, 1)

    def is_zero(self):
        return not self.num

    def _check(self, other):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError(f"elements over different rings: {self.ctx} and {other.ctx}")

    def _lift(self, other):
        """other as an element of this ring (a scalar becomes a constant), or None."""
        if type(other) is type(self):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            num = {self._unit_key(self.ctx): other.numerator} if other else {}
            return self._trusted(self.ctx, num, other.denominator)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        num = {k: c * m1 for k, c in self.num.items()} if m1 != 1 else dict(self.num)
        for k, c in other.num.items():
            s = num.get(k, 0) + c * m2
            if s:
                num[k] = s
            else:
                del num[k]
        return self._trusted(self.ctx, num, den)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(self.ctx, {k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        """Scalar multiply; subclasses handle their own elements first."""
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        p = scalar.numerator
        num = {k: c * p for k, c in self.num.items()} if p else {}
        return self._trusted(self.ctx, num, self.den * scalar.denominator)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self ** k by repeated squaring, for k >= 0."""
        if k < 0:
            raise ValueError(f"negative power {k}: only nonnegative powers are defined")
        result, base = None, self
        while k:
            if k & 1:  # the first set bit takes the base as it is
                result = base if result is None else result * base
            k >>= 1
            if k:  # no squaring past the top bit
                base = base * base
        return self._one() if result is None else result

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.den == other.den
            and self.num == other.num
            and self.ctx == other.ctx
        )

    def __hash__(self):
        return hash((self.ctx, self.den, frozenset(self.num.items())))
