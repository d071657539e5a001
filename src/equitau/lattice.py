"""Finitely generated abelian groups and their duality with diagonalizable groups.

A diagonalizable group is encoded by its character group N, a finitely
generated abelian group in invariant-factor form.  An element of N, a weight,
is a plain coordinate tuple with its torsion coordinates reduced to [0, d)
(``GroupDescriptor.reduce_coords``); the group is held beside it, never in it.
Everything here is exact integer (or rational) arithmetic: Smith normal form
with transforms, quotients, and kernels of rational character points.

Generator convention: free generators first, then torsion generators in
divisibility-chain order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mod


@dataclass(frozen=True)
class GroupDescriptor:
    """N = Z^free_rank + Z/d_1 + ... + Z/d_s with d_1 | d_2 | ... | d_s, d_i >= 2."""

    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        object.__setattr__(self, "torsion_orders", tuple(self.torsion_orders))
        for d in self.torsion_orders:
            if d < 2:
                raise ValueError(f"torsion order {d} < 2")
        for a, b in zip(self.torsion_orders, self.torsion_orders[1:]):
            if b % a != 0:
                raise ValueError(f"torsion orders {self.torsion_orders} violate the divisibility chain")

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    @property
    def is_free(self) -> bool:
        return not self.torsion_orders

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        """Group order; raises for infinite groups."""
        if not self.is_finite:
            raise ValueError("group is infinite")
        return math.prod(self.torsion_orders)

    def reduce_coords(self, coords) -> tuple[int, ...]:
        coords = tuple(map(int, coords))
        if len(coords) != self.ngens:
            raise ValueError(f"expected {self.ngens} coordinates, got {len(coords)}")
        if not self.torsion_orders:
            return coords
        r = self.free_rank
        return coords[:r] + tuple(map(mod, coords[r:], self.torsion_orders))

    def elements(self):
        """Iterate over all elements of a finite group as reduced coordinate tuples."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        return product(*(range(d) for d in self.torsion_orders))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion_orders)
        return " x ".join(parts) if parts else "1"


@dataclass(frozen=True)
class TorsionCharacterPoint:
    """A homomorphism N -> Q/Z given by one exact rational value per generator.

    Rational values always have finite order in Q/Z, so the image is finite.
    Values on a torsion generator of order d must satisfy d*value in Z.
    """

    group: GroupDescriptor
    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) % 1 for v in self.values)
        if len(vals) != self.group.ngens:
            raise ValueError(f"expected {self.group.ngens} values, got {len(vals)}")
        r = self.group.free_rank
        for v, d in zip(vals[r:], self.group.torsion_orders):
            if (d * v).denominator != 1:
                raise ValueError(f"value {v} invalid on a torsion generator of order {d}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def _trusted(cls, group: GroupDescriptor, values: tuple[Fraction, ...]):
        """The point with these values, unchecked: only for one Fraction in [0, 1)
        per generator, with d * value integral on a torsion generator of order d."""
        point = object.__new__(cls)
        object.__setattr__(point, "group", group)
        object.__setattr__(point, "values", values)
        return point

    def __call__(self, w) -> Fraction:
        coords = self.group.reduce_coords(w)
        return sum((c * v for c, v in zip(coords, self.values)), Fraction(0)) % 1

    def order(self) -> int:
        """Order of the point in the character group (= order of its image in Q/Z)."""
        return math.lcm(*(v.denominator for v in self.values)) if self.values else 1

    @staticmethod
    def zero(group: GroupDescriptor) -> TorsionCharacterPoint:
        return TorsionCharacterPoint(group, (Fraction(0),) * group.ngens)


# ---------------------------------------------------------------------------
# Smith normal form


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Smith normal form of an integer matrix.

    Returns (factors, U, V) with U*mat*V diagonal, U and V unimodular, and
    factors the full diagonal (length min(m, n), nonnegative, each dividing
    the next with zeros last).  Empty matrices give empty factors.

    >>> smith_normal_form([[2, 0], [0, 3]])[0]
    [1, 6]
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)
    if m == 0 or n == 0:
        return [], u, v

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def smallest_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = smallest_pivot(t)
        if pos is None:
            break
        while True:
            pos = smallest_pivot(t)
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # force a[t][t] to divide the remaining submatrix
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    factors = [a[i][i] for i in range(min(m, n))]
    return factors, u, v


def integer_kernel_basis(mat):
    """Basis of {x in Z^n : mat*x = 0} as a list of length-n integer vectors."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if m == 0:
        return [list(row) for row in _identity(n)]
    factors, _, v = smith_normal_form(mat)
    rank = sum(1 for d in factors if d != 0)
    return [[v[i][j] for i in range(n)] for j in range(rank, n)]


# ---------------------------------------------------------------------------
# Quotients and character-point kernels


def _relation_matrix(group: GroupDescriptor, generators) -> list[list[int]]:
    """Columns spanning the sublattice of Z^ngens that dies in N/<generators>."""
    k = group.ngens
    r = group.free_rank
    cols = []
    for i, d in enumerate(group.torsion_orders):
        col = [0] * k
        col[r + i] = d
        cols.append(col)
    for g in generators:
        cols.append(list(group.reduce_coords(g)))
    if not cols:
        return [[0] for _ in range(k)] if k else []
    return [[col[i] for col in cols] for i in range(k)]


def quotient_with_projection(group: GroupDescriptor, generators):
    """Invariant-factor form of N/<generators> plus the projection map N -> N/K.

    Returns (descriptor, project) where project maps a coordinate tuple of N
    to the reduced coordinate tuple of its image in the quotient.
    """
    k = group.ngens
    if k == 0:
        return GroupDescriptor(0, ()), lambda w: ()
    b = _relation_matrix(group, generators)
    factors, u, _ = smith_normal_form(b)
    ncols = len(b[0])
    free_idx = [i for i, d in enumerate(factors) if d == 0] + list(range(min(k, ncols), k))
    torsion_idx = [i for i, d in enumerate(factors) if d >= 2]
    quotient = GroupDescriptor(len(free_idx), tuple(factors[i] for i in torsion_idx))

    def project(w):
        coords = group.reduce_coords(w)
        y = [sum(u[i][j] * coords[j] for j in range(k)) for i in range(k)]
        return quotient.reduce_coords([y[i] for i in free_idx] + [y[i] for i in torsion_idx])

    return quotient, project


def quotient_group(group: GroupDescriptor, generators) -> GroupDescriptor:
    """Invariant-factor form of N modulo the subgroup generated by the given weights.

    >>> str(quotient_group(GroupDescriptor(0, (6,)), [(3,)]))
    'Z/3'
    """
    return quotient_with_projection(group, generators)[0]


def kernel_of_character_point(group: GroupDescriptor, point: TorsionCharacterPoint):
    """Generating weights of {n in N : point(n) = 0 in Q/Z}, as reduced coordinate tuples."""
    if point.group != group:
        raise ValueError("character point over a different group")
    k = group.ngens
    if k == 0:
        return []
    lcm = point.order()
    row = [int(v * lcm) for v in point.values] + [lcm]
    basis = integer_kernel_basis([row])
    return [group.reduce_coords(vec[:k]) for vec in basis]
