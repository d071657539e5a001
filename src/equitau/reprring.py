"""Representation rings of diagonalizable groups as Laurent group algebras.

R(G) = Z[N] for the character group N: elements are finite combinations of
weights, stored sparsely.  Includes the augmentation (virtual rank), the
alternating classes lambda_{-1}(V) = prod(1 - chi_i), the Chern character
into truncated graded series (tori only), the generators e_i - C(n, i) of the
rank-0 ideal of R(GL_n) inside the rank-n torus ring, the Segal target
(t_1 - 1)^d with those generators (``segal_certificate``, behind the CLI's
``segal``), and a bounded cofactor search that produces explicit,
re-verified ideal-membership certificates.

The Chern character sends chi_w to exp(w.t) and is computed in closed form:
the coefficient of t^e in ch(sum_w c_w chi_w) is

    (sum_w c_w * prod_i w_i^e_i) / prod_i e_i!

for every exponent vector e of total degree <= N.

An element is a ``_sparse.SparseElement`` over its ``GroupDescriptor``:
integer numerators on reduced coordinate tuples over one denominator, in
canonical form.  Add, negate, scalar multiply, powers, equality and hashing
are the core's; this module adds the product kernel, which adds coordinate
tuples with ``map(add, ...)`` and reduces them only over a group with
torsion, the public constructor, which reduces coordinates and merges what
coincides, and the rendering (``print_keys`` sums heights by columns).
``terms``, ``coefficient`` and ``augmentation`` are views that give an int
where the value is integral and a ``Fraction`` otherwise.

The Chern character is built without any ``Fraction``: for a = sum_w n_w
chi_w / D as stored, the numerator of t^e is (sum_w n_w w^e) * (N! / e!)
over the shared denominator D * N!, handed to ``gradedring`` on packed
keys.  Its cost follows runs of weights, not weights times monomials: the
weights are sorted by their reversed coordinates, so those that share
coordinates i+1.. are contiguous, and once the exponent of t_i is fixed,
each run is summed into one value (sliced sums, skipped where no run has
two weights) before the walk descends; the last coordinate's exponents
are looped in place.  ``augmentation_order`` walks the same runs, with no
key, factorial or series, for the least |e| with a nonzero moment
sum_w n_w w^e (t^e's coefficient times D e!), only below the least found
so far.  No exp series is built;
``riemannroch.hrr_chi`` twists by the e^L of a character through
``gradedring.times_exp_linear_form``, and ``riemannroch.weyl_closed_form``
sums powers k^e in its own code, so the section-oracle checks compare
independent routes.

The certificate search keys its linear system by monomials packed into one
int each, solves it modulo the prime 2^61 - 1 in one forward elimination
that takes the shortest rows first, lifts each value by rational
reconstruction and checks every equation exactly.  An inconsistent system
is reported only with a Farkas vector y (y.A = 0, y.b = 1), read off the
same elimination's record of pivot rows and multipliers, lifted the same
way and checked exactly; when a lift or a check fails, the same
elimination runs once more, modulo a Mersenne prime past twice the squared
Hadamard bound, and that answer lifts.
The search re-expands sum_i c_i g_i before it returns a certificate.

A failed certificate search is only "nothing found within the bound" and is
never evidence of non-membership.  ``segal_certificate`` therefore decides a
non-member first: (t_1 - 1)^d with d < n has a nonzero normal form modulo the
GL_n ideal (``segal_normal_form``), so it is in no box, and no system is built.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations, compress, product
from operator import add, itemgetter, mul, ne, sub

from ._format import monomial_texts, term_table, terms_text, variable_names
from ._sparse import SparseElement
from .gradedring import GradedSeries, series_ring
from .lattice import GroupDescriptor


def _value(p, den):
    """p / den as an int when it is integral, else as a Fraction."""
    return p // den if p % den == 0 else Fraction(p, den)


class RepRingElement(SparseElement):
    """Sparse element of Z[N]: integer numerators on reduced coordinate tuples over one denominator.

    Coefficients are integers for honest virtual representations; exact
    rationals are admitted so ideal-membership cofactors live in the same
    type.
    """

    __slots__ = ()

    def __init__(self, group: GroupDescriptor, terms=None):
        clean = {}
        for coords, c in (terms or {}).items():
            coords = group.reduce_coords(coords)
            clean[coords] = clean.get(coords, 0) + c
        # ints have .numerator and .denominator too, so none is converted; over
        # the lcm of reduced denominators, the numerators share no factor with it
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.ctx = group
        self.num = {k: c.numerator * (den // c.denominator) for k, c in clean.items() if c}
        self.den = den

    @staticmethod
    def _unit_key(group):
        return (0,) * group.ngens

    @property
    def group(self) -> GroupDescriptor:
        return self.ctx

    @property
    def terms(self):
        """{coordinate tuple: nonzero coefficient}, an int where it is integral."""
        den = self.den
        if den == 1:
            return dict(self.num)
        return {k: _value(c, den) for k, c in self.num.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(group):
        return RepRingElement._trusted(group, {}, 1)

    @staticmethod
    def one(group):
        return RepRingElement._trusted(group, {RepRingElement._unit_key(group): 1}, 1)

    @staticmethod
    def character(group, weight):
        return RepRingElement(group, {tuple(weight): 1})

    # -- ring structure -----------------------------------------------------

    def __mul__(self, other):
        if type(other) is not RepRingElement:
            return super().__mul__(other)
        self._check(other)
        group = self.ctx
        reduce_coords = None if group.is_free else group.reduce_coords
        right = list(other.num.items())
        num = {}
        for k1, c1 in self.num.items():
            for k2, c2 in right:
                k = tuple(map(add, k1, k2))
                if reduce_coords is not None:
                    k = reduce_coords(k)
                num[k] = num.get(k, 0) + c1 * c2
        return RepRingElement._trusted(
            group, {k: c for k, c in num.items() if c}, self.den * other.den
        )

    __rmul__ = __mul__

    def coefficient(self, coords):
        return _value(self.num.get(self.ctx.reduce_coords(coords), 0), self.den)

    def augmentation(self):
        """Virtual rank: the sum of all coefficients."""
        return _value(sum(self.num.values()), self.den)

    # -- rendering ----------------------------------------------------------

    def print_keys(self):
        """The keys of the terms in print order: total coordinate height, then descending lex."""
        heights = [0] * len(self.num)  # minus each key's height, a coordinate column at a time
        for column in zip(*self.num):
            heights = list(map(sub, heights, map(abs, column)))
        return list(map(itemgetter(1), sorted(zip(heights, self.num), reverse=True)))

    def term_table(self):
        """``_format.term_table`` of the terms in ``print_keys`` order: what the CLI renders."""
        return term_table(self.num, self.print_keys(), self.den)

    def text(self, table=None):
        """``str(self)``, or from ``table``, its ``term_table()``, which the CLI reads too."""
        keys = (table := table or self.term_table())[0]
        names = variable_names("u", self.ctx.ngens)
        return terms_text(monomial_texts(names, list(zip(*keys)), len(keys)), table)

    __str__ = __repr__ = text


def lambda_minus_one(group: GroupDescriptor, weights) -> RepRingElement:
    """The class sum_k (-1)^k Lambda^k V = prod_i (1 - chi_{w_i}).

    Augmentation 0 whenever the weight list is nonempty; the empty product
    is 1.  Built on one integer dict, num <- num - chi_w.num per weight.
    """
    reduce_coords, num = group.reduce_coords, {RepRingElement._unit_key(group): 1}
    for w in weights:
        w = reduce_coords(w)
        out = dict(num)
        for k, c in num.items():
            k = reduce_coords(map(add, k, w))
            out[k] = out.get(k, 0) - c
        num = {k: c for k, c in out.items() if c}
    return RepRingElement._trusted(group, num, 1)


def _weight_runs(a: RepRingElement, truncation: int):
    """(values, columns, runs) of a over a torus: its numerators on the weights sorted by
    reversed coordinates; columns[i], coordinate i of the distinct tails (w_i, ..);
    runs[i], the slices of them sharing w_(i+1).., or None where all of those differ."""
    group = a.group
    if not group.is_free:
        raise ValueError("Chern character requires a torus (free character lattice)")
    if truncation < 0:
        raise ValueError("rank and truncation must be nonnegative")
    rank = group.ngens
    tails = sorted(a.num, key=lambda w: w[::-1]) if rank > 1 else list(a.num)
    values = list(map(a.num.__getitem__, tails))
    columns, runs = [], []
    for _ in range(rank - 1):
        columns.append(list(map(itemgetter(0), tails)))
        tails = list(map(itemgetter(slice(1, None)), tails))
        starts = list(compress(range(len(tails)), map(ne, tails, chain((None,), tails))))
        ends = starts[1:] + [len(tails)]
        runs.append(None if len(starts) == len(tails) else list(map(slice, starts, ends)))
        tails = list(map(tails.__getitem__, starts))
    if rank:
        columns.append(list(map(itemgetter(0), tails)))
    return values, columns, runs


def chern_character(a: RepRingElement, truncation: int) -> GradedSeries:
    """Ring homomorphism into truncated series: each weight w maps to exp(w.t).

    Only defined over a free character lattice (a torus).  Closed form, by
    runs of weights (module docstring): integer numerators over D * N!, where
    a = sum_w n_w chi_w / D is stored, on the packed keys sum_i e_i places[i]
    of ``gradedring.SeriesRing``; the numerator of t^e is
    (sum_w n_w w^e) * (N! / e!).
    """
    values, columns, runs = _weight_runs(a, truncation)
    ctx = series_ring(len(columns), truncation)
    if not columns:  # rank 0: the constant 1 is the only monomial
        total = sum(values)
        return GradedSeries._trusted(ctx, {0: total} if total else {}, a.den)
    places, top, last = ctx.places, math.factorial(truncation), len(columns) - 1
    num = {}

    def walk(i, key, values, scale, room):
        # values[j]: run j's sum of n_w w^e over the fixed exponents e; key:
        # their packed key; scale: N! over the product of their factorials
        column, place, merge = columns[i], places[i], i < last and runs[i]
        for e in range(room + 1):
            if e:
                values = list(map(mul, values, column))
                scale //= e
                key += place
            if i == last and (value := sum(values)):
                num[key] = value * scale
            elif not any(values):  # so is every later monomial of this branch
                return
            elif i < last:
                merged = list(map(sum, map(values.__getitem__, merge))) if merge else values
                walk(i + 1, key, merged, scale, room - e)

    walk(0, 0, values, top, truncation)
    del walk  # its cell refers to it: break the cycle, so refcounting frees the branch state
    return GradedSeries._trusted(ctx, num, a.den * top)


def augmentation_order(a: RepRingElement, truncation: int):
    """Adic order of `a` along the augmentation ideal, read from its Chern character.

    Returns the smallest degree k <= truncation with a nonzero component, or
    None when every component up to the truncation vanishes (order >= N+1).
    Errors as ``chern_character``; by moments alone (module docstring).
    """
    values, columns, runs = _weight_runs(a, truncation)
    if not columns:  # rank 0
        return 0 if sum(values) else None
    last, best = len(columns) - 1, truncation + 1

    def walk(i, values, degree):
        nonlocal best  # as in chern_character, with degree the fixed exponents' total
        column, merge = columns[i], i < last and runs[i]
        for e in range(best - degree):
            if e:
                if degree + e >= best:  # a branch below found a lower order
                    return
                values = list(map(mul, values, column))
            if i == last and sum(values):
                best = degree + e
                return
            elif not any(values):  # so is every later moment of this branch
                return
            elif i < last:
                merged = list(map(sum, map(values.__getitem__, merge))) if merge else values
                walk(i + 1, merged, degree + e)

    walk(0, values, 0)
    del walk  # as in chern_character
    return best if best <= truncation else None


# ---------------------------------------------------------------------------
# The rank-0 ideal of R(GL_n) inside the torus ring


def torus_group(rank: int) -> GroupDescriptor:
    return GroupDescriptor(rank, ())


def elementary_symmetric_character(n: int, i: int) -> RepRingElement:
    """e_i(t_1..t_n) as an element of the rank-n torus ring."""
    terms = {}
    for subset in combinations(range(n), i):
        coords = [0] * n
        for j in subset:
            coords[j] = 1
        terms[tuple(coords)] = 1
    # torus coordinates are reduced as they stand, and the 0/1 tuples are distinct
    return RepRingElement._trusted(torus_group(n), terms, 1)


def gl_augmentation_generators(n: int) -> list[RepRingElement]:
    """Generators of the rank-0 ideal of R(GL_n) inside the rank-n torus ring.

    The augmentation ideal of Z[e_1..e_n, e_n^(-1)] maps onto the ideal
    generated by e_i - C(n, i); the unit e_n^(-1) contributes nothing new.
    """
    return [
        elementary_symmetric_character(n, i) - math.comb(n, i)
        for i in range(1, n + 1)
    ]


# The largest Segal degree d whose target's largest coefficient, C(d, d // 2), has at most
# 4,300 digits, the default limit of Python's int-to-str conversion.
SEGAL_DEGREE_LIMIT = 14291


def segal_certificate(n: int, degree: int, bound: int | None = None):
    """Certificate that (t_1 - 1)^degree lies in the rank-0 GL_n ideal of the torus ring.

    Default search bound: exponents in [-(degree - 1), degree - 1].  A degree past
    ``SEGAL_DEGREE_LIMIT`` raises ValueError before anything is built, as does a box
    past the size guards.  Past them, a non-member (degree < n) has a nonzero normal
    form (``segal_normal_form``): its cofactors are None, and no system is built.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if degree > SEGAL_DEGREE_LIMIT:
        raise ValueError(f"the target (t_1 - 1)^{degree} has a coefficient of more than 4300 "
                         f"digits (limit degree {SEGAL_DEGREE_LIMIT})")
    if bound is None:
        bound = max(1, degree - 1)
    check_certificate_size(n, 0, n, bound)  # the unknowns first: n <= 10^4 from here on
    # e_k - C(n, k), k = 1..n, have 2^n - 1 + n terms: checked before they are built
    check_certificate_size(n, 2**n - 1 + n, n, bound)
    zeros, coeff, terms = (0,) * (n - 1), (-1) ** degree, {}
    for k in range(degree + 1):  # (t_1 - 1)^degree = sum_k (-1)^(degree - k) C(degree, k) t_1^k
        terms[(k, *zeros)] = coeff
        coeff = -coeff * (degree - k) // (k + 1)
    target = RepRingElement._trusted(torus_group(n), terms, 1)
    generators = gl_augmentation_generators(n)
    unit = RepRingElement._unit_key(target.group)
    if degree < n and segal_normal_form(degree, [[m for m in g.num if m != unit] for g in generators]):
        return target, generators, None, bound  # a nonzero normal form: in no box
    cofactors = ideal_membership_certificate(target, generators, bound)
    return target, generators, cofactors, bound


def _segal_remainder(degree: int, monomials):
    """(-1)^degree e_degree(x_2, .., x_n) on x-monomials, from those of e_degree(x)."""
    n = len(monomials)
    e_d = [(0,) * n] if degree == 0 else monomials[degree - 1] if degree <= n else []
    return {m: (-1) ** degree for m in e_d if not m[0]}


def segal_normal_form(degree: int, monomials) -> dict:
    """The normal form of x_1^degree, x_i = t_i - 1, modulo (e_1(x), .., e_n(x)), checked.

    ``monomials[k - 1]`` lists the x-monomials (0/1 tuples) of e_k(x), k = 1..n;
    e_k(t) - C(n, k) = sum_(j<=k) C(n-j, k-j) e_j(x), so the e_k(x) generate the
    GL_n ideal.  As e_k(x) = x_1 e_(k-1)(x') + e_k(x'), x' = (x_2, .., x_n), a sum
    telescopes:

        x_1^d - (-1)^d e_d(x') = sum_(k=1..min(d,n)) (-1)^(k+1) x_1^(d-k) e_k(x),

    re-expanded here on plain dicts (``CertificateError`` on a mismatch).  The
    remainder (-1)^d e_d(x') is squarefree and free of x_1, so no leading term
    x_k^k of the lex Groebner basis {h_k(x_k, .., x_n)} of the ideal (Sturmfels,
    *Algorithms in Invariant Theory*, 1.1) divides any of its monomials: it is
    the normal form, nonzero exactly when d < n.  Returns {x-monomial: coefficient}.
    """
    n = len(monomials)
    remainder = _segal_remainder(degree, monomials)
    total = {m: -c for m, c in remainder.items()}  # x_1^d - remainder - the sum, to be zero
    power = (degree, *(0,) * (n - 1))
    total[power] = total.get(power, 0) + 1
    for k in range(1, min(degree, n) + 1):
        shift, sign = degree - k, (-1) ** k
        for m in monomials[k - 1]:
            m = (m[0] + shift, *m[1:])
            total[m] = total.get(m, 0) + sign
    if any(total.values()):
        raise CertificateError(f"the normal form of (t_1 - 1)^{degree} failed its re-expansion")
    return remainder


# ---------------------------------------------------------------------------
# Bounded ideal-membership certificates


class CertificateError(RuntimeError):
    """A certificate, or the linear solve behind it, failed exact verification."""


_PRIME = 2**61 - 1  # the first modulus, a Mersenne prime: residues stay small Python ints
# Mersenne prime exponents from 61 on (OEIS A000043), for the second modulus; a
# system whose 2 H^2 needs a wider prime is refused, not eliminated on huge residues
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253,
                       4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497)


def _solve_sparse_linear(equations):
    """Solve a sparse rational linear system given as (row dict, rhs) pairs.

    Returns {var: Fraction} for one solution (absent vars are zero) or None
    when the system is inconsistent.  Each row is pivoted on its least surviving
    variable, so the pivots are the leading variables of the row space in any row
    order, and free variables at zero leave the unique solution supported on them.

    The elimination runs modulo ``_PRIME``; a solution is lifted by rational
    reconstruction and checked against every equation exactly, and "no
    solution" comes with a Farkas vector y, expanded from the elimination's
    record of pivot rows and multipliers, kept only when its lift satisfies
    y.A = 0 and y.b = 1 exactly.  If a denominator vanishes mod p, a lift or a
    check fails, the elimination runs once more modulo the least tabled
    Mersenne prime p > 2 H^2 (``_hadamard_bound``): p divides no nonzero
    minor, so its pivots are the rational ones and every value is a ratio of
    integers of size at most H, which lifts within isqrt(p/2).  A check that
    fails there raises ``CertificateError``; an H past the table, ValueError.
    (A first prime that divides a minor may pick another exact solution.)
    """
    equations = list(equations)
    integral = all(type(b) is int and all(type(a) is int for a in row.values())
                   for row, b in equations)
    for p in _moduli(equations):
        # ``_solve_mod_p`` reduces an int entry when it reads it: no reduced copy
        reduced = equations if integral else _reduce_mod_p(equations, p)
        if reduced is None:
            continue
        residues, farkas = _solve_mod_p(reduced, p)
        if residues is not None:
            solution = _lift(residues, p)
            if solution is not None and _satisfies(equations, solution):
                return solution
        else:
            y = _lift(farkas, p)
            if y is not None and _is_farkas_vector(equations, y):
                return None
    raise CertificateError("the linear solve failed its exact check modulo a prime past 2 H^2")


def _moduli(equations):
    """``_PRIME``, then (H computed only if asked) the least tabled 2^q - 1 > 2 H^2."""
    yield _PRIME
    bits = (2 * _hadamard_bound(equations) ** 2 + 1).bit_length()  # 2^q - 1 > 2 H^2 iff q >= bits
    q = next((q for q in _MERSENNE_EXPONENTS if q >= bits), None)
    if q is None:
        raise ValueError(f"the linear system needs a prime of {bits} bits "
                         f"(the table ends at 2^{_MERSENNE_EXPONENTS[-1]} - 1)")
    yield 2**q - 1


def _hadamard_bound(equations):
    """H = prod over rows of max(d, ceil(d |(A_r | b_r)|)), d the lcm of the row's denominators.

    Hadamard: no minor of the rows scaled to integers exceeds H, so neither
    does a solution value's numerator or denominator (Cramer), nor a Farkas
    value's: y_i is d of row i times a minor without row i, over a minor.
    """
    bound = 1
    for row, b in equations:
        values = [Fraction(v) for v in (*row.values(), b)]
        d = math.lcm(*(v.denominator for v in values))
        squares = sum((v.numerator * (d // v.denominator)) ** 2 for v in values)
        norm = math.isqrt(squares)
        bound *= max(d, norm + (norm * norm < squares))
    return bound


def _residue(value, p):
    if isinstance(value, int):
        return value % p
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, p) % p


def _reduce_mod_p(equations, p):
    """The system with every entry reduced mod p (zeros dropped), or None
    when some denominator is divisible by p: for a system with a ``Fraction`` entry."""
    try:
        return [
            ({k: r for k, v in row.items() if (r := _residue(v, p))}, _residue(b, p))
            for row, b in equations
        ]
    except ValueError:  # pow(): the denominator has no inverse mod p
        return None


def _solve_mod_p(equations, p):
    """One forward pass of elimination over GF(p) to row-echelon form, then back-substitution.

    Rows are taken shortest first, ties broken by decreasing least variable
    (Markowitz's order, by row counts only): rows with no unknowns come first,
    so an unreachable nonzero right-hand side ends the solve at once, and
    short pivot rows bring little fill-in into the rows reduced after them.
    The order moves no pivot.  Variables are numbered in sorted order and each
    row is still pivoted on its least surviving variable, so the pivots are
    the leading variables of the row space in any row order; the free
    variables stay at zero, and the returned solution is the same for every
    row order (see ``_solve_sparse_linear``).  Only a Farkas vector may
    differ, and it is checked exactly by the caller.

    A row is reduced in a dense scratch list by one increasing scan (pivot v
    brings in only variables above v) that stops at its pivot or past its
    highest live variable; its tail is read back from its own variables and,
    if it subtracted any, those of the pivot rows.  Entries are ints of any
    size, reduced mod p when read.  A pivot row is stored with pivot
    coefficient 1 as a list of the variables above the pivot and a list of
    their residues, next to its source row, the inverse that normalized it
    and its reduction steps (pivot slots and multipliers).  Every record is a
    plain list for every modulus: an int64 array would box every entry read.

    Returns (values, None), with {var: nonzero residue} and the free
    variables at zero, or (None, y) when row j reduces to 0 = b != 0: then
    y = (e_j - sum_v c_v P_v) / b, each pivot row P_v expanded into the
    source rows by one sweep over the record in reverse creation order, is a
    Farkas vector {row index: nonzero residue} with y.A = 0 and y.b = 1 mod p.
    """
    names = sorted(set().union(*(row for row, _ in equations)))
    n = len(names)
    number = dict(zip(names, range(n))).__getitem__
    order = sorted(range(len(equations)), key=lambda j: (
        len(equations[j][0]), -min(map(number, equations[j][0]), default=n)))
    scratch = [0] * n
    slot = [-1] * n  # var -> its index in the pivot record, -1 for no pivot
    keys, residues, rhs, sources, inverses, step_slots, step_mults = ([] for _ in range(7))
    for j in order:
        row, b = equations[j]
        row_vars = list(map(number, row))
        for var, a in zip(row_vars, row.values()):
            scratch[var] = a
        touched, slots, mults = [row_vars], [], []
        pivot, high = -1, max(row_vars, default=-1)
        for var in range(min(row_vars, default=n), n):
            x = scratch[var]
            if not x:
                if var > high:
                    break
                continue
            scratch[var] = 0
            x %= p
            if not x:
                continue
            s = slot[var]
            if s < 0:
                pivot, inverse = var, pow(x, -1, p)
                break
            pivot_keys = keys[s]
            for k, a in zip(pivot_keys, residues[s]):
                scratch[k] -= x * a
            if pivot_keys and pivot_keys[-1] > high:
                high = pivot_keys[-1]
            touched.append(pivot_keys)
            b -= x * rhs[s]
            slots.append(s)
            mults.append(x)
        b %= p
        if pivot >= 0:
            row_keys, row_residues = [], []
            tail = sorted(row_vars) if not slots else sorted(set().union(*touched))
            for k in tail:  # entries up to the pivot are zero
                x = scratch[k] % p
                scratch[k] = 0
                if x:
                    row_keys.append(k)
                    row_residues.append(x * inverse % p)
            slot[pivot] = len(sources)
            keys.append(row_keys)
            residues.append(row_residues)
            rhs.append(b * inverse % p)
            sources.append(j)
            inverses.append(inverse)
            step_slots.append(slots)
            step_mults.append(mults)
        elif b:
            weights = [0] * len(sources)
            for s, c in zip(slots, mults):
                weights[s] = c
            y = {j: 1}
            for s in range(len(sources) - 1, -1, -1):
                t = weights[s] % p * inverses[s] % p
                if t:
                    y[sources[s]] = -t
                    for s2, c in zip(step_slots[s], step_mults[s]):
                        weights[s2] -= t * c
            scale = pow(b, -1, p)
            return None, {i: r for i, v in y.items() if (r := v * scale % p)}
    values = [0] * n
    for var in range(n - 1, -1, -1):
        s = slot[var]
        if s >= 0:
            values[var] = (rhs[s] - sum(map(mul, residues[s], map(values.__getitem__, keys[s])))) % p
    return {names[var]: x for var, x in enumerate(values) if x}, None


def _rational_reconstruction(a, p):
    """The r/s with |r|, |s| <= sqrt(p/2) and r = s*a mod p, or None (Wang)."""
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lift(residues, p):
    lifted = {var: _rational_reconstruction(a, p) for var, a in residues.items()}
    return None if None in lifted.values() else lifted


def _scaled(values):
    """(D, {k: D*v}) for the least common denominator D of the values."""
    denominator = math.lcm(*(v.denominator for v in values.values()))
    return denominator, {k: v.numerator * (denominator // v.denominator) for k, v in values.items()}


def _satisfies(equations, solution):
    """Exact check of every equation at the solution (absent vars zero)."""
    denominator, scaled = _scaled(solution)
    return all(
        sum(c * scaled[k] for k, c in row.items() if k in scaled) == b * denominator
        for row, b in equations
    )


def _is_farkas_vector(equations, y):
    """Exact check of y.A = 0 and y.b = 1 for y = {row index: Fraction}."""
    denominator, scaled = _scaled(y)
    totals = {}
    rhs = 0
    for i, yi in scaled.items():
        row, b = equations[i]
        for k, a in row.items():
            totals[k] = totals.get(k, 0) + a * yi
        rhs += b * yi
    return rhs == denominator and not any(totals.values())


# Unknowns per certificate search; `segal --n 4 --degree 4` has 9,604 (about 2 s).
CERTIFICATE_UNKNOWN_LIMIT = 10**4
# Nonzero entries of its system, generator terms times cofactor monomials; 45,619 there.
CERTIFICATE_ENTRY_LIMIT = 10**5


def _capped_count(count: int, base: int, exponent: int):
    """count * base^exponent, or None past 10^30: the product stops there, within
    ~100 steps, so a rank in the millions is refused at once."""
    for _ in range(exponent if count and base > 1 else 0):
        if count > 10**30:
            return None
        count *= base
    return count if count <= 10**30 else None


def check_certificate_size(generators: int, terms: int, rank: int, degree_bound: int) -> None:
    """ValueError for a negative bound, over ``CERTIFICATE_UNKNOWN_LIMIT`` unknowns,
    generators * (2 * degree_bound + 1)^rank, or over ``CERTIFICATE_ENTRY_LIMIT``
    entries, the generators' terms times as many: no generator or target is needed.
    A count past 10^30 is not formed, and is reported as "more than 10^30"."""
    if degree_bound < 0:
        raise ValueError(f"search bound must be nonnegative, got {degree_bound}")
    unknowns, entries = (_capped_count(c, 2 * degree_bound + 1, rank) for c in (generators, terms))
    if unknowns is None or unknowns > CERTIFICATE_UNKNOWN_LIMIT:
        raise ValueError(f"the certificate search would solve for {unknowns or 'more than 10^30'} "
                         f"unknowns (limit {CERTIFICATE_UNKNOWN_LIMIT})")
    if entries is None or entries > CERTIFICATE_ENTRY_LIMIT:
        raise ValueError(f"the certificate search's system would have "
                         f"{entries or 'more than 10^30'} nonzero entries "
                         f"(limit {CERTIFICATE_ENTRY_LIMIT})")


def ideal_membership_certificate(target: RepRingElement, generators, degree_bound: int):
    """Search for cofactors c_i with target = sum_i c_i * g_i.

    Candidate cofactors range over monomials with every exponent in
    [-degree_bound, degree_bound].  A returned certificate has been
    re-verified by exact multiplication; None means nothing was found within
    the bound, which proves nothing about non-membership.  A negative bound
    or an oversized system (``check_certificate_size``) raises ValueError.

    The coefficient of box monomial m in c_i is unknown i * |box| + (index of
    m in the lex-ordered box): the ints sort as the pairs (i, m) do, so the
    solver's pivots and canonical solution are the pairs', and ``divmod``
    splits the solution back into cofactors.  Each equation is the
    coefficient of one monomial w, keyed by one int instead of a tuple:
    every coordinate is offset by low = (least coordinate of the generators
    and the target) - degree_bound and read as a digit in radix span = (the
    coordinates' range) + 2 * degree_bound + 1, the first coordinate most
    significant, so every product and target monomial has digits in
    [0, span), keys are distinct, and sorted keys run in the tuples' lex
    order.  The key is affine in w, so key(m + e) = key(m) + key(e) - key(0):
    each box monomial's shift key(m) - key(0) is computed once and added to
    the key of each generator term.
    """
    group, generators = target.group, list(generators)
    rank = group.ngens
    check_certificate_size(len(generators), sum(len(g.num) for g in generators), rank, degree_bound)
    if not group.is_free:
        raise ValueError("certificate search is defined over torus rings")
    for g in generators:
        if g.group != group:
            raise ValueError("elements over mismatched group descriptors")
    box = list(product(range(-degree_bound, degree_bound + 1), repeat=rank))
    size = len(box)
    generator_terms = [g.terms for g in generators]
    target_terms = target.terms
    coords = [c for terms in (*generator_terms, target_terms) for w in terms for c in w]
    low = min(coords, default=0) - degree_bound
    span = max(coords, default=0) + degree_bound + 1 - low
    powers = [span**i for i in range(rank - 1, -1, -1)]
    origin = -low * sum(powers)

    def key(w):
        return origin + sum(map(mul, w, powers))

    # unknown (i, m) contributes g_i[e] to the product monomial m + e, whose
    # key is key(e) + key(m) - key(0) (distinct e give distinct w, so plain assignment)
    shifts = [key(m) - origin for m in box]
    columns = defaultdict(dict)
    for i, terms in enumerate(generator_terms):
        unknowns = range(i * size, (i + 1) * size)
        for e, c in terms.items():
            for var, w in zip(unknowns, map(key(e).__add__, shifts)):
                columns[w][var] = c

    target_rows = {key(w): c for w, c in target_terms.items()}
    equations = [
        (columns.get(w, {}), target_rows.get(w, 0))
        for w in sorted(columns.keys() | target_rows.keys())
    ]
    solution = _solve_sparse_linear(equations)
    if solution is None:
        return None

    split = [{} for _ in generators]
    for var, c in solution.items():
        i, k = divmod(var, size)
        split[i][box[k]] = c
    cofactors = [RepRingElement(group, terms) for terms in split]
    combo = sum((c * g for c, g in zip(cofactors, generators)), RepRingElement.zero(group))
    if combo != target:
        raise CertificateError("certificate failed exact re-verification")
    return cofactors
