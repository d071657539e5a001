"""Equivariant Euler characteristics on projective-space models.

chi(E) = pushforward(ch(E) * td(tangent)) lands in the truncated series ring
of the base.  Three independent routes are compared on P^1 with weights
(1, -1):

* the pushforward pipeline above, with the model's tangent Todd class,
* the closed form (e^{(n+1)t} - e^{-(n+1)t}) / (e^t - e^{-t}) on integers
  over N!, a table of running sums of e^{kt} + e^{-kt} or one row by power sums, and
* a brute-force count of section monomials (the actual character of the
  cohomology).

For n >= 0 the resulting character is that of an irreducible SL2
representation; irreducibility itself is representation theory with no
computational check here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import Counter
from itertools import accumulate, combinations, repeat
from operator import add, mul, sub

from .charclass import ProjSpaceModel, line_class, torus_model
# exp is unused here; perfbench/test_perfbench.py checks that its tracer restores riemannroch.exp
from .gradedring import GradedSeries, exp, series_ring, times_exp_linear_form
from .reprring import RepRingElement, chern_character


def hrr_chi(model: ProjSpaceModel, bundle) -> GradedSeries:
    """Euler characteristic pushforward(ch(bundle) * td(tangent)), by the projection formula.

    A key (a, c) of multiplicity m has the root x = a.h + c.t, and pushforward(e^x td) =
    e^(c.t) * sum_j a^j / j! * mu_j, with mu_j = pushforward(h^j td), j <= N + n (Fulton,
    *Intersection Theory*, Prop. 8.3(c)), summed on integers; the sum is then twisted by
    e^(c.t) one variable at a time (``times_exp_linear_form``), only when c != ().  The
    model reads the moments off the Newton coordinates of its tangent Todd class by the
    closed-form Gysin map (``ProjSpaceModel.todd_moments``), with no h-basis.  The
    model's ring refuses a group that is not a torus.
    """
    ctx = model.ring.ctx
    total = GradedSeries.zero(ctx.rank, ctx.truncation)
    for (a, c), m in bundle.items():
        last = ctx.truncation + model.dim if a else 0
        moments, m, num = model.todd_moments(last + 1), m * a**last, {}
        for j in range(last, -1, -1):  # m = multiplicity * a^j * last! / j!
            for k, v in moments[j].items():
                num[k] = num.get(k, 0) + m * v
            if j:  # a divides m, which holds a^j
                m = m // a * j
        den = math.factorial(last) * model.tangent_todd_coordinates[1]
        term = GradedSeries._trusted(ctx, {k: v for k, v in num.items() if v}, den)
        if c:
            term = times_exp_linear_form(term, c)
        total = total + term
    return total


def _weyl_series(row, truncation) -> GradedSeries:
    """The series of a row of numerators over N!, entry i on t^(2i)."""
    ctx = series_ring(1, truncation)
    place = ctx.places[0]
    num = {2 * i * place: v for i, v in enumerate(row) if v}
    return GradedSeries._trusted(ctx, num, math.factorial(truncation))


def weyl_closed_forms(n_max: int, truncation: int) -> list:
    """[W(-1), W(0), ..., W(n_max)], W(n) = (e^{(n+1)t} - e^{-(n+1)t}) / (e^t - e^{-t}).

    W(n) = sum_{k = -n, step 2}^{n} e^{kt} for n >= 0, so the rows are running
    sums: W(-1) = 0, W(0) = 1 and W(n) = W(n - 2) + e^{nt} + e^{-nt}, whose t^e
    numerator over N! gains 2 n^e N!/e! for even e (the odd powers cancel).  No
    series is multiplied or exponentiated, and only the last two rows of
    numerators are kept.
    """
    den = math.factorial(truncation)
    scales = [den // math.factorial(e) for e in range(0, truncation + 1, 2)]  # N!/e!, e even
    rows = [[0] * len(scales), [den] + [0] * (len(scales) - 1)]  # W(-1), W(0)
    forms = [_weyl_series(row, truncation) for row in rows[: n_max + 2]]
    for n in range(1, n_max + 1):
        square, power, gain = n * n, 2, []  # power = 2 n^e
        for s in scales:
            gain.append(power * s)
            power *= square
        rows = [rows[1], list(map(add, rows[0], gain))]
        forms.append(_weyl_series(rows[1], truncation))
    return forms


def weyl_closed_form(n: int, truncation: int) -> GradedSeries:
    """W(n) = (e^{(n+1)t} - e^{-(n+1)t}) / (e^t - e^{-t}) as a truncated series.

    For n >= -1 the numerator of t^e over N! is S_e N!/e!, S_e = sum_{k = -n, step 2}^{n} k^e
    (0 for odd e), by (n + 1)^(e+1) = sum_{j even <= e} C(e + 1, j) S_j, the telescoped
    sum of (k + 1)^(e+1) - (k - 1)^(e+1): O(N^2) steps for any n.  For n <= -2
    it is minus the reflected row, as the numerator is odd under n -> -n - 2.
    """
    if n < -1:
        return -weyl_closed_form(-n - 2, truncation)
    den, sums = math.factorial(truncation), []
    for e in range(0, truncation + 1, 2):
        rest = sum(math.comb(e + 1, 2 * j) * s for j, s in enumerate(sums))
        sums.append(((n + 1) ** (e + 1) - rest) // (e + 1))
    row = [s * (den // math.factorial(2 * i)) for i, s in enumerate(sums)]  # S_e N!/e!
    return _weyl_series(row, truncation)


# The section oracle enumerates at most this many monomials (about 1 s on P^3).
ORACLE_MONOMIAL_LIMIT = 10**5


def _check_oracle_size(monomials: int) -> None:
    if monomials > ORACLE_MONOMIAL_LIMIT:
        raise ValueError(
            f"the section oracle would enumerate {monomials} monomials "
            f"(limit {ORACLE_MONOMIAL_LIMIT})"
        )


def sections_character_oracle(model: ProjSpaceModel, twist: int) -> RepRingElement:
    """Exact character of the cohomology Euler sum of O(twist), by enumeration.

    For twist >= 0 this lists the degree-`twist` monomials in the coordinates
    of V^* (each contributing the negated sum of the chosen action weights);
    for -dim <= twist <= -1 all cohomology vanishes.  For twist < -dim, Serre
    duality gives chi(O(k)) = (-1)^dim * dual(H^0(O(-k-dim-1))) * chi_{sum w_i}:
    the same enumeration in degree -k-dim-1 with the weights' signs flipped.
    Above ``ORACLE_MONOMIAL_LIMIT`` monomials it raises ValueError.
    """
    group = model.group
    n = model.dim
    degree = twist if twist >= 0 else -twist - n - 1
    if degree >= 0:
        _check_oracle_size(math.comb(degree + n, n))
    if twist < -n:
        det = tuple(map(sum, zip(*model.weights)))
        dual = _monomial_characters(model, -twist - n - 1, sign=1)
        return dual * RepRingElement.character(group, det) * (-1) ** n
    if twist < 0:
        return RepRingElement.zero(group)
    return _monomial_characters(model, twist, sign=-1)


def _monomial_characters(model: ProjSpaceModel, degree: int, sign: int) -> RepRingElement:
    """Sum over the degree-`degree` monomials of chi_{sign * (sum of their weights)}.

    A monomial is a choice of bars b_0 < ... < b_{n-1} among degree + n places,
    e_i = b_i - b_{i-1} - 1 (b_{-1} = -1, b_n = degree + n), so its weight
    sum_i e_i v_i = base + sum_{i<n} b_i (v_i - v_{i+1}).  Each coordinate c of
    it lies in [low_c, low_c + span_c), low_c = degree * min_i v_i[c], so the
    weight minus the lows packs into one int, digit c in radix span_c.
    Packing is linear: a monomial costs one ``sum(map(mul, bars, steps))``
    over the packed steps, and the distinct sums are unpacked once, a
    coordinate at a time.  Over a group with torsion the constructor reduces
    the coordinates and merges what coincides.
    """
    v = [tuple(sign * c for c in w) for w in model.weights]
    n, places = model.dim, degree + model.dim
    columns = list(zip(*v))  # one tuple per coordinate
    lows = [degree * min(c) for c in columns]
    spans = [degree * (max(c) - min(c)) + 1 for c in columns]
    radices = list(accumulate([1, *spans[:-1]], mul))

    def pack(x):
        return sum(map(mul, x, radices))

    base = [places * vn + v0 - s for vn, v0, s in zip(v[-1], v[0], map(sum, columns))]
    steps = [pack(map(sub, a, b)) for a, b in zip(v, v[1:])]
    sums = map(sum, map(map, repeat(mul), combinations(range(places), n), repeat(steps)))
    counts, offset = Counter(sums), pack(map(sub, base, lows))
    keys = [key + offset for key in counts]
    digits = [[k // r % span + low for k in keys] for r, span, low in zip(radices, spans, lows)]
    terms = dict(zip(zip(*digits) if digits else [()] * len(keys), counts.values()))
    if model.group.is_free:  # distinct reduced coordinates, positive counts
        return RepRingElement._trusted(model.group, terms, 1)
    return RepRingElement(model.group, terms)


@dataclass(frozen=True)
class EulerCharacteristicResult:
    series: GradedSeries
    oracle_character: RepRingElement
    matches_oracle: bool


def chi_with_oracle(model: ProjSpaceModel, bundle) -> EulerCharacteristicResult:
    """Run the pushforward pipeline and the section oracle on a K-class.

    The oracle goes by linearity, chi(O(k) (x) chi_c) = chi_c . chi(O(k)); every
    O(k) is size-checked and enumerated before ``hrr_chi`` runs.
    """
    oracles = {k: sections_character_oracle(model, k) for k in {k for k, _ in bundle}}
    terms = []
    for (k, c), m in bundle.items():  # a one-term class keeps the oracle's own element
        term = oracles[k] * RepRingElement.character(model.group, c) if c else oracles[k]
        terms.append(term if m == 1 else term * m)
    oracle = sum(terms[1:], terms[0]) if terms else RepRingElement.zero(model.group)
    series = hrr_chi(model, bundle)
    matches = chern_character(oracle, model.truncation) == series
    return EulerCharacteristicResult(series, oracle, matches)


@dataclass(frozen=True)
class WeylRow:
    twist: int
    pipeline: GradedSeries
    closed_form: GradedSeries
    oracle_series: GradedSeries
    oracle_character: RepRingElement
    ok: bool


@dataclass(frozen=True)
class WeylReport:
    truncation: int
    rows: tuple[WeylRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_weyl(n_max: int, truncation: int) -> WeylReport:
    """Three-way check of chi(O(n)) on P^1 with weights (1, -1) for n in [-1, n_max].

    Failures are reported per row, never raised.  The oracle's monomials over
    the table, sum_{n <= n_max} (n + 1) = C(n_max + 2, 2), are checked first.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _check_oracle_size(math.comb(n_max + 2, 2))
    model = torus_model([1, -1], truncation)
    rows = []
    for n, closed in enumerate(weyl_closed_forms(n_max, truncation), -1):
        pipeline = hrr_chi(model, line_class(n))
        oracle = sections_character_oracle(model, n)
        oracle_series = chern_character(oracle, truncation)
        ok = pipeline == closed and oracle_series == closed
        rows.append(WeylRow(n, pipeline, closed, oracle_series, oracle, ok))
    return WeylReport(truncation, tuple(rows))
