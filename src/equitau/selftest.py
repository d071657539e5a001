"""Self-verification suite: one check per acceptance criterion.

Each criterion is a function returning (passed, detail).  The CLI `selftest`
subcommand and the acceptance test module both run exactly these checks, at
the tolerances fixed here (exact rational equality throughout; the single
runtime bound is on the Weyl table).  ``run_all`` reports each criterion's
elapsed time at the end of its detail.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from .charclass import line_class, mu_model, tangent_class, todd_class_bundle, torus_model
from .gradedring import (
    GradedSeries,
    apply_power_series,
    pushforward,
    reduce,
    segre_pushforward,
    todd_coefficient,
)
from .finitestab import (
    ktheory_free_module_dimension,
    sector_dimensions,
    vistoli_kernel_dimension,
)
from .reprring import (
    RepRingElement,
    augmentation_order,
    chern_character,
    segal_certificate,
    torus_group,
)
from .riemannroch import hrr_chi, verify_weyl

WEYL_NMAX = 10
WEYL_TRUNCATION = 16
WEYL_TIME_LIMIT = 5.0


def check_weyl_three_way():
    """chi(O(n)) on P^1 (1,-1): pipeline = closed form = section oracle, n in [-1, 10]."""
    start = time.perf_counter()
    report = verify_weyl(WEYL_NMAX, WEYL_TRUNCATION)
    elapsed = time.perf_counter() - start
    failures = [r.twist for r in report.rows if not r.ok]
    ok = not failures and elapsed < WEYL_TIME_LIMIT
    return ok, f"{len(report.rows)} rows, failures {failures}"  # run_all adds the time


def check_pushforward_lemma(cases=100, seed=20260809):
    """Reduction-based pushforward vs the closed-form Gysin map, on P^1 (1,-1) and P^1-P^3."""
    rng, shapes = random.Random(seed), random.Random(seed + 1)
    models = [torus_model([1, -1], 16)] * cases  # the closed form is the odd part here
    for case in range(cases):  # ranks 1-2, P^1-P^3, repeated and zero weights
        rank, dim = 1 + case % 2, 1 + case // 2 % 3
        pool = [tuple(shapes.choices(range(-2, 3), k=rank)) for _ in range(dim + 1)] + [(0,) * rank]
        models.append(torus_model([shapes.choice(pool) for _ in range(dim + 1)], 8, rank=rank))
    bad = 0
    for model in models:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 10) + 1)]
        bad += pushforward(reduce(coeffs, model.ring)) != segre_pushforward(model.ring, coeffs)
    return bad == 0, (
        f"{cases} random h-polynomials of degree <= 10 on P^1 (1,-1) and {cases} on seeded "
        f"models, {bad} mismatches"
    )


def check_todd_consistency():
    """Euler-sequence Todd product equals the single factor at 2h, mod h^2 = t^2."""
    model = torus_model([1, -1], WEYL_TRUNCATION)
    via_roots = todd_class_bundle(model, tangent_class(model))
    via_2h = apply_power_series(todd_coefficient, model.hyperplane() * 2)
    return via_roots == via_2h, f"truncation {WEYL_TRUNCATION}"


def check_nonequivariant_sanity():
    """Trivial actions: the constant term of chi(O(n)) on P^m is C(n+m, m)."""
    failures = []
    for m in (1, 2, 3):
        model = torus_model([0] * (m + 1), 10)
        for n in range(0, 7):
            chi = hrr_chi(model, line_class(n))
            if chi.constant_term() != math.comb(n + m, m) or chi != GradedSeries.const(
                1, 10, math.comb(n + m, m)
            ):
                failures.append((m, n))
    return not failures, f"m in 1..3, n in 0..6, failures {failures}"


def _random_augmentation_zero(rng, group):
    while True:
        nterms = rng.randint(1, 3)
        terms = {}
        for _ in range(nterms):
            coords = tuple(rng.randint(-3, 3) for _ in range(group.ngens))
            terms[coords] = terms.get(coords, 0) + rng.randint(-3, 3)
        a = RepRingElement(group, terms)
        a = a - a.augmentation()
        if not a.is_zero():
            return a


def check_chern_filtration(cases=50, seed=977):
    """Products of k augmentation-zero elements have adic order >= k (k <= 6)."""
    rng = random.Random(seed)
    truncation = 12
    bad = []
    for _ in range(cases):
        rank = rng.choice((1, 2))
        group = torus_group(rank)
        k = rng.randint(1, 6)
        prod = RepRingElement.one(group)
        for _ in range(k):
            prod = prod * _random_augmentation_zero(rng, group)
        order = augmentation_order(prod, truncation)
        if order is not None and order < k:
            bad.append((k, order))
    return not bad, f"{cases} products, truncation {truncation}, violations {bad}"


def check_segal_witnesses():
    """Certificates for (t1-1)^2 (n=2) and (t1-1)^3 (n=3) within default bounds."""
    details = []
    ok = True
    for n, degree in ((2, 2), (3, 3)):
        _, _, cofactors, bound = segal_certificate(n, degree)
        if cofactors is None:
            ok = False
            details.append(f"n={n} degree={degree}: not found within bound {bound}")
            continue
        details.append(f"n={n} degree={degree}: found, bound {bound}")
    return ok, "; ".join(details)


def check_sector_bookkeeping():
    """mu_d on P^1 (0,1), d in [1,8]: totals 2d (vs the free-module count), kernel 2d-2."""
    failures = []
    for d in range(1, 9):
        model = mu_model(d, [0, 1], 8)
        decomp = sector_dimensions(model)
        expected = ktheory_free_module_dimension(model)
        if decomp.total_dimension != 2 * d or expected != 2 * d:
            failures.append((d, decomp.total_dimension, expected))
        if vistoli_kernel_dimension(decomp) != 2 * d - 2:
            failures.append((d, "kernel", vistoli_kernel_dimension(decomp)))
    return not failures, f"d in 1..8, failures {failures}"


def _random_series(rng, rank, truncation):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 3) for _ in range(rank))
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return GradedSeries(rank, truncation, terms)


def _random_rep(rng, group):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        coords = tuple(rng.randint(-5, 5) for _ in range(group.ngens))
        terms[coords] = terms.get(coords, 0) + rng.randint(-4, 4)
    return RepRingElement(group, terms)


def check_ring_laws(cases=200, seed=4242):
    """Associativity/distributivity for series and group-algebra elements,
    plus Chern-character ring homomorphism; >= 200 random cases each, exact."""
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        rank = rng.choice((1, 2))
        trunc = 10
        a, b, c = (_random_series(rng, rank, trunc) for _ in range(3))
        if (a * b) * c != a * (b * c) or (a + b) * c != a * c + b * c:
            bad += 1
    rep_bad = 0
    hom_bad = 0
    for _ in range(cases):
        group = torus_group(1)
        a, b, c = (_random_rep(rng, group) for _ in range(3))
        if (a * b) * c != a * (b * c) or (a + b) * c != a * c + b * c:
            rep_bad += 1
        cha, chb = chern_character(a, 12), chern_character(b, 12)
        if (
            chern_character(a * b, 12) != cha * chb
            or chern_character(a + b, 12) != cha + chb
            or Fraction(a.augmentation()) != cha.constant_term()
        ):
            hom_bad += 1
    ok = bad == 0 and rep_bad == 0 and hom_bad == 0
    return ok, (
        f"{cases} series cases ({bad} bad), {cases} group-algebra cases "
        f"({rep_bad} bad, {hom_bad} homomorphism failures)"
    )


CRITERIA = [
    ("weyl-three-way-agreement", check_weyl_three_way),
    ("pushforward-odd-part-lemma", check_pushforward_lemma),
    ("todd-euler-sequence-consistency", check_todd_consistency),
    ("nonequivariant-binomial-sanity", check_nonequivariant_sanity),
    ("chern-filtration-order", check_chern_filtration),
    ("segal-topology-witnesses", check_segal_witnesses),
    ("twisted-sector-bookkeeping", check_sector_bookkeeping),
    ("ring-law-property-suites", check_ring_laws),
]


def run_all():
    """Run every criterion; returns the list of (name, passed, detail).

    Each detail ends with the criterion's elapsed wall time, ", X.XXs".
    """
    results = []
    for name, fn in CRITERIA:
        start = time.perf_counter()
        passed, detail = fn()
        results.append((name, passed, f"{detail}, {time.perf_counter() - start:.2f}s"))
    return results
