"""Seeded workloads for the equitau benchmark.

Each workload has a finite, deterministic *pool* of jobs, split into strata of
similar cost.  A seed picks a fixed number of jobs from every stratum, one from
each bin of similar recorded cost, and shuffles them, so two seeds run
different inputs with the same cost profile.  Because the pool is finite, the
reference status, digest and cost of every job a seed can pick are recorded
once, in ``reference/<workload>.json``.

A job is a dict with a unique ``key`` and either ``argv`` (run through
``equitau.cli.main``) or ``lib`` (a library call, see ``characters_job``).
"""

from __future__ import annotations

import json
import os
import random

HELD_OUT_SEED = 90509081
"""Seed reserved for checking a claimed gain; do not tune against it."""

# ---------------------------------------------------------------------------
# hrr: Euler characteristics through the pushforward pipeline

# Torus models shared by many jobs: (weights flag, rank, dim).
MODELS = (
    ("1,-1", 1, 1),
    ("2,-3", 1, 1),
    ("0,1,2", 1, 2),
    ("1,-1,3", 1, 2),
    ("0,1,2,3", 1, 3),
    ("-1,1,2,-2", 1, 3),
    ("1,0;0,1", 2, 1),
    ("1,2;-1,1", 2, 1),
    ("1,0;0,1;1,1", 2, 2),
    ("2,1;0,-1;1,3", 2, 2),
    ("1,0;0,1;1,1;2,-1", 2, 3),
    ("1,0,0;0,1,0", 3, 1),
    ("1,2,-1;0,1,3", 3, 1),
    ("1,0,0;0,1,0;0,0,1", 3, 2),
    ("1,0,0;0,1,0;0,0,1;1,1,1", 3, 3),
)


def _hrr_stratum(rank, dim):
    """(stratum, truncations, twists, character options) of a model's chi jobs.

    The costliest stratum, P^3 over a rank-3 torus, is one fixed job (twist 0
    with a character): its twists differ in cost by up to half, so a seeded
    pick among them would swing the pass.
    """
    char = ",".join(str((-1) ** i * (i + 1)) for i in range(rank))
    twists = range(-dim, 5)
    if rank == 1:
        return "light", (8, 12, 16), twists, (None, char)
    if rank == 2 and dim <= 2:
        return "medium", (8, 10, 12), twists, (None, char)
    if rank == 3 and dim == 3:
        return "top", (8,), (0,), (char,)
    return "heavy", (8,), twists, (None, char)


def _cli(*argv):
    argv = list(argv) + ["--format", "json"]
    return {"key": " ".join(argv), "argv": argv}


def hrr_pool():
    strata = {"light": [], "medium": [], "heavy": [], "top": []}
    for weights, rank, dim in MODELS:
        name, truncs, twists, chars = _hrr_stratum(rank, dim)
        for trunc in truncs:
            for twist in twists:
                for char in chars:
                    argv = ["chi", f"--weights={weights}", f"--twist={twist}"]
                    if char is not None:
                        argv.append(f"--char={char}")
                    strata[name].append(_cli(*argv, f"--trunc={trunc}"))
    # Every list runs the P^3 job and all five weyl tables, 0.75-1.0 s each and
    # dearer than any seeded pick, so p90 (the 4th dearest of 36 jobs) falls
    # among the same jobs for every seed and every number of passes.
    strata["weyl"] = [_cli("weyl", "--nmax=10", f"--trunc={trunc}") for trunc in range(28, 33)]
    polys = ("0,0,0,1", "1,2,3,4,5", "0,1,0,-1,2,0,3", "3,-1,4,1,-5,9")
    strata["pushforward"] = [
        _cli("pushforward", f"--weights={weights}", f"--poly={poly}", "--trunc=16")
        for weights, rank, dim in MODELS
        if dim >= 2
        for poly in polys
    ]
    return strata


HRR_PICKS = {"light": 20, "medium": 6, "heavy": 2, "top": 1, "weyl": 5, "pushforward": 2}

# ---------------------------------------------------------------------------
# characters: Chern characters of virtual representations (library calls)

CHAR_TRUNCATION = 12
CHAR_POOL_PER_STRATUM = 12
# Typical term count of a product of k factors, by rank (about the median of
# unconstrained draws); a pool job is drawn again until its product lands
# within 10% of it.  Binning by cost (see `generate`) cannot do this alone: a
# rank-2 stratum has 12 jobs and 2 or 3 picks, so a bin holds 4 to 6 jobs, and
# unconstrained products of k = 4..6 factors differ up to 3x in size within
# one bin, so one pick would swing the pass.
CHAR_PRODUCT_TERMS = {1: (3, 5, 8, 12, 15, 18), 2: (3, 6, 16, 35, 80, 126)}


def _nonzero(rng, size, rank):
    """A weight with no zero coordinate, so its exp series is dense."""
    return tuple(rng.choice((-1, 1)) * rng.randint(1, size) for _ in range(rank))


def _augmentation_zero(rng, rank):
    """A random rank-zero virtual representation as {coords: coefficient}."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            coords = _nonzero(rng, 3, rank)
            terms[coords] = terms.get(coords, 0) + rng.randint(-3, 3)
        zero = (0,) * rank
        terms[zero] = -sum(terms.values())
        terms = {c: v for c, v in terms.items() if v}
        if terms:
            return terms


def _laurent_product(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _characters_inputs(rank, k, index):
    rng = random.Random(f"characters/{rank}/{k}/{index}")
    target = CHAR_PRODUCT_TERMS[rank][k - 1]
    while True:
        factors = [_augmentation_zero(rng, rank) for _ in range(k)]
        product = {(0,) * rank: 1}
        for f in factors:
            product = _laurent_product(product, f)
        if abs(len(product) - target) <= max(1, target // 10):
            break
    weights = [list(_nonzero(rng, 2, rank)) for _ in range(3)]
    return {"rank": rank, "k": k, "weights": weights,
            "factors": [[[list(c), v] for c, v in f.items()] for f in factors]}


def characters_pool():
    strata = {}
    for rank in (1, 2):
        for k in range(1, 7):
            strata[f"r{rank}k{k}"] = [
                {"key": f"characters r{rank} k{k} #{j}", "lib": _characters_inputs(rank, k, j)}
                for j in range(CHAR_POOL_PER_STRATUM)
            ]
    return strata


CHARACTERS_PICKS = {**{f"r1k{k}": 6 for k in range(1, 7)},
                    **{f"r2k{k}": n for k, n in zip(range(1, 7), (2, 2, 2, 3, 2, 3))}}


def characters_job(rank, k, weights, factors):
    """One job in the shape of the chern-filtration-order criterion.

    Multiplies the k rank-zero factors, checks that the product's adic order
    is at least k and that ch is multiplicative on the first and last factor,
    and computes lambda_{-1} of the weights and the sections character of
    O(3) on P(weights), each with its Chern character.  Returns
    (status, text): status 0 when every check holds, and the rendered
    results, whose digest the reference pins.
    """
    from equitau.charclass import torus_model
    from equitau.reprring import (
        RepRingElement,
        augmentation_order,
        chern_character,
        lambda_minus_one,
        torus_group,
    )
    from equitau.riemannroch import sections_character_oracle

    group = torus_group(rank)
    elements = [RepRingElement(group, {tuple(c): v for c, v in f}) for f in factors]
    product = RepRingElement.one(group)
    for element in elements:
        product = product * element
    order = augmentation_order(product, CHAR_TRUNCATION)
    a, b = elements[0], elements[-1]
    ch_ab = chern_character(a * b, CHAR_TRUNCATION)
    multiplicative = ch_ab == chern_character(a, CHAR_TRUNCATION) * chern_character(
        b, CHAR_TRUNCATION
    )
    weights = [tuple(w) for w in weights]
    lam = lambda_minus_one(group, weights)
    oracle = sections_character_oracle(torus_model(weights, CHAR_TRUNCATION), 3)
    results = [
        order,
        product,
        ch_ab,
        lam,
        chern_character(lam, CHAR_TRUNCATION),
        oracle,
        chern_character(oracle, CHAR_TRUNCATION),
    ]
    ok = (order is None or order >= k) and multiplicative
    return (0 if ok else 1), "\n".join(str(r) for r in results)


# ---------------------------------------------------------------------------
# certificates: ideal-membership searches and finite-group bookkeeping

SECTOR_WEIGHTS = {
    "6,12": ("0,0;1,0;0,1", "0,1;1,0;1,1", "1,2;0,5;3,1"),
    "12,60": ("0,0;1,5;3,1", "0,1;1,0", "2,3;1,1;0,7"),
    "4,8": ("0,0;1,1;2,3;1,5", "1,0;0,1"),
    "30": ("0,1,2", "0,5,6,10", "1,7"),
    "8,8": ("0,0;1,3", "1,0;0,1;1,1"),
}
SUPPORT_POINTS = {
    "6,12": ("1/3,1/4", "1/2,5/12", "0,1/6", "1/6,0"),
    "12,60": ("1/3,7/20", "5/12,1/60", "0,1/5", "1/4,3/10"),
    "4,8": ("1/4,3/8", "1/2,1/2", "3/4,5/8"),
    "30": ("1/3", "7/30", "2/5", "1/2"),
    "8,8": ("1/8,3/8", "1/2,1/4", "5/8,0"),
}


def _segal(n, degree, bound):
    return _cli("segal", f"--n={n}", f"--degree={degree}", f"--bound={bound}", "--trunc=16")


def _sectors(*groups):
    return [_cli("sectors", f"--orders={orders}", f"--weights={weights}", "--trunc=16")
            for orders in groups for weights in SECTOR_WEIGHTS[orders]]


def certificates_pool():
    """Strata by cost; the search's cost grows with n and the box bound."""
    return {
        "support": [_cli("support", f"--orders={orders}", f"--point={point}", "--trunc=16")
                    for orders, points in SUPPORT_POINTS.items() for point in points],
        "tiny": [_segal(2, d, 1) for d in range(2, 8)]
        + _sectors("30", "4,8", "8,8"),
        "small": [_segal(2, d, 2) for d in range(3, 8)] + _sectors("6,12"),
        "mid": [_segal(2, d, 3) for d in range(4, 8)] + [_segal(3, d, 1) for d in (2, 3)]
        + _sectors("12,60"),
        "upper": [_segal(2, d, 4) for d in (5, 6, 7)],
        "medium": [_segal(2, d, 5) for d in (6, 7)],
        "large": [_segal(2, d, 6) for d in (5, 6, 7)],
        "heavy": [_segal(3, d, 2) for d in (2, 3)],
    }


# Every list runs both n = 3 searches with bound 2 and three n = 2 searches
# with bound 6 (0.6-0.8 s each), so two jobs do not set the whole pass time,
# and p90 (the 4th dearest of 38 jobs) falls among the same jobs for every
# seed.  The 16 cheaper support and tiny picks put p50 inside the small
# stratum, whose jobs all cost about 15 ms, not on a step between strata.
CERTIFICATES_PICKS = {"support": 8, "tiny": 8, "small": 6, "mid": 6,
                      "upper": 3, "medium": 2, "large": 3, "heavy": 2}

# ---------------------------------------------------------------------------

WORKLOADS = {
    "hrr": (hrr_pool, HRR_PICKS),
    "characters": (characters_pool, CHARACTERS_PICKS),
    "certificates": (certificates_pool, CERTIFICATES_PICKS),
}


def reference_path(workload):
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", f"{workload}.json")


def load_reference(workload):
    """{job key: {"status": exit status, "sha256": stdout digest, "seconds": cost}}."""
    with open(reference_path(workload)) as f:
        return json.load(f)


def pool(workload):
    """Every job the workload can pick, in a fixed order."""
    make, _ = WORKLOADS[workload]
    return [job for jobs in make().values() for job in jobs]


def generate(workload, seed, reference=None):
    """The seeded job list, shuffled.

    Each stratum's jobs are sorted by their recorded cost and cut into as
    many contiguous bins as the stratum has picks; the seed picks one job per
    bin.  Every seed thus runs about the same cost quantiles.
    """
    make, picks = WORKLOADS[workload]
    if reference is None:
        reference = load_reference(workload)
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    for name, stratum in make().items():
        ranked = sorted(stratum, key=lambda job: (reference[job["key"]]["seconds"], job["key"]))
        bins = picks[name]
        for b in range(bins):
            jobs.append(rng.choice(ranked[b * len(ranked) // bins:(b + 1) * len(ranked) // bins]))
    rng.shuffle(jobs)
    return jobs
