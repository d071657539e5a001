import math
import random
from fractions import Fraction

import pytest

from equitau import gradedring
from equitau._format import rational_str, terms_string, variable_names
from equitau.gradedring import GradedSeries, series_ring
from equitau.reprring import RepRingElement, torus_group


def monomial_string(names, exponents):
    """The per-term monomial renderer the column-wise one replaced: u1^a1 u2^a2 ..."""
    parts = []
    for name, e in zip(names, exponents):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)


def join_signed_terms_by_fraction(terms, den=1):
    """The Fraction-based formatter the integer one replaced, kept as the oracle."""
    out = []
    for coeff, mono in terms:
        coeff = Fraction(coeff) / den
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag} {mono}"
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out) if out else "0"


NAMES = ((), ("t",), ("t1", "t2"), ("t1", "t2", "t3"), ("u",), ("u1", "u2"), ("t", "h"))


def random_coefficient(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-12, 12)
    if kind == 1:
        return rng.choice((-1, 1))  # unit magnitudes
    if kind == 2:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 24))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10) ** 9, rng.randint(1, 10) ** 7)


def render(names, terms, den=1):
    """``terms_string`` of (coefficient, exponents) pairs standing for coefficient / den.

    The coefficients go over one common denominator, not reduced, and zero
    ones are dropped, since the renderer takes nonzero integer numerators.
    """
    terms = [(Fraction(c), e) for c, e in terms if c]
    common = den * math.lcm(*(c.denominator for c, _ in terms))
    numerators = [c.numerator * (common // den // c.denominator) for c, _ in terms]
    columns = [list(column) for column in zip(*(e for _, e in terms))] or [[] for _ in names]
    return terms_string(names, columns, numerators, common)


def expected(names, terms, den=1):
    return join_signed_terms_by_fraction([(c, monomial_string(names, e)) for c, e in terms], den)


@pytest.mark.parametrize("seed", range(6))
def test_integer_formatter_matches_the_fraction_formatter(seed):
    rng = random.Random(f"format/{seed}")
    for _ in range(400):
        names = rng.choice(NAMES)
        low = -3 if names and names[0].startswith("u") else 0
        terms = [
            (random_coefficient(rng), tuple(rng.randint(low, 3) for _ in names))
            for _ in range(rng.randint(0, 6))
        ]
        den = rng.choice((1, 1, 2, 6, 12, 720, rng.randint(1, 10**6)))
        assert render(names, terms, den) == expected(names, terms, den), (names, terms, den)


def test_integer_formatter_edge_cases():
    assert terms_string(["t"], [[]], []) == "0"
    assert render(["t"], [(0, (1,)), (Fraction(0), (0,))], 7) == "0"
    assert terms_string(["t"], [[1, 0]], [-3, 2]) == "-3 t + 2"
    assert terms_string(["t"], [[1, 2, 0]], [-6, 6, 3], 6) == "-t + t^2 + 1/2"
    assert terms_string(["t"], [[1, 0]], [2, -4], 4) == "1/2 t - 1"
    assert terms_string(["u"], [[1]], [1], 4) == "1/4 u"
    assert terms_string([], [], [-1]) == "-1"
    assert terms_string([], [], [5], 10) == "1/2"
    assert terms_string(["u1", "u2"], [[-1, 0], [0, 1]], [-1, 1]) == "-u1^-1 + u2"
    assert terms_string(["t", "h"], [[0, 2], [1, 1]], [3, -3], 3) == "h - t^2 h"
    cases = [
        ((), [(-1, ())]),
        (("t",), [(-1, (1,)), (1, (0,)), (Fraction(-1, 2), (3,))]),
        (("u1", "u2"), [(Fraction(7, 3), (0, 0)), (-1, (-2, 1)), (1, (1, -1))]),
        (("t", "h"), [(6, (0, 1)), (-4, (2, 0))]),
    ]
    for names, terms in cases:
        for den in (1, 2, 3, 7):
            assert render(names, terms, den) == expected(names, terms, den), (names, terms, den)


@pytest.mark.parametrize("seed", range(3))
def test_rational_str_matches_str_of_fraction(seed):
    rng = random.Random(f"rational/{seed}")
    for _ in range(1000):
        p = rng.randint(-(10**12), 10**12) // rng.choice((1, 10**3, 10**9))
        q = rng.choice((1, 2, 12, rng.randint(1, 10**8)))
        assert rational_str(p, q) == str(Fraction(p, q))
        assert rational_str(p) == str(p)


def reference_series_str(s):
    """A series term by term: by total degree, then exponents, through the Fraction oracle."""
    names = variable_names("t", s.rank)
    terms = sorted(s.terms.items(), key=lambda item: (sum(item[0]), item[0]))
    return join_signed_terms_by_fraction([(c, monomial_string(names, e)) for e, c in terms])


def reference_rep_str(a):
    """A representation term by term: by total height, then descending lex."""
    names = variable_names("u", a.group.ngens)
    terms = sorted(
        a.terms.items(), key=lambda item: (sum(abs(c) for c in item[0]), [-c for c in item[0]])
    )
    return join_signed_terms_by_fraction([(c, monomial_string(names, k)) for k, c in terms])


@pytest.mark.parametrize("seed", range(3))
def test_series_and_representation_text_match_the_term_by_term_renderer(seed):
    rng = random.Random(f"element-text/{seed}")
    shapes, units = set(), False
    for case in range(120):
        rank, truncation = case % 4, rng.randint(0, 6)
        exponents, coords = {}, {}
        for _ in range(rng.randint(0, 7)):
            c = random_coefficient(rng)
            exponents[tuple(rng.randint(0, 3) for _ in range(rank))] = c
            coords[tuple(rng.randint(-3, 3) for _ in range(rank))] = c
            units = units or abs(c) == 1
        series = GradedSeries(rank, truncation, exponents)
        rep = RepRingElement(torus_group(rank), coords)
        for element, reference in ((series, reference_series_str), (rep, reference_rep_str)):
            for x in (element, -element, element * Fraction(1, 6)):
                text = str(x)
                assert text == repr(x) == reference(x), (case, rank, text)
                shapes.add((rank, text == "0", text.startswith("-"), x.den != 1))
    # every rank, "0", a negative leading term, Fraction denominators, unit coefficients
    assert {shape[0] for shape in shapes} == {0, 1, 2, 3} and units
    assert {shape[1:] for shape in shapes} >= {
        (True, False, False), (False, True, True), (False, False, True), (False, True, False)
    }


def test_series_text_keeps_only_the_printed_monomials_in_its_ring(monkeypatch):
    rng = random.Random("ring-texts")
    seen = []
    for rank, truncation in ((0, 2), (1, 9), (2, 5), (3, 4)):
        ctx = series_ring(rank, truncation)
        printed = set(ctx.texts)  # what other tests printed in this ring
        for _ in range(8):
            terms = {tuple(rng.randint(0, 3) for _ in range(rank)): random_coefficient(rng)
                     for _ in range(rng.randint(0, 6))}
            s = GradedSeries(rank, truncation, terms)
            assert str(s) == str(s) == reference_series_str(s)
            printed |= s.num.keys()
            assert ctx.texts.keys() == printed
            seen.append(s)
    monkeypatch.setattr(gradedring, "monomial_texts", None)  # a printed monomial is not rebuilt
    assert [str(s) for s in seen] == [reference_series_str(s) for s in seen]
