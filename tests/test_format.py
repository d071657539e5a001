import random
from fractions import Fraction

import pytest

from equitau._format import join_signed_terms, rational_str


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


MONOMIALS = ("", "t", "t^2", "t1 t2^3", "u^-1", "h")


def random_coefficient(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-12, 12)
    if kind == 1:
        return rng.choice((-1, 1))  # unit magnitudes
    if kind == 2:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 24))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10) ** 9, rng.randint(1, 10) ** 7)


@pytest.mark.parametrize("seed", range(6))
def test_integer_formatter_matches_the_fraction_formatter(seed):
    rng = random.Random(f"format/{seed}")
    for _ in range(400):
        terms = [
            (random_coefficient(rng), rng.choice(MONOMIALS)) for _ in range(rng.randint(0, 6))
        ]
        den = rng.choice((1, 1, 2, 6, 12, 720, rng.randint(1, 10**6)))
        expected = join_signed_terms_by_fraction(terms, den)
        assert join_signed_terms(terms, den) == expected
        if den == 1:
            assert join_signed_terms(terms) == expected


def test_integer_formatter_edge_cases():
    assert join_signed_terms([]) == "0"
    assert join_signed_terms([(0, "t"), (Fraction(0), "")], 7) == "0"
    assert join_signed_terms([(-3, "t"), (2, "")]) == "-3 t + 2"
    assert join_signed_terms([(-6, "t"), (6, "t^2"), (3, "")], 6) == "-t + t^2 + 1/2"
    assert join_signed_terms([(2, "t"), (-4, "")], 4) == "1/2 t - 1"
    assert join_signed_terms([(Fraction(1, 2), "u")], 2) == "1/4 u"


@pytest.mark.parametrize("seed", range(3))
def test_rational_str_matches_str_of_fraction(seed):
    rng = random.Random(f"rational/{seed}")
    for _ in range(1000):
        p = rng.randint(-(10**12), 10**12) // rng.choice((1, 10**3, 10**9))
        q = rng.choice((1, 2, 12, rng.randint(1, 10**8)))
        assert rational_str(p, q) == str(Fraction(p, q))
        assert rational_str(p) == str(p)
