"""Canonical text rendering shared by the ring element types.

An element's ``term_table`` holds its keys in print order, sorted once, and
each coefficient reduced once, to one magnitude text read off its integer
numerator over the one positive denominator with one ``math.gcd``, as
``str(Fraction(...))`` gives it but with no ``Fraction`` built; its text
(``terms_text``) and its JSON (``cli``) both read that table.
``monomial_texts`` builds monomial texts a variable column at a time.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import add


def variable_names(stem: str, count: int) -> list[str]:
    """"t" for a single variable, "t1", "t2", ... otherwise."""
    if count == 1:
        return [stem]
    return [f"{stem}{i + 1}" for i in range(count)]


def rational_str(numerator: int, denominator: int = 1) -> str:
    """numerator/denominator (denominator > 0) in lowest terms: "-3/4", "2", "0"."""
    g = gcd(numerator, denominator)
    if g != denominator:
        return f"{numerator // g}/{denominator // g}"
    return str(numerator // g)


def term_table(num, keys, den=1):
    """(keys, numerators, the texts of |p| / den in lowest terms) of num[k] / den, k in keys."""
    numerators = list(map(num.__getitem__, keys))
    mags = map(abs, numerators)
    mags = map(str, mags) if den == 1 else map(rational_str, mags, repeat(den))
    return keys, numerators, list(mags)


def monomial_texts(names, columns, count) -> list[str]:
    """The texts " t1^2 t2" of count monomials prod_i names[i]^columns[i][j]; "" for 1."""
    monomials = [""] * count
    for name, column in zip(names, columns):
        texts = {e: f" {name}^{e}" for e in set(column)}
        texts[0], texts[1] = "", f" {name}"
        monomials = list(map(add, monomials, map(texts.__getitem__, column)))
    return monomials


def terms_string(names, columns, numerators, den=1) -> str:
    """The sum of numerators[j] / den * prod_i names[i]^columns[i][j] as "2 - u + 1/12 t^4".

    Terms print in the given order; columns[i] holds the exponents of
    names[i], numerators are nonzero ints and den is a positive int.  Unit
    exponents and magnitudes, and variables at exponent 0, are omitted; no
    terms give "0".
    """
    table = term_table(numerators, range(len(numerators)), den)
    return terms_text(monomial_texts(names, columns, len(numerators)), table)


def terms_text(monomials, table) -> str:
    """``terms_string`` from the ``monomial_texts`` and the ``term_table`` of its terms."""
    _, numerators, magnitudes = table
    if not numerators:
        return "0"
    text = "".join([(" - " if p < 0 else " + ") + (mono[1:] if mono and mag == "1" else mag + mono)
                    for p, mag, mono in zip(numerators, magnitudes, monomials)])
    return text[3:] if text[1] == "+" else "-" + text[3:]
