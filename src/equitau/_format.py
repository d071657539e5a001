"""Canonical text rendering shared by the ring element types.

Coefficients are rendered from integers: a coefficient is anything with
``.numerator`` and ``.denominator`` (an int or a ``Fraction``), optionally over
one extra shared denominator, and each one is brought to lowest terms with a
single ``math.gcd``.  The text is exactly what ``str(Fraction(...))`` gives,
but no ``Fraction`` is built.
"""

from __future__ import annotations

from math import gcd


def variable_names(stem: str, count: int) -> list[str]:
    """"t" for a single variable, "t1", "t2", ... otherwise."""
    if count == 1:
        return [stem]
    return [f"{stem}{i + 1}" for i in range(count)]


def monomial_string(names, exponents) -> str:
    """Render u1^a1 u2^a2 ... omitting unit exponents and untouched variables."""
    parts = []
    for name, e in zip(names, exponents):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)


def rational_str(numerator: int, denominator: int = 1) -> str:
    """numerator/denominator (denominator > 0) in lowest terms: "-3/4", "2", "0"."""
    g = gcd(numerator, denominator)
    if g != denominator:
        return f"{numerator // g}/{denominator // g}"
    return str(numerator // g)


def join_signed_terms(terms, den=1) -> str:
    """Join (coefficient, monomial) pairs as "2 - u + 1/12 t^4"; empty input is "0".

    Each coefficient stands for coefficient / den, with den a positive int.
    """
    out = []
    for coeff, mono in terms:
        p = coeff.numerator
        if not p:
            continue
        sign = "-" if p < 0 else "+"
        mag = rational_str(abs(p), coeff.denominator * den)
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag} {mono}"
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out) if out else "0"
