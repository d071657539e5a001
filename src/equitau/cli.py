"""Command-line interface: exact text and JSON output for every computation.

Subcommands: chi, weyl, pushforward, sectors, support, segal, selftest.
Common flags: --trunc N (default 16, overridable via EQUITAU_TRUNC) and
--format text|json.  Output is deterministic for fixed flags; rationals are
rendered as exact strings, never floats.  Exit status is 0 iff every embedded
check passes, 1 on a check failure (a certificate that fails exact
re-verification included, reported in one line on stderr), 2 on bad flags or
input (a negative truncation, a zero denominator, a model too large for the
series pipeline), also in one line.
A reader that closes the pipe early (`| head`) ends the run quietly with 1.
A printed series or character's JSON and text read one ``term_table()``; a
text run builds no JSON fragment.
Flags are read in one pass against the parser's own declarations; argparse
handles help, abbreviations and errors, each error in one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from bisect import bisect_left
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import add

from .charclass import (
    DEFAULT_TRUNCATION,
    check_series_size,
    line_class,
    mu_model,
    torus_model,
)
from .finitestab import (
    ktheory_free_module_dimension,
    sector_dimensions,
    support_subgroup,
    vistoli_kernel_dimension,
)
from .gradedring import GradedSeries, pushforward, reduce, segre_pushforward
from .lattice import GroupDescriptor, TorsionCharacterPoint
from .reprring import CertificateError, RepRingElement, segal_certificate
from .riemannroch import chi_with_oracle, verify_weyl, weyl_closed_form


# ---------------------------------------------------------------------------
# JSON encoding of the exact value types


class JSONText(str):
    """The JSON text of a value at indent "", which ``render_json`` splices in as it is."""

    __slots__ = ()


def _exponent_texts(columns, count, indent):
    """Per monomial, the JSON text after its coefficient's, '",\n  "exponents": [...]\n}'.

    At an indent; columns[i] holds the exponents of variable i, and the texts
    are built a column at a time, as ``_format.monomial_texts`` builds its own.
    """
    inner, item = indent + "  ", indent + "    "
    if not columns:
        return [f'",\n{inner}"exponents": []\n{indent}}}'] * count
    texts = [f'",\n{inner}"exponents": [\n{item}'] * count
    last = len(columns) - 1
    for i, column in enumerate(columns):
        tail = f",\n{item}" if i < last else f"\n{inner}]\n{indent}}}"
        strs = {e: f"{e}{tail}" for e in set(column)}
        texts = list(map(add, texts, map(strs.__getitem__, column)))
    return texts


def _monomials_json(table, exponents, indent):
    """The JSON text of {"coeff", "exponents"} per term of a ``term_table``, at an indent."""
    head = f'{{\n{indent}  "coeff": "'
    return [f"{head}{'-' if p < 0 else ''}{m}{e}" for p, m, e in zip(*table[1:], exponents)]


def _list_text(items):
    """The JSON text at indent "" of a list whose items are texts at indent "  "."""
    return JSONText("[\n  " + ",\n  ".join(items) + "\n]" if items else "[]")


def series_to_json(s: GradedSeries, table) -> JSONText:
    """[{"degree", "monomials": [{"coeff", "exponents"}, ...]}, ...] by degree, then exponents.

    ``table`` is ``s.term_table()``, which the caller builds once for the JSON and the text.
    """
    ctx, keys = s.ctx, table[0]
    exponents = _exponent_texts(ctx.columns(keys), len(keys), "      ")
    monomials = _monomials_json(table, exponents, "      ")
    top, blocks, start = ctx.top, [], 0
    while start < len(keys):  # keys run by degree: each degree's run ends at a bisection
        degree = keys[start] // top
        end = bisect_left(keys, (degree + 1) * top, start)
        blocks.append(
            f'{{\n    "degree": {degree},\n    "monomials": [\n      '
            + ",\n      ".join(monomials[start:end])
            + "\n    ]\n  }"
        )
        start = end
    return _list_text(blocks)


def rep_to_json(a: RepRingElement, table) -> JSONText:
    """[{"coeff", "exponents"}, ...] from ``table = a.term_table()``."""
    keys = table[0]
    exponents = _exponent_texts(list(zip(*keys)), len(keys), "  ")
    return _list_text(_monomials_json(table, exponents, "  "))


def group_to_json(g: GroupDescriptor):
    return {
        "free_rank": g.free_rank,
        "torsion_orders": list(g.torsion_orders),
        "name": str(g),
    }


def render_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, in one recursive pass.

    A ``JSONText`` (``series_to_json``, ``rep_to_json``) stands for the value
    it is the text of: it is spliced in at any depth by indenting its lines.
    """
    return _json_text(doc, "")


def _json_text(value, indent):
    """``render_json`` of a value at an indent; floats and non-string keys go to ``json.dumps``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is JSONText:
        return value.replace("\n", "\n" + indent)
    inner = indent + "  "
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        keys = sorted(value)
        items = [f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}" for k in keys]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


# ---------------------------------------------------------------------------
# Flag parsing helpers


def parse_weights(text: str):
    """"1,-1" -> scalar weights; "0,1;1,0" -> coordinate-vector weights."""
    if ";" in text:
        return [tuple(int(x) for x in part.split(",")) for part in text.split(";")]
    return [int(x) for x in text.split(",")]


def parse_orders(args) -> tuple[int, ...]:
    if args.orders is not None:
        return tuple(int(x) for x in args.orders.split(","))
    if args.order is not None:
        return (args.order,)
    raise ValueError("one of --order or --orders is required")


def resolve_truncation(args) -> int:
    """--trunc, else EQUITAU_TRUNC, else the default; a negative value is rejected."""
    if args.trunc is not None:
        trunc = args.trunc
    else:
        env = os.environ.get("EQUITAU_TRUNC")
        trunc = DEFAULT_TRUNCATION if env is None else int(env)
    if trunc < 0:
        raise ValueError(f"truncation must be nonnegative, got {trunc}")
    return trunc


def checked_torus_model(weights, trunc):
    """``torus_model(weights, trunc)``, refused by ``check_series_size`` before it is built."""
    rank = len(weights[0]) if isinstance(weights[0], tuple) else 1
    check_series_size(rank, len(weights) - 1, trunc)
    return torus_model(weights, trunc)


def make_document(command, inputs, truncation, results, checks):
    return {
        "command": command,
        "inputs": inputs,
        "truncation": truncation,
        "results": results,
        "checks": [{"name": name, "pass": bool(ok)} for name, ok in checks],
    }


def emit(doc: dict, text_lines, fmt: str) -> int:
    if fmt == "json":
        print(render_json(doc))
    else:
        print(f"command: {doc['command']}")
        print(f"truncation: {doc['truncation']}")
        for line in text_lines:
            print(line)
        for check in doc["checks"]:
            print(f"check [{'pass' if check['pass'] else 'FAIL'}] {check['name']}")
    return 0 if all(c["pass"] for c in doc["checks"]) else 1


# ---------------------------------------------------------------------------
# Subcommands


def cmd_chi(args) -> int:
    trunc = resolve_truncation(args)
    weights = parse_weights(args.weights)
    model = checked_torus_model(weights, trunc)
    character = tuple(int(x) for x in args.char.split(",")) if args.char else ()
    result = chi_with_oracle(model, line_class(args.twist, character))
    checks = [("section-oracle agreement up to truncation", result.matches_oracle)]
    is_weyl_model = model.weights == ((1,), (-1,)) and not character
    if is_weyl_model:
        closed = weyl_closed_form(args.twist, trunc)
        checks.append(("closed-form agreement up to truncation", closed == result.series))
    series, oracle = result.series, result.oracle_character
    series_table, oracle_table = series.term_table(), oracle.term_table()  # for JSON and text
    results = {
        "series_text": series.text(series_table),
        "degree_zero": str(series.constant_term()),
        "oracle_character_text": oracle.text(oracle_table),
    }
    if args.format == "json":  # a text run prints no JSON fragment, so it builds none
        results["series"] = series_to_json(series, series_table)
        results["oracle_character"] = rep_to_json(oracle, oracle_table)
    inputs = {"weights": args.weights, "twist": args.twist, "char": args.char}
    doc = make_document("chi", inputs, trunc, results, checks)
    lines = [
        f"series: {results['series_text']}",
        f"degree-0 term: {results['degree_zero']}",
        f"sections character: {results['oracle_character_text']}",
    ]
    return emit(doc, lines, args.format)


def cmd_weyl(args) -> int:
    trunc = resolve_truncation(args)
    check_series_size(1, 1, trunc)
    report = verify_weyl(args.nmax, trunc)
    rows, checks, lines = [], [], []
    for row in report.rows:
        # equal canonical series render alike: each distinct series is rendered once
        table = row.pipeline.term_table()
        text = row.pipeline.text(table)
        if args.format == "json":  # a text run prints only the row's line
            rows.append({
                "twist": row.twist,
                "series": series_to_json(row.pipeline, table),
                "series_text": text,
                "closed_form_text": (
                    text if row.closed_form == row.pipeline else str(row.closed_form)
                ),
                "sections_series_text": (
                    text if row.oracle_series == row.pipeline else str(row.oracle_series)
                ),
                "sections_text": str(row.oracle_character),
                "pass": row.ok,
            })
        checks.append((f"n={row.twist} three-way agreement up to truncation", row.ok))
        lines.append(f"n={row.twist:>3} [{'pass' if row.ok else 'FAIL'}] chi = {text}")
    doc = make_document(
        "weyl", {"nmax": args.nmax}, trunc, {"rows": rows, "all_pass": report.all_pass}, checks
    )
    return emit(doc, lines, args.format)


def cmd_pushforward(args) -> int:
    trunc = resolve_truncation(args)
    weights = parse_weights(args.weights)
    model = checked_torus_model(weights, trunc)
    coeffs = [int(x) for x in args.poly.split(",")]
    reduced = reduce(coeffs, model.ring)
    series = pushforward(reduced)
    checks = []
    if model.weights == ((1,), (-1,)):
        closed = segre_pushforward(model.ring, coeffs)
        checks.append(("odd-part closed form agreement up to truncation", closed == series))
    table = series.term_table()
    results = {"reduced_text": str(reduced), "series_text": series.text(table)}
    if args.format == "json":
        results["series"] = series_to_json(series, table)
    doc = make_document(
        "pushforward", {"weights": args.weights, "poly": args.poly}, trunc, results, checks
    )
    lines = [f"reduced class: {results['reduced_text']}", f"pushforward: {results['series_text']}"]
    return emit(doc, lines, args.format)


def sector_rows_to_json(sectors) -> JSONText:
    """[{"components", "dimension", "order", "point", "residue_degree", "support"}, ...].

    Each row is written once, as text; the support of each order e and each
    distinct component list are rendered once.
    """
    supports, components, rows = {}, {}, []
    for s in sectors:
        if (support := supports.get(s.order)) is None:
            support = supports[s.order] = _json_text(group_to_json(s.support), "    ")
        key = tuple(c.indices for c in s.components)
        if (comps := components.get(key)) is None:
            comps = components[key] = _json_text(key, "    ")
        point = '",\n      "'.join(map(str, s.point.values))
        rows.append(
            f'{{\n    "components": {comps},\n    "dimension": {s.dimension},\n'
            f'    "order": {s.order},\n    "point": '
            + (f'[\n      "{point}"\n    ]' if s.point.values else "[]")
            + f',\n    "residue_degree": {s.residue_degree},\n    "support": {support}\n  }}'
        )
    return _list_text(rows)


def cmd_sectors(args) -> int:
    trunc = resolve_truncation(args)
    orders = parse_orders(args)
    weights = parse_weights(args.weights)
    model = mu_model(orders, weights, trunc)
    decomp = sector_dimensions(model)
    free_module_dim = ktheory_free_module_dimension(model)
    everyone = list(range(len(model.weights)))
    # each distinct component list is checked once
    partitions = dict.fromkeys(tuple(c.indices for c in s.components) for s in decomp.sectors)
    total = decomp.total_dimension
    results = {
        "total_dimension": total,
        "untwisted_dimension": decomp.untwisted_dimension,
        "vistoli_kernel_dimension": vistoli_kernel_dimension(decomp),
        "free_module_dimension": free_module_dim,
    }
    if args.format == "json":
        results["rows"] = sector_rows_to_json(decomp.sectors)
    checks = [
        ("fixed components partition the coordinates",
         all(sorted(i for ix in key for i in ix) == everyone for key in partitions)),
        ("total equals the free-module dimension (rank dim V over the group algebra)",
         total == free_module_dim),
    ]
    inputs = {"order": args.order, "orders": args.orders, "weights": args.weights}
    doc = make_document("sectors", inputs, trunc, results, checks)

    def lines():  # only the text format reads them, so a JSON run builds none
        for s in decomp.sectors:
            comps = " + ".join(f"P^{c.dim}" for c in s.components)
            yield (f"e={s.order:>3}  residue degree {s.residue_degree}  support {s.support}  "
                   f"fixed {comps}  dim {s.dimension}")
        yield (f"total {total}, untwisted {decomp.untwisted_dimension}, "
               f"localization kernel {results['vistoli_kernel_dimension']}")

    return emit(doc, lines(), args.format)


def cmd_support(args) -> int:
    trunc = resolve_truncation(args)
    orders = parse_orders(args)
    try:
        values = tuple(Fraction(x) for x in args.point.split(","))
    except ZeroDivisionError:
        raise ValueError(f"--point {args.point!r} has a zero denominator") from None
    if len(values) == len(orders):
        # mu_1 is trivial: drop each unit order with its value, as mu_model
        # does; a point with one value per non-unit order is taken as it is
        for v, d in zip(values, orders):
            if d == 1 and v.denominator != 1:
                raise ValueError(f"value {v % 1} invalid on a torsion generator of order 1")
        values = tuple(v for v, d in zip(values, orders) if d != 1)
    group = GroupDescriptor(0, tuple(d for d in orders if d != 1))
    point = TorsionCharacterPoint(group, values)
    support = support_subgroup(group, point)
    checks = [("support order equals the order of the character point",
               support.order() == point.order())]
    results = {
        "support": group_to_json(support),
        "support_text": f"H = {support}",
        "point_order": point.order(),
    }
    inputs = {"order": args.order, "orders": args.orders, "point": args.point}
    doc = make_document("support", inputs, trunc, results, checks)
    return emit(doc, [results["support_text"]], args.format)


def cmd_segal(args) -> int:
    trunc = resolve_truncation(args)
    target, generators, cofactors, bound = segal_certificate(args.n, args.degree, args.bound)
    found = cofactors is not None
    tables = [c.term_table() for c in cofactors] if found else []
    results = {
        "target_text": str(target),
        "generators_text": [str(g) for g in generators],
        "bound": bound,
        "found": found,
        "cofactors_text": None if not found else list(map(RepRingElement.text, cofactors, tables)),
    }
    if args.format == "json":
        results["cofactors"] = None if not found else list(map(rep_to_json, cofactors, tables))
    checks = [
        ("certificate found within the search bound", found),
        # the search raises CertificateError unless its answer re-verifies
        ("certificate re-verifies by exact expansion", found),
    ]
    inputs = {"n": args.n, "degree": args.degree, "bound": args.bound}
    doc = make_document("segal", inputs, trunc, results, checks)
    lines = [f"target: {results['target_text']}"]
    for i, g in enumerate(results["generators_text"]):
        lines.append(f"generator {i + 1}: {g}")
    if found:
        for i, c in enumerate(results["cofactors_text"]):
            lines.append(f"cofactor {i + 1}: {c}")
    else:
        lines.append(
            f"no certificate within bound {bound} (not a proof of non-membership)"
        )
    return emit(doc, lines, args.format)


def cmd_selftest(args) -> int:
    if args.trunc is not None:
        raise ValueError("selftest runs its criteria at fixed truncations; --trunc is not accepted")
    from .selftest import run_all  # imported here: no other subcommand needs the criteria

    trunc = resolve_truncation(args)
    results = run_all()
    rows = [{"name": name, "pass": passed, "detail": detail} for name, passed, detail in results]
    checks = [(name, passed) for name, passed, _ in results]
    doc = make_document("selftest", {}, trunc, {"criteria": rows}, checks)
    lines = [
        f"{'pass' if passed else 'FAIL'}  {name}  ({detail})"
        for name, passed, detail in results
    ]
    return emit(doc, lines, args.format)


# ---------------------------------------------------------------------------
# Argument parsing


class OneLineErrorParser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose errors are one line on stderr, with no usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand, built once and cached.

    Every call returns the same parser object, so callers must not mutate
    it (add arguments, change defaults); ``parse_args`` leaves it as it is.
    Its subparsers are of its own class, so every flag error is one line.
    """
    parser = OneLineErrorParser(
        prog="equitau",
        description="Exact equivariant Riemann-Roch computations on projective-space models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--trunc", type=int, default=None,
                       help="series truncation degree (default 16; env EQUITAU_TRUNC)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("chi", help="equivariant Euler characteristic of O(n) on P(V)")
    p.add_argument("--weights", required=True,
                   help="action weights, e.g. 1,-1 (use ; to separate coordinate vectors)")
    p.add_argument("--twist", type=int, required=True, help="the twist n of O(n)")
    p.add_argument("--char", default=None, help="extra character twist, e.g. 2 or 1,0")
    common(p)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("weyl", help="three-way Weyl character table on P^1 (1,-1)")
    p.add_argument("--nmax", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("pushforward", help="pushforward of an h-polynomial class")
    p.add_argument("--weights", required=True)
    p.add_argument("--poly", required=True,
                   help="integer coefficients c0,c1,... of p(h) = sum c_k h^k")
    common(p)
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("sectors", help="twisted-sector table for a finite diagonalizable action")
    p.add_argument("--order", type=int, default=None, help="cyclic group order d")
    p.add_argument("--orders", default=None, help="cyclic factors d1,d2,...")
    p.add_argument("--weights", required=True)
    common(p)
    p.set_defaults(func=cmd_sectors)

    p = sub.add_parser("support", help="support subgroup of a character point")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--orders", default=None)
    p.add_argument("--point", required=True, help="rational values per generator, e.g. 1/3")
    common(p)
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("segal", help="ideal-membership certificate for (t1-1)^d in the GL_n ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--bound", type=int, default=None,
                   help="cofactor exponent box bound (default max(1, degree-1))")
    common(p)
    p.set_defaults(func=cmd_segal)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def flag_tables() -> dict:
    """Per subcommand, (subparser, {exact option string: action}, defaults, required actions).

    Read off ``build_parser()``'s own subparsers on first use, so the flags
    are declared once.  Only actions that take one value are listed:
    ``-h``/``--help`` takes none, so ``read_flags`` leaves it to argparse.
    The defaults are the ones ``parse_args`` puts in its Namespace.  If the
    parsers cannot be read so (argparse lists a parser's actions only in its
    private ``_actions``), there is no table, and ``read_flags`` declines
    every argv.
    """
    try:
        (commands,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
        tables = {}
        for name, sub in commands.items():
            actions = sub._actions
            defaults = {"command": name, "func": sub.get_default("func")}
            # as parse_args does, leave out a SUPPRESS default, which --help's is
            defaults.update(
                (a.dest, a.default) for a in actions if a.default is not argparse.SUPPRESS
            )
            flags = {s: a for a in actions if a.nargs is None for s in a.option_strings}
            required = {a for a in actions if a.required}
            tables[name] = (sub, flags, defaults, required)
    except (AttributeError, TypeError, ValueError):  # not the shape this reads
        return {}
    return tables


def read_flags(argv):
    """``build_parser().parse_args(argv)``, read in one pass, or None to leave argv to argparse.

    It reads a subcommand and then ``--flag value`` or ``--flag=value``
    pairs, each flag an exact option string of that subcommand; a repeated
    flag keeps its last value.  Anything else it declines, and prints
    nothing: help, an abbreviation, an unknown flag, a value its type
    refuses or outside its choices, a missing required flag, a separate
    value that starts with "-", a flag with no value, "--".
    """
    table = flag_tables().get(argv[0]) if argv else None
    if table is None:
        return None
    sub, flags, defaults, required = table
    args = argparse.Namespace(**defaults)
    seen = set()
    i, end = 1, len(argv)
    while i < end:
        flag, eq, value = argv[i].partition("=")
        action = flags.get(flag)
        if action is None:
            return None
        if not eq:
            i += 1
            # argparse reads "--weights -1,2" as a missing value but "--twist -1" as one
            if i == end or argv[i].startswith("-"):
                return None
            value = argv[i]
        i += 1
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):  # as argparse catches
                return None
        if action.choices is not None and value not in action.choices:
            return None
        action(sub, args, value, flag)
        seen.add(action)
    return args if required <= seen else None


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_flags(argv)
    if args is None:
        args = build_parser().parse_args(argv)  # help, abbreviations and every error
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return status
    except ValueError as exc:
        print(f"equitau: error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"equitau: check failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe (`| head`).  Point stdout at devnull so
        # the interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
