import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import equitau.cli
import equitau.finitestab
import equitau.lattice
import equitau.reprring
import equitau.selftest
from equitau.charclass import mu_model
from equitau.cli import main, render_json, rep_to_json, sector_rows_to_json, series_to_json
from equitau.finitestab import sector_dimensions
from equitau.gradedring import GradedSeries
from equitau.reprring import (
    CERTIFICATE_ENTRY_LIMIT,
    CERTIFICATE_UNKNOWN_LIMIT,
    CertificateError,
    RepRingElement,
    check_certificate_size,
    gl_augmentation_generators,
    torus_group,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_chi_text_output(capsys):
    code, out = run(capsys, "chi", "--weights", "1,-1", "--twist", "1", "--trunc", "8")
    assert code == 0
    assert "series: 2 + t^2 + 1/12 t^4" in out
    assert "sections character: u + u^-1" in out
    assert "check [pass] section-oracle agreement up to truncation" in out


def test_chi_negative_twist(capsys):
    code, out = run(capsys, "chi", "--weights", "1,-1", "--twist", "-1")
    assert code == 0
    assert "series: 0" in out


def test_chi_trivial_action_degree_zero(capsys):
    code, doc = run_json(capsys, "chi", "--weights", "0,0,0", "--twist", "2")
    assert code == 0
    assert doc["results"]["degree_zero"] == "6"


def test_chi_with_character_twist(capsys):
    code, doc = run_json(capsys, "chi", "--weights", "1,-1", "--twist", "1", "--char", "2")
    assert code == 0
    assert doc["results"]["oracle_character_text"] == "u + u^3"
    assert all(c["pass"] for c in doc["checks"])


def test_a_character_of_the_wrong_length_exits_2_in_one_line(capsys):
    for argv, message in (
        (["chi", "--weights", "1,-1", "--twist", "1", "--char", "1,2"], "expected 1 coordinates, got 2"),
        # ragged weights: the model's group refuses the short one
        (["chi", "--weights", "1,0;1", "--twist", "1"], "expected 2 coordinates, got 1"),
        (["pushforward", "--weights", "1,0;0,1;1", "--poly", "1,2"], "expected 2 coordinates, got 1"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"equitau: error: {message}\n"), argv


def test_json_round_trips_byte_identically(capsys):
    for argv in (
        ["chi", "--weights", "1,-1", "--twist", "2", "--trunc", "6"],
        ["weyl", "--nmax", "2", "--trunc", "6"],
        ["sectors", "--order", "4", "--weights", "0,1"],
        ["support", "--order", "6", "--point", "1/3"],
        ["pushforward", "--weights", "1,-1", "--poly", "0,0,0,1", "--trunc", "6"],
        ["segal", "--n", "2", "--degree", "2"],
        ["selftest"],
        ["chi", "--weights", "1,0;0,1;1,1", "--twist", "2", "--char", "1,-2", "--trunc", "6"],
        ["pushforward", "--weights", "1,0;0,1;2,-1", "--poly", "3,-1,4,1", "--trunc", "6"],
        ["chi", "--weights", "0,1,2", "--twist", "-1"],  # vanishes: no series, no character
        ["segal", "--n", "3", "--degree", "3", "--bound", "2"],  # rank-3 cofactors
    ):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        if argv[:3] == ["chi", "--weights", "0,1,2"]:
            assert doc["results"]["series"] == doc["results"]["oracle_character"] == []
        assert render_json(doc) == out.rstrip("\n")
        assert out.rstrip("\n") == json.dumps(doc, indent=2, sort_keys=True)


def random_json_document(rng, depth=0):
    """A nested document of every kind ``render_json`` writes itself, tuples included."""
    leaves = (
        lambda: rng.choice(("", "plain", 'quote " and \\ back', "tab\t new\nline\x01", "ü ∑ 𝔽 é")),
        lambda: rng.randint(-10**6, 10**6),
        lambda: rng.choice((1, -1)) * rng.getrandbits(200),
        lambda: rng.choice((True, False, None)),
    )
    if depth > 3 or rng.random() < 0.3:
        return rng.choice(leaves)()
    size = rng.choice((0, 1, 2, 5))
    kind = rng.choice(("dict", "list", "tuple"))
    if kind == "dict":
        names = ("a", "B", "coeff", "é", 'k"\n', "", "z1")
        keys = [rng.choice(names) + str(rng.randint(0, 9)) for _ in range(size)]
        return {k: random_json_document(rng, depth + 1) for k in keys}
    items = [random_json_document(rng, depth + 1) for _ in range(size)]
    return items if kind == "list" else tuple(items)


def test_render_json_writes_the_bytes_of_json_dumps():
    rng = random.Random(2024)
    for _ in range(400):
        doc = random_json_document(rng)
        assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    # what is left to json.dumps: floats, non-string keys, empty containers deep inside
    for doc in ({"x": [1.5, {}, [], ()], "y": {1: "a", 2: [True]}}, [{"k": {3: None}}, -0.0]):
        assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def reference_series_to_json(s):
    """The dict route ``cli.series_to_json`` replaced: one dict per degree and per monomial."""
    by_degree = {}
    for exps, c in sorted(s.terms.items(), key=lambda item: (sum(item[0]), item[0])):
        by_degree.setdefault(sum(exps), []).append({"exponents": list(exps), "coeff": str(c)})
    return [{"degree": d, "monomials": monos} for d, monos in sorted(by_degree.items())]


def reference_rep_to_json(a):
    """The dict route ``cli.rep_to_json`` replaced: one dict per term, in ``print_keys`` order."""
    return [{"exponents": list(k), "coeff": str(Fraction(a.num[k], a.den))} for k in a.print_keys()]


def random_json_coefficient(rng):
    if rng.random() < 0.5:
        return rng.choice((-1, 1)) * rng.randint(1, 40)
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 720))


def test_json_fragments_match_the_dict_route_at_every_depth():
    rng = random.Random(20)
    shapes = set()
    for case in range(180):
        weyl_shape = case >= 160  # rank 1, one monomial per degree: the shape of a weyl row
        rank, truncation = 1 if weyl_shape else case % 4, rng.choice((0, 1, 3, 6))
        if weyl_shape:
            terms = {(d,): random_json_coefficient(rng) for d in range(0, truncation + 1, 2)}
        else:
            terms = {tuple(rng.randint(0, 3) for _ in range(rank)): random_json_coefficient(rng)
                     for _ in range(rng.choice((0, 1, 4, 12)))}
        series = GradedSeries(rank, truncation, terms)
        group = torus_group(max(rank, 1))
        coords = {
            tuple(rng.randint(-3, 3) for _ in range(group.ngens)): random_json_coefficient(rng)
            for _ in range(rng.choice((0, 1, 4, 12)))
        }
        rep = RepRingElement(group, coords)
        for s, a in ((series, rep), (-series, -rep)):
            # the JSON and the text both read one term table
            tables = [s.term_table(), a.term_table()]
            fragments = [series_to_json(s, tables[0]), rep_to_json(a, tables[1])]
            references = [reference_series_to_json(s), reference_rep_to_json(a)]
            for f, r in zip(fragments, references):
                assert f == json.dumps(r, indent=2, sort_keys=True)

            def place(series_value, rep_value):
                # each at the top of a list item, inside a list inside a dict inside a list
                return [
                    series_value,
                    {"inner": [rep_value, {"deep": [series_value]}], "rep": rep_value, "n": 1},
                    [rep_value],
                ]

            assert render_json({"doc": place(*fragments)}) == json.dumps(
                {"doc": place(*references)}, indent=2, sort_keys=True
            )
            assert render_json(fragments[0]) == fragments[0]
            for x, table, text in ((s, tables[0], fragments[0]), (a, tables[1], fragments[1])):
                keys, numerators, magnitudes = table
                assert keys == (sorted(x.num) if x is s else x.print_keys())
                assert magnitudes == [str(abs(Fraction(p, x.den))) for p in numerators]
                assert x.text(table) == str(x)
                shapes.add((type(x).__name__, x.ctx.ngens if x is a else x.rank,
                            text == "[]", x.den != 1, str(x).startswith("-"), "1" in magnitudes))
            degrees = [k // s.ctx.top for k in s.num]
            shapes.add(("weyl shape", rank == 1 and len(set(degrees)) == len(degrees) > 2))
            shapes.add(("truncation", truncation, series.is_zero()))
    # every rank, the zero element, Fraction coefficients, negative leading terms, unit
    # magnitudes and the weyl shape
    for kind, ranks in (("GradedSeries", {0, 1, 2, 3}), ("RepRingElement", {1, 2, 3})):
        assert {shape[1] for shape in shapes if shape[0] == kind} == ranks
        for flags in ((True, False, False), (False, True, True), (False, False, True)):
            assert (kind, *flags) in {(shape[0], *shape[2:5]) for shape in shapes}
        assert any(shape[0] == kind and shape[5] for shape in shapes)
    assert ("truncation", 0, False) in shapes and ("weyl shape", True) in shapes


def test_a_series_renders_alike_on_a_warm_and_a_cold_ring_table():
    rng = random.Random(32)
    for case in range(60):
        rank, truncation = case % 4, rng.choice((0, 2, 5, 9))
        terms = {tuple(rng.randint(0, 3) for _ in range(rank)): random_json_coefficient(rng)
                 for _ in range(rng.choice((0, 1, 4, 12)))}
        x = GradedSeries(rank, truncation, terms)
        warm = (series_to_json(x, x.term_table()), str(x))  # the second reads the filled table
        assert (series_to_json(x, x.term_table()), str(x)) == warm
        cold_ring = dataclasses.replace(x.ctx, texts={})
        cold = GradedSeries._trusted(cold_ring, dict(x.num), x.den)
        assert cold == x and not cold_ring.texts
        assert (series_to_json(cold, cold.term_table()), str(cold)) == warm
        assert cold_ring.texts.keys() == x.num.keys()


def reference_sector_rows(sectors):
    """The dict route ``cli.sector_rows_to_json`` replaced: one dict per row."""
    return [
        {
            "order": s.order,
            "residue_degree": s.residue_degree,
            "point": [str(Fraction(v)) for v in s.point.values],
            "support": {
                "free_rank": s.support.free_rank,
                "torsion_orders": list(s.support.torsion_orders),
                "name": str(s.support),
            },
            "components": [list(c.indices) for c in s.components],
            "dimension": s.dimension,
        }
        for s in sectors
    ]


def reference_sector_lines(decomp):
    """The text lines of ``sectors``, written out row by row."""
    lines = [
        f"e={s.order:>3}  residue degree {s.residue_degree}  support {s.support}  "
        f"fixed {' + '.join(f'P^{c.dim}' for c in s.components)}  dim {s.dimension}"
        for s in decomp.sectors
    ]
    kernel = decomp.total_dimension - decomp.untwisted_dimension
    return lines + [f"total {decomp.total_dimension}, untwisted {decomp.untwisted_dimension}, "
                    f"localization kernel {kernel}"]


def test_sector_rows_match_the_dict_rows_at_every_depth(capsys):
    assert sector_rows_to_json(()) == "[]"
    rng = random.Random(21)
    chains = [(), (1,), (2,), (7,), (12,), (2, 2), (6, 12), (12, 60), (2, 6, 12), (3, 9, 27)]
    for case in range(80):
        orders = chains[case % len(chains)]
        weights = [tuple(rng.randint(-40, 40) for _ in orders) for _ in range(rng.randint(2, 6))]
        decomp = sector_dimensions(mu_model(orders, weights))
        fragment = sector_rows_to_json(decomp.sectors)
        reference = reference_sector_rows(decomp.sectors)
        assert fragment == json.dumps(reference, indent=2, sort_keys=True)

        def place(rows):
            # at the top, inside a dict inside a dict, and inside a list inside a list
            return {"rows": rows, "results": {"rows": rows, "n": 1},
                    "list": [[rows], {"deep": rows}]}

        expected = json.dumps(place(reference), indent=2, sort_keys=True)
        assert render_json(place(fragment)) == expected
        if orders and case % 4 == 0:
            argv = ["sectors", "--orders", ",".join(map(str, orders)),
                    "--weights=" + ";".join(",".join(map(str, w)) for w in weights)]
            assert run(capsys, *argv)[1].splitlines()[2:-2] == reference_sector_lines(decomp)


def test_document_schema_keys(capsys):
    code, doc = run_json(capsys, "weyl", "--nmax", "1", "--trunc", "6")
    assert code == 0
    assert sorted(doc.keys()) == ["checks", "command", "inputs", "results", "truncation"]
    for check in doc["checks"]:
        assert sorted(check.keys()) == ["name", "pass"]
    row = doc["results"]["rows"][2]
    assert row["twist"] == 1
    monomials = {m["coeff"] for d in row["series"] for m in d["monomials"]}
    assert "1/12" in monomials  # exact strings, never floats


def test_weyl_rows_and_exit(capsys):
    code, out = run(capsys, "weyl", "--nmax", "10", "--trunc", "16")
    assert code == 0
    assert out.count("[pass]") >= 12


def test_weyl_renders_each_distinct_series_once(capsys, monkeypatch):
    from equitau.gradedring import GradedSeries
    from equitau.riemannroch import verify_weyl

    report = verify_weyl(3, 8)
    # one row whose three series differ takes the separate renderings
    row = report.rows[2]
    odd = dataclasses.replace(row, closed_form=row.pipeline + 1,
                              oracle_series=row.pipeline * 2, ok=False)
    rows = report.rows[:2] + (odd,) + report.rows[3:]
    monkeypatch.setattr(equitau.cli, "verify_weyl",
                        lambda nmax, trunc: dataclasses.replace(report, rows=rows))
    # a series is rendered, its JSON and its text alike, from its term table
    to_str, to_table, rendered = GradedSeries.__str__, GradedSeries.term_table, []
    monkeypatch.setattr(GradedSeries, "term_table",
                        lambda self: rendered.append(self) or to_table(self))
    code, doc = run_json(capsys, "weyl", "--nmax", "3", "--trunc", "8")
    assert code == 1
    # one table per row, and the separate ones only for the odd row's differing series
    assert rendered == ([r.pipeline for r in rows[:3]] + [odd.closed_form, odd.oracle_series]
                        + [r.pipeline for r in rows[3:]])
    for got, expected in zip(doc["results"]["rows"], rows, strict=True):
        assert got["series_text"] == to_str(expected.pipeline)
        assert got["closed_form_text"] == to_str(expected.closed_form)
        assert got["sections_series_text"] == to_str(expected.oracle_series)


def test_pushforward_closed_form_check(capsys):
    code, out = run(capsys, "pushforward", "--weights", "1,-1", "--poly", "0,0,0,1", "--trunc", "8")
    assert code == 0
    assert "pushforward: t^2" in out
    assert "check [pass] odd-part closed form agreement" in out


@pytest.mark.parametrize("poly, trunc, series", [("0,1", "0", "1"), ("0,0,0,0,0,1", "4", "t^4")])
def test_pushforward_check_passes_at_the_top_degree(capsys, poly, trunc, series):
    code, out = run(capsys, "pushforward", "--weights=1,-1", f"--poly={poly}", f"--trunc={trunc}")
    assert code == 0
    assert f"pushforward: {series}" in out
    assert "check [pass] odd-part closed form agreement" in out


def test_sectors_totals(capsys):
    code, doc = run_json(capsys, "sectors", "--order", "6", "--weights", "0,1")
    assert code == 0
    assert doc["results"]["total_dimension"] == 12
    assert doc["results"]["vistoli_kernel_dimension"] == 10
    assert doc["results"]["free_module_dimension"] == 12
    assert [r["order"] for r in doc["results"]["rows"]] == [1, 2, 3, 6]


def test_sectors_orders_product(capsys):
    code, doc = run_json(capsys, "sectors", "--orders", "2,2", "--weights", "0,0;1,0;0,1")
    assert code == 0
    assert doc["results"]["total_dimension"] == 12


def test_support_output(capsys):
    code, out = run(capsys, "support", "--order", "6", "--point", "1/3")
    assert code == 0
    assert "H = Z/3" in out


def test_support_drops_unit_orders_with_their_values(capsys):
    _, unit_and_six = run_json(capsys, "support", "--orders", "1,6", "--point", "0,1/3")
    _, six = run_json(capsys, "support", "--orders", "6", "--point", "1/3")
    _, six_only = run_json(capsys, "support", "--orders", "1,6", "--point", "1/3")
    assert unit_and_six["results"] == six["results"] == six_only["results"]
    code, unit = run_json(capsys, "support", "--orders", "1", "--point", "0")
    assert code == 0
    assert unit["results"]["support"] == {"free_rank": 0, "torsion_orders": [], "name": "1"}
    assert unit["results"]["point_order"] == 1


def test_support_refuses_a_fraction_at_a_unit_order(capsys):
    assert main(["support", "--orders", "1,6", "--point", "1/2,1/3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "equitau: error: value 1/2 invalid on a torsion generator of order 1\n"
    )


def test_segal_certificate(capsys):
    code, doc = run_json(capsys, "segal", "--n", "2", "--degree", "2")
    assert code == 0
    assert doc["results"]["found"] is True
    assert doc["results"]["cofactors_text"]
    assert all(c["pass"] for c in doc["checks"])


def test_segal_not_found_reports_failure(capsys):
    # bound 0 only allows constant cofactors; (t1-1)^2 needs degree 1
    code, out = run(capsys, "segal", "--n", "2", "--degree", "2", "--bound", "0")
    assert code == 1
    assert "not a proof of non-membership" in out


def test_segal_negative_bound_exits_2(capsys):
    code = main(["segal", "--n", "2", "--degree", "3", "--bound", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "equitau: error: search bound must be nonnegative, got -1\n"


@pytest.mark.parametrize("n", [0, -3])
def test_segal_n_below_one_exits_2(capsys, n):
    code = main(["segal", "--n", str(n), "--degree", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"equitau: error: n must be positive, got {n}\n"


def test_env_var_truncation(capsys, monkeypatch):
    monkeypatch.setenv("EQUITAU_TRUNC", "4")
    code, doc = run_json(capsys, "chi", "--weights", "1,-1", "--twist", "1")
    assert code == 0
    assert doc["truncation"] == 4
    # explicit flag wins over the environment
    code, doc = run_json(capsys, "chi", "--weights", "1,-1", "--twist", "1", "--trunc", "6")
    assert doc["truncation"] == 6


def test_deterministic_output(capsys):
    _, first = run(capsys, "sectors", "--order", "8", "--weights", "0,1", "--format", "json")
    _, second = run(capsys, "sectors", "--order", "8", "--weights", "0,1", "--format", "json")
    assert first == second


def test_selftest_runs_every_criterion(capsys):
    code, doc = run_json(capsys, "selftest")
    assert code == 0
    names = [row["name"] for row in doc["results"]["criteria"]]
    assert len(names) == 8
    assert all(row["pass"] for row in doc["results"]["criteria"])


def test_chi_below_minus_dim_carries_a_check(capsys):
    code, doc = run_json(capsys, "chi", "--weights", "1,0", "--twist", "-5")
    assert code == 0
    assert doc["checks"] == [{"name": "section-oracle agreement up to truncation", "pass": True}]
    assert doc["results"]["degree_zero"] == "-4"


def test_selftest_rejects_trunc(capsys):
    assert main(["selftest", "--trunc", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--trunc" in captured.err


def test_flag_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--weights", "1,-1"])  # missing --twist
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "equitau chi: error: the following arguments are required: --twist\n"


def test_help_still_prints_the_usage_block(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["segal", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: equitau segal [-h] --n N --degree DEGREE")
    assert "--bound BOUND" in out and "cofactor exponent box bound" in out


def test_semantic_errors_exit_2(capsys):
    code = main(["sectors", "--weights", "0,1"])  # neither --order nor --orders
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_failed_certificate_reverification_exits_1(capsys, monkeypatch):
    def failing_search(*args):
        raise CertificateError("certificate failed exact re-verification")

    monkeypatch.setattr(equitau.cli, "segal_certificate", failing_search)
    code = main(["segal", "--n", "2", "--degree", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "equitau: check failed: certificate failed exact re-verification\n"


def test_closed_pipe_exits_without_traceback():
    src = os.path.dirname(os.path.dirname(os.path.abspath(equitau.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "equitau.cli", "weyl", "--nmax", "10", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader is gone before the first write
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def test_support_point_with_zero_denominator_exits_2(capsys):
    code = main(["support", "--order", "6", "--point", "1/0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "equitau: error: --point '1/0' has a zero denominator\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sectors", "--order", "6", "--weights", "0,1"],
        ["support", "--order", "6", "--point", "1/3"],
        ["segal", "--n", "2", "--degree", "2"],
        ["chi", "--weights", "1,-1", "--twist", "1"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_truncation_exits_2(capsys, monkeypatch, argv, source):
    if source == "flag":
        argv = [*argv, "--trunc", "-1"]
    else:
        monkeypatch.setenv("EQUITAU_TRUNC", "-1")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "equitau: error: truncation must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["chi", "--weights", "1,0,0;0,1,0;0,0,1;1,1,1", "--twist", "1", "--trunc", "40"], None,
         "P^3 over a rank-3 torus at truncation 40 is too large: 72219532 units of work "
         "(limit 8000000)"),
        (["chi", "--weights", ",".join(map(str, range(54))), "--twist", "1", "--trunc", "0"], None,
         "P^53 over a rank-1 torus at truncation 0 is too large: 8503110 units of work "
         "(limit 8000000)"),
        (["weyl", "--nmax", "2"], "129", "truncation 129 is above the limit 128"),
        (["pushforward", "--weights", "1,2,3", "--poly", "0,0,0,1", "--trunc", str(10**20)], None,
         f"truncation {10**20} is above the limit 128"),
    ],
    ids=["chi", "chi-dim", "weyl-env", "pushforward"],
)
def test_a_model_too_large_for_the_series_pipeline_exits_2_in_one_line(
    capsys, monkeypatch, argv, env, message
):
    def refuse(*args):
        raise AssertionError("built before the size check")

    monkeypatch.setattr(equitau.cli, "torus_model", refuse)
    monkeypatch.setattr(equitau.cli, "verify_weyl", refuse)
    if env is not None:
        monkeypatch.setenv("EQUITAU_TRUNC", env)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"equitau: error: {message}\n")


def test_the_largest_pinned_runs_pass_the_series_size_check():
    from equitau.charclass import check_series_size

    check_series_size(1, 1, 64)  # weyl --trunc 64
    check_series_size(3, 3, 16)  # P^3 over a rank-3 torus, twist 81
    check_series_size(4, 4, 10)  # P^4 over a rank-4 torus
    check_series_size(3, 3, 24)  # the largest accepted P^3 over a rank-3 torus
    with pytest.raises(ValueError, match="truncation 25 is too large"):
        check_series_size(3, 3, 25)


def test_selftest_reports_every_criterion_time(capsys, monkeypatch):
    criteria = [("first", lambda: (True, "one")), ("second", lambda: (False, "two"))]
    monkeypatch.setattr(equitau.selftest, "CRITERIA", criteria)
    code, doc = run_json(capsys, "selftest")
    assert code == 1
    assert sorted(doc.keys()) == ["checks", "command", "inputs", "results", "truncation"]
    rows = doc["results"]["criteria"]
    assert [sorted(row) for row in rows] == [["detail", "name", "pass"]] * 2
    for row, stem in zip(rows, ("one", "two")):
        assert re.fullmatch(stem + r", \d+\.\d\ds", row["detail"]), row["detail"]


def test_build_parser_is_built_once():
    assert equitau.cli.build_parser() is equitau.cli.build_parser()


FLAG_VALUES = ["3", "0", "-1", "-5", "", "x", "1,-1", "-1,2", "0,1;1,0", "1/3", "2,1/6",
               "text", "json", "xml", "007", " 4", "a=b", "9" * 30]
ODD_FLAGS = ["--deg", "--w", "--tw", "--tr", "--form", "--foo", "-h", "--help", "--", "-1",
             "-", "--weights-x", "--Trunc"]


def converts(action, value):
    try:
        value = value if action.type is None else action.type(value)
    except ValueError:
        return False
    return action.choices is None or value in action.choices


def random_argv(rng, commands):
    """A random argv, most often one read_flags can read, in both flag forms.

    Each required flag is likely present, most values convert, and now and
    then a token comes from ``ODD_FLAGS`` or a flag is left without a value.
    """
    name = rng.choice(commands + ["nope", ""])
    flags = equitau.cli.flag_tables()[name][1] if name in commands else {"--n": None}
    picked = [f for f, a in flags.items() if a is not None and a.required and rng.random() < 0.9]
    picked += rng.choices(list(flags), k=rng.randrange(4))
    rng.shuffle(picked)
    argv = [name]
    for flag in picked:
        if rng.random() < 0.05:
            flag = rng.choice(ODD_FLAGS)
        action = flags.get(flag)
        good = [v for v in FLAG_VALUES if action is not None and converts(action, v)]
        value = rng.choice(good if good and rng.random() < 0.8 else FLAG_VALUES)
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    if rng.random() < 0.05:
        argv.append(rng.choice(list(flags)))  # a flag with no value
    return argv


def test_read_flags_returns_what_argparse_returns_or_declines(capsys):
    """Over a seeded corpus, the one-pass reader either declines or returns
    the Namespace ``parse_args`` returns for the same argv."""
    read_flags, parser = equitau.cli.read_flags, equitau.cli.build_parser()
    commands = sorted(equitau.cli.flag_tables())
    assert commands == ["chi", "pushforward", "sectors", "segal", "selftest", "support", "weyl"]
    rng = random.Random(20261021)
    accepted = {name: 0 for name in commands}
    for _ in range(4000):
        argv = random_argv(rng, commands)
        args = read_flags(argv)
        if args is not None:
            assert args == parser.parse_args(argv), argv
            accepted[args.command] += 1
    assert min(accepted.values()) >= 50, accepted
    accept = [
        ["selftest"],
        ["weyl", "--nmax", "3"],
        ["chi", "--weights=-1,2", "--twist=-1", "--char=", "--trunc=0"],  # "=": any value
        ["chi", "--weights", "1,-1", "--twist", "1", "--twist=2", "--format", "text"],
        ["pushforward", "--poly=a=b", "--weights", ""],
        ["sectors", "--order=3", "--orders", "6,12", "--weights=0,1;1,0"],
        ["support", "--point=1/3", "--format=json", "--order", "007"],
        ["segal", "--n=2", "--degree=3", "--bound=1", "--n", "3"],
    ]
    for argv in accept:
        args = read_flags(argv)
        assert args is not None and args == parser.parse_args(argv), argv
    assert read_flags(accept[3]).twist == 2  # a repeated flag keeps its last value
    decline = [
        [],
        ["nope", "--n=1"],  # an unknown subcommand
        ["segal", "--n=2", "--deg=3"],  # an abbreviation
        ["segal", "--n=2", "--degree=3", "--foo=1"],  # an unknown flag
        ["chi", "-h"],
        ["weyl", "--nmax=2", "--help"],
        ["chi", "--weights=1,-1", "--twist=x"],  # the type raises
        ["chi", "--weights=1,-1", "--twist=1", "--format=xml"],  # outside the choices
        ["chi", "--weights=1,-1"],  # a required flag is missing
        ["chi", "--weights", "-1,2", "--twist", "1"],  # argparse: --weights has no value
        ["chi", "--weights", "1,-1", "--twist", "-1"],  # argparse: --twist is -1
        ["chi", "--weights=1,-1", "--twist"],  # a trailing flag with no value
        ["chi", "--", "--weights=1,-1", "--twist=1"],
        ["chi", "--weights=1,-1", "--twist=1", "--"],
    ]
    for argv in decline:
        assert read_flags(argv) is None, argv
    assert capsys.readouterr() == ("", "")  # the reader prints nothing


def benchmark_pool_argvs():
    """Every CLI job's argv in the benchmark's hrr and certificates pools."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [job["argv"] for w in ("hrr", "certificates") for job in workloads.pool(w)]


def test_every_benchmark_argv_is_read_in_one_pass():
    argvs = benchmark_pool_argvs()
    assert len(argvs) > 500
    parser = equitau.cli.build_parser()
    for argv in argvs:
        assert argv[-2:] == ["--format", "json"]
        args = equitau.cli.read_flags(argv)
        assert args is not None and args == parser.parse_args(argv), argv


def test_in_process_runs_match_fresh_processes(capsys, monkeypatch):
    """The cached parser keeps no state between calls: a mixed sequence of
    in-process runs, errors first, prints to stdout and stderr what fresh
    interpreters print."""
    monkeypatch.delenv("EQUITAU_TRUNC", raising=False)
    runs = [
        ["support", "--order", "6", "--point", "1/0"],  # exit 2, one-line error
        ["chi", "--weights", "1,-1"],  # argparse usage error, exit 2
        ["segal", "--n", "2", "--degree", "3", "--format", "json"],
        ["sectors", "--orders", "6,12", "--weights", "0,1;1,0", "--format", "json"],
        ["chi", "--weights", "1,-1", "--twist", "2", "--trunc", "6"],
        ["segal", "--n", "2", "--degree", "4", "--bound", "1"],  # nothing found, exit 1
        ["weyl", "--nmax", "2", "--trunc", "6", "--format", "json"],
        ["support", "--orders", "4,8", "--point", "1/4,3/8"],
        ["segal", "--n", "2", "--deg", "3", "--format", "json"],  # an abbreviation, via argparse
        ["chi", "--weights", "1,-1", "--twist", "2", "--foo", "1"],  # unknown flag, exit 2
        ["chi", "--weights", "1,-1", "--twist", "x"],  # bad int, exit 2
        ["chi", "--weights", "1,-1", "--twist", "2", "--format", "xml"],  # bad choice, exit 2
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(equitau.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    procs = [
        subprocess.Popen([sys.executable, "-m", "equitau.cli", *argv],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for argv in runs
    ]
    in_process = []
    for argv in runs:
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        in_process.append((status, captured.out, captured.err))
    fresh = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        fresh.append((proc.returncode, out.decode(), err.decode()))
    assert in_process == fresh
    assert [status for status, _, _ in fresh] == [2, 2, 0, 0, 0, 1, 0, 0, 0, 2, 2, 2]
    assert fresh[8][1] == fresh[2][1]  # --deg reads as --degree
    assert all(len(err.splitlines()) == 1 for status, _, err in fresh if status == 2)


@pytest.mark.parametrize(
    "argv, monomials",
    [
        (["chi", "--weights", "1,-1", "--twist", "-99999999999999999999"], 10**20 - 2),
        (["chi", "--weights", "0,1,2,3", "--twist", "300"], math.comb(303, 3)),
        (["weyl", "--nmax", "99999999999999999999"], math.comb(10**20 + 1, 2)),
    ],
    ids=["chi-serre", "chi", "weyl"],
)
def test_oversized_section_oracle_exits_2(capsys, argv, monomials):
    assert main([*argv, "--trunc", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"equitau: error: the section oracle would enumerate {monomials} monomials "
        "(limit 100000)\n"
    )


def test_a_chi_job_just_under_the_oracle_limit_runs(capsys):
    # C(81 + 3, 3) = 95,284 monomials on P^3
    code, doc = run_json(capsys, "chi", "--weights", "0,1,2,3", "--twist", "81", "--trunc", "2")
    assert code == 0
    assert doc["results"]["degree_zero"] == str(math.comb(84, 3))
    assert all(check["pass"] for check in doc["checks"])


@pytest.mark.parametrize(
    "argv, unknowns",
    [
        (["--n", "5", "--degree", "2", "--bound", "3"], 5 * 7**5),
        (["--n", "1", "--degree", "1", "--bound", "5000"], 10**4 + 1),
    ],
    ids=["n5", "n1"],
)
def test_oversized_segal_search_exits_2(capsys, argv, unknowns):
    assert main(["segal", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"equitau: error: the certificate search would solve for {unknowns} unknowns "
        "(limit 10000)\n"
    )


def no_generators(n):
    raise AssertionError(f"built the generators for n = {n}")


def test_an_oversized_segal_search_is_refused_before_any_generator_is_built(capsys, monkeypatch):
    monkeypatch.setattr(equitau.reprring, "gl_augmentation_generators", no_generators)
    assert main(["segal", "--n", "18", "--degree", "2", "--bound", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        f"equitau: error: the certificate search would solve for {18 * 3**18} unknowns "
        "(limit 10000)\n"
    ))


def test_a_negative_segal_degree_exits_2_with_its_own_message(capsys):
    assert main(["segal", "--n", "2", "--degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "equitau: error: degree must be nonnegative, got -1\n")


def test_sectors_refuses_a_group_too_large_to_enumerate(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated the group")

    monkeypatch.setattr(equitau.finitestab, "character_orbits", no_enumeration)
    monkeypatch.setattr(equitau.lattice.GroupDescriptor, "elements", no_enumeration)
    assert main(["sectors", "--orders", "10,1000000", "--weights", "0,0;1,1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "equitau: error: the group has order 10000000 (limit 100000)\n")


def test_a_segal_search_just_under_the_unknown_limit_runs(capsys):
    # one generator, t_1 - 1, times 2 * 4999 + 1 cofactor monomials: 9,999 unknowns
    code, doc = run_json(capsys, "segal", "--n", "1", "--degree", "1", "--bound", "4999")
    assert code == 0
    assert all(check["pass"] for check in doc["checks"])
    # segal --n 4 --degree 4 (default bound 3) stays admitted: 4 * 7^4 unknowns
    assert len(gl_augmentation_generators(4)) * 7**4 == 9604 <= CERTIFICATE_UNKNOWN_LIMIT


def test_a_segal_search_with_too_many_entries_exits_2_at_once(capsys, monkeypatch):
    # bound 0 leaves 20 unknowns, but e_1..e_20 - C(20, k) have 2^20 - 1 + 20 terms
    monkeypatch.setattr(equitau.reprring, "gl_augmentation_generators", no_generators)
    start = time.perf_counter()
    assert main(["segal", "--n", "20", "--degree", "2", "--bound", "0"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "equitau: error: the certificate search's system would have 1048595 nonzero entries "
        "(limit 100000)\n"
    ))


@pytest.mark.parametrize("n", [10**4, 10**7])
def test_a_segal_count_past_10_to_the_30_gets_the_guards_own_message(capsys, monkeypatch, n):
    # 10^4 * 3^(10^4) has more digits than Python converts to a string, and 3^(10^7)
    # takes seconds to form: neither is formed
    monkeypatch.setattr(equitau.reprring, "gl_augmentation_generators", no_generators)
    start = time.perf_counter()
    assert main(["segal", "--n", str(n), "--degree", "2"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "equitau: error: the certificate search would solve for more than 10^30 unknowns "
        "(limit 10000)\n"
    ))


@pytest.mark.parametrize("degree", [14292, 14500, 10**12])
def test_a_segal_degree_past_the_print_limit_exits_2_at_once(capsys, monkeypatch, degree):
    monkeypatch.setattr(equitau.reprring, "gl_augmentation_generators", no_generators)
    start = time.perf_counter()
    assert main(["segal", "--n", "1", "--degree", str(degree), "--bound", "0"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        f"equitau: error: the target (t_1 - 1)^{degree} has a coefficient of more than 4300 "
        "digits (limit degree 14291)\n"
    ))


def test_the_segal_degree_limit_is_the_last_degree_that_prints():
    # C(d, d // 2), the largest coefficient of (t_1 - 1)^d, grows with d
    limit = equitau.reprring.SEGAL_DEGREE_LIMIT
    assert math.comb(limit, limit // 2) < 10**4300 <= math.comb(limit + 1, (limit + 1) // 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_closed_form_segal_target_is_the_power(monkeypatch, n):
    monkeypatch.setattr(equitau.reprring, "ideal_membership_certificate", lambda *args: None)
    t1 = RepRingElement.character(torus_group(n), (1,) + (0,) * (n - 1))
    for degree in range(13):
        target = equitau.reprring.segal_certificate(n, degree, 0)[0]
        assert target == (t1 - 1) ** degree and str(target) == str((t1 - 1) ** degree)


def test_an_entry_count_past_10_to_the_30_gets_the_guards_own_message(capsys, monkeypatch):
    # bound 0 leaves 200 unknowns, but e_1..e_200 - C(200, k) have 2^200 - 1 + 200 terms
    monkeypatch.setattr(equitau.reprring, "gl_augmentation_generators", no_generators)
    assert main(["segal", "--n", "200", "--degree", "2", "--bound", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "equitau: error: the certificate search's system would have more than 10^30 nonzero "
        "entries (limit 100000)\n"
    ))


def test_capped_counts_are_exact_up_to_10_to_the_30():
    capped_count = equitau.reprring._capped_count
    assert capped_count(18, 3, 18) == 18 * 3**18
    assert capped_count(1, 10, 30) == 10**30
    assert capped_count(1, 10, 31) is None
    assert capped_count(1, 3, 10**12) is None  # after 64 steps
    assert capped_count(10**30 + 1, 3, 0) is None
    # no step is taken for a zero count or a base of 1, whatever the exponent
    assert (capped_count(0, 3, 10**12), capped_count(4, 1, 10**12)) == (0, 4)
    assert capped_count(10**30 + 1, 1, 10**12) is None


def test_the_segal_entry_count_admits_n_16_and_refuses_n_17_at_bound_0(monkeypatch):
    class Admitted(Exception):
        pass

    def admitted(n):
        raise Admitted

    monkeypatch.setattr(equitau.reprring, "gl_augmentation_generators", admitted)
    with pytest.raises(Admitted):
        equitau.reprring.segal_certificate(16, 2, 0)  # 65,551 entries
    with pytest.raises(ValueError, match="131088 nonzero entries"):
        equitau.reprring.segal_certificate(17, 2, 0)
    # segal --n 4 --degree 4 (default bound 3) stays admitted
    assert (2**4 - 1 + 4) * 7**4 == 45619 <= CERTIFICATE_ENTRY_LIMIT
    check_certificate_size(1, CERTIFICATE_ENTRY_LIMIT, 1, 0)
    with pytest.raises(ValueError, match=f"{CERTIFICATE_ENTRY_LIMIT + 1} nonzero entries"):
        check_certificate_size(1, CERTIFICATE_ENTRY_LIMIT + 1, 1, 0)


@pytest.mark.parametrize("n, bound", [(1, 3), (2, 2), (3, 1), (4, 0)])
def test_the_segal_entry_count_is_the_systems_nonzero_entries(monkeypatch, n, bound):
    # a member, degree >= n: a non-member builds no system; the count does not depend on the degree
    systems = []
    monkeypatch.setattr(equitau.reprring, "_solve_sparse_linear", lambda eqs: systems.append(eqs))
    equitau.reprring.segal_certificate(n, max(n, 2), bound)
    assert sum(len(row) for row, _ in systems[0]) == (2**n - 1 + n) * (2 * bound + 1) ** n


# sha256 of the JSON and the text stdout, recorded when every non-member still went
# through the box search and its Farkas vector
SEGAL_NON_MEMBER_DIGESTS = {
    "--n 3 --degree 2 --bound 1": ("877378dc71a915c4507027617dd03cc87bc1760e8e6e269e87269edcf529eebe",
                                   "259a44c25d87a59236e3d05f3683d5acb15b8b0100be4e47b578cdace5db49ce"),
    "--n 3 --degree 2 --bound 2": ("00b38eedcd2f55e20039529d22f1a49acc03939db51436d5461f6b9a9fb60d1b",
                                   "a7429fd795d0e41a5535c21656759fe55d9a096888f6cf01ac9e9f536faf3e18"),
    "--n 3 --degree 2 --bound 3": ("a4ba0de259bad17332bed4a4e1a4550ad1741dd7db09194e0ddc25f2c03ff842",
                                   "d71575aa33416ec428c3a136348786707c74aee3149f08fcd8c032871c44b3f2"),
    "--n 4 --degree 2 --bound 2": ("1327527816ad3122cc1cfe7217a2da4413a4c63e615cb6ed86e07d5974580f6f",
                                   "82e5b59cb319663c0ab820ee62ab538af9d09d6fe3c4f66a662b77d96d06cd92"),
    "--n 5 --degree 4 --bound 1": ("cae0fcde3461de1fc3718517fc2dea72ba5b179f6739848fc0e3f5b126f17f9b",
                                   "68c86c293e7e06f9b01ce9a2d714875385482856801a597efbe37a66f281ef47"),
    "--n 4 --degree 3": ("ab390aaf8a236825bf35ffdca8bac4ef14ec677211499f6d1b3da118a9295570",
                         "92361936e3d96253015b4b46ec3480341be109de7f60702b5b1d86e26b8dd859"),
}


@pytest.mark.parametrize("args", SEGAL_NON_MEMBER_DIGESTS)
def test_a_segal_non_member_prints_the_box_searchs_bytes(capsys, args):
    for argv, digest in zip((args.split() + ["--format", "json"], args.split()),
                            SEGAL_NON_MEMBER_DIGESTS[args]):
        code, out = run(capsys, "segal", *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1, digest), argv


@pytest.mark.parametrize("argv, message", [
    (["--n", "17", "--degree", "2", "--bound", "0"],
     "the certificate search's system would have 131088 nonzero entries (limit 100000)"),
    (["--n", "10000000", "--degree", "2"],
     "the certificate search would solve for more than 10^30 unknowns (limit 10000)"),
], ids=["entries", "unknowns"])
def test_a_segal_non_member_is_refused_by_the_guards_before_its_normal_form(
        capsys, monkeypatch, argv, message):
    def no_normal_form(*args):
        raise AssertionError("computed a normal form")

    monkeypatch.setattr(equitau.reprring, "segal_normal_form", no_normal_form)
    assert main(["segal", *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"equitau: error: {message}\n")


def test_a_segal_remainder_that_fails_its_re_expansion_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(equitau.reprring, "_segal_remainder", lambda degree, monomials: {})
    assert main(["segal", "--n", "4", "--degree", "3", "--bound", "2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "equitau: check failed: the normal form of (t_1 - 1)^3 failed its re-expansion\n"
    ))


def test_a_solve_that_fails_both_moduli_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(equitau.reprring, "_satisfies", lambda equations, solution: False)
    monkeypatch.setattr(equitau.reprring, "_is_farkas_vector", lambda equations, y: False)
    assert main(["segal", "--n", "2", "--degree", "2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "equitau: check failed: the linear solve failed its exact check modulo a prime past 2 H^2\n"
    ))


def test_importing_the_cli_leaves_the_selftest_criteria_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(equitau.__file__)))
    code = "import sys, equitau.cli; print('equitau.selftest' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (result.returncode, result.stdout) == (0, "False\n")


def test_python_dash_m_equitau(capsys, monkeypatch):
    monkeypatch.delenv("EQUITAU_TRUNC", raising=False)
    src = os.path.dirname(os.path.dirname(os.path.abspath(equitau.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "equitau", *argv], capture_output=True, env=env, timeout=120
        )

    assert python_m("selftest").returncode == 0
    weyl = python_m("weyl", "--nmax", "2", "--format", "json")
    assert (weyl.returncode, weyl.stdout.decode()) == run(capsys, "weyl", "--nmax", "2", "--format", "json")
