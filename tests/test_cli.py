"""Command-line behavior: parsing, output formats, exit codes, and the
bundled verification suites."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from opuc import cli
from opuc.cli import (CliError, literal_value, main, parse_complex_literal,
                      random_alpha_table)
from opuc.paths import count_paths


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# literal parsing


def test_literal_rational_and_imaginary_parts():
    assert parse_complex_literal("2/5+1/5i") == (
        Fraction(2, 5), Fraction(1, 5), False)
    assert parse_complex_literal("-i") == (0, -1, False)
    assert parse_complex_literal("3/4") == (Fraction(3, 4), 0, False)
    assert parse_complex_literal("-0.3") == (-0.3, 0, True)
    assert parse_complex_literal("1e-2") == (0.01, 0, True)


def test_literal_rejects_malformed_input():
    for bad in ("", "1+2", "i+i", "abc", "1+2+3i", "1/0"):
        with pytest.raises(CliError):
            parse_complex_literal(bad)


def test_literal_value_modes():
    assert literal_value("1/2", "symbolic") == Fraction(1, 2)
    gr = literal_value("2/5+1/5i", "symbolic")
    assert (gr.re, gr.im) == (Fraction(2, 5), Fraction(1, 5))
    assert literal_value("0.5", "numeric") == 0.5
    assert literal_value("1/2+1/2i", "numeric") == 0.5 + 0.5j
    with pytest.raises(CliError):
        literal_value("0.5", "symbolic")


@pytest.mark.parametrize("argv, parses", [
    (("--alphas", "1/2,1/3,2/5+1/5i"), 3),
    (("--family", "rogers_szego", "--param", "q=1/3"), 1),
])
def test_each_literal_is_parsed_once(capsys, monkeypatch, argv, parses):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_complex_literal(text)

    monkeypatch.setattr(cli, "parse_complex_literal", counted)
    code, out, err = _run(capsys, "moment", *argv)
    assert code == 0 and err == ""
    assert len(calls) == parses


def test_random_tables_are_deterministic_and_bounded():
    a = random_alpha_table(random.Random(5), 20)
    b = random_alpha_table(random.Random(5), 20)
    assert a == b and len(a) == 20
    assert all(abs(z) <= 0.9 for z in a)


# ---------------------------------------------------------------------------
# moment subcommand


def test_moment_all_methods_agree_for_constant_family(capsys):
    code, out, err = _run(capsys, "moment", "--family", "geronimus",
                          "--param", "alpha=0.5", "-n", "3", "--method",
                          "all")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("mu(")]
    assert len(lines) == 6
    assert all("0.6875" in ln for ln in lines)
    assert "agreement: PASS" in out


def test_moment_zero_shift_is_kronecker(capsys):
    code, out, err = _run(capsys, "moment", "--alphas", "0.3,0.2,0.1",
                          "-n", "0", "-r", "2", "-s", "2")
    assert code == 0
    assert "= 1 " in out


def test_moment_symbolic_default_sequence(capsys):
    code, out, err = _run(capsys, "moment", "-n", "1")
    assert code == 0
    assert "= a0 " in out


def test_moment_zero_alpha_surfaces_as_exit_two(capsys):
    code, out, err = _run(capsys, "moment", "--family", "al-salam-carlitz",
                          "--param", "q=0.5", "-n", "2", "--method",
                          "schroder")
    assert code == 2
    assert "index 0" in err


def test_moment_all_skips_the_undefined_method(capsys):
    code, out, err = _run(capsys, "moment", "--family", "al-salam-carlitz",
                          "--param", "q=0.5", "-n", "2", "--method", "all")
    assert code == 0
    assert "skipped: zero alpha_0" in out
    assert "schroder" in out
    assert "agreement: PASS" in out


def test_moment_oracle_refuses_a_unit_circle_coefficient(capsys):
    # symbolic geronimus admits |alpha| = 1, so rho_0 = 0 and phi_1 has norm
    # 0; the oracle divides by that norm, the path routes do not
    argv = ("moment", "--family", "geronimus", "--param", "alpha=1",
            "-n", "2", "-r", "1", "-s", "1", "--method")
    for method in ("oracle", "all"):
        code, out, err = _run(capsys, *argv, method)
        assert code == 1 and out == ""
        assert err == ("error: the oracle divides by <phi_1, phi_1>, which "
                       "is 0: rho_0 = 0\n")
    code, out, err = _run(capsys, *argv, "lukasiewicz")
    assert code == 0 and out.startswith("mu(2,1,1) lukasiewicz  = 1 ")


def test_a_wrong_route_fails_both_cross_checks(capsys, monkeypatch):
    # the route table is read at call time, so a rebound route is used by
    # `moment --method all` and by the cross-model suite alike
    monkeypatch.setattr(cli, "moment_gmotzkin",
                        lambda vs, n, r, s: 7 * vs.one())
    code, out, err = _run(capsys, "verify", "--suite", "cross-model",
                          "--max", "1")
    assert code == 1
    [chk] = json.loads(out)["checks"]
    assert chk["status"] == "fail" and "gmotzkin" in chk["detail"]
    code, out, err = _run(capsys, "moment", "-n", "1", "--method", "all")
    assert code == 1
    assert "mu(1,0,0) gmotzkin     = 7 " in out
    assert out.endswith("agreement: FAIL\n")


def test_generic_moment_cost_guard(capsys):
    limit = cli.GENERIC_MOMENT_LIMIT
    for n, r, s in ((limit + 1, 0, 0), (0, limit, limit + 1), (3, limit, 0)):
        for method in ("lukasiewicz", "oracle", "all"):
            code, out, err = _run(capsys, "moment", "-n", str(n), "-r", str(r),
                                  "-s", str(s), "--method", method)
            assert code == 1 and out == ""
            assert err == ("error: generic symbolic moments need "
                           "n + max(r, s) <= %d, got %d; use --family or "
                           "--alphas for larger indices\n"
                           % (limit, n + max(r, s)))
    # the limit itself is admitted, and the guard ignores --family and
    # --alphas, whose values stay small
    code, out, err = _run(capsys, "moment", "-n", "0", "-r", str(limit))
    assert code == 0 and out.startswith("mu(0,%d,0) lukasiewicz  = 0 " % limit)
    code, out, err = _run(capsys, "moment", "--family", "rogers_szego",
                          "--param", "q=1/3", "-n", str(limit + 4), "-r", "2",
                          "--method", "all")
    assert code == 0 and out.endswith("agreement: PASS\n")
    table = ",".join(["1/4"] * (limit + 3))
    code, out, err = _run(capsys, "moment", "--alphas", table,
                          "-n", str(limit + 2), "--method", "lukasiewicz")
    assert code == 0 and err == ""


def test_moment_closed_method(capsys):
    code, out, err = _run(capsys, "moment", "--family", "mass_point",
                          "--param", "gamma=1/2", "-n", "2", "-s", "1",
                          "--method", "closed")
    assert code == 0
    assert "= 1/3 " in out
    code, out, err = _run(capsys, "moment", "--family", "geronimus",
                          "--param", "alpha=1/2", "-n", "3", "--method",
                          "closed")
    assert code == 0
    assert "= 11/16 " in out


def test_moment_closed_method_needs_support(capsys):
    code, out, err = _run(capsys, "moment", "--method", "closed", "-n", "1")
    assert code == 1 and "requires --family" in err
    code, out, err = _run(capsys, "moment", "--family", "al_salam_carlitz",
                          "--param", "q=1/2", "-n", "1", "-r", "1",
                          "--method", "closed")
    assert code == 1 and "no closed (n, r, s) moment" in err


def test_moment_json_format(capsys):
    code, out, err = _run(capsys, "moment", "--family", "geronimus",
                          "--param", "alpha=1/2", "-n", "2", "--method",
                          "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["config_echo"]["subcommand"] == "moment"
    assert doc["config_echo"]["mode"] == "symbolic"
    assert len(doc["results"]) == 6
    assert {rec["value"] for rec in doc["results"]} == {"5/8"}
    assert doc["checks"][0]["status"] == "pass"


TABLE = ["-0.21875+0.484375i", "-0.203125+0.296875i", "0.09375+0.265625i",
         "0.703125+0.015625i", "-0.71875-0.359375i", "0.046875+0.5i"]


def _moment_values(capsys, table, n, r, s):
    code, out, err = _run(capsys, "moment", "--alphas=" + ",".join(table),
                          "-n", str(n), "-r", str(r), "-s", str(s),
                          "--method", "all", "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert [chk["status"] for chk in doc["checks"]] == ["pass"]
    return {rec["method"]: rec["value"] for rec in doc["results"]}


def test_moment_zero_prints_unsigned_on_every_route(capsys):
    # Re alpha_0 < 0 must not sign an empty sum; a zero alpha_1 makes a
    # one-step weight -alpha_2 * conj(alpha_1) a signed float zero
    values = _moment_values(capsys, TABLE, 0, 2, 0)
    assert values == dict.fromkeys(
        ("lukasiewicz", "gmotzkin", "schroder", "matrix_u", "matrix_cmv",
         "oracle"), "0")
    values = _moment_values(capsys, ["-0.5", "0", "0.25", "0", "0.5"], 1, 2, 2)
    assert set(values.values()) == {"0"} and len(values) == 5


def test_moment_table_of_r_plus_n_plus_one_entries_suffices(capsys):
    # past s = r + n, phi_s is orthogonal to z^n phi_r: every route,
    # the oracle included, answers 0 without reading alpha_{r+n+1}..
    for n, r in ((2, 0), (1, 1), (0, 2), (1, 0)):
        for s in range(r + n + 3):
            values = _moment_values(capsys, TABLE[:r + n + 1], n, r, s)
            assert len(values) == 6, (n, r, s, values)
            if s > r + n:
                assert set(values.values()) == {"0"}, (n, r, s, values)


def test_moment_csv_format(capsys):
    code, out, err = _run(capsys, "moment", "--alphas", "1/2,1/3", "-n", "2",
                          "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,s,method,value,elapsed_ms"
    assert lines[1].startswith("2,0,0,lukasiewicz,")


TABLE_MINUS = "-1/2,1/4+1/8i,-3/8"


def test_alphas_with_leading_minus_in_either_spelling(capsys):
    for cmd in (("moment", "-n", "2", "--method", "all"),
                ("paths", "--model", "negative", "-n", "2")):
        outputs = []
        for flag in (["--alphas", TABLE_MINUS], ["--alphas=" + TABLE_MINUS],
                     ["--alph", TABLE_MINUS]):
            code, out, err = _run(capsys, *cmd, *flag, "--format", "json")
            assert code == 0, err
            doc = json.loads(out)
            for rec in doc["results"]:
                rec.pop("elapsed_ms", None)
            outputs.append(doc)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0]["config_echo"]["alphas"] == TABLE_MINUS


def test_conflicting_sequence_flags(capsys):
    code, out, err = _run(capsys, "moment", "--family", "geronimus",
                          "--param", "alpha=1/2", "--alphas", "1/2")
    assert code == 1 and "mutually exclusive" in err


def test_an_empty_alphas_value_is_refused_in_every_spelling(capsys):
    # an empty value names no sequence; it must not fall back to the
    # generic symbols
    for flag in (["--alphas="], ["--alphas", ""], ["--alphas", ","]):
        code, out, err = _run(capsys, "moment", *flag)
        assert (code, out, err) == (1, "", "error: --alphas is empty\n"), flag


def test_decimal_literal_rejected_in_symbolic_mode(capsys):
    code, out, err = _run(capsys, "moment", "--alphas", "0.5", "--mode",
                          "symbolic")
    assert code == 1 and "numeric mode" in err


def test_short_table_is_reported_not_raised(capsys):
    code, out, err = _run(capsys, "moment", "--alphas", "1/2", "-n", "4")
    assert code == 1
    assert "table has 1 entries" in err


def test_unknown_family_and_wrong_parameter_name(capsys):
    code, out, err = _run(capsys, "moment", "--family", "nope",
                          "--param", "x=1")
    assert code == 1 and "unknown family" in err
    code, out, err = _run(capsys, "moment", "--family", "mass_point",
                          "--param", "alpha=1/2")
    assert code == 1 and "takes parameter" in err


# ---------------------------------------------------------------------------
# paths subcommand


def test_paths_listing_counts_five(capsys):
    code, out, err = _run(capsys, "paths", "--model", "lukasiewicz",
                          "-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[-1].startswith("total over 5 paths")


def test_paths_zero_step_listing(capsys):
    code, out, err = _run(capsys, "paths", "--model", "gmotzkin", "-n", "0",
                          "-r", "2", "-s", "2")
    assert code == 0
    assert "(empty)" in out
    assert "total over 1 paths = 1" in out


def test_paths_cap_exceeded_is_exit_three(capsys):
    code, out, err = _run(capsys, "paths", "--model", "lukasiewicz",
                          "-n", "3", "--cap", "4")
    assert code == 3
    assert "more than 4" in err


def test_generic_paths_cost_guard(capsys):
    limit = cli.GENERIC_PATH_LIMIT
    # Lukasiewicz at n = 10 lists 16796 paths
    for model in ("lukasiewicz", "gmotzkin", "negative"):
        code, out, err = _run(capsys, "paths", "--model", model, "-n", "10")
        assert (code, out) == (3, "")
        assert err == ("error: more than %d %s paths for (n=10, r=0, s=0) on "
                       "the generic symbols; use --family or --alphas for "
                       "larger listings\n" % (limit, model))
    # a --cap below the limit keeps its own refusal; the guard ignores
    # --family and --alphas
    code, out, err = _run(capsys, "paths", "--model", "schroder", "-n", "8",
                          "--cap", "99")
    assert code == 3 and err == ("error: more than 99 schroder paths for "
                                 "(n=8, r=0, s=0)\n")
    code, out, err = _run(capsys, "paths", "--model", "gmotzkin", "--family",
                          "geronimus", "--param", "alpha=1/2", "-n", "10")
    assert code == 0 and "\ntotal over 16796 paths = " in out
    # with r, s <= 2, every listing up to n = 6 is served, Schroder's up to
    # n = 5, and Schroder's at (7, 0, 0) too
    for model in ("lukasiewicz", "gmotzkin", "schroder", "negative"):
        for n in range(6 if model == "schroder" else 7):
            for r in range(3):
                for s in range(3):
                    assert count_paths(model, n, r, s) <= limit
    assert count_paths("schroder", 7, 0, 0) == 8558
    code, out, err = _run(capsys, "paths", "--model", "lukasiewicz", "-n", "6",
                          "-r", "2", "-s", "1")
    assert code == 0 and "\ntotal over 572 paths = " in out


def test_a_listing_deeper_than_the_recursion_limit(capsys):
    n = str(sys.getrecursionlimit())
    code, out, err = _run(capsys, "paths", "--model", "lukasiewicz", "-n", n,
                          "-s", n, "--alphas=0.5")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "  0  " + " ".join(["U"] * int(n)) + " 1"
    assert lines[1:] == ["total over 1 paths = 1"]


def test_paths_refuses_a_negative_cap(capsys):
    code, out, err = _run(capsys, "paths", "--model", "lukasiewicz",
                          "-n", "3", "--cap", "-3")
    assert (code, out, err) == (1, "", "error: --cap must be nonnegative, "
                                       "got -3\n")
    code, out, err = _run(capsys, "paths", "--model", "lukasiewicz",
                          "-n", "3", "--cap", "0")
    assert code == 3 and err.startswith("error: more than 0 lukasiewicz")


def test_family_refuses_a_negative_count(capsys):
    argv = ("family", "--name", "mass_point", "--param", "gamma=1/2")
    code, out, err = _run(capsys, *argv, "--count", "-2")
    assert (code, out, err) == (1, "", "error: --count must be nonnegative, "
                                       "got -2\n")
    code, out, err = _run(capsys, *argv, "--count", "0")
    assert code == 0 and out.count("\n") == 1 and "mass_point" in out


def test_paths_json_format(capsys):
    code, out, err = _run(capsys, "paths", "--model", "lukasiewicz",
                          "-n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    total = doc["results"][-1]
    assert total["kind"] == "total" and total["count"] == 5


@pytest.mark.parametrize("doc", [
    {}, [], (), 0, "", None,
    {"b": [], "a": {}, "c": [[], {}, ()]},
    {"z": {"y": [1, [2, {"k": None, "t": True, "f": False}]]}, "a": (1,)},
    [{"re": 0.1 + 0.2, "im": -0.0, "tiny": 5e-324, "big": 1e300},
     [float("nan"), float("inf"), -float("inf")], {"n": 2 ** 70}],
    {"sym": "éü☃\U0001d6fc", "esc": "tab\tquote\"\\\n",
     "nested": {"α": ["é", {"ü": 1}]}},
    {"results": [{"b": "},\n{", "a": "}"}, {"a": "{},", "c": None},
                 {"z": 1.5}], "one": [{"k": "v"}]},
    [[{"a": 1}, {}], [{"a": 1}, {"b": [2]}], [{"a": 1}, 2], ({"a": ()},)],
], ids=["empty-object", "empty-list", "empty-tuple", "int", "empty-string",
        "null", "empty-leaves", "nested", "floats", "non-ascii", "records",
        "not-records"])
def test_json_text_is_the_indented_encoding(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# family subcommand


def test_family_listing(capsys):
    code, out, err = _run(capsys, "family")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert any("geronimus" in ln for ln in lines)


def test_family_detail(capsys):
    code, out, err = _run(capsys, "family", "--name", "rogers-szego",
                          "--param", "q=1/4", "--count", "3")
    assert code == 0
    assert "closed forms: yes" in out
    assert "alpha_1 = -1/4" in out


def test_family_detail_without_closed_forms(capsys):
    code, out, err = _run(capsys, "family", "--name", "al_salam_carlitz",
                          "--param", "q=1/3", "--count", "2")
    assert code == 0
    assert "closed forms: no" in out
    assert "alpha_0 = 0" in out


def test_family_rejects_out_of_range_parameter(capsys):
    code, out, err = _run(capsys, "family", "--name", "mass_point",
                          "--param", "gamma=2")
    assert code == 1 and "0 < gamma < 1" in err


# ---------------------------------------------------------------------------
# verify subcommand


@pytest.mark.parametrize("suite", ["cross-model", "reciprocity",
                                   "determinants", "linearization",
                                   "positivity"])
def test_verify_suites_pass_symbolically(capsys, suite):
    code, out, err = _run(capsys, "verify", "--suite", suite, "--max", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]
    assert all(chk["status"] == "pass" for chk in doc["checks"])


def test_verify_families_suite(capsys):
    code, out, err = _run(capsys, "verify", "--suite", "families",
                          "--max", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 18
    assert all(chk["status"] == "pass" for chk in doc["checks"])


def test_verify_cross_model_numeric(capsys):
    code, out, err = _run(capsys, "verify", "--suite", "cross-model",
                          "--max", "2", "--mode", "numeric", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 3


def test_verify_numeric_runs_only_the_seeded_suites(capsys):
    code, out, err = _run(capsys, "verify", "--max", "2", "--mode",
                          "numeric")
    assert code == 0
    doc = json.loads(out)
    assert doc["config_echo"]["mode"] == "numeric"
    assert ([chk["suite"] for chk in doc["checks"]]
            == ["cross-model"] * 3 + ["reciprocity"] + ["determinants"] * 2)
    for suite in ("families", "linearization", "positivity"):
        code, out, err = _run(capsys, "verify", "--suite", suite, "--mode",
                              "numeric")
        assert (code, out) == (1, "")
        assert err == ("error: suite %s has no numeric mode; --mode numeric "
                       "runs cross-model, reciprocity, determinants\n"
                       % suite)


def test_verify_reciprocity_records_orientation(capsys):
    code, out, err = _run(capsys, "verify", "--suite", "reciprocity",
                          "--max", "2")
    assert code == 0
    doc = json.loads(out)
    detail = doc["checks"][0]["detail"]
    assert "rho_product" in detail and "conj" in detail


def test_verify_text_format(capsys):
    code, out, err = _run(capsys, "verify", "--suite", "determinants",
                          "--max", "3", "--format", "text")
    assert code == 0
    assert "all passed" in out
    assert out.count("PASS") >= 2


def _recording_suites(monkeypatch):
    # every suite replaced by one that records (name, max) and checks
    # nothing, so that no test here waits for a real suite
    ran = []

    def recorder(name):
        return lambda checks, maxn, *rest: ran.append((name, maxn))

    monkeypatch.setattr(cli, "_SUITE_TABLE", tuple(
        (name, recorder(name), default, seeded)
        for name, _, default, seeded in cli._SUITE_TABLE))
    return ran


def test_verify_refuses_a_negative_max_before_any_suite(capsys, monkeypatch):
    ran = _recording_suites(monkeypatch)
    for suite in cli.VERIFY_SUITES:
        for mode in ("symbolic", "numeric"):
            code, out, err = _run(capsys, "verify", "--suite", suite,
                                  "--max", "-1", "--mode", mode)
            assert (code, out, err) == (
                1, "", "error: --max must be nonnegative, got -1\n")
    assert ran == []
    code, out, err = _run(capsys, "verify", "--max", "0")
    assert code == 0
    assert ran == [(name, 0) for name in cli.VERIFY_SUITES[:-1]]


def test_symbolic_seeded_suites_stay_within_the_moment_guard(capsys,
                                                             monkeypatch):
    # a seeded suite reaches the generic moment (max, max, max)
    ran = _recording_suites(monkeypatch)
    limit = cli.GENERIC_MOMENT_LIMIT // 2
    seeded = ("cross-model", "reciprocity", "determinants")
    named = {"all": ", ".join(seeded)}
    named.update((suite, suite) for suite in seeded)
    for suite in named:
        code, out, err = _run(capsys, "verify", "--suite", suite,
                              "--max", str(limit + 1))
        assert (code, out) == (1, "")
        assert err == ("error: symbolic mode needs --max <= %d for %s, got "
                       "%d; use --mode numeric for larger indices\n"
                       % (limit, named[suite], limit + 1))
    assert ran == []
    # the limit itself, numeric mode, and the three fixed-data suites at
    # any --max are admitted
    code, out, err = _run(capsys, "verify", "--max", str(limit))
    assert code == 0 and len(ran) == 6
    del ran[:]
    code, out, err = _run(capsys, "verify", "--max", str(limit + 1),
                          "--mode", "numeric")
    assert code == 0 and ran == [(name, limit + 1) for name in seeded]
    del ran[:]
    for suite in ("families", "linearization", "positivity"):
        code, out, err = _run(capsys, "verify", "--suite", suite,
                              "--max", "12")
        assert code == 0
    assert ran == [("families", 12), ("linearization", 12),
                   ("positivity", 12)]


def test_verify_details_list_the_failing_cells_in_order(capsys, monkeypatch):
    # each route doubles its value at cells whose integer arguments sum to
    # a number not divisible by 3, so every check below fails on a known
    # set of cells; the shifted-index details print every cell, the
    # others the first four
    def doubled_at_some_cells(fn):
        def wrong(*args):
            val = fn(*args)
            ints = [a for a in args if type(a) is int]
            return val + val if sum(map(abs, ints)) % 3 else val
        return wrong

    for name in ("moment_negative", "toeplitz_det", "closed_moment_nm",
                 "closed_moment_nrs", "star_to_phi_coeff_paths",
                 "star_to_star_coeff_paths", "star_pairing_oracle"):
        monkeypatch.setattr(cli, name,
                            doubled_at_some_cells(getattr(cli, name)))
    monkeypatch.setattr(cli, "det_identity_check",
                        lambda vs, m, n: (0, 0, (m + n) % 2 == 0))
    code, out, err = _run(capsys, "verify", "--max", "2")
    assert code == 1
    failed = {chk["name"]: chk["detail"]
              for chk in json.loads(out)["checks"] if chk["status"] == "fail"}
    assert len(failed) == 23
    expected = {
        "rho-ratio conjugation":
            "mismatches: [(0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 0, 1)]",
        "toeplitz vs rho powers": "failed orders: [1, 2]",
        "shifted-index factorization":
            "failed (m, n): [(-2, 1), (-1, 0), (-1, 2), (0, 1), (1, 0), "
            "(1, 2), (2, 1)]",
        "nm[mass_point(gamma=1/2)]":
            "failed (n, m): [(1, 0), (1, 1), (2, 0), (2, 2)]",
        "nrs[mass_point(gamma=1/2)]":
            "failed (n, r, s): [(0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 0, 1)]",
        "nm[geronimus(alpha=1)]":
            "failed (n, m): [(1, 0), (1, 1), (2, 0), (2, 2)]",
        "path companions":
            "failed: [('star_to_phi', 1, 0, 0), ('star_to_star', 1, 0, 0), "
            "('star_to_phi', 1, 0, 1), ('star_to_star', 1, 0, 1)]",
        "negative-index pairing":
            "failed: [(1, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 2)]",
    }
    assert {name: failed[name] for name in expected} == expected


# ---------------------------------------------------------------------------
# output destinations and parser behavior


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, err = _run(capsys, "moment", "-n", "1", "--format", "json",
                          "--out", str(dest))
    assert code == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert doc["results"][0]["value"] == "a0"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["moment", "--method", "bogus"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 1


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["moment", "--alphas", HUGE, "--mode", "numeric"],
    ["moment", "--family", "circular_jacobi", "--param", "a=" + HUGE,
     "--mode", "numeric", "-n", "2"],
], ids=["alphas", "family"])
def test_float_overflow_exits_one(capsys, argv):
    # a literal too large for a float fails as bad input, not a traceback
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: integer division result too large for a float\n"


def _comparable(argv, code, out, err):
    if "json" in argv and code == 0:
        doc = json.loads(out)
        for rec in doc["results"]:
            rec.pop("elapsed_ms", None)
        out = doc
    return code, out, err


def test_repeated_main_calls_print_what_fresh_processes_print(capsys):
    # the parser is built once per process; a usage error in between must
    # leave nothing behind for the calls after it
    argvs = (["moment", "-n", "2", "-r", "1", "--method", "all",
              "--format", "json"],
             ["moment", "--method", "bogus"],
             ["paths", "--model", "gmotzkin", "-n", "2", "-r", "1"],
             ["moment", "--method", "closed"],
             ["family", "--name", "rogers_szego", "--param", "q=1/3",
              "--count", "3"],
             ["moment", "-n", "2", "-r", "1", "--method", "all",
              "--format", "json"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "opuc.cli", *argv],
                               env=env, capture_output=True, text=True)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (_comparable(argv, code, captured.out, captured.err)
                == _comparable(argv, fresh.returncode, fresh.stdout,
                               fresh.stderr)), argv
