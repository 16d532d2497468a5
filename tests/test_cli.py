"""Command-line behavior: the documented examples, exit codes, output
formats, determinism, and input plumbing.

Commands run in-process through redrank.cli.main so the tests stay
fast; the console entry point wraps the same function.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

import redrank
from redrank import bounds, cli, poly
from redrank.bounds import (LEMMA_DIMENSION_CAP, RANKIN_DIMENSION_CAP,
                            levenshtein_bound)
from redrank.census import MINEQ_R_CAP
from redrank.cli import main
from redrank.exact import QSqrt2
from redrank.formats import graph6_decode, graph6_encode
from redrank.graphs import Graph, is_reduced, rank


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_of_k4_prints_four(capsys):
    code, out, err = run(capsys, "rank", "--graph6", "C~")
    assert code == 0
    assert out == "4\n"
    assert err == ""


def test_rank_json(capsys):
    code, out, _ = run(capsys, "rank", "--graph6", "C~", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"schema": 1, "command": "rank", "order": 4, "rank": 4}


def test_rank_csv(capsys):
    code, out, _ = run(capsys, "rank", "--graph6", "C~", "--format", "csv")
    assert code == 0
    assert out == "order,rank\n4,4\n"


def test_reduce_text_prints_graph6(capsys):
    code, out, _ = run(capsys, "reduce", "--graph6", "Cr")
    assert code == 0
    assert out == "A_\n"


def test_tau_rho_delta(capsys):
    code, out, _ = run(capsys, "tau", "--graph6", "Ch")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "rho", "--graph6", "Cr")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "delta", "--graph6", "Ch",
                       "--u", "0", "--v", "2")
    assert (code, out) == (0, "1\n")


def test_witness_json(capsys):
    code, out, _ = run(capsys, "witness", "--graph6", "Ch")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == 1
    assert blob["pair"] == [0, 2]
    assert blob["removed"] == [3]
    assert blob["split_ok"] is True
    assert blob["t1"] == [] and blob["t2"] == [3]


def test_bounds_lists_applicable_methods(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "10")
    assert code == 0
    blob = json.loads(out)
    methods = [r["method"] for r in blob["reports"]]
    assert methods == ["levenshtein", "closed_form", "rankin_integral"]
    code, _, _ = run(capsys, "bounds", "--n", "4")
    assert code == 0
    code, _, err = run(capsys, "bounds", "--n", "2")
    assert code == 2 and "error" in err


def test_bounds_omits_the_levenshtein_entry_past_the_cell_cap(capsys):
    # the cell of s0 lies past LOCATE_CELL_CAP at n = 20000, so only the
    # closed form and the acute Rankin bound are listed
    methods = ["closed_form", "rankin_integral"]
    listed = {"json": lambda out: [r["method"] for r in json.loads(out)["reports"]],
              "text": lambda out: [line.split()[1] for line in out.splitlines()],
              "csv": lambda out: [row.split(",")[1] for row in out.splitlines()[1:]]}
    for fmt, methods_of in listed.items():
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--n", "20000", "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "") and methods_of(out) == methods


def test_lev_exact_rendering(capsys):
    code, out, _ = run(capsys, "lev", "--n", "10")
    assert code == 0
    blob = json.loads(out)
    assert blob["value_exact"] == "354640/1697 + 85800/1697*sqrt2"
    assert blob["value_decimal"] == "280.482924956754010127981669144"
    assert blob["k"] == 3 and blob["branch"] == "B"
    code, out, _ = run(capsys, "lev", "--n", "5", "--s=-1/2",
                       "--format", "text")
    assert code == 0
    assert out.startswith("n=5 levenshtein 3.0000")


def test_lev_rejects_bad_cosine(capsys):
    code, _, err = run(capsys, "lev", "--n", "5", "--s", "pi")
    assert code == 2 and "cosine" in err
    code, _, err = run(capsys, "lev", "--n", "5", "--s", "3/2")
    assert code == 2


def test_lev_refusals_echo_a_short_prefix(capsys):
    # each refusal is one short line however long the argument; one of
    # 20 characters or fewer is echoed whole
    for s in ("7" * 5000, "1e" + "7" * 4998):
        code, out, err = run(capsys, "lev", "--n", "3", "--s", s)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200 and "(5000 characters)" in err
    code, _, err = run(capsys, "lev", "--n", "5", "--s", "pi")
    assert err == ("error: cosine 'pi' not understood; use 's0' or a "
                   "rational like -1/2\n")
    code, _, err = run(capsys, "lev", "--n", "5", "--s", "x" * 20)
    assert err.startswith(f"error: cosine {'x' * 20!r} not understood")


def test_lev_accepts_negative_cosine_after_space(capsys):
    for fmt in ("json", "text", "csv"):
        joined = run(capsys, "lev", "--n", "5", "--s=-1/2", "--format", fmt)
        spaced = run(capsys, "lev", "--n", "5", "--s", "-1/2", "--format", fmt)
        assert joined[0] == 0 and spaced == joined
    code, out, _ = run(capsys, "lev", "--n", "8", "--s", "-1")
    assert code == 0 and json.loads(out)["s"] == "-1"


def _parse_int(digits):
    """int(digits) without the interpreter's limit on string length."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _parse_fraction(text):
    num, _, den = text.partition("/")
    return Fraction(_parse_int(num), _parse_int(den or "1"))


def test_lev_renders_values_beyond_the_digit_limit(capsys):
    # the exact value has numerators of over 4,300 digits, past the
    # interpreter's default limit on integer-to-string conversion
    expected = levenshtein_bound(3, Fraction(99999, 100000)).value
    code, out, err = run(capsys, "lev", "--n", "3", "--s", "99999/100000")
    assert (code, err) == (0, "")
    blob = json.loads(out)
    assert QSqrt2(_parse_fraction(blob["value_exact"])) == expected
    assert len(blob["value_exact"]) > 4300
    assert (blob["k"], blob["branch"]) == (856, "A")
    decimal = "734097.308058071069175963777360"
    assert blob["value_decimal"] == decimal
    code, out, err = run(capsys, "lev", "--n", "3", "--s", "99999/100000",
                         "--format", "text")
    assert (code, out, err) == (0, f"n=3 levenshtein {decimal} k=856 branch=A\n", "")
    code, out, err = run(capsys, "lev", "--n", "3", "--s", "99999/100000",
                         "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"3,levenshtein,{decimal},,,856,A"


def test_lev_refuses_cosines_beyond_digit_cap(capsys):
    for s in ("1/" + "1" + "0" * 20, "-" + "9" * 21 + "/" + "1" * 22):
        code, out, err = run(capsys, "lev", "--n", "3", "--s", s)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "COSINE_DIGIT_CAP" in err


def test_lev_refuses_dimensions_beyond_digit_cap(capsys):
    # the scan's integers grow with the digits of n as with those of s
    start = time.perf_counter()
    for n in ("100000000000000000000", "1" + "0" * 200):
        code, out, err = run(capsys, "lev", "--n", n, "--s", "s0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "COSINE_DIGIT_CAP" in err and "Traceback" not in err
    assert time.perf_counter() - start < 0.5
    code, out, err = run(capsys, "lev", "--n", "99999999999999999999", "--s", "0")
    assert (code, err) == (0, "")
    assert out == ('{\n  "schema": 1,\n  "command": "lev",\n  "s": "0",\n'
                   '  "n": 99999999999999999999,\n  "method": "levenshtein",\n'
                   '  "value_decimal": "199999999999999999998.000000000",\n'
                   '  "threshold_decimal": null,\n  "holds": null,\n  "k": 2,\n'
                   '  "branch": "A",\n  "value_exact": "199999999999999999998"\n}\n')


def test_lev_refuses_cells_beyond_cap(capsys):
    code, out, err = run(capsys, "lev", "--n", "3", "--s", "9999999/10000000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "LOCATE_CELL_CAP" in err


def test_lev_refuses_an_uncertified_cell(capsys, monkeypatch):
    # a cell whose lower end Descartes' rule cannot certify is a
    # verification failure, and so is a scan that proposes a wrong cell
    scan = poly._scan
    for name, fake in (("_no_zero_above", lambda p, s: False),
                       ("_scan", lambda n, s: (scan(n, s)[0] + 3, False))):
        monkeypatch.setattr(poly, name, fake)
        code, out, err = run(capsys, "lev", "--n", "10", "--s", "s0")
        monkeypatch.undo()
        assert code == 1 and out == ""
        assert err.startswith("verification failure: ") and err.count("\n") == 1
        assert "Traceback" not in err


def _run_anywhere(argv, stdin=""):
    """(exit code, stdout, stderr) of main on argv with this stdin, with
    argparse's own usage errors (SystemExit) counted as exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_MALFORMED_COSINES = st.one_of(
    st.sampled_from(["", " ", "abc", "S0", "s0 0", "1/0", "0/0", "1//2",
                     "1/-2", "1/2/3", "1.2.3", "nan", "inf", "-inf", "0x10",
                     "1e", "--", "1e10000000", "-1e-10000000",
                     "0e0_9999999", "1" * 5000]),
    st.text(alphabet="0123456789/-+.eE_ s", max_size=14))


@st.composite
def _cosine_texts(draw):
    """s0, a malformed string, or p/q with |p| <= q of at most 6 digits."""
    kind = draw(st.sampled_from(["ratio", "s0", "malformed"]))
    if kind == "malformed":
        return draw(_MALFORMED_COSINES)
    if kind == "s0":
        return "s0"
    q = draw(st.integers(1, 999_999))
    return f"{draw(st.integers(-q, q))}/{q}"


@seed(20121)
@settings(max_examples=150, deadline=None, database=None)
@given(n=st.one_of(st.integers(-5, 200),
                   st.sampled_from([10 ** 20 - 1, 10 ** 20, 10 ** 40])),
       s=_cosine_texts())
def test_lev_exits_cleanly_on_any_input(n, s):
    code, out, err = _run_anywhere(["lev", "--n", str(n), "--s", s])
    assert code in (0, 1, 2), (n, s, code)
    assert "Traceback" not in err
    if code:
        assert out == "" and err, (n, s)
    else:
        assert json.loads(out)["n"] == n


def _integer_args(cap):
    """Small integers, integers just past `cap`, or strings that are no
    integer at all."""
    return st.one_of(st.integers(-5, 130).map(str),
                     st.integers(cap + 1, cap + 3).map(str),
                     st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--",
                                      "nan", "7" * 5000]))


@st.composite
def _numeric_commands(draw):
    """An argument list for a command that takes integer options, its
    values drawn so that every accepted run stays small."""
    command = draw(st.sampled_from(["bounds", "rankin", "lemma5", "lemma8",
                                    "mineq", "extremal"]))
    if command == "bounds":
        return ["bounds", "--n", draw(_integer_args(RANKIN_DIMENSION_CAP))]
    if command == "rankin":
        return ["rankin", "--n", draw(_integer_args(RANKIN_DIMENSION_CAP)),
                "--case", draw(st.sampled_from(["half_pi", "obtuse", "acute",
                                                "right"]))]
    if command in ("lemma5", "lemma8"):
        return [command,
                "--from", draw(_integer_args(LEMMA_DIMENSION_CAP)),
                "--to", draw(_integer_args(LEMMA_DIMENSION_CAP))]
    if command == "mineq":
        return ["mineq", "--r-max", draw(_integer_args(MINEQ_R_CAP))]
    return ["extremal", "--rank", draw(_integer_args(12))]


@seed(20122)
@settings(max_examples=250, deadline=None, database=None)
@given(argv=_numeric_commands())
def test_numeric_commands_exit_cleanly_on_any_input(argv):
    code, out, err = _run_anywhere(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err, argv
    elif code == 1:
        # the one exit 1 here is a lemma sweep with a bound that fails,
        # which still prints its report
        assert argv[0] in ("lemma5", "lemma8"), argv
        assert json.loads(out)["all_hold"] is False
    else:
        assert json.loads(out)["command"] == argv[0]


_GRAPH6_NOISE = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=130),
                        max_size=14)


@st.composite
def _graph6_texts(draw):
    """A graph6 string of order 0..12, kept, cut, extended or with one
    character replaced, or noise."""
    if draw(st.booleans()):
        return draw(_GRAPH6_NOISE)
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                       max_size=len(pairs)))) if keep]
    text = graph6_encode(Graph.from_edges(n, edges))
    at = draw(st.integers(0, len(text)))
    char = draw(st.characters(min_codepoint=32, max_codepoint=130))
    return draw(st.sampled_from([text, text[:at], text + char,
                                 text[:at] + char + text[at + 1:]]))


@st.composite
def _edge_lists(draw):
    """An edge-list document with a header, edge lines and comments,
    each token an integer near the range or a stray word."""
    token = st.one_of(st.integers(-2, 13).map(str),
                      st.sampled_from(["", "x", "1.5", "3 4", "#", "258048"]))
    n = draw(st.one_of(st.integers(-1, 12).map(str), token))
    edges = draw(st.lists(st.tuples(token, token), max_size=10))
    m = draw(st.sampled_from([len(edges), len(edges) + 1, max(len(edges) - 1, 0)]))
    lines = [f"{n} {m}"] + [f"{u} {v}" for u, v in edges]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def _graph_invocations(draw):
    """(argv, stdin) for a graph command on a mostly malformed graph,
    inline, or as graph6 or an edge list on stdin."""
    command = draw(st.sampled_from(["rank", "rho", "tau", "delta", "witness",
                                    "reduce"]))
    argv = [command]
    if command == "delta":
        vertex = st.one_of(st.integers(-1, 4).map(str), st.just("x"))
        argv += ["--u", draw(vertex), "--v", draw(vertex)]
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    source = draw(st.sampled_from(["inline", "graph6", "edges", "auto"]))
    if source == "inline":
        return argv + ["--graph6", draw(_graph6_texts())], ""
    text = draw(_graph6_texts()) if source == "graph6" else draw(_edge_lists())
    return argv + ["--input", "-", "--input-format", source], text


@seed(20123)
@settings(max_examples=200, deadline=None, database=None)
@given(invocation=_graph_invocations())
def test_graph_commands_exit_cleanly_on_any_input(invocation):
    argv, stdin = invocation
    code, out, err = _run_anywhere(argv, stdin)
    assert code in (0, 1, 2), (argv, stdin, code)
    assert "Traceback" not in err
    if code:
        assert out == "" and err, (argv, stdin)
    else:
        assert out and err == "", (argv, stdin)


def test_lev_refuses_large_exponents_at_once(capsys):
    # Fraction would build 10^exponent before any digit cap applies
    start = time.perf_counter()
    for s in ("1e10000000", "-1E-0_10000000", "0e9999999"):
        code, out, err = run(capsys, "lev", "--n", "3", "--s", s)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "exponent" in err
    assert time.perf_counter() - start < 0.5
    code, out, _ = run(capsys, "lev", "--n", "5", "--s", "3e-0_01",
                       "--format", "text")
    assert (code, out) == (0, "n=5 levenshtein 22.3711340206185567010309278351"
                              " k=2 branch=B\n")


def test_rho_refuses_searches_beyond_cap(capsys):
    # C_160 is reduced, of rank 158 and degree 2, so rho would try its
    # 160 single vertices, each counted (160/20)^2 (360/220) times; C_116's
    # 116 are within the cap
    c160 = graph6_encode(Graph.cycle(160))
    for fmt in ("json", "text", "csv"):
        code, out, err = run(capsys, "rho", "--graph6", c160, "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "RHO_SUBSET_CAP" in err
    c116 = graph6_encode(Graph.cycle(116))
    assert run(capsys, "rho", "--graph6", c116) == (0, "2\n", "")


def _rho_reports(name, rho):
    n = graph6_decode(GOLDEN_GRAPHS[name]).n
    return {"text": f"{rho}\n", "csv": f"order,rho\n{n},{rho}\n",
            "json": json.dumps({"schema": 1, "command": "rho", "order": n,
                                "rho": rho}, indent=2) + "\n"}


def test_rho_answers_nonsingular_graphs_at_once(capsys):
    # the dense golden graphs are nonsingular, so rho <= n - rank + 1 = 1;
    # twins150 has a nonsingular twin quotient (rank 12 on 12 classes),
    # so rho is its lightest class, of 7 vertices
    for name, rho in (("dense63", 1), ("dense100", 1), ("dense150", 1),
                      ("twins150", 7)):
        for fmt, out in _rho_reports(name, rho).items():
            assert run(capsys, "rho", "--graph6", GOLDEN_GRAPHS[name],
                       "--format", fmt) == (0, out, "")


@pytest.mark.parametrize("name, rho", [("twins63", 4), ("twins100", 3),
                                       ("twins150", 7)])
def test_rho_answers_twin_blowups(capsys, name, rho):
    for fmt, out in _rho_reports(name, rho).items():
        assert run(capsys, "rho", "--graph6", GOLDEN_GRAPHS[name],
                   "--format", fmt) == (0, out, "")
    # by full-graph ranks: deleting some union of twin classes of weight
    # rho lowers rank(g), and deleting no lighter union does
    g = graph6_decode(GOLDEN_GRAPHS[name])
    classes = {}
    for v, row in enumerate(g.rows):
        if row:
            classes.setdefault(row, []).append(v)
    base = rank(g)
    dropping = set()
    for k in range(1, rho + 1):
        for union in itertools.combinations(classes.values(), k):
            removed = [v for members in union for v in members]
            if len(removed) <= rho and rank(g.without(removed)) < base:
                dropping.add(len(removed))
    assert min(dropping) == rho


def test_witness_answers_any_number_of_pairs(capsys):
    # k twin pairs over C_k; vertex 2k sees the first member of each pair,
    # and without the split vertex 2k + 1 sees the first members of all
    # pairs but the last, where it sees the second
    for k in (17, 40):
        edges = [(x, y) for i in range(k) for x in (i, k + i)
                 for y in ((i + 1) % k, k + (i + 1) % k)]
        edges += [(2 * k, i) for i in range(k)]
        for split in (True, False):
            extra = [] if split else (
                [(2 * k + 1, i) for i in range(k - 1)] + [(2 * k + 1, 2 * k - 1)])
            g = Graph.from_edges(2 * k + 1 + (not split), edges + extra)
            code, out, err = run(capsys, "witness", "--graph6", graph6_encode(g))
            assert code == 0 and err == ""
            blob = json.loads(out)
            assert len(blob["classes"]) == k
            assert blob["split_ok"] == split
            if split:
                assert blob["t1"] == [2 * k] and blob["t2"] == []


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "_cmd_scalar", interrupted)
    code, out, err = run(capsys, "rank", "--graph6", "C~")
    assert (code, out, err) == (130, "", "interrupted\n")


def test_rankin_cases(capsys):
    code, out, _ = run(capsys, "rankin", "--n", "8", "--case", "half_pi")
    assert code == 0
    assert json.loads(out)["value_decimal"].startswith("16.000")
    code, out, _ = run(capsys, "rankin", "--n", "8", "--case", "obtuse")
    assert json.loads(out)["value_decimal"].startswith("9.000")
    code, out, _ = run(capsys, "rankin", "--n", "8", "--case", "acute")
    assert json.loads(out)["method"] == "rankin_integral"


def test_rankin_renders_values_beyond_the_digit_limit(capsys):
    # the acute value at n = 40000 has more than 4300 digits, the
    # interpreter's default limit for int-to-str conversion
    code, out, err = run(capsys, "rankin", "--n", "40000", "--case", "acute")
    assert code == 0 and err == ""
    blob = json.loads(out)
    assert blob["value_decimal"].endswith("e+4651")
    numerator, denominator = blob["value_exact"].split("/")
    assert len(numerator) - len(denominator) in (4651, 4652)


@pytest.mark.parametrize("argv, cap", [
    (["rankin", "--case", "acute", "--n", "100001"], "RANKIN_DIMENSION_CAP"),
    (["lemma5", "--to", "10001"], "LEMMA_DIMENSION_CAP"),
    (["lemma8", "--from", "10001", "--to", "10001"], "LEMMA_DIMENSION_CAP"),
    (["mineq", "--r-max", "1001"], "MINEQ_R_CAP"),
])
def test_dimension_caps_refuse_before_any_work(capsys, argv, cap):
    assert (RANKIN_DIMENSION_CAP, LEMMA_DIMENSION_CAP) == (100_000, 10_000)
    assert MINEQ_R_CAP == 1_000
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert cap in err and "Traceback" not in err


def test_lemma_sweep_admits_its_cap(capsys):
    code, out, err = run(capsys, "lemma8", "--from", "10000", "--to", "10000")
    assert (code, err) == (0, "")
    assert [r["n"] for r in json.loads(out)["reports"]] == [10000]


def test_lemma_sweep_peak_memory(traced_peak):
    # the benchmark's sweep with stdout captured as its harness does: the
    # reports are rendered one closed-form window at a time and JSON is
    # written in blocks (a list of every report, then one JSON string,
    # took 16.7 MB traced, text 3.5 MB and csv 4.4 MB)
    for fmt, limit_mb in (("json", 10), ("text", 2), ("csv", 3)):
        out = io.StringIO()
        argv = ["lemma5", "--from", "47", "--to", "3000", "--format", fmt]
        with contextlib.redirect_stdout(out):
            peak = traced_peak(lambda: main(argv))
        assert out.getvalue().count("\n") > 2954, fmt
        assert peak < limit_mb * 10 ** 6, (fmt, peak)


def test_lemma_refusal_creates_no_output_file(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    code, out, err = run(capsys, "lemma5", "--to", "10001", "--output", str(path))
    assert code == 2 and out == "" and "LEMMA_DIMENSION_CAP" in err
    assert not path.exists()


def test_lemma_error_mid_sweep_prints_nothing(capsys, tmp_path, monkeypatch):
    # a failure in the second closed-form window, after reports exist
    real = bounds.closed_form_sweep

    def failing(lo, hi, offset):
        if lo > 119:
            raise ValueError("window refused")
        return real(lo, hi, offset)

    monkeypatch.setattr(bounds, "closed_form_sweep", failing)
    path = tmp_path / "sweep"
    for fmt in ("json", "text", "csv"):
        argv = ["lemma5", "--to", "500", "--format", fmt]
        assert run(capsys, *argv) == (2, "", "error: window refused\n")
        assert run(capsys, *argv, "--output", str(path))[:2] == (2, "")
        assert not path.exists()


@pytest.mark.parametrize("command", ["lemma5", "lemma8"])
@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_lemma_output_file_matches_stdout(capsys, tmp_path, command, fmt):
    # past n = 118 and across two closed-form windows
    argv = [command, "--from", "110", "--to", "700", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    path = tmp_path / "report"
    assert run(capsys, *argv, "--output", str(path)) == (code, "", "")
    assert path.read_bytes() == out.encode()


def test_lemma5_short_window_all_hold(capsys):
    code, out, _ = run(capsys, "lemma5", "--from", "47", "--to", "52")
    assert code == 0
    blob = json.loads(out)
    assert blob["all_hold"] is True
    assert [r["n"] for r in blob["reports"]] == list(range(47, 53))
    assert all(r["holds"] for r in blob["reports"])


def test_lemma8_defaults_and_csv(capsys):
    code, out, _ = run(capsys, "lemma8", "--to", "10", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,method,value_decimal,threshold_decimal,holds,k,branch"
    assert len(lines) == 9    # header + n in 3..10


def test_census_counts(capsys):
    code, out, _ = run(capsys, "census", "--max-order", "5",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["1,1,0", "2,2,1", "3,4,1",
                                    "4,11,4", "5,34,12"]


def test_conjecture_holds(capsys):
    code, out, _ = run(capsys, "conjecture", "--max-order", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["holds"] is True
    assert blob["violations"] == []


def test_conjecture_stream_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nCr\nDQc\n"))
    code, out, _ = run(capsys, "conjecture", "--max-order", "5",
                       "--input", "-")
    assert code == 0
    blob = json.loads(out)
    assert blob["holds"] is True


def test_extremal_roundtrip(capsys):
    code, out, _ = run(capsys, "extremal", "--rank", "4",
                       "--format", "text")
    assert code == 0
    g = graph6_decode(out.strip())
    assert g.n == 6 and rank(g) == 4
    code, _, err = run(capsys, "extremal", "--rank", "99")
    assert code == 2


def test_mineq_and_lemmas(capsys):
    code, out, _ = run(capsys, "mineq", "--r-max", "12")
    assert code == 0
    assert json.loads(out)["holds"] is True
    code, out, _ = run(capsys, "lemmas", "--max-order", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["holds"] is True
    assert blob["graphs_processed"] == 18


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "rank")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "rank", "--graph6", "C~",
                       "--input", "x.g6")
    assert code == 2


def test_format_errors_exit_two(capsys):
    code, _, err = run(capsys, "rank", "--graph6", "!!")
    assert code == 2 and "line 1" in err
    code, _, err = run(capsys, "census", "--max-order", "11")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "tau", "--graph6", "C~")
    assert code == 2


def test_missing_input_file_exit_two(capsys):
    code, _, err = run(capsys, "rank", "--input", "/no/such/file.g6")
    assert code == 2


def test_graph6_file_input(capsys, tmp_path):
    one = tmp_path / "one.g6"
    one.write_text("Cr\n")
    for fmt in ("json", "text", "csv"):
        inline = run(capsys, "rank", "--graph6", "Cr", "--format", fmt)
        assert inline[0] == 0
        assert run(capsys, "rank", "--input", str(one), "--format", fmt) == inline
    two = tmp_path / "two.g6"
    two.write_text("C~\nCr\n")
    code, out, err = run(capsys, "rank", "--input", str(two))
    assert (code, out) == (2, "") and "expected exactly one graph" in err
    header = tmp_path / "header.g6"
    header.write_text(">>graph6<<\n")
    code, out, err = run(capsys, "rank", "--input", str(header))
    assert (code, out) == (2, "") and "no graphs found" in err


def test_edge_list_autodetect(capsys, tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "rank", "--input", str(path))
    assert (code, out) == (0, "4\n")
    code, out, _ = run(capsys, "rank", "--input", str(path),
                       "--input-format", "edges")
    assert (code, out) == (0, "4\n")


def test_edge_list_order_beyond_graph6_refused_at_once(capsys, tmp_path):
    # graph6 stops at order 258047, and so does the edge-list header,
    # before any row is built
    path = tmp_path / "big.edges"
    for header in ("10000000000000000000 0", "258048 0"):
        path.write_text(header + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "rank", "--input", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "") and "line 1" in err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_edge_list_of_isolated_vertices_ranks_at_once(capsys, tmp_path):
    # the rank runs on the twin quotient, empty here, not at order 8000
    path = tmp_path / "isolated.edges"
    path.write_text("8000 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "0\n", "")


@pytest.mark.parametrize("graph6, code, out", [("C~", 0, "4\n"), ("!!", 2, "")])
def test_module_entry_point(graph6, code, out):
    env = dict(os.environ)
    src = str(Path(redrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "redrank", "rank",
                           "--graph6", graph6], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (code, out)
    if code:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr
    else:
        assert done.stderr == ""


def test_output_file_and_threads_seed(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "bounds", "--n", "8",
                       "--output", str(path), "--threads", "4",
                       "--seed", "7")
    assert code == 0
    assert out == ""
    blob = json.loads(path.read_text())
    assert blob["schema"] == 1


def test_byte_identical_reruns(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "conjecture", "--max-order", "4")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    for _ in range(2):
        code, out, _ = run(capsys, "lemma8", "--to", "12", "--format", "csv")
        outs.append(out)
    assert outs[2] == outs[3]


# ── golden reports ──────────────────────────────────────────────


GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json")
                    .read_text())["reports"]


def _golden_graphs():
    """Named graph6 inputs of the graph commands' golden reports: the
    README examples, K_n, P_n and C_n for n <= 10, and seeded dense
    graphs and twin blow-ups in the long form (n >= 63)."""
    graphs = {g6: g6 for g6 in ("C~", "Cr", "Ch", "DQc")}
    for n in range(1, 11):
        graphs[f"K{n}"] = graph6_encode(Graph.complete(n))
        graphs[f"P{n}"] = graph6_encode(Graph.path(n))
        if n >= 3:
            graphs[f"C{n}"] = graph6_encode(Graph.cycle(n))
    rng = random.Random(5151)
    for n in (63, 100, 150):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        graphs[f"dense{n}"] = graph6_encode(Graph.from_edges(n, edges))
        # every vertex a twin of one of 12 base vertices, labels shuffled
        base = [(i, j) for i in range(12) for j in range(i + 1, 12)
                if rng.random() < 0.5]
        owner = list(range(12)) + [rng.randrange(12) for _ in range(n - 12)]
        rng.shuffle(owner)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if (min(owner[a], owner[b]), max(owner[a], owner[b])) in base]
        graphs[f"twins{n}"] = graph6_encode(Graph.from_edges(n, edges))
    return graphs


GOLDEN_GRAPHS = _golden_graphs()


def _golden_selection(command, g):
    """Whether a graph command's golden set holds the graph: rho every
    graph of order 2..10 (test_rho_answers_nonsingular_graphs_at_once
    and test_rho_answers_twin_blowups cover the larger ones), delta every graph with a vertex 1, witness the reduced,
    non-complete graphs."""
    if command == "rho":
        return 2 <= g.n <= 10
    if command == "delta":
        return g.n >= 2
    if command == "witness":
        return is_reduced(g) and not g.is_complete
    return True


# the graph6 stream that `conjecture --input -` reads in the golden set:
# every named graph of order at most 10
GOLDEN_STREAM = "".join(g6 + "\n" for g6 in GOLDEN_GRAPHS.values()
                        if graph6_decode(g6).n <= 10)


def _golden_invocations():
    """(key, argv, stdin) triples; a graph input is keyed by its name,
    and stdin is the text fed to `--input -` or None."""
    for fmt in ("json", "text", "csv"):
        argvs = [["lemma5", "--from", "47", "--to", "3000", "--format", fmt],
                 ["lemma8", "--format", fmt]]
        for n in range(3, 41):
            argvs.append(["bounds", "--n", str(n), "--format", fmt])
        for s in ("s0", "1/2", "0", "99/100"):
            for n in range(3, 25):
                argvs.append(["lev", "--n", str(n), "--s", s, "--format", fmt])
        for n in range(6, 41):
            argvs.append(["rankin", "--case", "acute", "--n", str(n),
                          "--format", fmt])
        for r in range(2, 13):
            argvs.append(["extremal", "--rank", str(r), "--format", fmt])
        argvs += [["mineq", "--format", fmt],
                  ["lemmas", "--max-order", "5", "--format", fmt],
                  ["census", "--max-order", "6", "--format", fmt],
                  ["conjecture", "--max-order", "6", "--format", fmt]]
        for argv in argvs:
            yield " ".join(argv), argv, None
        argv = ["conjecture", "--max-order", "10", "--input", "-",
                "--format", fmt]
        yield " ".join(argv), argv, GOLDEN_STREAM
        for command in ("rank", "reduce", "tau", "rho", "delta", "witness"):
            extra = ["--u", "0", "--v", "1"] if command == "delta" else []
            for name, g6 in GOLDEN_GRAPHS.items():
                if _golden_selection(command, graph6_decode(g6)):
                    yield (" ".join([command, "--graph6", name, *extra,
                                     "--format", fmt]),
                           [command, "--graph6", g6, *extra, "--format", fmt],
                           None)


def test_golden_set_is_complete():
    assert sorted(key for key, _, _ in _golden_invocations()) == sorted(GOLDEN)


@pytest.mark.parametrize("command", ["lemma5", "lemma8", "bounds", "lev",
                                     "rankin", "rank", "reduce", "tau",
                                     "rho", "delta", "witness", "extremal",
                                     "mineq", "lemmas", "census",
                                     "conjecture"])
def test_reports_match_golden(capsys, monkeypatch, command):
    """Every report is byte-identical to the recorded one, in json, text
    and csv."""
    for key, argv, stdin in _golden_invocations():
        if argv[0] != command:
            continue
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, _ = run(capsys, *argv)
        data = out.encode()
        assert [code, len(data), hashlib.sha256(data).hexdigest()] == \
            GOLDEN[key], key
