"""Command-line surface.

One subcommand per operation, graphs supplied inline (--graph6) or from
a file/stdin (--input, graph6 or edge-list, autodetected), reports
emitted as JSON (schema-versioned), CSV, or plain text.  Every
invocation is deterministic: identical arguments produce byte-identical
output.  --threads and --seed are accepted for interface compatibility
and ignored, because all computations are exact and single-valued.

Exit status: 0 on success with all verifications passing, 1 on a
verification failure (a census violation, a bound that does not hold, a
construction that misses its target, a refused evaluation), 2 on usage
or input-format errors and inputs beyond a stated cap, 130 on an
interrupt (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from contextlib import suppress
from fractions import Fraction
from itertools import chain, islice
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

# perfbench/child.py's traced runs rebind verify_code_lemma by this name
from .bounds import (BoundReport, LevDenominatorZero, closed_form_sweep,
                     code_lemma_reports, levenshtein_bound, rankin_bound,
                     verify_code_lemma)
from .census import (ExtremalConstructionError, census_counts,
                     construct_extremal, lemma_suite, verify_conjecture,
                     verify_m_inequalities)
from .exact import COS_REFERENCE, QSqrt2
from .formats import (graph6_decode, graph6_encode, parse_edge_list,
                      parse_graph6, sniff_format)
from .graphs import (Graph, duplication_witness, min_removal_for_duplicates,
                     min_removal_for_rank_drop, neighborhood_symdiff, rank,
                     reduce_graph)
from .poly import CellCapError, CellCertificateError

SCHEMA = 1


# ── argument plumbing ────────────────────────────────────────────


def _add_io_options(p: argparse.ArgumentParser, default_format: str) -> None:
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default=default_format,
                   help=f"output format (default {default_format})")
    p.add_argument("--threads", type=int, metavar="N", default=None,
                   help="accepted and ignored; output is deterministic")
    p.add_argument("--seed", type=int, metavar="N", default=None,
                   help="accepted and ignored; output is deterministic")


def _read_source(args: argparse.Namespace) -> str:
    if args.input == "-":
        return sys.stdin.read()
    with open(args.input, encoding="utf-8") as fh:
        return fh.read()


def _load_one_graph(args: argparse.Namespace) -> Graph:
    if (args.graph6 is None) == (args.input is None):
        raise ValueError("supply exactly one of --graph6 or --input")
    if args.graph6 is not None:
        return graph6_decode(args.graph6)
    text = _read_source(args)
    fmt = args.input_format
    if fmt == "auto":
        fmt = sniff_format(text)
    if fmt == "edges":
        return parse_edge_list(text)
    graphs = parse_graph6(text)
    if not graphs:
        raise ValueError("no graphs found in input")
    if len(graphs) != 1:
        raise ValueError(f"expected exactly one graph, found {len(graphs)}")
    return graphs[0]


def _parse_cosine(text: str) -> Union[QSqrt2, Fraction]:
    if text == "s0":
        return COS_REFERENCE
    # a refusal echoes at most 20 characters of the argument
    shown = (repr(text) if len(text) <= 20
             else f"{text[:20]!r}… ({len(text)} characters)")
    # Fraction builds 10^exponent before any digit cap can refuse it
    if re.search(r"[eE][-+]?0*[1-9]\d\d", text.replace("_", "")):
        raise ValueError(f"cosine {shown} has a decimal exponent of 100 or "
                         f"more in magnitude; refused")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"cosine {shown} not understood; use 's0' or a rational like -1/2"
        ) from None


# ── output plumbing ──────────────────────────────────────────────


_Table = tuple[list[str], list[list[object]]]
_Handler = Callable[[argparse.Namespace], int]


def _emit(args: argparse.Namespace, payload: Callable[[], dict],
          text_lines: Callable[[], list[str]],
          csv_table: Callable[[], _Table]) -> None:
    """Write the report in the requested format.  Only the requested
    format's function is called, and its report is complete before the
    destination is opened; JSON is then encoded and written in blocks."""
    if args.format == "json":
        chunks = json.JSONEncoder(indent=2).iterencode({"schema": SCHEMA, **payload()})
        parts = chain(iter(lambda: "".join(islice(chunks, 4096)), ""), ["\n"])
    elif args.format == "csv":
        header, rows = csv_table()
        # writerow returns what its file's write returns: here the line
        line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
        parts = map(line, chain([header], rows))
    else:
        parts = map("{}\n".format, text_lines())
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _bound_text(report: BoundReport) -> str:
    bits = [f"n={report.n}", report.method, report.value_decimal()]
    if report.threshold is not None:
        bits.append(f"threshold={report.threshold_decimal()}")
        bits.append(f"holds={report.holds}")
    if report.k_used is not None:
        bits.append(f"k={report.k_used}")
    if report.branch_used is not None:
        bits.append(f"branch={report.branch_used}")
    return " ".join(bits)


def _bound_table(reports: Iterable[BoundReport]) -> _Table:
    return (["n", "method", "value_decimal", "threshold_decimal", "holds",
             "k", "branch"],
            [[r.n, r.method, r.value_decimal(), r.threshold_decimal() or "",
              "" if r.holds is None else r.holds,
              "" if r.k_used is None else r.k_used, r.branch_used or ""]
             for r in reports])


# ── graph commands ───────────────────────────────────────────────

# One integer per graph; the command name is also the report key.
_SCALARS: dict[str, Callable[[Graph], int]] = {
    "rank": rank,
    "tau": min_removal_for_duplicates,
    "rho": min_removal_for_rank_drop,
}


def _cmd_scalar(args: argparse.Namespace) -> int:
    g = _load_one_graph(args)
    key = args.command
    value = _SCALARS[key](g)
    _emit(args, lambda: {"command": key, "order": g.n, key: value},
          lambda: [str(value)], lambda: (["order", key], [[g.n, value]]))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load_one_graph(args)
    reduced = reduce_graph(g)
    g6 = graph6_encode(reduced)
    _emit(args,
          lambda: {"command": "reduce", "input_order": g.n,
                   "order": reduced.n, "rank": rank(reduced), "graph6": g6},
          lambda: [g6],
          lambda: (["input_order", "order", "rank", "graph6"],
                   [[g.n, reduced.n, rank(reduced), g6]]))
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    g = _load_one_graph(args)
    diff = neighborhood_symdiff(g, args.u, args.v)
    _emit(args,
          lambda: {"command": "delta", "u": args.u, "v": args.v,
                   "vertices": list(diff), "size": len(diff)},
          lambda: [str(len(diff))],
          lambda: (["u", "v", "size", "vertices"],
                   [[args.u, args.v, len(diff), " ".join(map(str, diff))]]))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    g = _load_one_graph(args)
    w = duplication_witness(g)

    def lines() -> list[str]:
        out = [f"pair: {w.pair[0]} {w.pair[1]}",
               f"removed: {' '.join(map(str, w.removed)) or '-'}",
               f"classes: {'; '.join(' '.join(map(str, c)) for c in w.classes)}",
               f"split_ok: {w.split_ok}"]
        if w.split_ok:
            out.append(f"t1: {' '.join(map(str, w.t1)) or '-'}")
            out.append(f"t2: {' '.join(map(str, w.t2)) or '-'}")
        return out

    _emit(args,
          lambda: {
              "command": "witness",
              "pair": list(w.pair),
              "removed": list(w.removed),
              "classes": [list(c) for c in w.classes],
              "oriented": None if w.oriented is None else [list(p) for p in w.oriented],
              "t1": None if w.t1 is None else list(w.t1),
              "t2": None if w.t2 is None else list(w.t2),
              "isolated": w.isolated,
              "split_ok": w.split_ok,
          },
          lines,
          lambda: (["pair", "removed", "classes", "t1", "t2", "split_ok"],
                   [[" ".join(map(str, w.pair)), " ".join(map(str, w.removed)),
                     ";".join(" ".join(map(str, c)) for c in w.classes),
                     "" if w.t1 is None else " ".join(map(str, w.t1)),
                     "" if w.t2 is None else " ".join(map(str, w.t2)),
                     w.split_ok]]))
    return 0


# ── bound commands ───────────────────────────────────────────────


def _cmd_bounds(args: argparse.Namespace) -> int:
    n = args.n
    if n < 3:
        raise ValueError("no bound applies below dimension 3")
    # first, as it refuses past RANKIN_DIMENSION_CAP before any work
    acute = [rankin_bound(n, "acute")] if n >= 6 else []
    reports = []
    with suppress(CellCapError):  # s0's cell may lie past LOCATE_CELL_CAP
        reports.append(levenshtein_bound(n, COS_REFERENCE))
    if n >= 6:
        reports.append(closed_form_sweep(n, n, None)[0])
    reports += acute
    _emit(args,
          lambda: {"command": "bounds", "n": n, "cosine": "s0",
                   "reports": [r.to_json() for r in reports]},
          lambda: [_bound_text(r) for r in reports],
          lambda: _bound_table(reports))
    return 0


def _cmd_lev(args: argparse.Namespace) -> int:
    s = _parse_cosine(args.s)
    report = levenshtein_bound(args.n, s)
    _emit(args, lambda: {"command": "lev", "s": args.s, **report.to_json()},
          lambda: [_bound_text(report)], lambda: _bound_table([report]))
    return 0


def _cmd_rankin(args: argparse.Namespace) -> int:
    report = rankin_bound(args.n, args.case)
    _emit(args,
          lambda: {"command": "rankin", "case": args.case, **report.to_json()},
          lambda: [_bound_text(report)], lambda: _bound_table([report]))
    return 0


# exponent offset of the threshold 5 * 2^((n + offset)/2) - 2 per command
_LEMMA_OFFSETS = {"lemma5": -4, "lemma8": 2}


def _cmd_lemma(args: argparse.Namespace) -> int:
    reports = code_lemma_reports(args.start, args.end, _LEMMA_OFFSETS[args.command])
    failed: list[int] = []

    def checked() -> Iterator[BoundReport]:
        # the one pass over the sweep, inside the format that runs
        for r in reports:
            if r.holds is False:
                failed.append(r.n)
            yield r

    _emit(args,
          lambda: {"command": args.command,
                   "reports": [r.to_json() for r in checked()],
                   "all_hold": not failed},
          lambda: [*map(_bound_text, checked()), f"all hold: {not failed}"],
          lambda: _bound_table(checked()))
    return 1 if failed else 0


# ── enumeration commands ─────────────────────────────────────────


def _order_line(order: int, total: int, reduced: int) -> str:
    plural = "s" * (total != 1)
    return f"order {order}: {total} graph{plural}, {reduced} reduced"


def _cmd_census(args: argparse.Namespace) -> int:
    rows = census_counts(args.max_order)
    _emit(args,
          lambda: {"command": "census",
                   "rows": [{"order": o, "total_graphs": t, "reduced_graphs": r}
                            for o, t, r in rows]},
          lambda: [_order_line(*row) for row in rows],
          lambda: (["order", "total_graphs", "reduced_graphs"],
                   [list(row) for row in rows]))
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    stream = None
    if args.input is not None:
        text = _read_source(args)
        stream = parse_graph6(text)
    summary = verify_conjecture(args.max_order, graphs=stream)

    def lines() -> list[str]:
        out = []
        for rep in summary.reports:
            ranks = ", ".join(f"rank {r} -> order {o}"
                              for r, o in rep.per_rank_max_order) or "-"
            out.append(_order_line(rep.order, rep.total_graphs,
                                   rep.reduced_graphs) + f", {ranks}")
        out.append(f"violations: {len(summary.violations)}")
        out.append(f"covered ranks: "
                   f"{' '.join(map(str, summary.covered_ranks)) or '-'}")
        out.append(f"holds: {summary.holds}")
        return out

    _emit(args, lambda: {"command": "conjecture", **summary.to_json()}, lines,
          lambda: (["order", "total_graphs", "reduced_graphs", "violations"],
                   [[r.order, r.total_graphs, r.reduced_graphs,
                     ";".join(r.violations)] for r in summary.reports]))
    return 0 if summary.holds else 1


def _cmd_extremal(args: argparse.Namespace) -> int:
    g = construct_extremal(args.rank)
    g6 = graph6_encode(g)
    _emit(args,
          lambda: {"command": "extremal", "rank": args.rank, "order": g.n,
                   "reduced": True, "graph6": g6},
          lambda: [g6],
          lambda: (["rank", "order", "graph6"], [[args.rank, g.n, g6]]))
    return 0


def _cmd_mineq(args: argparse.Namespace) -> int:
    report = verify_m_inequalities(args.r_max)
    _emit(args, lambda: {"command": "mineq", **report.to_json()},
          lambda: [f"recurrence checks: {report.recurrence_checks}",
                   f"family (i) checks: {report.family_i_checks}",
                   f"family (ii) checks: {report.family_ii_checks}",
                   f"failures: {len(report.failures)}",
                   f"holds: {report.holds}"],
          lambda: (["r_max", "recurrence_checks", "family_i_checks",
                    "family_ii_checks", "failures", "holds"],
                   [[report.r_max, report.recurrence_checks,
                     report.family_i_checks, report.family_ii_checks,
                     len(report.failures), report.holds]]))
    return 0 if report.holds else 1


def _cmd_lemmas(args: argparse.Namespace) -> int:
    report = lemma_suite(args.max_order)
    _emit(args, lambda: {"command": "lemmas", **report.to_json()},
          lambda: [f"reduced graphs processed: {report.graphs_processed}",
                   *(f"{c.name}: {c.passed}/{c.run}" for c in report.checks),
                   f"holds: {report.holds}"],
          lambda: (["check", "run", "passed"],
                   [[c.name, c.run, c.passed] for c in report.checks]))
    return 0 if report.holds else 1


# ── entry point ──────────────────────────────────────────────────


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redrank",
        description="Exact rank, reducedness, and order-bound toolkit "
                    "for graphs, with certified spherical-code bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_cmd(name: str, helptext: str, handler: _Handler,
                  default_format: str = "text"):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        p.add_argument("--graph6", metavar="STR", default=None,
                       help="inline graph6 string")
        p.add_argument("--input", metavar="PATH", default=None,
                       help="graph file, '-' for stdin")
        p.add_argument("--input-format", choices=("auto", "graph6", "edges"),
                       default="auto", help="input format (default: autodetect)")
        _add_io_options(p, default_format)
        return p

    def plain_cmd(name: str, helptext: str, handler: _Handler,
                  default_format: str = "json"):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        _add_io_options(p, default_format)
        return p

    graph_cmd("rank", "exact adjacency-matrix rank over the rationals",
              _cmd_scalar)
    graph_cmd("reduce", "remove isolated and duplicated vertices", _cmd_reduce)
    graph_cmd("tau", "minimum removals creating a duplicated pair",
              _cmd_scalar)
    graph_cmd("rho", "minimum removals dropping the rank", _cmd_scalar)
    p = graph_cmd("delta", "neighborhood symmetric difference of a pair",
                  _cmd_delta)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    graph_cmd("witness", "duplication witness with the two-sided split",
              _cmd_witness, default_format="json")

    p = plain_cmd("bounds", "all applicable bounds at the reference cosine",
                  _cmd_bounds)
    p.add_argument("--n", type=int, required=True, help="dimension")
    p = plain_cmd("lev", "Levenshtein bound at a cosine", _cmd_lev)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", default="s0",
                   help="cosine: 's0' or a rational like -1/2 (default s0)")
    p = plain_cmd("rankin", "Rankin bound by angle regime", _cmd_rankin)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--case", choices=("half_pi", "obtuse", "acute"),
                   required=True)
    p = plain_cmd("lemma5", "threshold sweep against 5*2^((n-4)/2)-2",
                  _cmd_lemma)
    p.add_argument("--from", dest="start", type=int, default=47)
    p.add_argument("--to", dest="end", type=int, default=118)
    p = plain_cmd("lemma8", "threshold sweep against 5*2^((n+2)/2)-2",
                  _cmd_lemma)
    p.add_argument("--from", dest="start", type=int, default=3)
    p.add_argument("--to", dest="end", type=int, default=118)

    p = plain_cmd("census", "isomorphism class counts per order", _cmd_census)
    p.add_argument("--max-order", type=int, required=True)
    p = plain_cmd("conjecture", "verify order <= m(rank) over a census",
                  _cmd_conjecture)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--input", metavar="PATH", default=None,
                   help="verify an external graph6 stream instead of "
                        "the internal generator ('-' for stdin)")
    p = plain_cmd("extremal", "construct a reduced graph of rank r and "
                              "the conjectured maximum order", _cmd_extremal)
    p.add_argument("--rank", type=int, required=True)
    p = plain_cmd("mineq", "exhaustive max-order inequality check",
                  _cmd_mineq)
    p.add_argument("--r-max", type=int, default=60)
    p = plain_cmd("lemmas", "per-graph property suite over a census",
                  _cmd_lemmas)
    p.add_argument("--max-order", type=int, default=7)
    return parser


def _join_cosine(argv: Sequence[str]) -> list[str]:
    """argparse takes a token such as -1/2 for an option, so a negative
    cosine after --s is passed on as --s=-1/2."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--s" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--s={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_cosine(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExtremalConstructionError, LevDenominatorZero,
            CellCertificateError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
