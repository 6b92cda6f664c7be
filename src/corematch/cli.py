"""Command-line interface: file ingestion, dispatch, deterministic output.

All numeric output is exact ("p/q"); pass --decimal N for fixed-point
rendering. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache

from . import __version__
from .core import (
    Allocation,
    firm_payoffs,
    is_in_worker_core,
    market_core_system,
    salary_bounds,
)
from .errors import CorematchError
from .game import build_game
from .kaneko import (
    BuyerMarket,
    _ce_system,
    buyer_core_constraints,
    ce_vertices,
    extended_tight_digraph,
    optimal_assignment,
)
from .market import Market, RawMarket, balance, surplus_matrix
from .matching import optimal_matching
from .maxmin import enumerate_extremes, maxmin_table
from .rationals import format_decimal, format_rational, parse_rational
from .solutions import (
    fair_division,
    has_dominant_diagonal,
    is_convex_market,
    is_in_kernel,
    nucleolus,
    shapley,
    tau_value,
)
from .tight_digraph import tight_digraph_of_system, to_dot


@dataclass
class ParsedMarket:
    mode: str  # "job-market" | "buyer-seller"
    job: Market | None
    buyer: BuyerMarket | None


def parse_market(path: str) -> ParsedMarket:
    """Load a market file; rationals are parsed exactly, floats via their
    decimal literal."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(
                fh, parse_float=Decimal, parse_int=int
            )
    except OSError as exc:
        raise CorematchError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorematchError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise CorematchError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise CorematchError(f"{path}: expected a JSON object at the top level")
    mode = data.get("mode", "job-market")
    if mode == "job-market":
        return ParsedMarket(mode, _parse_job_market(path, data), None)
    if mode == "buyer-seller":
        return ParsedMarket(mode, None, _parse_buyer_market(path, data))
    raise CorematchError(f"{path}: unknown mode {mode!r}")


def _parse_matrix(path, data, key, n_rows, n_cols):
    matrix = _require(path, data, key)
    if not isinstance(matrix, list) or len(matrix) != n_rows:
        raise CorematchError(f"{path}: '{key}' must have {n_rows} rows")
    out = []
    for r, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n_cols:
            raise CorematchError(
                f"{path}: '{key}' row {r} must have {n_cols} entries "
                "(non-rectangular matrix)"
            )
        try:
            out.append(tuple(parse_rational(v) for v in row))
        except ValueError as exc:
            raise CorematchError(f"{path}: '{key}' row {r}: {exc}") from exc
    return tuple(out)


def _require(path, data, key):
    if key not in data:
        raise CorematchError(f"{path}: missing required field '{key}'")
    return data[key]


def _parse_ids(path, data, key):
    ids = _require(path, data, key)
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise CorematchError(f"{path}: '{key}' must be a list of strings")
    return tuple(ids)


def _parse_capacitated_side(path, entries, what):
    if not isinstance(entries, list):
        raise CorematchError(f"{path}: the {what}s must be given as a list")
    ids = []
    caps = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or "capacity" not in entry:
            raise CorematchError(
                f"{path}: {what} {k} must be an object with 'id' and 'capacity'"
            )
        if not isinstance(entry["id"], str):
            raise CorematchError(f"{path}: {what} {k} id must be a string")
        ids.append(entry["id"])
        cap = entry["capacity"]
        # bool is a subclass of int: "capacity": true is not a capacity of 1
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise CorematchError(
                f"{path}: {what} {entry['id']!r} capacity must be a positive integer"
            )
        caps.append(cap)
    return tuple(ids), tuple(caps)


def _parse_job_market(path, data) -> Market:
    firm_ids, caps = _parse_capacitated_side(
        path, _require(path, data, "firms"), "firm"
    )
    workers = _parse_ids(path, data, "workers")
    if "surplus" in data:
        matrix = _parse_matrix(path, data, "surplus", len(firm_ids), len(workers))
        return Market(firm_ids, caps, workers, matrix)
    if "hire_values" in data:
        h = _parse_matrix(path, data, "hire_values", len(firm_ids), len(workers))
        reservations = _require(path, data, "reservations")
        if not isinstance(reservations, list) or len(reservations) != len(workers):
            raise CorematchError(
                f"{path}: 'reservations' must list one value per worker"
            )
        try:
            t = tuple(parse_rational(v) for v in reservations)
        except ValueError as exc:
            raise CorematchError(f"{path}: 'reservations': {exc}") from exc
        return surplus_matrix(RawMarket(firm_ids, caps, workers, h, t))
    raise CorematchError(f"{path}: provide either 'surplus' or 'hire_values'")


def _parse_buyer_market(path, data) -> BuyerMarket:
    buyers = _parse_ids(path, data, "buyers")
    seller_ids, caps = _parse_capacitated_side(
        path, _require(path, data, "sellers"), "seller"
    )
    matrix = _parse_matrix(path, data, "valuations", len(buyers), len(seller_ids))
    return BuyerMarket(buyers, seller_ids, caps, matrix)


def _parse_vector(text: str, n: int, what: str) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise CorematchError(f"expected {n} {what}, got {len(parts)}")
    try:
        return tuple(parse_rational(p) for p in parts)
    except ValueError as exc:
        raise CorematchError(str(exc)) from exc


def _parse_allocation(text: str, n_firms: int, n_workers: int) -> Allocation:
    if ";" not in text:
        raise CorematchError(
            "allocation must be 'firm payoffs;worker payoffs', e.g. '9,4;3,2,0'"
        )
    left, _, right = text.partition(";")
    return Allocation(
        _parse_vector(left, n_firms, "firm payoffs"),
        _parse_vector(right, n_workers, "worker payoffs"),
    )


def _digits(text: str) -> int:
    """argparse type of --decimal: a non-negative digit count."""
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if digits < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {digits}")
    return digits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corematch",
        description="Exact solver for many-to-one assignment markets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--decimal",
        type=_digits,
        default=None,
        metavar="DIGITS",
        help="render numbers with this many decimal digits instead of p/q",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--decimal", type=_digits, default=argparse.SUPPRESS, metavar="DIGITS",
        help=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, parent=sub, **kwargs):
        p = parent.add_parser(name, parents=[common], **kwargs)
        p.add_argument("market", help="market file (JSON)")
        return p

    add("match", help="optimal matching and its value")

    core = sub.add_parser("core", help="core membership").add_subparsers(
        dest="subcommand", required=True
    )
    p = add("check", parent=core, help="test a salary vector for core membership")
    p.add_argument("salaries", help="comma-separated salaries in worker order")

    p = add("salaries", help="extreme competitive salary vectors")
    flags = p.add_mutually_exclusive_group(required=True)
    flags.add_argument("--min", action="store_true", help="minimum salaries")
    flags.add_argument("--max", action="store_true", help="maximum salaries")

    p = add("extremes", help="all extreme core allocations")
    style = p.add_mutually_exclusive_group()
    style.add_argument("--table", action="store_true", help="aligned table (default)")
    style.add_argument("--json", action="store_true", help="JSON output")
    style.add_argument(
        "--witnesses",
        action="store_true",
        help="full extended-order table with core flags",
    )

    p = add("digraph", help="tight digraph of a salary vector")
    p.add_argument("salaries")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")

    add("nucleolus", help="the nucleolus")
    add("tau", help="the tau value")
    add("shapley", help="the Shapley value")
    add("fair-division", help="midpoint of the side-optimal core allocations")

    kern = sub.add_parser("kernel", help="kernel membership").add_subparsers(
        dest="subcommand", required=True
    )
    p = add("check", parent=kern, help="test an allocation for kernel membership")
    p.add_argument("allocation", help="'firm payoffs;worker payoffs'")

    add("dominant-diagonal", help="dominant diagonal test")
    add("convex", help="convexity test")

    kan = sub.add_parser(
        "kaneko", help="buyer-seller market commands"
    ).add_subparsers(dest="subcommand", required=True)
    add("extremes", parent=kan, help="extreme CE payoff vectors with prices")
    p = add("digraph", parent=kan, help="extended tight digraph of a CE vector")
    p.add_argument("payoffs", help="comma-separated buyer payoffs")
    p.add_argument("--dot", action="store_true")
    p = add("ce-check", parent=kan, help="core and CE membership of buyer payoffs")
    p.add_argument("payoffs")
    return parser


# argparse set-up costs milliseconds, so the parser is built on the first
# call and reused (parse_args keeps no state between calls); building it at
# import would tax every importer
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    fmt = (
        (lambda q: format_decimal(q, args.decimal))
        if args.decimal is not None
        else format_rational
    )
    try:
        parsed = parse_market(args.market)
        lines = _dispatch(args, parsed, fmt)
    except CorematchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; point stdout at devnull so that the interpreter's
        # final flush of the unwritten buffer does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


def _need_job(parsed: ParsedMarket) -> Market:
    if parsed.job is None:
        raise CorematchError(
            "this command needs a job-market file; got mode 'buyer-seller' "
            "(use the 'kaneko' subcommands instead)"
        )
    return parsed.job


def _need_buyer(parsed: ParsedMarket) -> BuyerMarket:
    if parsed.buyer is None:
        raise CorematchError(
            "the 'kaneko' subcommands need a buyer-seller market file"
        )
    return parsed.buyer


def _dispatch(args, parsed: ParsedMarket, fmt) -> list[str]:
    cmd = args.command
    if cmd == "match":
        return _cmd_match(_need_job(parsed), fmt)
    if cmd == "core":
        return _cmd_core_check(_need_job(parsed), args.salaries, fmt)
    if cmd == "salaries":
        return _cmd_salaries(_need_job(parsed), args.min, fmt)
    if cmd == "extremes":
        return _cmd_extremes(_need_job(parsed), args, fmt)
    if cmd == "digraph":
        return _cmd_digraph(_need_job(parsed), args.salaries, args.dot)
    if cmd in ("nucleolus", "tau", "shapley", "fair-division"):
        return _cmd_point_solution(_need_job(parsed), cmd, fmt)
    if cmd == "kernel":
        return _cmd_kernel_check(_need_job(parsed), args.allocation)
    if cmd == "dominant-diagonal":
        return _cmd_dominant_diagonal(_need_job(parsed))
    if cmd == "convex":
        m = _need_job(parsed)
        return [f"convex: {'yes' if is_convex_market(m) else 'no'}"]
    if cmd == "kaneko":
        return _cmd_kaneko(_need_buyer(parsed), args, fmt)
    raise CorematchError(f"unknown command {cmd!r}")


def _cmd_match(m: Market, fmt) -> list[str]:
    result = optimal_matching(m)
    lines = [f"optimal value: {fmt(result.value)}"]
    for f in m.firm_ids:
        hired = result.matching.workers_of(f)
        lines.append(f"{f} <- {', '.join(hired) if hired else '(nobody)'}")
    unmatched = result.matching.unmatched_workers(m)
    if unmatched:
        lines.append(f"unmatched: {', '.join(unmatched)}")
    return lines


def _cmd_core_check(m: Market, text: str, fmt) -> list[str]:
    y = _parse_vector(text, m.n_workers, "salaries")
    system = market_core_system(m)
    inside = is_in_worker_core(system, y)
    lines = [f"in core: {'yes' if inside else 'no'}"]
    if inside:
        alloc = firm_payoffs(system.bm, system.matching, y)
        lines.append(_alloc_line("firm payoffs", m.firm_ids, alloc.firm_payoffs, fmt))
    return lines


def _cmd_salaries(m: Market, want_min: bool, fmt) -> list[str]:
    system = market_core_system(m)
    y = system.least if want_min else salary_bounds(system)[1]
    y = system.bm.strip_worker_vector(y)
    alloc = firm_payoffs(system.bm, system.matching, y)
    return [
        _alloc_line("salaries", m.worker_ids, y, fmt),
        _alloc_line("firm payoffs", m.firm_ids, alloc.firm_payoffs, fmt),
    ]


def _alloc_line(label, ids, values, fmt) -> str:
    body = ", ".join(f"{i}={fmt(v)}" for i, v in zip(ids, values))
    return f"{label}: {body}"


def _cmd_extremes(m: Market, args, fmt) -> list[str]:
    bm = balance(m)
    if args.witnesses:
        rows = maxmin_table(bm)
        lines = []
        for order, vec, ok in rows:
            y = " ".join(fmt(v) for v in bm.strip_worker_vector(vec))
            lines.append(f"{order.label():<24} | {y} | {'+' if ok else '-'}")
        in_core = sum(1 for _, _, ok in rows if ok)
        lines.append(f"extended orders: {len(rows)}, in core: {in_core}")
        return lines
    extremes = enumerate_extremes(bm)
    if args.json:
        payload = [
            {
                "firm_payoffs": [fmt(v) for v in p.allocation.firm_payoffs],
                "salaries": [fmt(v) for v in p.allocation.worker_payoffs],
                "witnesses": [o.label() for o in p.witnesses],
            }
            for p in extremes.points
        ]
        return [json.dumps(payload, indent=2)]
    lines = [
        "firm payoffs | salaries | witnessing orders",
    ]
    for p in extremes.points:
        x = " ".join(fmt(v) for v in p.allocation.firm_payoffs)
        y = " ".join(fmt(v) for v in p.allocation.worker_payoffs)
        lines.append(f"{x} | {y} | {len(p.witnesses)}")
    lines.append(
        f"extreme points: {len(extremes.points)}, "
        f"witnessing orders: {extremes.witness_count()}"
    )
    return lines


def _cmd_digraph(m: Market, text: str, dot: bool) -> list[str]:
    y = _parse_vector(text, m.n_workers, "salaries")
    digraph = tight_digraph_of_system(market_core_system(m), y)
    if dot:
        return [to_dot(digraph).rstrip("\n")]
    return [f"{t} -> {h}" for t, h in digraph.arc_pairs()]


def _cmd_point_solution(m: Market, cmd: str, fmt) -> list[str]:
    if cmd == "nucleolus":
        alloc = nucleolus(m)
    elif cmd == "tau":
        alloc = tau_value(build_game(m))
    elif cmd == "shapley":
        alloc = shapley(build_game(m))
    else:
        alloc = fair_division(m)
    return [
        _alloc_line("firm payoffs", m.firm_ids, alloc.firm_payoffs, fmt),
        _alloc_line("salaries", m.worker_ids, alloc.worker_payoffs, fmt),
    ]


def _cmd_kernel_check(m: Market, text: str) -> list[str]:
    alloc = _parse_allocation(text, m.n_firms, m.n_workers)
    inside = is_in_kernel(build_game(m), alloc)
    return [f"in kernel: {'yes' if inside else 'no'}"]


def _cmd_dominant_diagonal(m: Market) -> list[str]:
    check = has_dominant_diagonal(m)
    lines = [f"dominant diagonal: {'yes' if check.holds else 'no'}"]
    if check.condition1_failures:
        lines.append(
            "firms not holding a best bundle: "
            + ", ".join(check.condition1_failures)
        )
    if check.condition2_failures:
        lines.append(
            "workers not at their best firm: "
            + ", ".join(check.condition2_failures)
        )
    return lines


def _cmd_kaneko(b: BuyerMarket, args, fmt) -> list[str]:
    sub = args.subcommand
    if sub == "extremes":
        lines = ["buyer payoffs | seller prices"]
        for vertex in ce_vertices(b):
            x = " ".join(fmt(v) for v in vertex.buyer_payoffs)
            p = " ".join(fmt(v) for v in vertex.prices)
            lines.append(f"{x} | {p}")
        return lines
    x = _parse_vector(args.payoffs, len(b.buyer_ids), "buyer payoffs")
    if sub == "digraph":
        digraph = extended_tight_digraph(b, optimal_assignment(b), x)
        if args.dot:
            return [to_dot(digraph).rstrip("\n")]
        return [f"{t} -> {h}" for t, h in digraph.arc_pairs()]
    if sub == "ce-check":
        core = buyer_core_constraints(b)
        in_core = core.contains(x)
        in_ce = _ce_system(core).contains(x)
        return [
            f"in core: {'yes' if in_core else 'no'}",
            f"in CE set: {'yes' if in_ce else 'no'}",
        ]
    raise CorematchError(f"unknown kaneko subcommand {sub!r}")


if __name__ == "__main__":
    sys.exit(main())
