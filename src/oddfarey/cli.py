"""Command-line front end.

Subcommands: list, stats, rho, rho-table, compare, region, orbit, paths,
lattice, verify, short-interval.  Rationals print as "p/q" plus a 12-digit
decimal.  Every command but verify builds a record (dict) or a table (list
of dicts) and prints it through ``_emit``, as JSON, as RFC 4180 CSV (csv
module) or as the command's text form.  Exit codes reflect verify outcomes,
bad input prints "error: ..." and exits 2, and a reader that closes the pipe
early ends the command quietly with status 141.  Options come from flags;
FAREY_MAX_Q sets the order cap.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain, islice
from typing import Optional, Sequence

from . import __version__
from .density import gap_density, rho_odd, rho_table
from .dynamics import TrianglePoint, next_pair, orbit_kappas
from .farey import UnitInterval, farey_fractions, gap_histogram, odd_farey_fractions
from .geometry import _escape_bound, cylinder, cylinder_area, stabilized_quadrangle
from .lattice import (
    PairParity,
    _tuple_windows,
    count_lattice,
    verify_parity_swap,
    verify_tuple_identities,
)
from .paths import arrow_text, families


def _enclosure_options(args) -> dict:
    """The ``tol`` argument of rho_odd when --tol sets it; rho_odd's own
    default stands otherwise.  0.001 is the tolerance 1/1000."""
    if args.tol is None:
        return {}
    try:
        return {"tol": Fraction(args.tol)}
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"error: bad tolerance {args.tol!r}, expected like '1/1000'") from exc


def _dec(x, digits: int = 12) -> str:
    return f"{float(x):.{digits}g}"


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _positive_ints(text: str, name: str, like: str) -> tuple[int, ...]:
    try:
        out = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise SystemExit(f"error: bad {name} {text!r}, expected like {like!r}") from exc
    if not out or any(d < 1 for d in out):
        raise SystemExit(f"error: {name} entries must be positive, got {text!r}")
    return out


def _parse_deltas(text: str) -> tuple[int, ...]:
    return _positive_ints(text, "gap tuple", "2,3")


def _parse_ks(text: str) -> tuple[int, ...]:
    return _positive_ints(text.strip(), "label tuple", "2,1,3") if text.strip() else ()


def _parse_interval(text: Optional[str]) -> Optional[UnitInterval]:
    if text is None:
        return None
    try:
        return UnitInterval.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"error: bad interval {text!r}: {exc}") from exc


def _parse_parity(text: str) -> PairParity:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise SystemExit(f"error: parity must look like 'odd,even', got {text!r}")
    try:
        return PairParity(parts[0], parts[1])
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _parse_point(text: str) -> TrianglePoint:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise SystemExit(f"error: point must look like '3/4,1/2', got {text!r}")
    try:
        return TrianglePoint(Fraction(parts[0]), Fraction(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"error: bad point {text!r}: {exc}") from exc


def _parse_quadrangle(text: str) -> tuple[int, int, int]:
    try:
        m, i, r = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise SystemExit(f"error: quadrangle must look like 'm,i,r', got {text!r}") from exc
    return m, i, r


def _emit(fmt: str, data, columns: Optional[list] = None, text=None) -> None:
    """Print a record (a dict) or a table (an iterable of rows) in one format.

    json dumps ``data``; csv writes a header (``columns``, else the first
    row's keys) and one line per row, with an empty cell for a column a dict
    row lacks; a row may also be a tuple in ``columns`` order, written as it
    is.  text prints ``text(data)``, a string or an iterable of strings, or
    falls back to csv when the command has no text renderer.  csv and text
    write rows as they come, so a table may be a generator when ``columns``
    is given.
    """
    if fmt == "json":
        print(json.dumps(data))
    elif fmt == "text" and text is not None:
        out = text(data)
        sys.stdout.writelines([out] if isinstance(out, str) else out)
        print()
    else:
        rows = [data] if isinstance(data, dict) else data
        header = list(rows[0]) if columns is None else columns
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(
            row if isinstance(row, tuple) else [row.get(c, "") for c in header] for row in rows
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_list(args) -> int:
    seq = odd_farey_fractions(args.q) if args.odd else farey_fractions(args.q)
    if args.format == "json":  # a plain list of fractions, streamed as json.dumps prints it
        sys.stdout.write("[")
        sys.stdout.writelines(f'{", " if i else ""}"{_rat(f)}"' for i, f in enumerate(seq))
        print("]")
        return 0
    if args.format == "text":  # the fractions alone, comma-separated
        fracs = map(_rat, seq)
        _emit("text", fracs, text=lambda fracs: chain(islice(fracs, 1), (", " + f for f in fracs)))
    else:
        rows = ((i, _rat(f), _dec(f)) for i, f in enumerate(seq, 1))
        _emit("csv", rows, ["index", "fraction", "decimal"])
    return 0


def _cmd_stats(args) -> int:
    if args.delta_max < 0:
        raise SystemExit(f"error: --delta-max must be >= 0, got {args.delta_max}")
    hist, windows = gap_histogram(args.q, args.h, interval=_parse_interval(args.interval))
    rows = [
        {
            "q": args.q,
            "h": args.h,
            "deltas": ",".join(map(str, gaps)),
            "count": count,
            "windows": windows,
            "ratio": _rat(Fraction(count, windows)),
            "ratio_decimal": _dec(count / windows),
        }
        for gaps, count in sorted(hist.items())
        if not args.delta_max or max(gaps) <= args.delta_max
    ]
    columns = ["q", "h", "deltas", "count", "windows", "ratio", "ratio_decimal"]
    _emit(args.format, rows, columns)  # columns: --delta-max may drop every row
    return 0


def _enclosure_row(deltas, enc) -> dict:
    return {
        "deltas": ",".join(map(str, deltas)),
        "lo": _rat(enc.lo),
        "hi": _rat(enc.hi),
        "midpoint_decimal": _dec(enc.midpoint),
        "cutoff": enc.cutoff,
        "exact": enc.exact,
        "converged": enc.converged,
    }


def _cmd_rho(args) -> int:
    deltas = _parse_deltas(args.delta)
    enc = rho_odd(deltas, **_enclosure_options(args))

    def text(row):
        if enc.exact:
            return f"rho({row['deltas']}) = {row['lo']} = {row['midpoint_decimal']} (exact)"
        return (
            f"rho({row['deltas']}) in [{row['lo']}, {row['hi']}] ~ {row['midpoint_decimal']}"
            f" (width {_dec(enc.width)}, cutoff {enc.cutoff}, converged={enc.converged})"
        )

    _emit(args.format, _enclosure_row(deltas, enc), text=text)
    return 0 if enc.converged else 1


def _cmd_rho_table(args) -> int:
    rows = rho_table(args.h, args.delta_max, **_enclosure_options(args))
    _emit(args.format, [_enclosure_row(r.deltas, r.enclosure) for r in rows])
    return 0 if all(r.enclosure.converged for r in rows) else 1


def _limit(args):
    """(gap tuple, interval, limit enclosure, matching windows, all windows,
    their ratio, its distance from the enclosure) for ``compare`` and
    ``short-interval``."""
    deltas = _parse_deltas(args.delta)
    interval = _parse_interval(args.interval)
    enc = rho_odd(deltas, **_enclosure_options(args))
    count, windows = _tuple_windows(args.q, deltas, interval)
    emp = Fraction(count, windows)
    dev = max(enc.lo - emp, emp - enc.hi, Fraction(0))
    return deltas, interval, enc, count, windows, emp, dev


def _cmd_compare(args) -> int:
    deltas, _, enc, _, _, emp, dev = _limit(args)
    scale = args.q / math.log(args.q) ** 2
    row = {
        "deltas": ",".join(map(str, deltas)),
        "q": args.q,
        "empirical": _rat(emp),
        "empirical_decimal": _dec(emp),
        "lo": _rat(enc.lo),
        "hi": _rat(enc.hi),
        "deviation": _dec(dev),
        "deviation_times_q_over_log2q": _dec(float(dev) * scale),
    }
    _emit(
        args.format,
        row,
        text=lambda r: (
            f"rho_Q({r['deltas']}) = {r['empirical']} = {r['empirical_decimal']} at Q={r['q']}\n"
            f"limit enclosure [{r['lo']}, {r['hi']}]\n"
            f"deviation {r['deviation']} (x Q/log^2 Q = {r['deviation_times_q_over_log2q']})"
        ),
    )
    return 0


def _cmd_region(args) -> int:
    if args.quadrangle is None:
        region = cylinder(_parse_ks(args.ks or ""))
    elif args.ks is not None:
        raise SystemExit("error: --ks cannot be used with --quadrangle: give one region")
    else:
        region = stabilized_quadrangle(*_parse_quadrangle(args.quadrangle))
    payload = region.to_json_dict()
    if args.format == "csv":  # the vertex table; the record nests lists
        _emit("csv", payload["vertices"], ["x", "y"])
    else:
        _emit(args.format, payload, text=lambda d: json.dumps(d, indent=2))
    return 0


def _cmd_orbit(args) -> int:
    p = _parse_point(args.point)
    trace = []
    for k in orbit_kappas(p, args.steps):
        trace.append({"x": _rat(p.x), "y": _rat(p.y), "kappa": k})
        p = next_pair(p)
    trace.append({"x": _rat(p.x), "y": _rat(p.y)})
    _emit("json", trace)
    return 0


def _cmd_paths(args) -> int:
    rows = [
        {
            "walk": arrow_text(f),
            "arity": f.arity,
            "first_vertex": f.first_vertex,
            "free_slots": list(f.free_slots),
        }
        for f in families(_parse_deltas(args.delta))
    ]
    _emit(
        args.format,
        rows,
        text=lambda rows: "\n".join(
            f"{r['walk']}   [arity {r['arity']},"
            f" first vertex {r['first_vertex']}, free slots {r['free_slots']}]"
            for r in rows
        ),
    )
    return 0


def _lattice_text(row: dict) -> str:
    if row["boundary_hits"]:
        print(f"note: {row['boundary_hits']} inverse(s) on an interval wall", file=sys.stderr)
    return str(row["count"])


def _cmd_lattice(args) -> int:
    region = cylinder(_parse_ks(args.ks))
    parity = _parse_parity(args.parity)
    interval = _parse_interval(args.interval)
    if interval is not None and args.all_points:
        raise SystemExit(
            "error: --all-points cannot be used with --interval: "
            "the inverse rule is defined only for primitive points"
        )
    rep = count_lattice(region, args.q, parity, primitive=not args.all_points, interval=interval)
    row = {
        "ks": args.ks,
        "q": args.q,
        "parity": str(parity),
        "primitive": rep.primitive,
        "interval": str(interval) if interval else "",
        "count": rep.count,
        "boundary_hits": rep.boundary_hits,
    }
    _emit(args.format, row, text=_lattice_text)
    return 0


def _cmd_short_interval(args) -> int:
    deltas, interval, enc, count, windows, emp, dev = _limit(args)  # --interval is required
    norm = float(dev) * math.sqrt(args.q) / math.log(args.q)
    row = {
        "deltas": ",".join(map(str, deltas)),
        "q": args.q,
        "interval": str(interval),
        "windows": windows,
        "count": count,
        "empirical": _rat(emp),
        "empirical_decimal": _dec(emp),
        "lo": _rat(enc.lo),
        "hi": _rat(enc.hi),
        "deviation": _dec(dev),
        "deviation_times_sqrtq_over_logq": _dec(norm),
    }
    _emit(args.format, row, text=lambda r: "\n".join(f"{k}: {v}" for k, v in r.items()))
    return 0


def _cmd_verify(args) -> int:
    for flag in _SUITES["all"]:
        if getattr(args, flag) is not None and flag not in _SUITES[args.suite]:
            raise SystemExit(f"error: verify {args.suite} does not read --{flag}")
    for flag in ("q", "k"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise SystemExit(f"error: --{flag} must be >= 1, got {value}")
    given = None if args.delta is None else [_parse_deltas(args.delta)]
    failures = 0

    def run(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    def setting(value, default):
        return default if value is None else value

    suite = args.suite
    if suite in ("tuple-identity", "all"):
        q = setting(args.q, 50)
        tuples = setting(given, [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (2, 2)])
        for ds, res in zip(tuples, verify_tuple_identities(q, tuples)):
            run(f"tuple-identity Q={q} deltas={ds}: {res.lhs} == {res.rhs}", res.ok)
            if not res.ok and res.first_mismatch():
                fc = res.first_mismatch()
                print(f"      first mismatch: {fc.text}: {fc.stream} vs {fc.lattice - fc.boundary}")
    if suite in ("interval-identity", "all"):
        q = setting(args.q, 50)
        interval = setting(_parse_interval(args.interval), UnitInterval(0, Fraction(1, 2)))
        tuples = setting(given, [(1,), (2,), (1, 1)])
        for ds, res in zip(tuples, verify_tuple_identities(q, tuples, interval)):
            run(
                f"interval-identity Q={q} deltas={ds} I={interval}: {res.lhs} == {res.rhs}",
                res.ok,
            )
            for note in res.notes:
                print(f"      note: {note}")
    if suite in ("parity-swap", "all"):
        q = setting(args.q, 60)
        for k in [1, 2, 3, 4, 5] if args.k is None else [args.k]:
            # the parts of cell k that the map sends into T1 and into T2
            domains = {"T": None, "T1": cylinder((k, 1)), "T2": cylinder((k, 2))}
            for name, dom in domains.items():
                res = verify_parity_swap(q, k, dom)
                run(f"parity-swap Q={q} k={k} domain={name}", res.ok)
    if suite in ("areas", "all"):
        kmax = setting(args.k, 60)
        ok = all(
            cylinder_area((k,)) == gap_density(k) for k in range(2, kmax + 1)
        ) and cylinder_area((1,)) == Fraction(1, 6)
        run(f"areas: cylinder areas match 4/(k(k+1)(k+2)) for k <= {kmax}", ok)
    if suite in ("completeness", "all"):
        kmax = setting(args.k, 100)
        total = Fraction(0)
        ok = True
        for k in range(1, kmax + 1):
            total += rho_odd((k,)).lo
            ok = ok and total == 1 - Fraction(2, (k + 1) * (k + 2))
        run(f"completeness: partial sums telescope for K <= {kmax}", ok)
    if suite in ("stabilization", "all"):
        ok = True
        for r in (1, 2, 3):
            for i in range(1, r + 1):
                for m in (_escape_bound(r) + 1, _escape_bound(r) + 2):
                    quad = stabilized_quadrangle(m, i, r)
                    clipped = cylinder((2,) * (i - 1) + (1, m))
                    ok = ok and quad.same_polygon(clipped)
        run("stabilization: explicit quadrangles match clipped cylinders", ok)
    if failures:
        print(f"{failures} check(s) failed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# The verify suites and the flags each reads; `all` reads every flag.
_SUITES = {
    "tuple-identity": ("q", "delta"),
    "interval-identity": ("q", "delta", "interval"),
    "parity-swap": ("q", "k"),
    "areas": ("k",),
    "completeness": ("k",),
    "stabilization": (),
    "all": ("q", "delta", "k", "interval"),
}

# The subcommands, in the order `farey -h` lists them: the handler, the help
# text, the --format default (None: no --format option), whether rho_odd's
# --tol applies, and the arguments as (name, add_argument keywords).
_COMMANDS = {
    "list": (
        _cmd_list, "print F(Q) or its odd-denominator subsequence", "text", False,
        [("--q", dict(type=int, required=True)), ("--odd", dict(action="store_true"))],
    ),
    "stats": (
        _cmd_stats, "gap-tuple histogram of the odd subsequence", "csv", False,
        [
            ("--q", dict(type=int, required=True)),
            ("--h", dict(type=int, default=1)),
            ("--delta-max", dict(type=int, default=0, help="drop tuples with larger entries")),
            ("--interval", dict(help="restrict window starts, e.g. '0,1/2'")),
        ],
    ),
    "rho": (
        _cmd_rho, "certified enclosure of a limiting gap density", "text", True,
        [("--delta", dict(required=True, help="gap tuple, e.g. '1,2'"))],
    ),
    "rho-table": (
        _cmd_rho_table, "enclosure table over {1..delta_max}^h", "csv", True,
        [("--h", dict(type=int, default=2)), ("--delta-max", dict(type=int, default=3))],
    ),
    "compare": (
        _cmd_compare, "empirical ratio at order Q vs the enclosure", "text", True,
        [
            ("--delta", dict(required=True)),
            ("--q", dict(type=int, required=True)),
            ("--interval", {}),
        ],
    ),
    "region": (
        _cmd_region, "dump a cylinder region as JSON", "json", False,
        [
            ("--ks", dict(help="index labels, e.g. '2,1,3' (empty or absent = triangle)")),
            ("--quadrangle", dict(help="m,i,r for the stabilized backward image (not with --ks)")),
        ],
    ),
    "orbit": (
        _cmd_orbit, "JSON orbit trace of a triangle point", None, False,
        [
            ("--point", dict(required=True, help="x,y as rationals, e.g. '3/4,1/2'")),
            ("--steps", dict(type=int, default=5)),
        ],
    ),
    "paths": (
        _cmd_paths, "walk families for a gap tuple", "text", False,
        [("--delta", dict(required=True))],
    ),
    "lattice": (
        _cmd_lattice, "exact lattice count of a scaled cylinder", "text", False,
        [
            ("--ks", dict(default="")),
            ("--q", dict(type=int, required=True)),
            ("--parity", dict(default="any,any")),
            ("--interval", {}),
            ("--all-points", dict(action="store_true", help="count without the gcd filter")),
        ],
    ),
    "verify": (
        _cmd_verify, "run a named identity suite (exit 1 on failure)", None, False,
        [
            ("suite", dict(choices=_SUITES)),
            ("--q", dict(type=int)),
            ("--delta", {}),
            ("--k", dict(type=int)),
            ("--interval", {}),
        ],
    ),
    "short-interval": (
        _cmd_short_interval, "interval-restricted ratio vs the limit", "text", True,
        [
            ("--q", dict(type=int, required=True)),
            ("--delta", dict(required=True)),
            ("--interval", dict(required=True)),
        ],
    ),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `farey` parser with every subcommand, or with ``command`` alone.

    A one-command parser reads that command's input as the full parser does
    and prints the same usage line, since its metavar lists every command.
    Help, --version and input that names no command need the full parser:
    argparse would list only the one command there, or name a missing or
    unknown command by that metavar.
    """
    ap = argparse.ArgumentParser(
        prog="farey",
        description="Exact gap statistics of Farey fractions with odd denominators.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        func, summary, fmt, enclosure, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        if enclosure:  # rho_odd's tol
            p.add_argument("--tol")
        if fmt is not None:
            p.add_argument("--format", choices=("text", "csv", "json"), default=fmt)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return ap


EXIT_BROKEN_PIPE = 141


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # input that starts with no command (help, --version, an unknown option)
    # takes the full parser
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped reading (``farey list | head``): point stdout at
        # devnull so that the flush at exit cannot raise again, and exit with
        # the status a shell gives a process that SIGPIPE ended (128 + 13)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # bad input: the parsing helpers exit with an "error: ..." message;
        # exit with argparse's status for bad usage
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            raise SystemExit(2) from None
        raise


if __name__ == "__main__":
    raise SystemExit(main())
