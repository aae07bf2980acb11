"""Command-line front end.

Subcommands: list, stats, rho, rho-table, compare, region, orbit, paths,
lattice, verify, short-interval.  Rationals print as "p/q" plus a 12-digit
decimal.  Every command but verify builds a record (dict) or a table (list
of dicts) and prints it through ``_emit``, as JSON, as RFC 4180 CSV (csv
module) or as the command's text form.  Exit codes reflect verify outcomes,
bad input prints "error: ..." and exits 2, and a reader that closes the pipe
early ends the command quietly with status 141.  Option precedence is flags >
environment (FAREY_MAX_Q) > config file (--config, JSON).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .density import gap_density, rho_odd, rho_table
from .dynamics import TrianglePoint, next_pair, orbit_kappas
from .farey import (
    UnitInterval,
    empirical_rho,
    farey_fractions,
    gap_histogram,
    odd_farey_fractions,
)
from .geometry import cylinder, cylinder_area, stabilized_quadrangle
from .lattice import (
    PairParity,
    count_lattice,
    count_lattice_interval,
    verify_parity_swap,
    verify_tuple_identity,
)
from .paths import arrow_text, families


_ENCLOSURE_OPTIONS = {  # rho_odd argument: (built-in default, parser, bad-value message)
    "tol": ("1/1000000", Fraction, "bad tolerance {!r}, expected like '1/1000'"),
    "k_max": (8000, int, "bad cutoff limit {!r}, expected an integer"),
}


def _enclosure_options(args) -> dict:
    """The ``tol`` and ``k_max`` arguments of rho_odd, parsed; each comes from
    its flag, else the config file, else the built-in default."""
    out = {}
    for name, (default, parse, bad) in _ENCLOSURE_OPTIONS.items():
        value = getattr(args, name)
        if value is None:
            value = args._config.get(name, default)
        try:
            out[name] = parse(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise SystemExit("error: " + bad.format(value)) from exc
    return out


def _dec(x, digits: int = 12) -> str:
    return f"{float(x):.{digits}g}"


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_deltas(text: str) -> tuple[int, ...]:
    try:
        out = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise SystemExit(f"error: bad gap tuple {text!r}, expected like '2,3'") from exc
    if not out or any(d < 1 for d in out):
        raise SystemExit(f"error: gap tuple entries must be positive, got {text!r}")
    return out


def _parse_ks(text: str) -> tuple[int, ...]:
    return _parse_deltas(text.strip()) if text.strip() else ()


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
        raise SystemExit(f"error: {exc}") from exc


def _parse_quadrangle(text: str) -> tuple[int, int, int]:
    try:
        m, i, r = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise SystemExit(f"error: quadrangle must look like 'm,i,r', got {text!r}") from exc
    return m, i, r


def _emit(fmt: str, data, columns: Optional[list] = None, text=None) -> None:
    """Print a record (a dict) or a table (an iterable of dicts) in one format.

    json dumps ``data``; csv writes a header (``columns``, else the first
    row's keys) and one line per row; text prints ``text(data)``, a string
    or an iterable of strings, or falls back to csv when the command has no
    text renderer.  csv and text write rows as they come, so a table may be
    a generator when ``columns`` is given.
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
        w = csv.DictWriter(sys.stdout, header, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_list(args) -> int:
    seq = odd_farey_fractions(args.q) if args.odd else farey_fractions(args.q)
    if args.format == "json":  # a plain list of fractions, not records
        _emit("json", [_rat(f) for f in seq])
        return 0
    rows = ({"index": i, "fraction": _rat(f), "decimal": _dec(f)} for i, f in enumerate(seq, 1))
    _emit(
        args.format,
        rows,
        ["index", "fraction", "decimal"],
        text=lambda rows: ((", " if r["index"] > 1 else "") + r["fraction"] for r in rows),
    )
    return 0


def _cmd_stats(args) -> int:
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


def _cmd_compare(args) -> int:
    deltas = _parse_deltas(args.delta)
    interval = _parse_interval(args.interval)
    enc = rho_odd(deltas, **_enclosure_options(args))
    emp = empirical_rho(args.q, deltas, interval)
    dev = max(enc.lo - emp, emp - enc.hi, Fraction(0))
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
    if args.quadrangle is not None:
        region = stabilized_quadrangle(*_parse_quadrangle(args.quadrangle))
    else:
        region = cylinder(_parse_ks(args.ks))
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
    if interval is not None:
        rep = count_lattice_interval(region, args.q, parity, interval)
    else:
        rep = count_lattice(region, args.q, parity, primitive=not args.all_points)
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
    deltas = _parse_deltas(args.delta)
    interval = _parse_interval(args.interval)  # a required option
    enc = rho_odd(deltas, **_enclosure_options(args))
    hist, windows = gap_histogram(args.q, len(deltas), interval)
    if not windows:
        raise ValueError(
            f"no length-{len(deltas) + 1} windows in the odd subsequence of F({args.q})"
        )
    emp = Fraction(hist[deltas], windows)
    dev = max(enc.lo - emp, emp - enc.hi, Fraction(0))
    norm = float(dev) * math.sqrt(args.q) / math.log(args.q)
    row = {
        "deltas": ",".join(map(str, deltas)),
        "q": args.q,
        "interval": str(interval),
        "windows": windows,
        "count": hist[deltas],
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
        for ds in setting(given, [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (2, 2)]):
            res = verify_tuple_identity(q, ds)
            run(f"tuple-identity Q={q} deltas={ds}: {res.lhs} == {res.rhs}", res.ok)
            if not res.ok and res.first_mismatch():
                fc = res.first_mismatch()
                print(f"      first mismatch: {fc.text}: {fc.stream} vs {fc.lattice - fc.boundary}")
    if suite in ("interval-identity", "all"):
        q = setting(args.q, 50)
        interval = setting(_parse_interval(args.interval), UnitInterval(0, Fraction(1, 2)))
        for ds in setting(given, [(1,), (2,), (1, 1)]):
            res = verify_tuple_identity(q, ds, interval)
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
                for m in (4 * r + 2, 4 * r + 3):
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="farey",
        description="Exact gap statistics of Farey fractions with odd denominators.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("--config", help="JSON file with default option values")
    sub = ap.add_subparsers(dest="command", required=True)
    enclosure = argparse.ArgumentParser(add_help=False)  # rho_odd's tol and k_max
    enclosure.add_argument("--tol")
    enclosure.add_argument("--k-max", type=int)

    def command(name, func, help, fmt="text", parents=()):
        """A subcommand running ``func``, with ``--format`` defaulting to ``fmt``."""
        p = sub.add_parser(name, help=help, parents=list(parents))
        if fmt is not None:
            p.add_argument("--format", choices=("text", "csv", "json"), default=fmt)
        p.set_defaults(func=func)
        return p

    p = command("list", _cmd_list, "print F(Q) or its odd-denominator subsequence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--odd", action="store_true")

    p = command("stats", _cmd_stats, "gap-tuple histogram of the odd subsequence", "csv")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--delta-max", type=int, default=0, help="drop tuples with larger entries")
    p.add_argument("--interval", help="restrict window starts, e.g. '0,1/2'")

    p = command(
        "rho", _cmd_rho, "certified enclosure of a limiting gap density", parents=[enclosure]
    )
    p.add_argument("--delta", required=True, help="gap tuple, e.g. '1,2'")

    p = command(
        "rho-table",
        _cmd_rho_table,
        "enclosure table over {1..delta_max}^h",
        "csv",
        parents=[enclosure],
    )
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--delta-max", type=int, default=3)

    p = command(
        "compare", _cmd_compare, "empirical ratio at order Q vs the enclosure", parents=[enclosure]
    )
    p.add_argument("--delta", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--interval")

    p = command("region", _cmd_region, "dump a cylinder region as JSON", "json")
    p.add_argument("--ks", default="", help="index labels, e.g. '2,1,3' (empty = triangle)")
    p.add_argument("--quadrangle", help="m,i,r for the stabilized backward image")

    p = command("orbit", _cmd_orbit, "JSON orbit trace of a triangle point", None)
    p.add_argument("--point", required=True, help="x,y as rationals, e.g. '3/4,1/2'")
    p.add_argument("--steps", type=int, default=5)

    p = command("paths", _cmd_paths, "walk families for a gap tuple")
    p.add_argument("--delta", required=True)

    p = command("lattice", _cmd_lattice, "exact lattice count of a scaled cylinder")
    p.add_argument("--ks", default="")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--parity", default="any,any")
    p.add_argument("--interval")
    p.add_argument("--all-points", action="store_true", help="count without the gcd filter")

    p = command("verify", _cmd_verify, "run a named identity suite (exit 1 on failure)", None)
    p.add_argument(
        "suite",
        choices=(
            "tuple-identity",
            "interval-identity",
            "parity-swap",
            "areas",
            "completeness",
            "stabilization",
            "all",
        ),
    )
    p.add_argument("--q", type=int)
    p.add_argument("--delta")
    p.add_argument("--k", type=int)
    p.add_argument("--interval")

    p = command(
        "short-interval",
        _cmd_short_interval,
        "interval-restricted ratio vs the limit",
        parents=[enclosure],
    )
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--interval", required=True)

    return ap


def _load_config(path: Optional[str]) -> dict:
    """Option values from a JSON file (flags still win; see _enclosure_options)."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read config {path!r}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"error: config {path!r} must be a JSON object")
    return {k.replace("-", "_"): v for k, v in data.items()}


EXIT_BROKEN_PIPE = 141


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args._config = _load_config(args.config)
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
