"""Command-line front end.

Subcommands: list, stats, rho, rho-table, compare, region, orbit, paths,
lattice, verify, short-interval.  Rationals print as "p/q" plus a 12-digit
decimal; CSV output is RFC 4180 (csv module); exit codes reflect verify
outcomes, and bad input prints "error: ..." and exits 2.  Option precedence
is flags > environment (FAREY_MAX_Q) > config file (--config, JSON).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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


_BUILTIN_DEFAULTS = {"tol": "1/1000000", "k_max": 8000}


def _setting(args, name: str):
    """Resolve an option: explicit flag > config file > built-in default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return getattr(args, "_config", {}).get(name, _BUILTIN_DEFAULTS[name])


def _enclosure_options(args) -> dict:
    """The ``tol`` and ``k_max`` arguments of rho_odd, resolved and parsed."""
    tol, k_max = _setting(args, "tol"), _setting(args, "k_max")
    try:
        tol = Fraction(tol)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SystemExit(f"error: bad tolerance {tol!r}, expected like '1/1000'") from exc
    try:
        k_max = int(k_max)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SystemExit(f"error: bad cutoff limit {k_max!r}, expected an integer") from exc
    return {"tol": tol, "k_max": k_max}


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
    text = text.strip()
    if not text:
        return ()
    return _parse_deltas(text)


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


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_list(args) -> int:
    seq = odd_farey_fractions(args.q) if args.odd else farey_fractions(args.q)
    if args.format == "json":
        print(json.dumps([_rat(f) for f in seq]))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(["index", "fraction", "decimal"])
        for i, f in enumerate(seq, 1):
            w.writerow([i, _rat(f), _dec(f)])
    else:
        print(", ".join(_rat(f) for f in seq))
    return 0


def _cmd_stats(args) -> int:
    interval = _parse_interval(args.interval)
    hist, windows = gap_histogram(args.q, args.h, interval=interval)
    rows = []
    for gaps in sorted(hist):
        if args.delta_max and max(gaps) > args.delta_max:
            continue
        count = hist[gaps]
        ratio = Fraction(count, windows) if windows else Fraction(0)
        rows.append((args.q, args.h, ",".join(map(str, gaps)), count, windows, ratio))
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "q": q,
                        "h": h,
                        "deltas": d,
                        "count": c,
                        "windows": t,
                        "ratio": _rat(r),
                        "ratio_decimal": _dec(r),
                    }
                    for q, h, d, c, t, r in rows
                ]
            )
        )
    else:
        w = _csv_writer()
        w.writerow(["q", "h", "deltas", "count", "windows", "ratio", "ratio_decimal"])
        for q, h, d, c, t, r in rows:
            w.writerow([q, h, d, c, t, _rat(r), _dec(r)])
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
    row = _enclosure_row(deltas, enc)
    if args.format == "json":
        print(json.dumps(row))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(list(row))
        w.writerow(list(row.values()))
    else:
        if enc.exact:
            print(f"rho({row['deltas']}) = {row['lo']} = {row['midpoint_decimal']} (exact)")
        else:
            print(
                f"rho({row['deltas']}) in [{row['lo']}, {row['hi']}]"
                f" ~ {row['midpoint_decimal']}"
                f" (width {_dec(enc.width)}, cutoff {enc.cutoff},"
                f" converged={enc.converged})"
            )
    return 0 if enc.converged else 1


def _cmd_rho_table(args) -> int:
    rows = rho_table(args.h, args.delta_max, **_enclosure_options(args))
    payload = [_enclosure_row(r.deltas, r.enclosure) for r in rows]
    if args.format == "json":
        print(json.dumps(payload))
    else:
        w = _csv_writer()
        w.writerow(
            ["deltas", "lo", "hi", "midpoint_decimal", "cutoff", "exact", "converged"]
        )
        for p in payload:
            w.writerow(list(p.values()))
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
    if args.format == "json":
        print(json.dumps(row))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(list(row))
        w.writerow(list(row.values()))
    else:
        print(
            f"rho_Q({row['deltas']}) = {row['empirical']} = {row['empirical_decimal']}"
            f" at Q={args.q}"
        )
        print(f"limit enclosure [{row['lo']}, {row['hi']}]")
        print(
            f"deviation {row['deviation']}"
            f" (x Q/log^2 Q = {row['deviation_times_q_over_log2q']})"
        )
    return 0


def _cmd_region(args) -> int:
    if args.quadrangle is not None:
        region = stabilized_quadrangle(*_parse_quadrangle(args.quadrangle))
    else:
        region = cylinder(_parse_ks(args.ks))
    payload = region.to_json_dict()
    if args.format in ("json", "text"):
        print(json.dumps(payload, indent=None if args.format == "json" else 2))
    else:
        w = _csv_writer()
        w.writerow(["x", "y"])
        for v in payload["vertices"]:
            w.writerow([v["x"], v["y"]])
    return 0


def _cmd_orbit(args) -> int:
    p = _parse_point(args.point)
    ks = orbit_kappas(p, args.steps)
    trace = []
    cur = p
    for k in ks:
        trace.append({"x": _rat(cur.x), "y": _rat(cur.y), "kappa": k})
        cur = next_pair(cur)
    trace.append({"x": _rat(cur.x), "y": _rat(cur.y)})
    print(json.dumps(trace))
    return 0


def _cmd_paths(args) -> int:
    deltas = _parse_deltas(args.delta)
    fams = families(deltas)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "walk": arrow_text(f),
                        "arity": f.arity,
                        "first_vertex": f.first_vertex,
                        "free_slots": list(f.free_slots),
                    }
                    for f in fams
                ]
            )
        )
    else:
        for f in fams:
            print(
                f"{arrow_text(f)}   [arity {f.arity},"
                f" first vertex {f.first_vertex}, free slots {list(f.free_slots)}]"
            )
    return 0


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
    if args.format == "json":
        print(json.dumps(row))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(list(row))
        w.writerow(list(row.values()))
    else:
        print(row["count"])
        if rep.boundary_hits:
            print(f"note: {rep.boundary_hits} inverse(s) on an interval wall", file=sys.stderr)
    return 0


def _cmd_short_interval(args) -> int:
    deltas = _parse_deltas(args.delta)
    interval = _parse_interval(args.interval)
    if interval is None:
        raise SystemExit("error: --interval is required")
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
    if args.format == "json":
        print(json.dumps(row))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(list(row))
        w.writerow(list(row.values()))
    else:
        for k, v in row.items():
            print(f"{k}: {v}")
    return 0


def _print_check(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")


def _cmd_verify(args) -> int:
    failures = 0

    def run(name: str, ok: bool) -> None:
        nonlocal failures
        _print_check(name, ok)
        if not ok:
            failures += 1

    suite = args.suite
    if suite in ("tuple-identity", "all"):
        q = args.q or 50
        patterns = (
            [_parse_deltas(args.delta)]
            if args.delta
            else [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (2, 2)]
        )
        for ds in patterns:
            res = verify_tuple_identity(q, ds)
            run(f"tuple-identity Q={q} deltas={ds}: {res.lhs} == {res.rhs}", res.ok)
            if not res.ok and res.first_mismatch():
                fc = res.first_mismatch()
                print(f"      first mismatch: {fc.text}: {fc.stream} vs {fc.lattice - fc.boundary}")
    if suite in ("interval-identity", "all"):
        q = args.q or 50
        interval = _parse_interval(args.interval) or UnitInterval(Fraction(0), Fraction(1, 2))
        patterns = [_parse_deltas(args.delta)] if args.delta else [(1,), (2,), (1, 1)]
        for ds in patterns:
            res = verify_tuple_identity(q, ds, interval)
            run(
                f"interval-identity Q={q} deltas={ds} I={interval}: {res.lhs} == {res.rhs}",
                res.ok,
            )
            for note in res.notes:
                print(f"      note: {note}")
    if suite in ("parity-swap", "all"):
        q = args.q or 60
        ks = [int(args.k)] if args.k else [1, 2, 3, 4, 5]
        domains = {"T": None, "T1": cylinder((1,)), "T2": cylinder((2,))}
        for k in ks:
            for name, dom in domains.items():
                res = verify_parity_swap(q, k, dom)
                run(f"parity-swap Q={q} k={k} domain={name}", res.ok)
    if suite in ("areas", "all"):
        kmax = args.k or 60
        ok = all(
            cylinder_area((k,)) == gap_density(k) for k in range(2, kmax + 1)
        ) and cylinder_area((1,)) == Fraction(1, 6)
        run(f"areas: cylinder areas match 4/(k(k+1)(k+2)) for k <= {kmax}", ok)
    if suite in ("completeness", "all"):
        kmax = args.k or 100
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


def _add_format(p, default="text") -> None:
    p.add_argument("--format", choices=("text", "csv", "json"), default=default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="farey",
        description="Exact gap statistics of Farey fractions with odd denominators.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("--config", help="JSON file with default option values")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="print F(Q) or its odd-denominator subsequence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--odd", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("stats", help="gap-tuple histogram of the odd subsequence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--delta-max", type=int, default=0, help="drop tuples with larger entries")
    p.add_argument("--interval", help="restrict window starts, e.g. '0,1/2'")
    _add_format(p, default="csv")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("rho", help="certified enclosure of a limiting gap density")
    p.add_argument("--delta", required=True, help="gap tuple, e.g. '1,2'")
    p.add_argument("--tol")
    p.add_argument("--k-max", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("rho-table", help="enclosure table over {1..delta_max}^h")
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--delta-max", type=int, default=3)
    p.add_argument("--tol")
    p.add_argument("--k-max", type=int)
    _add_format(p, default="csv")
    p.set_defaults(func=_cmd_rho_table)

    p = sub.add_parser("compare", help="empirical ratio at order Q vs the enclosure")
    p.add_argument("--delta", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tol")
    p.add_argument("--k-max", type=int)
    p.add_argument("--interval")
    _add_format(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("region", help="dump a cylinder region as JSON")
    p.add_argument("--ks", default="", help="index labels, e.g. '2,1,3' (empty = triangle)")
    p.add_argument("--quadrangle", help="m,i,r for the stabilized backward image")
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("orbit", help="JSON orbit trace of a triangle point")
    p.add_argument("--point", required=True, help="x,y as rationals, e.g. '3/4,1/2'")
    p.add_argument("--steps", type=int, default=5)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("paths", help="walk families for a gap tuple")
    p.add_argument("--delta", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("lattice", help="exact lattice count of a scaled cylinder")
    p.add_argument("--ks", default="")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--parity", default="any,any")
    p.add_argument("--interval")
    p.add_argument("--all-points", action="store_true", help="count without the gcd filter")
    _add_format(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("verify", help="run a named identity suite (exit 1 on failure)")
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
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("short-interval", help="interval-restricted ratio vs the limit")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--interval", required=True)
    p.add_argument("--tol")
    p.add_argument("--k-max", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_short_interval)

    return ap


def _load_config(path: Optional[str]) -> dict:
    """Option values from a JSON file (flags still win; see _setting)."""
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read config {path!r}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"error: config {path!r} must be a JSON object")
    return {k.replace("-", "_"): v for k, v in data.items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args._config = _load_config(args.config)
        return args.func(args)
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
