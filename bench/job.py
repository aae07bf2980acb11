"""Run one `farey` job in this fresh interpreter and report it as one JSON line.

    python3 bench/job.py SPANS_FILE -- ARGV...

The package is imported from the checkout's ``src`` tree, then
``oddfarey.cli.main(ARGV)`` runs with stdout and stderr captured, as an
installed ``farey ARGV...`` call would.  SPANS_FILE is ``-`` for an untraced
job.  Otherwise the public functions of every oddfarey module are wrapped in
each module namespace that holds them, so that calls between modules (and
within one) record a span; the spans are kept in memory and written to
SPANS_FILE as JSON lines when the job ends.  Traced or not, a probe thread
(pace.py) measures the machine's speed while ``main`` runs.

The last line on stdout is the report: exit code, captured output, the time
inside ``main``, the monotonic clock reading once the package was imported
(the parent turns it into set-up time), peak RSS, the probe readings, and,
when traced, the ``cylinder_area`` cache statistics.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oddfarey  # noqa: E402,F401
from oddfarey import cli  # noqa: E402

# Set-up ends here: interpreter start and the package import, as for `farey`.
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

# The harness's own imports come after the stamp, so that they do not count.
import contextlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from pace import Pacer  # noqa: E402

MODULES = ("farey", "dynamics", "geometry", "paths", "density", "lattice", "cli")

# Numbers a span keeps besides its timing: the order Q of a streaming pass,
# the points a decode returned, the cutoff an enclosure reached.
_SPAN_VALUES = {
    "farey.gap_histogram": lambda args, kwargs, out: kwargs.get("q_max", args[0] if args else None),
    "farey.count_delta_tuples": lambda args, kwargs, out: kwargs.get("q_max", args[0] if args else None),
    "lattice.decode_histogram": lambda args, kwargs, out: sum(out.values()),
    "density.rho_odd": lambda args, kwargs, out: out.cutoff,
}


class Tracer:
    """In-memory spans: [id, parent id (-1 at the root), name, start, end, value]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, value_of = self.spans, self._stack, _SPAN_VALUES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1], name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if value_of is not None:
                span[5] = value_of(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public function in every module namespace that binds it."""
        mods = {m: importlib.import_module(f"oddfarey.{m}") for m in MODULES}
        for owner, mod in mods.items():
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname)
                if not inspect.isfunction(inspect.unwrap(fn)):
                    continue
                wrapper = self.wrap(f"{owner}.{fname}", fn)
                for holder in mods.values():
                    if holder.__dict__.get(fname) is fn:
                        setattr(holder, fname, wrapper)
        cli.main = self.wrap("cli.main", cli.main)

    def write(self, path, job_id):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, value in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": start,
                         "end": end, "job": job_id, "value": value}
                    )
                    + "\n"
                )


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def main() -> None:
    spans_file = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: job.py SPANS_FILE -- ARGV...")
    argv = sys.argv[3:]
    tracer = None
    cache = None
    if spans_file != "-":
        from oddfarey import geometry

        cache = geometry.cylinder_area
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    error = None
    pacer = Pacer()
    pacer.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = _exit_code(exc)
        if not isinstance(exc.code, (int, type(None))):
            err.write(f"{exc.code}\n")
    except Exception:  # a traceback is a failed job; report it, do not die
        rc = None
        error = traceback.format_exc()
    main_s = time.perf_counter() - t0
    pacer.stop()
    report = {
        "rc": rc,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "main_s": main_s,
        "ready": READY,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "pace": pacer.report(),
    }
    if tracer is not None:
        info = cache.cache_info()
        report["cylinder_area_cache"] = [info.hits, info.misses, info.currsize]
        job_id = os.path.join(os.path.basename(os.path.dirname(os.path.abspath(spans_file))),
                              os.path.splitext(os.path.basename(spans_file))[0])
        tracer.write(spans_file, job_id)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
