import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import F8, F8_ODD
from oddfarey import cli
from oddfarey.cli import main
from oddfarey.farey import farey_fractions, odd_farey_fractions


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run(capsys, "list", "--q", "8")
    assert code == 0
    assert out.strip() == ", ".join(f"{f.numerator}/{f.denominator}" for f in F8)
    code, out = run(capsys, "list", "--q", "8", "--odd")
    assert out.strip() == ", ".join(f"{f.numerator}/{f.denominator}" for f in F8_ODD)
    code, out = run(capsys, "list", "--q", "1")
    assert out.strip() == "1/1"


def test_list_csv_and_json(capsys):
    _, out = run(capsys, "list", "--q", "5", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "fraction", "decimal"]
    assert len(rows) == 11
    _, out = run(capsys, "list", "--q", "5", "--format", "json")
    assert json.loads(out) == [
        "1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5", "1/1",
    ]


@pytest.mark.parametrize("q", range(1, 13))
def test_list_json_is_json_dumps(capsys, q):
    """The streamed array is byte for byte what json.dumps prints."""
    for flags, seq in (([], farey_fractions(q)), (["--odd"], odd_farey_fractions(q))):
        _, out = run(capsys, "list", "--q", str(q), "--format", "json", *flags)
        assert out == json.dumps([f"{f.numerator}/{f.denominator}" for f in seq]) + "\n"


def test_csv_leaves_missing_columns_empty(capsys):
    cli._emit("csv", [{"a": 1, "b": None}, {"b": "x,y"}], ["a", "b"])
    assert capsys.readouterr().out == 'a,b\n1,\n,"x,y"\n'


def test_csv_writes_tuple_rows_as_they_are(capsys):
    cli._emit("csv", iter([(1, "1/2", None), (2, "x,y", "")]), ["a", "b", "c"])
    assert capsys.readouterr().out == 'a,b,c\n1,1/2,\n2,"x,y",\n'


class _Enough(Exception):
    pass


class _Head(io.TextIOBase):
    """A stdout that takes the first ``limit`` characters written to it and
    then stops the writer, as ``head -c`` would."""

    def __init__(self, limit: int):
        self.limit = limit
        self.text = io.StringIO()

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.text.write(s)
        if self.text.tell() >= self.limit:
            raise _Enough
        return len(s)


def test_list_streams_its_rows():
    """``farey list --q 2000 --format csv`` writes its 1.2 M rows as it makes
    them: traced memory stays below 20 MB while the first 2 MB of rows are
    written.  Rows built before the first write would take about 600 MB."""
    head = _Head(2_000_000)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(head), pytest.raises(_Enough):
            main(["list", "--q", "2000", "--format", "csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = head.text.getvalue().splitlines()
    assert lines[:2] == ["index,fraction,decimal", "1,1/2000,0.0005"]
    assert len(lines) > 50_000
    assert peak < 20_000_000


def test_list_streams_its_json_array():
    """``farey list --q 2000 --format json`` writes its array item by item:
    traced memory stays below 20 MB while the first 2 MB are written."""
    head = _Head(2_000_000)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(head), pytest.raises(_Enough):
            main(["list", "--q", "2000", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head.text.getvalue().startswith('["1/2000", "1/1999", ')
    assert peak < 20_000_000


def test_closed_pipe_ends_quietly():
    """``farey list --q 300 --format csv | head -1``: the reader closes the
    pipe after one line, and the command exits 141 with nothing on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "oddfarey.cli", "list", "--q", "300", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"index,fraction,decimal\n"
    proc.stdout.close()  # about 1 MB of rows is still to come
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141


def test_stats(capsys):
    code, out = run(capsys, "stats", "--q", "8", "--h", "1")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "h", "deltas", "count", "windows", "ratio", "ratio_decimal"]
    data = {r[2]: (int(r[3]), int(r[4]), r[5]) for r in rows[1:]}
    assert data["1"] == (7, 12, "7/12")
    assert data["7"] == (1, 12, "1/12")


def test_stats_prints_an_empty_table(capsys):
    # the one pair window starting at 1/3 is (1, 2), so --delta-max 1 drops it
    argv = ["stats", "--q", "20", "--h", "2", "--delta-max", "1", "--interval", "1/3,1/3"]
    assert run(capsys, *argv) == (0, "q,h,deltas,count,windows,ratio,ratio_decimal\n")
    assert run(capsys, *argv, "--format", "json") == (0, "[]\n")


def test_rho(capsys):
    code, out = run(capsys, "rho", "--delta", "2")
    assert code == 0
    assert "1/6" in out and "exact" in out
    code, out = run(capsys, "rho", "--delta", "1,1", "--tol", "1/1000", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["exact"] is False and row["converged"] is True


def test_rho_table(capsys):
    code, out = run(capsys, "rho-table", "--h", "1", "--delta-max", "4")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0][0] == "deltas"
    assert [r[1] for r in rows[1:]] == ["2/3", "1/6", "1/15", "1/30"]


def test_compare(capsys):
    code, out = run(capsys, "compare", "--delta", "2", "--q", "500", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["lo"] == "1/6"
    assert float(row["deviation"]) < 0.01


def test_region(capsys):
    code, out = run(capsys, "region", "--ks", "2", "--format", "json")
    data = json.loads(out)
    assert data["area"] == "1/6"
    assert len(data["vertices"]) >= 3
    code, out = run(capsys, "region", "--quadrangle", "6,1,1", "--format", "json")
    assert json.loads(out)["area"] == "1/84"


def test_orbit(capsys):
    code, out = run(capsys, "orbit", "--point", "3/4,1/2", "--steps", "3")
    trace = json.loads(out)
    assert trace[0] == {"x": "3/4", "y": "1/2", "kappa": 3}
    assert len(trace) == 4


def test_paths(capsys):
    code, out = run(capsys, "paths", "--delta", "1,1", "--format", "json")
    fams = json.loads(out)
    assert len(fams) == 4
    assert {f["arity"] for f in fams} == {1, 2, 3}
    code, out = run(capsys, "paths", "--delta", "1,1", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["walk"] for r in rows] == [f["walk"] for f in fams]
    assert [int(r["arity"]) for r in rows] == [f["arity"] for f in fams]


def test_lattice(capsys):
    code, out = run(capsys, "lattice", "--ks", "", "--q", "8", "--parity", "odd,any")
    assert out.strip() == "13"
    code, out = run(
        capsys, "lattice", "--ks", "2", "--q", "60", "--parity", "odd,even",
        "--interval", "0,1", "--format", "json",
    )
    row = json.loads(out)
    assert row["count"] > 0


def test_all_points_take_no_interval(capsys):
    # the inverse rule of --interval is defined only for primitive points
    err = _bad_input(
        capsys, "lattice", "--ks", "2", "--q", "100", "--all-points", "--interval", "0,1/2"
    )
    assert "--all-points" in err and "--interval" in err
    assert capsys.readouterr().out == ""


def test_short_interval(capsys):
    code, out = run(
        capsys, "short-interval", "--q", "200", "--delta", "2",
        "--interval", "0,1/2", "--format", "json",
    )
    row = json.loads(out)
    assert row["lo"] == "1/6"
    assert float(row["deviation_times_sqrtq_over_logq"]) <= 5


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "tuple-identity", "--q", "30")
    assert code == 0 and "PASS" in out and "FAIL" not in out
    code, out = run(capsys, "verify", "tuple-identity", "--q", "100", "--delta", "2,3")
    assert code == 0
    code, out = run(capsys, "verify", "parity-swap", "--q", "30", "--k", "3")
    assert code == 0
    code, out = run(capsys, "verify", "areas", "--k", "20")
    assert code == 0
    code, out = run(capsys, "verify", "stabilization")
    assert code == 0
    code, out = run(capsys, "verify", "completeness", "--k", "30")
    assert code == 0
    code, out = run(
        capsys, "verify", "interval-identity", "--q", "30", "--interval", "1/4,3/4"
    )
    assert code == 0


def test_bad_arguments(capsys):
    with pytest.raises(SystemExit):
        main(["rho", "--delta", "x"])
    with pytest.raises(SystemExit):
        main(["lattice", "--ks", "2", "--q", "10", "--parity", "odd"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--config", "c.json", "rho", "--delta", "1"])  # no such option
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: farey")
    assert main(["list", "--q", "0"]) == 2  # ValueError path
    capsys.readouterr()
    assert main(["list", "--q", "0", "--format", "csv"]) == 2
    assert capsys.readouterr().out == ""  # the order is checked before the header


def _bad_input(capsys, *argv):
    """Run a command that must fail on its input: exit 2, one error line."""
    with pytest.raises(SystemExit) as exc:
        raise SystemExit(main(list(argv)))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["rho", "--delta", "1", "--tol", "1/0"],
        ["rho-table", "--h", "1", "--tol", "1/0"],
        ["compare", "--delta", "1", "--q", "10", "--tol", "1/0"],
        ["short-interval", "--q", "10", "--delta", "1", "--interval", "0,1/2", "--tol", "1/0"],
        ["rho", "--delta", "1", "--tol", "abc"],
    ],
)
def test_bad_tolerance(capsys, argv):
    assert "bad tolerance" in _bad_input(capsys, *argv)


def test_decimal_tolerance_reads_as_its_fraction(capsys):
    decimal = run(capsys, "rho", "--delta", "1,1", "--tol", "0.001")
    assert decimal == run(capsys, "rho", "--delta", "1,1", "--tol", "1/1000")


@pytest.mark.parametrize("text", ["1,2", "1,2,3,4", "6,x,1", ""])
def test_bad_quadrangle(capsys, text):
    assert "quadrangle must look like 'm,i,r'" in _bad_input(capsys, "region", "--quadrangle", text)


@pytest.mark.parametrize("text", ["1/0,1", "1/2", "a,b", "0,0"])
def test_bad_point_names_its_input(capsys, text):
    err = _bad_input(capsys, "orbit", "--point", text)
    assert err.count("\n") == 1 and repr(text) in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_order_cap(monkeypatch, capsys, cap):
    monkeypatch.setenv("FAREY_MAX_Q", cap)
    assert "FAREY_MAX_Q" in _bad_input(capsys, "stats", "--q", "10")


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--delta", "2", "--q", "51"],
        ["compare", "--delta", "1", "--q", "51"],
        ["short-interval", "--q", "51", "--delta", "2,3", "--interval", "1/3,1/2"],
        ["short-interval", "--q", "51", "--delta", "1,1", "--interval", "1/3,1/2"],
    ],
)
def test_counted_and_streamed_commands_keep_the_order_cap(monkeypatch, capsys, argv):
    """Windows counted over cylinders obey the order cap as the pass does."""
    monkeypatch.setenv("FAREY_MAX_Q", "50")
    assert "exceeds the configured cap 50" in _bad_input(capsys, *argv)
    monkeypatch.delenv("FAREY_MAX_Q")
    argv[argv.index("--q") + 1] = "0"
    assert "Farey order must be a positive integer" in _bad_input(capsys, *argv)


def test_argument_errors_exit_two(capsys):
    assert "bad gap tuple" in _bad_input(capsys, "rho", "--delta", "x")
    err = _bad_input(capsys, "stats", "--q", "10", "--delta-max", "-1")
    assert err == "error: --delta-max must be >= 0, got -1\n"
    _bad_input(capsys, "short-interval", "--q", "10", "--delta", "1", "--interval", "1/2,1/4")
    err = _bad_input(capsys, "region", "--ks", "2", "--quadrangle", "10,1,1")
    assert err == "error: --ks cannot be used with --quadrangle: give one region\n"
    assert "--quadrangle" in _bad_input(capsys, "region", "--ks", "", "--quadrangle", "10,1,1")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["region", "--ks", "0"], "error: label tuple entries must be positive, got '0'\n"),
        (["lattice", "--ks", "x", "--q", "5"], "error: bad label tuple 'x', expected like '2,1,3'\n"),
    ],
)
def test_label_errors_name_labels(capsys, argv, message):
    assert _bad_input(capsys, *argv) == message


def test_small_cutoff_limit(capsys):
    """There is no cutoff flag: K stops at 8000, and a tolerance it does not
    meet is reported unconverged with exit 1."""
    with pytest.raises(SystemExit) as exc:
        main(["rho", "--delta", "1,1", "--k-max", "100"])  # no such option
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage: farey") and "--k-max" in err
    code, out = run(capsys, "rho", "--delta", "1,1", "--tol", "1/1000000000000")
    assert code == 1
    assert "cutoff 8000," in out and "converged=False" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["tuple-identity", "--q", "0"], "--q must be >= 1"),
        (["parity-swap", "--q", "-3"], "--q must be >= 1"),
        (["parity-swap", "--k", "0"], "--k must be >= 1"),
        (["areas", "--k", "-5"], "--k must be >= 1"),
        (["completeness", "--k", "0"], "--k must be >= 1"),
        (["tuple-identity", "--delta", ""], "bad gap tuple ''"),
        (["interval-identity", "--delta", ""], "bad gap tuple ''"),
        # a flag the suite does not read is an error, checked before any parsing
        (["tuple-identity", "--interval", "garbage"], "verify tuple-identity does not read --interval"),
        (["areas", "--q", "5"], "verify areas does not read --q"),
        (["stabilization", "--k", "3"], "verify stabilization does not read --k"),
        (["parity-swap", "--delta", "1"], "verify parity-swap does not read --delta"),
        (["completeness", "--delta", "x"], "verify completeness does not read --delta"),
    ],
)
def test_verify_rejects_empty_and_nonpositive_settings(capsys, argv, message):
    assert message in _bad_input(capsys, "verify", *argv)


def test_parity_swap_domains_are_not_empty(monkeypatch, capsys):
    # T1 and T2 stand for the parts of cell k that the map sends into them
    real, results = cli.verify_parity_swap, []

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(cli, "verify_parity_swap", recording)
    code, out = run(capsys, "verify", "parity-swap", "--q", "30")
    assert code == 0 and out.count("PASS") == 15
    assert sum(res.lhs > 0 for res in results) == 13


def test_short_interval_without_windows(capsys):
    # no odd-denominator fraction equals 1/2, so no window starts in [1/2, 1/2]
    err = _bad_input(capsys, "short-interval", "--q", "10", "--delta", "1", "--interval", "1/2,1/2")
    assert "no length-2 windows" in err


def test_no_window_error_names_the_interval(capsys):
    # F(50) has windows, just none whose first fraction lies in [1/2, 1/2]
    for command in ("short-interval", "compare"):
        err = _bad_input(capsys, command, "--q", "50", "--delta", "1", "--interval", "1/2,1/2")
        assert "no length-2 windows with first fraction in [1/2,1/2] " in err and "F(50)" in err
    err = _bad_input(capsys, "compare", "--q", "1", "--delta", "1")  # F(1) has no window
    assert "no length-2 windows in the odd subsequence of F(1)" in err
