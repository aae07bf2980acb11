"""`farey` builds the parser of the command its input names, and only that one.

Each argv of the corpus runs through ``main`` twice in one interpreter: as
it is, and with ``build_parser`` made to build every command.  Exit code,
stdout and stderr must agree, and the first run must have built the one
command the corpus names (every command where it names none).  Nothing here
pins argparse's wording, which changes between Python versions.  The file
needs no pytest, so any interpreter can run it:

    PYTHONPATH=src python tests/test_cli_parser.py
"""

import argparse
import contextlib
import io
import os

from oddfarey import cli


def _corpus():
    """(argv, the one command main should build for it, or None for all)."""
    rho = ["rho", "--delta", "1,1"]
    return [([name, "-h"], name) for name in cli._COMMANDS] + [
        (["list", "--odd"], "list"),  # a required option is missing
        (["rho", "--delta", "1", "--bogus"], "rho"),  # at the top level: unrecognized
        (["rho", "--delta", "1", "--format", "xml"], "rho"),
        (["verify", "nope"], "verify"),
        (["--conf", "c.json", *rho], None),  # an unknown top-level option
        (["-h", "rho"], None),
        (["nope"], None),
        ([], None),
        (["--version"], None),
    ]


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action


def _run(argv, full):
    """main's exit code, stdout and stderr for argv, and the commands it built."""
    build, built = cli.build_parser, []

    def recording(command=None):
        built.append(build(None if full else command))
        return built[-1]

    out, err = io.StringIO(), io.StringIO()
    cli.build_parser = recording
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        cli.build_parser = build
    (parser,) = built
    return (code, out.getvalue(), err.getvalue()), list(_subparsers(parser).choices)


def test_main_reads_input_as_the_full_parser():
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    try:
        for argv, command in _corpus():
            got, built = _run(argv, full=False)
            want, _ = _run(argv, full=True)
            assert got == want, argv
            assert built == (list(cli._COMMANDS) if command is None else [command]), argv
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def test_one_command_parser_holds_one_subparser():
    assert list(_subparsers(cli.build_parser("rho")).choices) == ["rho"]
    full = _subparsers(cli.build_parser())
    assert list(full.choices) == list(cli._COMMANDS)
    # argparse names the command argument by its metavar in the errors for
    # a missing or unknown command, so the full parser must not set one
    assert full.metavar is None


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
