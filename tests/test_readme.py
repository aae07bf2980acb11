"""README's examples run as written: the "A 60-second tour" lines against the
package's public names, and the "Command line" lines through ``cli.main``."""

import shlex
from pathlib import Path

from oddfarey import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_lines() -> list[str]:
    text = README.read_text()
    block = text[text.index("## A 60-second tour"):].split("```python\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_tour_runs():
    """Each line runs in one namespace; a line whose comment starts with
    True evaluates to True."""
    namespace: dict = {}
    lines = _tour_lines()
    assert lines[1] == "from oddfarey import *"
    for line in lines:
        code, _, comment = line.partition("#")
        if code.startswith(("from ", "import ")):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        if comment.strip().startswith("True"):
            assert value is True, line


def test_readme_commands_run(capsys):
    text = README.read_text()
    block = text[text.index("## Command line"):].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) > 10 and all(argv[0] == "farey" for argv in commands)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    capsys.readouterr()
