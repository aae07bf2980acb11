"""README's "A 60-second tour" runs as written, against the package's public names."""

from pathlib import Path

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
