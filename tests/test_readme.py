"""The README's command-line examples, run through the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from hifam.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for each `$ hifam` line of the Examples block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("Examples:", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ hifam "):
            examples.append((line[2:], []))
        elif line.strip():
            examples[-1][1].append(line)
    return examples


def test_readme_has_examples():
    assert len(_examples()) >= 2


@pytest.mark.parametrize("command,shown", _examples(), ids=[c for c, _ in _examples()])
def test_readme_example_output(capsys, command, shown):
    assert main(shlex.split(command)[1:]) == 0
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(shown)
    for want, line in zip(shown, got):
        if want.endswith("..."):
            assert line.startswith(want[:-3]), (want, line)
        else:
            assert line == want


def test_library_tour_names_every_module():
    """The tour's `hifam.<module>` rows are exactly the library's modules."""
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `hifam\.(\w+)` \|", tour, flags=re.MULTILINE)
    package = README.parent / "src" / "hifam"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__", "cli"}
    assert len(rows) == len(set(rows))
    assert set(rows) == modules
