"""Layout rules of the package source."""
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "coldchem"
MAX_LINE = 99


def test_source_lines_fit_the_limit():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, "\n".join(long_lines)
