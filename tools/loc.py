"""Print the non-blank lines of each src/fibercert/*.py file and their total.

Usage: python3 tools/loc.py [package directory]

A line is non-blank if it holds anything but whitespace; comments and
docstrings count.  The directory defaults to this checkout's src/fibercert.
"""

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fibercert"


def non_blank_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.name: non_blank_lines(path) for path in sorted(package.glob("*.py"))}
    for name, lines in counts.items():
        print(f"{lines:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
