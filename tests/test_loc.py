"""Smoke test of tools/loc.py, the one line count of src/fibercert."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_loc_per_file_counts_sum_to_total():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py")],
                         capture_output=True, text=True, check=True).stdout
    *files, total = [line.split() for line in out.splitlines()]
    assert total[1] == "total"
    assert [name for _, name in files] == sorted(
        path.name for path in (ROOT / "src" / "fibercert").glob("*.py"))
    assert all(int(lines) > 0 for lines, _ in files)
    assert sum(int(lines) for lines, _ in files) == int(total[0])
