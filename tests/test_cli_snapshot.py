"""Smoke test of tools/cli_snapshot.py, the CLI's answers to a fixed list of calls."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_snapshot_prints_one_record_per_call():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_snapshot.py")],
                         capture_output=True, text=True, check=True).stdout
    records = [json.loads(line) for line in out.splitlines()]
    assert all(sorted(r) == ["argv", "exit", "stderr", "stdout"] for r in records)
    assert all(r["exit"] == 0 and r["stdout"] for r in records)
    assert {r["argv"][0] for r in records} == {
        "ingest", "charpoly", "omega", "oracle", "cone", "bound", "verify", "sweep"}
    verdicts = [r["stdout"] for r in records if r["argv"][0] == "verify"]
    assert verdicts == ["verification: pass\n"] * 4
    assert str(ROOT) not in out
