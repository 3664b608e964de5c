"""Run alternating before/after pairs of the benchmark and write a BENCH file.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent <rev> --pr <number> [--seeds 1-10] \
        [--workloads sweep-r2,verify-r1] [--claim sweep-r2:ops_per_s] \
        [--change "one line on what changed"]

The parent side is ``git archive <rev>`` unpacked in a temporary directory;
the change side is a copy of this working tree (tracked and untracked files
that git does not ignore), in another.  For each workload in turn (by
default every workload BENCHMARK.json lists), pair i runs
``python3 bench/run.py --workload W --seed S --trace 0`` once in each
directory, the parent first on even i, and keeps the last line of its
stdout; the run length is bench/run.py's own.  Seeds are given as a range
``a-b`` or a comma list, one pair per seed, in order.  The result is written to ``BENCH_<pr>.json`` at the
root of this checkout: per workload, every pair's end-to-end metrics and,
per metric, each side's median and quartiles (statistics.quantiles, n=4),
the pairs the change side won, the median ratio and the parent's
interquartile range.  Each run also keeps the ``calibration_s`` of its run
record, the time of a fixed loop, which moves with host load and not with
the change; next to each metric's median ratio the summary gives the
workload's median ratio of ``calibration_s``, so a ratio the host moved
shows as such.  With ``--claim``, the claimed workload then runs once more per
side with ``--trace 1`` on the first seed, and its per-layer metrics are
kept under ``traced``, to show which layers moved.  Nothing under
``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
KEPT = ("correct", "attempted", "failed")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def unpack_parent(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into dest; return the short commit id."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest)
    return _git("rev-parse", "--short", rev).decode().strip()


def copy_worktree(dest: Path) -> None:
    """Copy the files of this working tree that git tracks or does not ignore."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One benchmark run in checkout: its correctness and its end-to-end
    metrics, or per-layer ones when traced."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    row = {key: result[key] for key in KEPT}
    row.update({name: round(m["value"], 4) for name, m in result["metrics"].items()})
    # The run record's fixed-loop time tells host jitter from a change.
    record = next(line for line in done.stderr.splitlines() if line.startswith("run record: "))
    row["calibration_s"] = round(json.loads(record[len("run record: "):])["calibration_s"], 4)
    return row


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, pairs won by the change,
    and the median ratio of calibration_s over the same pairs."""
    summary = {}
    for name, better in metrics.items():
        measured = [p for p in pairs if all(name in p[side] for side in SIDES)]
        if len(measured) < 2:
            continue  # a failed run reports no metrics
        values = {side: [p[side][name] for p in measured] for side in SIDES}
        sign = 1 if better == "higher" else -1
        q = {side: statistics.quantiles(values[side], n=4) for side in SIDES}
        med = {side: statistics.median(values[side]) for side in SIDES}
        summary[name] = {
            "better": better,
            **{side: {"median": round(med[side], 4), "q1": round(q[side][0], 4),
                      "q3": round(q[side][2], 4)} for side in SIDES},
            "change_better_pairs": sum(sign * (p["change"][name] - p["parent"][name]) > 0
                                       for p in measured),
            "pairs": len(measured),
            "median_ratio_change_over_parent": round(med["change"] / med["parent"], 4),
            "calibration_ratio_change_over_parent": round(
                statistics.median(p["change"]["calibration_s"] for p in measured)
                / statistics.median(p["parent"]["calibration_s"] for p in measured), 4),
            "parent_iqr": round(q["parent"][2] - q["parent"][0], 4),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--seeds", default="1-10", help="one pair per seed")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; every workload of BENCHMARK.json by default")
    parser.add_argument("--claim", default=None, help="workload:metric of a claimed gain")
    parser.add_argument("--change", default="", help="one line on what the change does")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])

    out = {"change": args.change, "parent_commit": None, "claim": None,
           "command": "python3 bench/run.py --workload <workload> --seed <seed> --trace 0",
           "procedure": f"{len(seeds)} pairs per workload, seeds {args.seeds}, one per pair; "
                        "within a pair the side that runs first alternates, parent first "
                        "on even pair index; workloads run one after another. The change "
                        "side is a copy of the working tree, the parent side an archive of "
                        "the parent commit, each in its own directory. Quartiles are "
                        "statistics.quantiles(values, n=4) over the runs of one side.",
           "host": {"cpu_count": os.cpu_count(), "python": platform.python_version()},
           "workloads": {}}
    if args.claim:
        workload, metric = args.claim.split(":")
        out["claim"] = {"workload": workload, "metric": metric}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for path in checkouts.values():
            path.mkdir()
        out["parent_commit"] = unpack_parent(args.parent, checkouts["parent"])
        copy_worktree(checkouts["change"])
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side].get('ops_per_s')}" for side in SIDES), file=sys.stderr)
                pairs.append(pair)
            out["workloads"][workload] = {"summary": summarize(pairs, metrics), "pairs": pairs}
        if out["claim"]:
            workload = out["claim"]["workload"]
            out["traced"] = {"workload": workload, "seed": seeds[0],
                             **{side: run_once(checkouts[side], workload, seeds[0], trace=1)
                                for side in SIDES}}
    path = ROOT / f"BENCH_{args.pr}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
