"""fibercert benchmark: cold-process jobs over three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-r2 --seed 0 --seconds 15 --trace 0

A run calibrates the host with a fixed pure-Python loop, starts seven
setup-only workers, then starts one fresh worker process at a time, each
running the whole workload once, until ``--seconds`` have passed; the last
job runs to its end.  It checks every job's outputs, prints a
run record to stderr, and prints one JSON object as the last line of
stdout: end-to-end metrics with ``--trace 0``, per-layer metrics from
traced workers with ``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def run_worker(spec: dict) -> dict:
    """Run one job in a fresh process; adds ``wall_s`` (spawn to exit)."""
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    spawned = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(json.dumps(dict(spec, spawned=spawned)),
                                     timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"failed": 1, "attempted": 1, "problems": ["worker timed out"]}
    wall = perf_counter() - spawned
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failed": 1, "attempted": 1,
                "problems": [f"worker exited with code {proc.returncode}"]}
    result = json.loads(lines[-1])
    result["wall_s"] = wall - result.get("spans_write_s", 0.0)
    return result


def calibrate() -> float:
    """Time of a fixed pure-Python loop, to tell host jitter from a change."""
    start = perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def steal_s() -> float | None:
    """Host steal time so far, from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def source_digest() -> str:
    """SHA-256 over the package sources, standing in for the commit when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fibercert")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith((".py", ".json")):
                full = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(full, pkg).encode())
                with open(full, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def end_to_end(jobs: list[dict], probes: list[dict]) -> dict:
    med = statistics.median
    values = {
        "setup_s": (med(w["setup_s"] for w in jobs + probes), "s"),
        "wall_s": (med(job["wall_s"] for job in jobs), "s"),
        "ops_per_s": (med(len(job["op_times"]) / sum(job["op_times"]) for job in jobs), "1/s"),
        "peak_rss_mb": (med(job["peak_rss_mb"] for job in jobs), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(jobs: list[dict]) -> dict:
    """Every per-layer metric from one job, the one with the median wall
    time, so that self times plus the uncovered rest add up to its wall."""
    job = sorted(jobs, key=lambda j: j["wall_s"])[(len(jobs) - 1) // 2]
    metrics = {}
    for key, value in job["layers"].items():
        unit = "s" if key.endswith("_s") else "ratio" if key.endswith("ratio") else "count"
        metrics[key] = {"value": value, "unit": unit}
    covered = sum(v for k, v in job["layers"].items() if k.endswith(".self_s"))
    process = {
        "process.wall_s": (job["wall_s"], "s"),
        "process.uncovered_s": (job["wall_s"] - covered, "s"),
        "process.user_s": (job["user_s"], "s"),
        "process.sys_s": (job["sys_s"], "s"),
        "process.minflt": (job["minflt"], "count"),
    }
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in process.items()})
    return metrics


def previous_certs(workload: str, seed: int, digest: str, jobs: list[dict]):
    """Certificate digests of an earlier run of this seed on the same sources;
    stores this run's when there is none."""
    path = os.path.join(OUT_DIR, f"certs-{workload}-{seed}-{digest[:16]}.json")
    certs = next((job["cert_sha256"] for job in jobs if "cert_sha256" in job), None)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    if certs is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(certs, fh)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fibercert", "__init__.py")):
        print(f"fibercert sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    classes = workloads.classes(args.workload, args.seed)
    digest = source_digest()

    steal_before = steal_s()
    start = perf_counter()
    calibration = calibrate()
    probes = [] if args.trace else [run_worker({"workload": args.workload, "setup_only": True,
                                                "trace": 0})
                                    for _ in range(SETUP_PROBES)]
    jobs: list[dict] = []
    while True:
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}-{len(jobs)}.jsonl.gz")
        job = run_worker({"workload": args.workload, "classes": classes,
                          "trace": args.trace,
                          "spans_path": spans_path if args.trace else None})
        jobs.append(job)
        if job["failed"] or perf_counter() - start >= args.seconds:
            break
    elapsed = perf_counter() - start
    steal_after = steal_s()
    op_times = [t for job in jobs for t in job.get("op_times", [])]

    check = workloads.check_run(
        args.workload, args.seed, jobs, probes, workloads.load_expected(),
        None if any(j["failed"] for j in jobs) else
        previous_certs(args.workload, args.seed, digest, jobs))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(jobs), "measured_s": elapsed,
        "calibration_s": calibration,
        "steal_s": None if steal_before is None or steal_after is None
        else steal_after - steal_before,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": next((w["numpy"] for w in jobs + probes if "numpy" in w), None),
        "commit": git_commit(), "source_sha256": digest, "thread_env": THREAD_ENV,
        "job_walls_s": [j.get("wall_s") for j in jobs],
        "op_p50_s": statistics.median(op_times) if op_times else None,
        "inconclusive": check["inconclusive"],
        "failed_share": check["failed"] / check["attempted"],
        "problems": check["problems"],
    }
    print("run record: " + json.dumps(record), file=sys.stderr)
    measured = [job for job in jobs if job.get("op_times")]
    if not measured:
        metrics = {}
    elif args.trace:
        metrics = per_layer(measured)
    else:
        metrics = end_to_end(measured, probes)
    print(json.dumps({"correct": check["failed"] == 0, "attempted": check["attempted"],
                      "failed": check["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
