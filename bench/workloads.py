"""Workload inputs and output checks for the fibercert benchmark.

Each workload's class list is a pure function of the workload name and the
seed.  Seed 0 gives the class lists of the acceptance gate
(``tests/test_acceptance.py``); other seeds draw lists of the same size,
over the same return powers n, that stay primitive and interior to the
slope-cap-1/2 subcone (see ``README.md`` for why the draw is stratified).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

SLOPE_CAP = Fraction(1, 2)

# name -> fixed parameters of the job a worker runs.
WORKLOADS = {
    "sweep-r2": {"dataset": "rose_r2", "model_p_max": 12, "p_max": 16,
                 "mirror": True, "verify": False},
    "verify-r1": {"dataset": "rose_r1", "model_p_max": 16, "p_max": 32,
                  "mirror": False, "verify": True},
    "cone-r2": {"dataset": "rose_r2", "model_p_max": 80, "p_max": None,
                "mirror": False, "verify": False},
}


def classes(workload: str, seed: int) -> list[tuple[int, ...]]:
    """The class list a workload certifies (empty for cone-r2, whose seed is
    unused)."""
    if workload == "sweep-r2":
        base = [(1, j, j * j + 1) for j in range(7, 21)]
        if seed == 0:
            return base
        # Quarter turns of the p-part: the square slope box is invariant,
        # and measured certify times stay within the class's own spread.
        rng = random.Random(seed)
        drawn = []
        for a, b, n in base:
            for _ in range(rng.randrange(4)):
                a, b = -b, a
            drawn.append((a, b, n))
        return _checked(drawn)
    if workload == "verify-r1":
        base = [(1, 2 * j + 9) for j in range(20)]
        if seed == 0:
            return base
        rng = random.Random(seed)
        return _checked([(rng.choice((1, -1)), n) for _, n in base])
    if workload == "cone-r2":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def _checked(drawn: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    for alpha in drawn:
        n = alpha[-1]
        if math.gcd(*alpha) != 1 or not all(2 * abs(a) < n for a in alpha[:-1]):
            raise ValueError(f"drawn class {alpha} is not primitive and interior")
    return drawn


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cone_digest_text(dual, cone, eps) -> str:
    """Canonical text of a cone reconstruction: facets (u, slope, c_window),
    generators, C, k0 and the subcone's comparability constant."""
    return json.dumps({
        "facets": [[list(f.u), str(f.slope), f.c_window] for f in dual.facets],
        "generators": [list(g) for g in cone.generators],
        "C": dual.C,
        "k0": dual.k0,
        "epsilon": str(eps.epsilon),
    }, sort_keys=True, separators=(",", ":"))


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_run(workload: str, seed: int, jobs: list[dict], probes: list[dict],
              expected: dict, previous_certs: list[str] | None) -> dict:
    """Count operations and failures over the workers of one run.

    Operations are the workers' own (setup, certify, verify, cone build)
    plus one per check made here: the committed digests per job (the cone
    digest at every seed, the sweep CSV digest at seed 0), certificate
    identity across the jobs of the run and with an earlier run of this seed
    on the same sources.
    """
    workers = jobs + probes
    attempted = sum(w.get("attempted", 1) for w in workers)
    failed = sum(w.get("failed", 1) for w in workers)
    problems = [p for w in workers for p in w.get("problems", [])]
    for key, want in expected[workload].items():
        if key == "csv_sha256" and seed != 0:
            continue  # class lists of other seeds have no committed digest
        for job in jobs:
            attempted += 1
            if job.get(key) != want:
                failed += 1
                problems.append(f"{key} {job.get(key)} differs from the committed digest")
    cert_sets = [job["cert_sha256"] for job in jobs if "cert_sha256" in job]
    if previous_certs is not None:
        cert_sets.append(previous_certs)
    if len(cert_sets) > 1:
        attempted += 1
        if any(c != cert_sets[0] for c in cert_sets[1:]):
            failed += 1
            problems.append("certificate bytes differ between repeats")
    return {"attempted": attempted, "failed": failed,
            "inconclusive": sum(job.get("inconclusive", 0) for job in jobs),
            "problems": problems}
