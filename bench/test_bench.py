"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py

They start worker processes and take about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import run  # noqa: E402
import workloads  # noqa: E402


def test_seed_zero_gives_the_acceptance_lists():
    from test_acceptance import R1_CLASSES, R2_CLASSES

    assert workloads.classes("sweep-r2", 0) == R2_CLASSES
    assert workloads.classes("verify-r1", 0) == R1_CLASSES
    assert workloads.classes("cone-r2", 0) == workloads.classes("cone-r2", 7) == []


def test_other_seeds_draw_primitive_interior_lists_over_the_same_n():
    for name in ("sweep-r2", "verify-r1"):
        base = workloads.classes(name, 0)
        lists = [workloads.classes(name, seed) for seed in range(1, 11)]
        assert len({tuple(c) for c in lists}) > 1
        assert lists == [workloads.classes(name, seed) for seed in range(1, 11)]
        for drawn in lists:
            assert [c[-1] for c in drawn] == [c[-1] for c in base]
            for alpha in drawn:
                assert math.gcd(*alpha) == 1
                assert all(abs(a) < workloads.SLOPE_CAP * alpha[-1] for a in alpha[:-1])


def test_committed_digests_match_the_acceptance_sweeps():
    """expected.json holds what one sweep() call over the whole list gives,
    as the acceptance fixtures compute it."""
    from fibercert import dataio, pipeline
    from worker import _models

    expected = workloads.load_expected()
    for name, params in workloads.WORKLOADS.items():
        path = os.path.join(ROOT, "src", "fibercert", "data", params["dataset"] + ".json")
        track = dataio.load_dataset(path)
        dual, cone, P, eps = _models(track, params["model_p_max"])
        got = {"cone_sha256": workloads.sha256(workloads.cone_digest_text(dual, cone, eps))}
        if params["p_max"] is not None:
            rows = pipeline.sweep(track, dual, cone, P, workloads.classes(name, 0),
                                  params["p_max"], dataio.dataset_hash(track),
                                  allow_mirror=params["mirror"])
            got["csv_sha256"] = workloads.sha256(dataio.sweep_to_csv(rows))
        assert got == expected[name], name


def test_a_wrong_expected_digest_counts_as_a_failure():
    job = run.run_worker({"workload": "cone-r2", "classes": [], "trace": 0})
    expected = workloads.load_expected()
    good = workloads.check_run("cone-r2", 0, [job], [], expected, None)
    assert good["failed"] == 0 and good["attempted"] >= 2
    wrong = {"cone-r2": {"cone_sha256": "0" * 64}}
    bad = workloads.check_run("cone-r2", 0, [job], [], wrong, None)
    assert bad["failed"] / bad["attempted"] > 0
    assert "differs from the committed digest" in bad["problems"][0]


def test_two_traced_jobs_give_identical_counts():
    specs = [
        {"workload": "sweep-r2", "classes": [(1, 7, 50), (-7, 1, 50)], "trace": 1},
        {"workload": "verify-r1", "classes": [(1, 45), (-1, 47)], "trace": 1},
    ]
    for spec in specs:
        first, second = run.run_worker(spec), run.run_worker(spec)
        assert first["failed"] == second["failed"] == 0, first["problems"]
        for key, value in first["layers"].items():
            if key.endswith(".minflt"):
                assert abs(value - second["layers"][key]) <= 0.05 * value + 1000, key
            elif not key.endswith("_s"):
                assert value == second["layers"][key], key
        assert first["layers"]["pipeline.certify.calls"] == 2
        assert first["layers"]["lattice.deep_point.grid_points"] > 0
    assert first["layers"]["trackmap.oracle_iterate.budget_exhausted"] > 0


def test_run_refuses_a_directory_without_the_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    done = subprocess.run(command + ["--workload", "cone-r2", "--seed", "0",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
