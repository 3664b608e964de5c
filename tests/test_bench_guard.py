"""What the benchmark relies on, checked in the unit suite.

The benchmark under ``bench/`` runs each workload in a worker process and
compares its digests with ``bench/expected.json``.  These tests load the same
worker and workload modules in-process, and run the worker as its own
process with the tracer on (reading ``bench/``, never editing it), so a
change that breaks what the benchmark binds fails here too.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import fibercert
from fibercert import dataio

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # worker imports workloads by name
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    return workloads, _load("worker", monkeypatch)


def test_workloads_reproduce_the_committed_digests(bench):
    workloads, worker = bench
    expected = workloads.load_expected()
    data = Path(fibercert.__file__).parent / "data"
    for name, params in workloads.WORKLOADS.items():
        track = dataio.load_dataset(str(data / f"{params['dataset']}.json"))
        out = worker.run_job(workloads.classes(name, 0), params, track,
                             dataio.dataset_hash(track))
        assert {key: out[key] for key in expected[name]} == expected[name], name
        assert out.get("failed", 0) == 0, out.get("problems")


def test_traced_functions_exist(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    for module, function in tracer.TRACED:
        assert callable(getattr(sys.modules[f"fibercert.{module}"], function, None)), \
            f"{module}.{function}"


@pytest.mark.parametrize("workload", ["sweep-r2", "verify-r1", "cone-r2"])
def test_traced_worker_reproduces_the_committed_digests(bench, workload):
    """A worker process with the tracer installed, as ``run.py --trace 1``
    starts it (spans are not written), on the workload's seed-0 classes."""
    workloads, _ = bench
    env = dict(os.environ, PYTHONPATH=str(Path(fibercert.__file__).parent.parent),
               PYTHONDONTWRITEBYTECODE="1")
    spec = {"workload": workload, "classes": workloads.classes(workload, 0), "trace": 1,
            "spans_path": None, "spawned": perf_counter()}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0, out["problems"]
    expected = workloads.load_expected()[workload]
    assert {key: out[key] for key in expected} == expected
    assert out["layers"]
