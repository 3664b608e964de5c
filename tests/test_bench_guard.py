"""What the benchmark relies on, checked in the unit suite.

The benchmark under ``bench/`` runs each workload in a worker process and
compares its digests with ``bench/expected.json``.  These tests load the same
worker and workload modules in-process (reading ``bench/``, never editing
it), so a change that breaks what the benchmark binds fails here too.
"""

import importlib.util
import sys
from pathlib import Path

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
