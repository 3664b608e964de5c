"""One benchmark job in a fresh, single-threaded Python process.

Reads a JSON job spec on stdin, runs it through fibercert's public
functions and prints one JSON line of results.  ``run.py`` starts it as
``python3 bench/worker.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS/OpenMP thread counts pinned to 1.

Spec keys: ``workload`` (a name from ``workloads.WORKLOADS``),
``setup_only`` (stop once the dataset is loaded and hashed), ``classes``,
``trace``,
``spawned`` (the parent's ``perf_counter`` just before starting this
process; on Linux both processes read the same monotonic clock) and
``spans_path`` for traced jobs.
"""

import json
import os
import resource
import sys
import traceback
from time import perf_counter

import numpy

import fibercert
from fibercert import cones, dataio, pipeline

import workloads


def main() -> None:
    spec = json.loads(sys.stdin.read())
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    params = workloads.WORKLOADS[spec["workload"]]
    path = os.path.join(os.path.dirname(fibercert.__file__), "data",
                        params["dataset"] + ".json")
    track = dataio.load_dataset(path)
    ds_hash = dataio.dataset_hash(track)
    out = {"setup_s": perf_counter() - spec["spawned"], "numpy": numpy.__version__,
           "attempted": 1, "failed": 0, "problems": []}

    if not spec.get("setup_only"):
        try:
            out.update(run_job(spec["classes"], params, track, ds_hash))
        except Exception as exc:  # reported, so the parent counts a failed job
            out["failed"] = out["attempted"]
            out["problems"].append(
                "".join(traceback.format_exception_only(type(exc), exc)).strip())
            traceback.print_exc()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(peak_rss_mb=usage.ru_maxrss / 1024, user_s=usage.ru_utime,
               sys_s=usage.ru_stime, minflt=usage.ru_minflt)
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        start = perf_counter()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
        out["spans_write_s"] = perf_counter() - start
    print(json.dumps(out), flush=True)


def _models(track, p_max):
    dual = cones.estimate_dual_cone(track, p_max)
    cone = cones.fibered_cone_from_dual(dual)
    P = cone.subcone_slope(workloads.SLOPE_CAP)
    return dual, cone, P, cones.epsilon_of_subcone(P, dual)


def run_job(classes, params, track, ds_hash) -> dict:
    start = perf_counter()
    dual, cone, P, eps = _models(track, params["model_p_max"])
    cone_s = perf_counter() - start
    out = {"cone_sha256": workloads.sha256(workloads.cone_digest_text(dual, cone, eps))}
    if params["p_max"] is None:
        out["op_times"] = [cone_s]
        return out

    rows, certify_times = [], []
    for alpha in classes:
        start = perf_counter()
        rows.extend(pipeline.sweep(track, dual, cone, P, [alpha], params["p_max"],
                                   ds_hash, allow_mirror=params["mirror"]))
        certify_times.append(perf_counter() - start)
    certs = [row.certificate for row in rows if row.certificate is not None]
    out.update(
        op_times=certify_times,
        csv_sha256=workloads.sha256(dataio.sweep_to_csv(rows)),
        cert_sha256=[workloads.sha256(dataio.emit_certificate(c)) for c in certs],
        inconclusive=sum(row.status != "ok" for row in rows),
    )
    attempted, failed, problems = 1 + len(rows), 0, []
    if params["verify"]:
        verify_times = []
        for cert in certs:
            if cert.status != "ok" or cert.mode != "certified":
                continue
            attempted += 1
            start = perf_counter()
            text = dataio.emit_certificate(cert)
            parsed = dataio.parse_certificate(text)
            verdict = pipeline.verify_certificate(parsed, track, ds_hash)
            verify_times.append(perf_counter() - start)
            if verdict.status != "pass":
                failed += 1
                problems.append(f"{cert.alpha}: verify {verdict.status} {verdict.reason}")
            elif dataio.emit_certificate(parsed) != text:
                failed += 1
                problems.append(f"{cert.alpha}: emit/parse round trip changed the bytes")
        out["op_times"] = verify_times
    out.update(attempted=attempted, failed=failed, problems=problems)
    return out


if __name__ == "__main__":
    main()
