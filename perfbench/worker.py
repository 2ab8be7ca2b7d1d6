"""Workload process: one caller in one process runs a workload's
operations back to back (a closed loop) and writes what it measured.

    python3 worker.py setup JOB.json RESULT.json
    python3 worker.py loop JOB.json RESULT.json SECONDS TRACE

`setup` times one cold start (see setup_once). `loop` runs
operations for SECONDS; with TRACE 1 every second operation runs with
the layer tracer installed, so traced and untraced operations alternate
and the trace overhead is measured against neighbours.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time

import tracing

MIN_OPS = 3
MIN_OPS_TRACED = 4


def blas_runtime():
    """OpenBLAS thread count and build string, as the loaded library reports them."""
    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, tail in (("scipy_openblas_", "64_"), ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{tail}", None)
            config = getattr(lib, f"{prefix}get_config{tail}", None)
            if threads and config:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"threads": threads(), "config": config().decode()}
    return {"threads": None, "config": None}


def setup_once(job):
    """Seconds for a cold import of faciesnet (numpy included) plus the
    ingestion a workload does before its first forward pass, each step
    through its public function."""
    start = time.perf_counter()
    from faciesnet import cli, network, welldata  # noqa: F401  (cold import)

    wells = welldata.parse_csv(job["data"])
    if job["workload"] == "train":
        train_wells = [w for w in wells if w.name != job["blind_well"]]
        standardizer = welldata.fit_standardizer(train_wells)
        window = network.ModelSpec().window
        welldata.merge_window_sets(
            [welldata.extract_windows(welldata.apply_standardizer(standardizer, w),
                                      window) for w in train_wells])
    else:
        model = network.Checkpoint.load(job["checkpoint"])
        scaled = welldata.apply_standardizer(model.standardizer, wells[0])
        welldata.window_matrix(scaled, model.spec.window)
    return time.perf_counter() - start


def run_loop(job, seconds, trace):
    import workloads

    op = workloads.operation(job)
    tracer = tracing.Tracer() if trace else None
    minimum = MIN_OPS_TRACED if trace else MIN_OPS
    records = []
    start = time.perf_counter()
    while len(records) < minimum or time.perf_counter() - start < seconds:
        index = len(records)
        traced = trace and index % 2 == 1
        record = {"traced": traced, "ok": False}
        if traced:
            tracer.op = index
            patches = tracing.install(tracer)
        began = time.perf_counter()
        try:
            try:
                result = op.run()
            finally:
                record["wall_s"] = time.perf_counter() - began
                if traced:
                    tracing.uninstall(patches)
                    tracer.op = None
            record["quality"] = op.check(result)
            record.update(timed_s=result["timed_s"], items=result["items"], ok=True)
        except Exception as exc:  # a failed or wrong operation is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)

    out = {"ops": records,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "blas": blas_runtime()}
    if trace:
        op_seconds = {i: r["wall_s"] for i, r in enumerate(records) if r["traced"]}
        out["layers"] = tracing.layer_metrics(tracer.spans, op_seconds)
    return out


def main(argv):
    mode, job_path, result_path = argv[:3]
    with open(job_path) as fh:
        job = json.load(fh)
    if mode == "setup":
        result = {"setup_s": setup_once(job)}
    else:
        result = run_loop(job, float(argv[3]), argv[4] == "1")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
