"""faciesnet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its `src/` directory. The seed makes the inputs; set-up is timed in
fresh processes, then one workload process runs operations back to back
for S seconds (see worker.py). With --trace 0 the last line of output
holds the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. The line before it records the environment and the
per-workload figures behind the metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
# a hung worker is killed soon enough for the whole run to end within 180 s
PROBE_TIMEOUT_S = 10
WORKER_GRACE_S = 60

# BLAS runs one thread per process. On a 2-vCPU VM with host steal time,
# OpenBLAS's own threads made evaluate-many half as fast (about 2.5k
# against 4.9k samples/s, its pool threads and BLAS threads fighting for
# 2 cores) and its run-to-run spread three times as wide, while train
# and predict-long ran at the same speed either way.
# each workload's figures under the names its users know them by
USER_NAMES = {
    "train": {"throughput_per_s": "train_windows_per_s", "loss": "train_loss",
              "macro_f1": "blind_macro_f1", "accuracy": "blind_accuracy"},
    "predict-long": {"throughput_per_s": "predict_samples_per_s",
                     "accuracy": "predict_accuracy", "macro_f1": "predict_macro_f1"},
    "evaluate-many": {"throughput_per_s": "evaluate_samples_per_s",
                      "accuracy": "eval_accuracy", "macro_f1": "eval_macro_f1"},
}

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def git_commit(root):
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or Path(top.stdout.strip()).resolve() != root:
            return None
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed, worker_env, blas_runtime):
    import numpy
    import workloads

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy: no dict form of the build config
        blas = {"name": None, "version": None}
    threads = {v: worker_env.get(v) for v in BLAS_ENV}
    return {
        "git_commit": git_commit(ROOT),
        "source_sha256": workloads.source_digest(SRC),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": threads,
        "blas_runtime": blas_runtime,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
    }


def run_worker(args, env, timeout):
    """Run worker.py to completion and return its result, or raise."""
    result_path = Path(args[2])
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {args[0]} exceeded {timeout} s")
    if proc.returncode or not result_path.exists():
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(ops, setup, peak_rss_mb):
    """The end-to-end metrics, and the median of each quality figure."""
    ok = [r for r in ops if r["ok"] and not r["traced"]]
    quality = {k: median(r["quality"][k] for r in ok)
               for k in (ok[0]["quality"] if ok else ())}
    metrics = {
        "setup_s": median(setup),
        "throughput_per_s": median(r["items"] / r["timed_s"] for r in ok),
        "adjacent_accuracy": quality.get("adjacent_accuracy", 0.0),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, quality


def per_layer(ops, layers, quality):
    walls = {traced: median(r["wall_s"] for r in ops
                            if r["traced"] == traced and r["ok"])
             for traced in (False, True)}
    metrics = dict(layers)
    metrics["trace.overhead_frac"] = (walls[True] / walls[False] - 1.0
                                      if walls[False] else 0.0)
    metrics["result.accuracy"] = quality.get("accuracy", 0.0)
    metrics["result.macro_f1"] = quality.get("macro_f1", 0.0)
    metrics["result.train_loss"] = quality.get("loss", 0.0)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "faciesnet" / "__init__.py").is_file():
        print(f"error: no faciesnet source under {SRC}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.environ.update(BLAS_ENV)  # before numpy loads, here and in workers
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    cache = ROOT / ".bench_work"
    cache.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=cache))
    try:
        checkpoint = (None if args.workload == "train"
                      else workloads.fixture_checkpoint(SRC, cache))
        job = workloads.make_inputs(args.workload, args.seed, workdir, checkpoint)
        job_path = workdir / "job.json"
        job_path.write_text(json.dumps(job))
        setup = [run_worker(["setup", str(job_path), str(workdir / f"setup{i}.json")],
                            env, PROBE_TIMEOUT_S)["setup_s"]
                 for i in range(SETUP_PROBES)]
        loop = run_worker(["loop", str(job_path), str(workdir / "loop.json"),
                           str(args.seconds), str(args.trace)],
                          env, args.seconds + WORKER_GRACE_S)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = loop["ops"]
    metrics, quality = end_to_end(ops, setup, loop["peak_rss_mb"])
    names = USER_NAMES[args.workload]
    figures = {names.get(k, k): v for k, v in {**metrics, **quality}.items()}
    figures.update(setup_s_each=setup, op_wall_s=[r["wall_s"] for r in ops])
    failed = sum(1 for r in ops if not r["ok"])
    wanted = spec["end_to_end"]
    if args.trace:
        metrics = per_layer(ops, loop["layers"], quality)
        wanted = spec["per_layer"]
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed, env, loop["blas"]),
              "figures": figures,
              "errors": sorted({r["error"] for r in ops if "error" in r})}
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
