"""Workload inputs, operations and output checks.

Inputs come from the faciesnet synthetic generator and depend only on
the workload seed. The program receives CSV files, a checkpoint and a
fixed command line; the truth for unlabelled inputs stays with the
benchmark. The fixture checkpoint used by `predict-long` and
`evaluate-many` is trained from a fixed seed, so the seed changes only
the wells a run scores.
"""

import csv
import hashlib
import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("train", "predict-long", "evaluate-many")
N_FACIES = 9
SIGMA = 0.5
P_STAY = 0.95

# train: the criterion-5 protocol (8 wells trained, a ninth scored
# blind, default ModelSpec/TrainConfig, batch 64) at a size that fits
# several training calls into one run
TRAIN_WELLS = 8
TRAIN_WELL_SAMPLES = 500
BLIND_WELL_SAMPLES = 2000
TRAIN_EPOCHS = 3
TRAIN_SEED = 0

# predict-long: one long unlabelled well through `faciesnet predict`
LONG_WELL_SAMPLES = 12000

# evaluate-many: many short labelled wells through `faciesnet evaluate`
SHORT_WELLS = 200
SHORT_WELL_SAMPLES = 60

# the model `predict-long` and `evaluate-many` run
FIXTURE_WELLS = 8
FIXTURE_WELL_SAMPLES = 500
FIXTURE_EPOCHS = 6
FIXTURE_SEED = 12345


class CheckFailed(Exception):
    """An operation's output is wrong."""


def synth_seed(seed, workload):
    """Generator seed for a workload; distinct workloads never share wells."""
    return int(np.random.SeedSequence([seed, WORKLOADS.index(workload)])
               .generate_state(1)[0])


def _wells(n_wells, n_samples, seed, prefix):
    from faciesnet.synth import SynthConfig, generate_wells
    from faciesnet.welldata import Well

    config = SynthConfig(n_samples=n_samples, p_stay=P_STAY, sigma=SIGMA,
                         seed=seed)
    return [Well(f"{prefix}{i:03d}", w.depth, w.channels, w.labels)
            for i, w in enumerate(generate_wells(config, n_wells))]


def _unlabelled(well):
    from faciesnet.welldata import Well

    return Well(well.name, well.depth, well.channels, None)


def source_digest(src):
    """sha256 over the package's source files, in name order."""
    digest = hashlib.sha256()
    for path in sorted((Path(src) / "faciesnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fixture_checkpoint(src, cache_dir):
    """The fixed model the prediction workloads run, trained once per source.

    Training it takes longer than a run's set-up should, so it is kept
    in cache_dir under a key made of the package source and the fixture
    settings; a change to either trains a new one.
    """
    from faciesnet.training import TrainConfig, train

    settings = (FIXTURE_WELLS, FIXTURE_WELL_SAMPLES, FIXTURE_EPOCHS, FIXTURE_SEED)
    key = hashlib.sha256(f"{source_digest(src)} {settings}".encode()).hexdigest()
    path = Path(cache_dir) / f"fixture-{key[:16]}.fnet"
    if not path.exists():
        wells = _wells(FIXTURE_WELLS, FIXTURE_WELL_SAMPLES, FIXTURE_SEED, "FIX")
        checkpoint, _ = train(TrainConfig(epochs=FIXTURE_EPOCHS, seed=0), wells)
        partial = path.with_suffix(f".{os.getpid()}.part")
        checkpoint.save(partial)
        os.replace(partial, path)
    return path


def make_inputs(workload, seed, workdir, checkpoint=None):
    """Write a workload's input files into workdir; returns its job.

    The job is what a worker needs to run the workload: file paths,
    the command line and the truth the benchmark keeps back.
    `predict-long` and `evaluate-many` run the given checkpoint.
    """
    from faciesnet.welldata import write_csv

    workdir = Path(workdir)
    base = synth_seed(seed, workload)
    job = {"workload": workload}
    if workload == "train":
        wells = _wells(TRAIN_WELLS, TRAIN_WELL_SAMPLES, base, "TRAIN")
        blind = _wells(1, BLIND_WELL_SAMPLES, base + TRAIN_WELLS, "BLIND")[0]
        data = workdir / "wells.csv"
        write_csv(wells + [blind], data)
        job.update(data=str(data), blind_well=blind.name, epochs=TRAIN_EPOCHS,
                   batch_size=64, train_seed=TRAIN_SEED)
        return job

    data, truth, out = workdir / "wells.csv", workdir / "truth.npy", workdir / "out"
    if workload == "predict-long":
        wells = _wells(1, LONG_WELL_SAMPLES, base, "LONG")
        write_csv([_unlabelled(w) for w in wells], data)
        argv = ["predict", str(checkpoint), str(data), "--threads", "1",
                "--out", str(out)]
    else:
        wells = _wells(SHORT_WELLS, SHORT_WELL_SAMPLES, base, "SHORT")
        write_csv(wells, data)
        argv = ["evaluate", str(checkpoint), str(data), "--threads", "2",
                "--out", str(out)]
    np.save(truth, np.concatenate([w.labels for w in wells]))
    job.update(data=str(data), checkpoint=str(checkpoint), truth=str(truth),
               out=str(out), argv=argv)
    return job


# ---------------------------------------------------------------------------
# quality and checks

def quality(truth, predicted):
    """Accuracy, +-1 adjacent accuracy and macro-F1 over the true classes.

    Computed here rather than by faciesnet.evaluation, so that it checks
    the program's output instead of repeating its arithmetic.
    """
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    exact = truth == predicted
    adjacent = exact | (np.abs(truth - predicted) == 1)
    f1s = []
    for f in range(1, N_FACIES + 1):
        support = int((truth == f).sum())
        if not support:
            continue
        tp = int(((truth == f) & exact).sum())
        chosen = int((predicted == f).sum())
        precision = tp / chosen if chosen else 0.0
        recall = tp / support
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return {"accuracy": float(exact.mean()),
            "adjacent_accuracy": float(adjacent.mean()),
            "macro_f1": sum(f1s) / len(f1s)}


def check_predictions(facies, probs, n_samples):
    """Row count, facies range and probability rows of one prediction set."""
    facies = np.asarray(facies)
    probs = np.asarray(probs, dtype=float)
    if len(facies) != n_samples or len(probs) != n_samples:
        raise CheckFailed(f"{len(facies)} rows for {n_samples} input samples")
    if facies.min() < 1 or facies.max() > N_FACIES:
        raise CheckFailed("facies outside 1..9")
    if probs.shape != (n_samples, N_FACIES) or not np.all(np.isfinite(probs)):
        raise CheckFailed("probability rows are not 9 finite values")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > 1e-6:
        raise CheckFailed(f"a p1..p9 row sums to 1 +- {worst:.3g}")


def check_finite(values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise CheckFailed(f"{name} is not finite: {value}")


def read_predictions_csv(path, n_samples):
    """Parse and check predictions.csv; returns the predicted facies."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expected = (["well", "depth", "facies"] + [f"p{f}" for f in range(1, 10)]
                + ["confidence", "band"])
    if not rows or rows[0] != expected:
        raise CheckFailed(f"{path}: unexpected header")
    body = rows[1:]
    try:
        facies = np.array([int(r[2]) for r in body], dtype=np.int64)
        probs = np.array([[float(v) for v in r[3:12]] for r in body])
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"{path}: malformed row: {exc}")
    check_predictions(facies, probs.reshape(len(body), -1), n_samples)
    return facies


def read_evaluate_outputs(out, truth):
    """Check facies_column.csv and metrics.json; returns the reported metrics."""
    out = Path(out)
    with open(out / "facies_column.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != len(truth):
        raise CheckFailed(f"{len(rows)} rows for {len(truth)} input samples")
    try:
        predicted = np.array([int(r[2]) for r in rows], dtype=np.int64)
        labels = np.array([int(r[3]) for r in rows], dtype=np.int64)
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"facies_column.csv: malformed row: {exc}")
    if predicted.min() < 1 or predicted.max() > N_FACIES:
        raise CheckFailed("facies outside 1..9")
    if not np.array_equal(labels, truth):
        raise CheckFailed("facies_column.csv true column differs from the input")
    with open(out / "metrics.json") as fh:
        metrics = json.load(fh)
    reported = {k: float(metrics[k]) for k in
                ("accuracy", "adjacent_accuracy", "macro_f1", "weighted_f1")}
    check_finite(reported)
    if abs(reported["accuracy"] - float((predicted == truth).mean())) > 1e-12:
        raise CheckFailed("metrics.json accuracy disagrees with facies_column.csv")
    return reported


# ---------------------------------------------------------------------------
# operations

class Train:
    """One training call on eight wells, then blind scoring of the ninth."""

    def __init__(self, job):
        from faciesnet import welldata

        wells = welldata.parse_csv(job["data"])
        self.blind = next(w for w in wells if w.name == job["blind_well"])
        self.wells = [w for w in wells if w.name != job["blind_well"]]
        self.job = job

    def run(self):
        from faciesnet import evaluation, network, training

        config = training.TrainConfig(epochs=self.job["epochs"],
                                      batch_size=self.job["batch_size"],
                                      seed=self.job["train_seed"])
        start = time.perf_counter()
        checkpoint, report = training.train(config, self.wells,
                                            spec=network.ModelSpec())
        timed = time.perf_counter() - start
        series = evaluation.predict_with_confidence(checkpoint, self.blind)
        return {"timed_s": timed,
                "items": sum(len(w) for w in self.wells) * config.epochs,
                "loss": report.rows[-1].train_loss, "series": series}

    def check(self, result):
        series = result.pop("series")
        check_predictions(series.facies, series.probs, len(self.blind))
        scores = quality(self.blind.labels, series.facies)
        scores["loss"] = result["loss"]
        check_finite(scores)
        return scores


class Command:
    """One `faciesnet predict` or `faciesnet evaluate` command."""

    def __init__(self, job):
        self.job = job
        self.truth = np.load(job["truth"])

    def run(self):
        from faciesnet import cli

        shutil.rmtree(self.job["out"], ignore_errors=True)  # no stale outputs
        start = time.perf_counter()
        code = cli.main(self.job["argv"])
        timed = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        return {"timed_s": timed, "items": len(self.truth)}

    def check(self, result):
        out = Path(self.job["out"])
        if self.job["argv"][0] == "predict":
            predicted = read_predictions_csv(out / "predictions.csv",
                                             len(self.truth))
            return quality(self.truth, predicted)
        reported = read_evaluate_outputs(out, self.truth)
        return {k: reported[k] for k in ("accuracy", "adjacent_accuracy",
                                         "macro_f1")}


def operation(job):
    return Train(job) if job["workload"] == "train" else Command(job)
