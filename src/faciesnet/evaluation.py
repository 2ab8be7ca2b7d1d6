"""Classification quality metrics and prediction export.

Convention throughout: confusion matrix rows are the true (geologist)
facies, columns are the predicted (machine) facies, both ordered 1..9.
All rate arithmetic runs in plain Python over exact integer counts, so
results are reproducible to the last bit.
"""

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import ops
from .errors import DataFormatError, NumericError, ShapeError
from .network import Checkpoint, model_forward
from .welldata import (FACIES_CODES, N_FACIES, FaciesTable, Well,
                       apply_standardizer, window_matrix)

CONFIDENCE_HIGH = 0.7
CONFIDENCE_LOW = 0.5


@dataclass
class ConfusionMatrix:
    """9x9 integer counts; counts[t][p] pairs true facies t+1 with predicted p+1."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (N_FACIES, N_FACIES):
            raise ShapeError(f"confusion matrix must be 9x9, got {counts.shape}")
        if (counts < 0).any():
            raise ShapeError("confusion matrix counts must be >= 0")
        self.counts = counts

    def count(self, true_facies: int, predicted_facies: int) -> int:
        return int(self.counts[true_facies - 1, predicted_facies - 1])

    @property
    def support(self) -> np.ndarray:
        """Samples per true class (row sums)."""
        return self.counts.sum(axis=1)

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())


def _check_labels(name, labels):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 1 or labels.max() > N_FACIES):
        raise DataFormatError(f"{name} labels must lie in 1..{N_FACIES}")
    return labels.astype(np.int64)


def confusion(true_labels, predicted_labels) -> ConfusionMatrix:
    """Count every (true, predicted) pair."""
    t = _check_labels("true", true_labels)
    p = _check_labels("predicted", predicted_labels)
    if t.shape != p.shape:
        raise ShapeError(f"label lengths differ: {t.shape} vs {p.shape}")
    counts = np.zeros((N_FACIES, N_FACIES), dtype=np.int64)
    np.add.at(counts, (t - 1, p - 1), 1)
    return ConfusionMatrix(counts)


@dataclass
class PRFReport:
    """Per-class precision/recall/F1 plus the two standard averages.

    A 0/0 rate resolves to 0 and sets the class's undefined flag; the
    macro average runs over classes with support > 0 only, while the
    weighted average scales each F1 by its support.
    """

    precision: list
    recall: list
    f1: list
    undefined: list
    macro_f1: float
    weighted_f1: float


def precision_recall_f1(cm: ConfusionMatrix) -> PRFReport:
    precision, recall, f1, undefined = [], [], [], []
    support = [int(s) for s in cm.support]
    for f in range(N_FACIES):
        tp = int(cm.counts[f, f])
        fp = int(cm.counts[:, f].sum()) - tp
        fn = support[f] - tp
        flagged = False
        if tp + fp:
            p = tp / (tp + fp)
        else:
            p, flagged = 0.0, True
        if tp + fn:
            r = tp / (tp + fn)
        else:
            r, flagged = 0.0, True
        if p + r:
            score = 2 * p * r / (p + r)
        else:
            score, flagged = 0.0, True
        precision.append(p)
        recall.append(r)
        f1.append(score)
        undefined.append(flagged)
    present = [f for f in range(N_FACIES) if support[f] > 0]
    macro = sum(f1[f] for f in present) / len(present) if present else 0.0
    total = sum(support)
    weighted = sum(f1[f] * support[f] for f in present) / total if total else 0.0
    return PRFReport(precision, recall, f1, undefined, macro, weighted)


def accuracy(cm: ConfusionMatrix) -> float:
    """Fraction predicted exactly right: the diagonal over all samples."""
    return int(np.trace(cm.counts)) / cm.n_samples if cm.n_samples else 0.0


def adjacent_accuracy(cm: ConfusionMatrix,
                      table: Optional[FaciesTable] = None) -> float:
    """Fraction predicted exactly right or within the adjacency map: the
    diagonal plus each facies' neighbour cells, over all samples."""
    if not cm.n_samples:
        return 0.0
    table = table or FaciesTable()
    hits = int(np.trace(cm.counts)) + sum(
        int(cm.counts[f - 1, g - 1])
        for f, neighbours in table.adjacency.items() for g in neighbours)
    return hits / cm.n_samples


@dataclass
class EvalReport:
    """Everything the evaluation suite measures on one labeled dataset."""

    cm: ConfusionMatrix
    prf: PRFReport
    accuracy: float
    adjacent_accuracy: float

    def to_json_dict(self) -> dict:
        return {
            "n_samples": self.cm.n_samples,
            "accuracy": self.accuracy,
            "adjacent_accuracy": self.adjacent_accuracy,
            "macro_f1": self.prf.macro_f1,
            "weighted_f1": self.prf.weighted_f1,
            "per_class": [
                {"facies": f + 1, "code": FACIES_CODES[f],
                 "precision": self.prf.precision[f],
                 "recall": self.prf.recall[f],
                 "f1": self.prf.f1[f],
                 "undefined": self.prf.undefined[f],
                 "support": int(self.cm.support[f])}
                for f in range(N_FACIES)
            ],
            "confusion": self.cm.counts.tolist(),
            "facies_counts": {str(f + 1): int(self.cm.support[f])
                              for f in range(N_FACIES)},
        }


def evaluate(true_labels, predicted_labels,
             table: Optional[FaciesTable] = None) -> EvalReport:
    cm = confusion(true_labels, predicted_labels)
    return EvalReport(cm=cm, prf=precision_recall_f1(cm), accuracy=accuracy(cm),
                      adjacent_accuracy=adjacent_accuracy(cm, table))


# ---------------------------------------------------------------------------
# prediction

@dataclass
class PredictionSeries:
    """Per-depth model output for one well."""

    well_name: str
    depth: np.ndarray
    facies: np.ndarray
    probs: np.ndarray
    confidence: np.ndarray
    bands: list
    true_labels: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.depth)


def confidence_band(confidence: float) -> str:
    if confidence >= CONFIDENCE_HIGH:
        return "high"
    if confidence >= CONFIDENCE_LOW:
        return "medium"
    return "low"


def predict_with_confidence(model: Checkpoint, well: Well) -> PredictionSeries:
    """One prediction per depth sample: one model_forward pass over the
    well's window_matrix view, one centered window per sample, then a
    float64 softmax.

    Confidence is the winning softmax probability, annotated with the
    high (>= 0.7) / medium / low (< 0.5) band. A forward pass that
    overflows float range, or makes a NaN from an infinity, raises
    NumericError naming the well, as non-finite logits do. A
    standardized log value float32 cannot hold raises DataFormatError
    naming the well, the channel and the depth.
    """
    windows = window_matrix(apply_standardizer(model.standardizer, well),
                            model.spec.window)
    try:
        logits, _ = model_forward(model.spec, model.params, windows)
        probs = ops.softmax(logits.astype(np.float64))
    except NumericError as exc:
        raise NumericError(f"well {well.name}: {exc}") from exc
    facies = probs.argmax(axis=1).astype(np.int64) + 1
    confidence = probs.max(axis=1)
    bands = [confidence_band(c) for c in confidence]
    labels = None if well.labels is None else well.labels.copy()
    return PredictionSeries(well.name, well.depth.copy(), facies, probs,
                            confidence, bands, true_labels=labels)


# ---------------------------------------------------------------------------
# export
#
# The per-depth CSVs hold one row per sample, so their rows are
# f-strings rather than csv.writer rows. Every cell but the well name is
# a number or a band and never needs quoting; the name is quoted by csv
# once per well, and lines end in csv's "\r\n".

def _csv_cell(text: str) -> str:
    """text as csv.writer writes it as one cell of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def export_plot_data(report: EvalReport, series: list, out_dir) -> list:
    """Write plot-ready CSVs; returns the paths written.

    facies_column.csv carries the per-depth series, confusion.csv the
    9x9 counts with per-class rates appended, facies_counts.csv the
    class totals in the evaluated data. Its train_count column reads 0:
    a checkpoint records no training counts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    column_path = out / "facies_column.csv"
    with open(column_path, "w", newline="") as fh:
        csv.writer(fh).writerow(["well", "depth", "predicted", "true", "confidence",
                                 "band"])
        for s in series:
            name = _csv_cell(s.well_name)
            true = [""] * len(s) if s.true_labels is None else s.true_labels.tolist()
            rows = zip(s.depth.tolist(), s.facies.tolist(), true,
                       s.confidence.tolist(), s.bands)
            fh.writelines(f"{name},{depth!r},{facies},{label},{confidence!r},{band}\r\n"
                          for depth, facies, label, confidence, band in rows)
    paths.append(column_path)

    confusion_path = out / "confusion.csv"
    with open(confusion_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true"] + list(FACIES_CODES)
                        + ["precision", "recall", "f1"])
        for f in range(N_FACIES):
            writer.writerow([FACIES_CODES[f]]
                            + [int(c) for c in report.cm.counts[f]]
                            + [repr(report.prf.precision[f]),
                               repr(report.prf.recall[f]),
                               repr(report.prf.f1[f])])
    paths.append(confusion_path)

    counts_path = out / "facies_counts.csv"
    with open(counts_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["facies", "code", "train_count", "eval_count"])
        for f in range(1, N_FACIES + 1):
            writer.writerow([f, FACIES_CODES[f - 1], 0,
                             int(report.cm.support[f - 1])])
    paths.append(counts_path)
    return paths


def write_predictions(series: list, path) -> None:
    """predictions.csv: per depth, the predicted facies, its nine
    probabilities, the confidence and its band."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["well", "depth", "facies"]
                                + [f"p{f}" for f in range(1, N_FACIES + 1)]
                                + ["confidence", "band"])
        for s in series:
            name = _csv_cell(s.well_name)
            rows = zip(s.depth.tolist(), s.facies.tolist(), s.probs.tolist(),
                       s.confidence.tolist(), s.bands)
            fh.writelines(
                f"{name},{depth!r},{facies},{repr(probs)[1:-1].replace(', ', ',')},"
                f"{confidence!r},{band}\r\n"
                for depth, facies, probs, confidence, band in rows)


def write_metrics_json(report: EvalReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
