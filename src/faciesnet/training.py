"""Minibatch SGD training with momentum, class weighting, well-level
validation, and early stopping.

The determinism contract: a fixed seed fixes the parameter init, the
shuffle order, and the dropout masks, so two runs on the same data
produce bit-identical parameter trajectories at 64-bit (and within
float rounding at 32-bit on a single platform).
"""

import csv
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import ops
from .errors import ConfigError, NumericError, ShapeError, check_rules
from .evaluation import confusion, precision_recall_f1
from .network import Checkpoint, ModelSpec, init_params, model_backward, model_forward
from .welldata import (N_FACIES, apply_standardizer, extract_windows,
                       facies_counts, fit_standardizer, merge_window_sets,
                       split_by_well)


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol knobs; the architecture, window and dropout
    included, lives on ModelSpec."""

    batch_size: int = 64
    learning_rate: float = 1e-2
    momentum: float = 0.9
    epochs: int = 100
    seed: int = 0
    use_class_weights: bool = False
    validation_wells: tuple[str, ...] = ()
    patience: int = 0           # early-stop stall budget; 0 disables
    lr_decay_every: int = 20    # epochs per halving step; 0 disables
    lr_decay_factor: float = 0.5

    def __post_init__(self):
        check_rules([
            (self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}"),
            (self.learning_rate > 0,
             f"learning_rate must be > 0, got {self.learning_rate}"),
            (0.0 <= self.momentum < 1.0,
             f"momentum must be in [0, 1), got {self.momentum}"),
            (self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (len(set(self.validation_wells)) == len(self.validation_wells),
             f"validation_wells must not repeat a well, got {self.validation_wells}"),
            (self.patience >= 0, f"patience must be >= 0, got {self.patience}"),
            (self.lr_decay_every >= 0,
             f"lr_decay_every must be >= 0, got {self.lr_decay_every}"),
            (0.0 < self.lr_decay_factor <= 1.0,
             f"lr_decay_factor must be in (0, 1], got {self.lr_decay_factor}"),
        ])


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float = float("nan")
    val_macro_f1: float = float("nan")


@dataclass
class TrainReport:
    """One row per completed epoch plus which epoch's weights were kept."""

    config: TrainConfig
    rows: list = field(default_factory=list)
    best_epoch: int = 0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "train_acc",
                             "val_loss", "val_macro_f1"])
            for r in self.rows:
                writer.writerow([r.epoch, repr(r.train_loss), repr(r.train_acc),
                                 repr(r.val_loss), repr(r.val_macro_f1)])

    def to_json(self, path, spec: ModelSpec) -> None:
        """Write the run summary: training config and the model spec it trained."""
        summary = {
            "best_epoch": self.best_epoch,
            "seed": self.config.seed,
            "epochs_run": len(self.rows),
            "final_train_loss": self.rows[-1].train_loss if self.rows else None,
            "final_train_acc": self.rows[-1].train_acc if self.rows else None,
            "config": asdict(self.config),
            # the data's two sizes, in their places among the spec's fields
            "model": {"window": spec.window, "in_channels": spec.in_channels,
                      **asdict(spec), "n_classes": N_FACIES},
        }
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")


def compute_class_weights(counts: dict) -> np.ndarray:
    """Inverse-frequency weights, mean 1 over the classes present.

    Index f-1 holds the weight for facies f. Absent classes keep
    weight 1 so an unlucky minibatch can never divide by zero.
    """
    weights = np.ones(N_FACIES)
    for f, c in counts.items():
        if not 1 <= f <= N_FACIES:
            raise ConfigError(f"unknown facies id {f} in counts")
        if c < 0:
            raise ConfigError(f"negative count for facies {f}")
    present = [f for f in range(1, N_FACIES + 1) if counts.get(f, 0) > 0]
    if not present:
        return weights
    total = sum(counts.get(f, 0) for f in present)
    raw = {f: total / (N_FACIES * counts[f]) for f in present}
    mean_raw = sum(raw.values()) / len(present)
    for f in present:
        weights[f - 1] = raw[f] / mean_raw
    return weights


def sgd_step(params: dict, grads: dict, velocity: dict,
             lr: float, momentum: float) -> None:
    """One momentum step in place: v <- momentum*v - lr*g; p <- p + v."""
    for name, p in params.items():
        if name not in grads:
            raise ShapeError(f"no gradient supplied for {name}")
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match "
                             f"param {name} {p.shape}")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
        v = momentum * v - lr * g.astype(p.dtype, copy=False)
        velocity[name] = v
        params[name] = p + v


def _validate(spec, params, windows, labels):
    """Inference-mode loss and macro-F1 on a held-out window set."""
    labels = np.asarray(labels)
    logits, _ = model_forward(spec, params, windows)
    loss, _ = ops.softmax_xent(logits, labels - 1)
    prf = precision_recall_f1(confusion(labels, logits.argmax(axis=1) + 1))
    return loss, prf.macro_f1


def train_on_windows(config: TrainConfig, windows, labels,
                     spec: ModelSpec = ModelSpec(),
                     val_windows=None, val_labels=None,
                     class_weights: Optional[np.ndarray] = None,
                     ) -> tuple[dict, TrainReport]:
    """The epoch loop over an already-extracted window set.

    Shuffles with the seeded generator each epoch, steps per minibatch,
    and tracks the best validation macro-F1 snapshot when a validation
    set is given; otherwise the final parameters win. train_acc rows
    are running accuracies from the training-mode (dropout-active)
    forward passes. A NumericError (the run diverged: a forward pass
    overflowed, or its logits are not finite) is re-raised naming the
    epoch, and the batch of a training step; the backward pass never
    sees the infinities.
    """
    windows = np.asarray(windows)
    labels = np.asarray(labels)
    if len(windows) == 0:
        raise ConfigError("no training windows")
    if len(windows) != len(labels):
        raise ShapeError(f"{len(windows)} windows but {len(labels)} labels")
    have_val = val_windows is not None and len(val_windows) > 0

    params = init_params(spec, config.seed)
    rng = np.random.default_rng(config.seed)
    velocity = {}
    report = TrainReport(config)
    best_f1, best_params, stale = -1.0, None, 0
    n = len(windows)

    for epoch in range(1, config.epochs + 1):
        decays = (epoch - 1) // config.lr_decay_every if config.lr_decay_every else 0
        lr = config.learning_rate * config.lr_decay_factor ** decays
        perm = rng.permutation(n)
        epoch_loss, hits = 0.0, 0
        for batch, start in enumerate(range(0, n, config.batch_size), start=1):
            idx = perm[start:start + config.batch_size]
            x, y = windows[idx], labels[idx]
            try:
                logits, caches = model_forward(spec, params, x, training=True, rng=rng)
                loss, d_logits = ops.softmax_xent(logits, y - 1, class_weights)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {batch}: {exc}") from exc
            grads = model_backward(spec, params, caches, d_logits)
            sgd_step(params, grads, velocity, lr, config.momentum)
            epoch_loss += loss * len(idx)
            hits += int((logits.argmax(axis=1) + 1 == y).sum())
        row = EpochRow(epoch, epoch_loss / n, hits / n)

        stop = False
        if have_val:
            try:
                row.val_loss, row.val_macro_f1 = _validate(spec, params,
                                                           val_windows, val_labels)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, validation: {exc}") from exc
            if row.val_macro_f1 > best_f1:
                best_f1 = row.val_macro_f1
                best_params = {k: v.copy() for k, v in params.items()}
                report.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                stop = bool(config.patience) and stale >= config.patience
        report.rows.append(row)
        if stop:
            break

    if best_params is None:
        best_params = params
        report.best_epoch = report.rows[-1].epoch
    return best_params, report


def train(config: TrainConfig, train_wells: list,
          spec: ModelSpec = ModelSpec()) -> tuple[Checkpoint, TrainReport]:
    """Well-level training: standardize, window, fit, bundle a Checkpoint.

    The wells named in config.validation_wells are split out of
    train_wells for validation. The standardizer is fitted on training
    wells only.
    """
    train_wells, validation_wells = split_by_well(
        train_wells, list(config.validation_wells), what="validation_wells")
    if not train_wells:
        raise ConfigError("no training wells")

    standardizer = fit_standardizer(train_wells)
    train_set = merge_window_sets(
        [extract_windows(apply_standardizer(standardizer, w), spec.window)
         for w in train_wells])
    val_windows = val_labels = None
    if validation_wells:
        val_set = merge_window_sets(
            [extract_windows(apply_standardizer(standardizer, w), spec.window)
             for w in validation_wells])
        val_windows, val_labels = val_set.windows, val_set.labels

    class_weights = (compute_class_weights(facies_counts(train_wells))
                     if config.use_class_weights else None)
    params, report = train_on_windows(config, train_set.windows, train_set.labels,
                                      spec=spec, val_windows=val_windows,
                                      val_labels=val_labels,
                                      class_weights=class_weights)
    return Checkpoint(spec, params, standardizer, config.seed), report
