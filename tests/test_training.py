"""Training tests: loss values and gradients, optimizer arithmetic,
class weights, the epoch loop's determinism and convergence, and the
well-level pipeline."""

import csv
import json
import math

import numpy as np
import pytest

from faciesnet import ops
from faciesnet.errors import ConfigError, ShapeError
from faciesnet.network import (InceptionSpec, ModelSpec, init_params,
                               model_backward, model_forward)
from faciesnet.synth import SynthConfig, generate_well, generate_wells
from faciesnet.training import (TrainConfig, compute_class_weights, sgd_step,
                                train, train_on_windows, _validate)
from faciesnet.welldata import (apply_standardizer, extract_windows,
                                fit_standardizer, merge_window_sets)


def cross_entropy(logits, facies, class_weights=None):
    """The training loss: softmax_xent over facies ids 1..9."""
    return ops.softmax_xent(logits, np.asarray(facies) - 1, class_weights)


def small_spec(window=9, dropout=0.0):
    return ModelSpec(window=window, stem_kernel=3, stem_channels=4,
                     stages=(InceptionSpec(2, 2, 3, 2, 2, 5, 2, 2),),
                     fc_sizes=(8,), dropout=dropout)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64
        assert cfg.learning_rate == 1e-2
        assert cfg.momentum == 0.9

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"learning_rate": 0.0},
        {"momentum": 1.0}, {"epochs": 0},
        {"patience": -1}, {"lr_decay_every": -1}, {"lr_decay_factor": 0.0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestCrossEntropy:
    def test_uniform_logits_give_ln9(self):
        loss, _ = cross_entropy(np.zeros((5, 9)), np.arange(1, 6))
        assert loss == pytest.approx(math.log(9), rel=1e-12)

    def test_certain_correct_prediction_gives_zero(self):
        logits = np.full((1, 9), -50.0)
        logits[0, 3] = 50.0
        loss, _ = cross_entropy(logits, [4])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=(8, 9)) * 5
            labels = rng.integers(1, 10, size=8)
            loss, _ = cross_entropy(logits, labels)
            assert loss >= 0.0

    def test_unweighted_grads_sum_to_zero_per_example(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 9))
        _, d = cross_entropy(logits, rng.integers(1, 10, size=6))
        np.testing.assert_allclose(d.sum(axis=1), 0.0, atol=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros((1, 9)), [0])
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros((1, 9)), [10])

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros((0, 9)), [])

    def test_class_weights_scale_loss(self):
        weights = np.ones(9)
        weights[0], weights[1] = 2.0, 0.5
        loss, d = cross_entropy(np.zeros((2, 9)), [1, 2], weights)
        assert loss == pytest.approx(1.25 * math.log(9), rel=1e-12)
        # gradient rows carry w_y / B
        np.testing.assert_allclose(d[0], (2.0 / 2) * (np.full(9, 1 / 9)
                                                      - np.eye(9)[0]), atol=1e-12)


class TestComputeClassWeights:
    def test_balanced_counts_give_ones(self):
        counts = {f: 50 for f in range(1, 10)}
        assert np.array_equal(compute_class_weights(counts), np.ones(9))

    def test_two_class_imbalance_hand_value(self):
        weights = compute_class_weights({1: 90, 2: 10})
        np.testing.assert_allclose(weights[:2], [0.2, 1.8], atol=1e-12)
        assert np.array_equal(weights[2:], np.ones(7))

    def test_absent_class_stays_one(self):
        weights = compute_class_weights({1: 10, 2: 10, 3: 10})
        assert np.array_equal(weights[3:], np.ones(6))

    def test_present_classes_mean_one(self):
        rng = np.random.default_rng(2)
        counts = {int(f): int(rng.integers(1, 500))
                  for f in rng.choice(range(1, 10), size=5, replace=False)}
        weights = compute_class_weights(counts)
        present = [f - 1 for f in counts]
        assert np.mean(weights[present]) == pytest.approx(1.0, rel=1e-12)

    def test_empty_counts_give_ones(self):
        assert np.array_equal(compute_class_weights({}), np.ones(9))

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            compute_class_weights({1: -5})

    def test_unknown_facies_rejected(self):
        with pytest.raises(ConfigError):
            compute_class_weights({11: 3})


class TestSgdStep:
    def test_zero_grads_leave_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        sgd_step(params, {"w": np.zeros(2)}, {}, 0.1, 0.9)
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_plain_sgd_arithmetic(self):
        params = {"w": np.array([1.0])}
        sgd_step(params, {"w": np.array([2.0])}, {}, 0.1, 0.0)
        assert params["w"][0] == pytest.approx(0.8, rel=1e-15)

    def test_momentum_unrolled_two_steps(self):
        params = {"w": np.array([0.0])}
        velocity = {}
        g = {"w": np.array([1.0])}
        sgd_step(params, g, velocity, 0.1, 0.9)
        assert params["w"][0] == pytest.approx(-0.1, rel=1e-15)
        sgd_step(params, g, velocity, 0.1, 0.9)
        assert params["w"][0] == pytest.approx(-0.29, rel=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            sgd_step({"w": np.zeros(3)}, {"w": np.zeros(2)}, {}, 0.1, 0.0)

    def test_missing_grad_rejected(self):
        with pytest.raises(ShapeError):
            sgd_step({"w": np.zeros(3)}, {}, {}, 0.1, 0.0)

    def test_one_step_decreases_loss_on_20_random_models(self):
        # strict descent holds at a tiny step on any smooth point
        spec = small_spec()
        for seed in range(20):
            params = init_params(spec, seed, dtype=np.float64)
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((1, 7, 9))
            y = np.array([int(rng.integers(1, 10))])

            def loss_of(p):
                logits, _ = model_forward(spec, p, x)
                return cross_entropy(logits, y)[0]

            logits, caches = model_forward(spec, params, x)
            before, d_logits = cross_entropy(logits, y)
            grads = model_backward(spec, params, caches, d_logits)
            sgd_step(params, grads, {}, 1e-6, 0.0)
            assert loss_of(params) < before


def synth_windows(n_samples=200, seed=0, window=9, sigma=0.5):
    well = generate_well(SynthConfig(n_samples=n_samples, sigma=sigma, seed=seed))
    std = fit_standardizer([well])
    ws = extract_windows(apply_standardizer(std, well), window)
    return ws.windows, ws.labels


class TestTrainOnWindows:
    def test_bit_identical_across_runs(self):
        x, y = synth_windows()
        cfg = TrainConfig(epochs=5, batch_size=32, seed=3)
        spec = small_spec(dropout=0.25)
        params_a, report_a = train_on_windows(cfg, x, y, spec=spec)
        params_b, report_b = train_on_windows(cfg, x, y, spec=spec)
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name])
        assert report_a.rows == report_b.rows

    def test_seed_changes_trajectory(self):
        x, y = synth_windows()
        spec = small_spec()
        a, _ = train_on_windows(TrainConfig(epochs=2, seed=0), x, y, spec=spec)
        b, _ = train_on_windows(TrainConfig(epochs=2, seed=1), x, y, spec=spec)
        assert not np.array_equal(a["stem.kernels"], b["stem.kernels"])

    def test_fixed_batch_loss_nonincreasing(self):
        # full-batch steps at a small lr descend; SGD noise allowance <= 5
        x, y = synth_windows(n_samples=64 + 8, window=9)
        cfg = TrainConfig(epochs=100, batch_size=len(x),
                          learning_rate=1e-3, lr_decay_every=0)
        _, report = train_on_windows(cfg, x, y, spec=small_spec())
        losses = [r.train_loss for r in report.rows]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert violations <= 5

    def test_memorizes_64_random_windows(self):
        # a network that cannot overfit 64 examples is buggy
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 7, 31)).astype(np.float32)
        y = rng.integers(1, 10, size=64)
        cfg = TrainConfig(epochs=500)
        params, _ = train_on_windows(cfg, x, y)
        spec = ModelSpec()
        logits, _ = model_forward(spec, params, x)
        acc = float((logits.argmax(axis=1) + 1 == y).mean())
        assert acc >= 0.98

    def test_report_row_per_epoch(self):
        x, y = synth_windows()
        cfg = TrainConfig(epochs=4)
        _, report = train_on_windows(cfg, x, y, spec=small_spec())
        assert [r.epoch for r in report.rows] == [1, 2, 3, 4]
        assert report.best_epoch == 4
        assert all(math.isnan(r.val_loss) for r in report.rows)

    def test_lr_decay_schedule_applied(self):
        # loss trail alone cannot show lr, so drive a 1-epoch-decay run
        # and compare to an undecayed twin: trajectories must split at
        # epoch 2 and only then
        x, y = synth_windows()
        spec = small_spec()
        base = dict(epochs=3, batch_size=32, seed=5)
        _, decayed = train_on_windows(
            TrainConfig(lr_decay_every=1, lr_decay_factor=0.5, **base),
            x, y, spec=spec)
        _, flat = train_on_windows(
            TrainConfig(lr_decay_every=0, **base), x, y, spec=spec)
        assert decayed.rows[0] == flat.rows[0]
        assert decayed.rows[1] != flat.rows[1]

    def test_empty_windows_rejected(self):
        with pytest.raises(ConfigError):
            train_on_windows(TrainConfig(),
                             np.zeros((0, 7, 9), dtype=np.float32), np.zeros(0))

    def test_window_label_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            train_on_windows(TrainConfig(),
                             np.zeros((3, 7, 9), dtype=np.float32), np.ones(2))

    def test_spec_window_mismatch_rejected(self):
        x, y = synth_windows(window=9)
        with pytest.raises(ShapeError):
            train_on_windows(TrainConfig(), x, y, spec=small_spec(window=11))


class TestEarlyStopping:
    def build(self, patience, epochs=40):
        x, y = synth_windows(n_samples=300, seed=1, sigma=1.5)
        vx, vy = synth_windows(n_samples=120, seed=2, sigma=1.5)
        cfg = TrainConfig(epochs=epochs, batch_size=32,
                          patience=patience, seed=0)
        spec = small_spec()
        params, report = train_on_windows(cfg, x, y, spec=spec,
                                          val_windows=vx, val_labels=vy)
        return params, report, spec, vx, vy

    def test_kept_params_match_best_observed_f1(self):
        params, report, spec, vx, vy = self.build(patience=3)
        best_row = report.rows[report.best_epoch - 1]
        observed = [r.val_macro_f1 for r in report.rows]
        assert best_row.val_macro_f1 == max(observed)
        _, refit_f1 = _validate(spec, params, vx, vy)
        assert refit_f1 == best_row.val_macro_f1

    def test_patience_truncates_run(self):
        _, patient, _, _, _ = self.build(patience=2)
        _, full, _, _, _ = self.build(patience=0)
        assert len(patient.rows) <= len(full.rows)
        # the run ends exactly `patience` epochs after the best one
        # unless it survived to the horizon
        if len(patient.rows) < len(full.rows):
            assert len(patient.rows) == patient.best_epoch + 2

    def test_val_columns_populated(self):
        _, report, _, _, _ = self.build(patience=0, epochs=3)
        assert all(not math.isnan(r.val_macro_f1) for r in report.rows)
        assert all(not math.isnan(r.val_loss) for r in report.rows)


class TestTrainWells:
    def make_wells(self):
        return generate_wells(SynthConfig(n_samples=150, seed=20), 3)

    def config(self, **kwargs):
        base = dict(epochs=2, batch_size=32, seed=0)
        base.update(kwargs)
        return TrainConfig(**base)

    def test_returns_checkpoint_and_report(self):
        wells = self.make_wells()
        ckpt, report = train(self.config(), wells, spec=small_spec())
        assert ckpt.spec.window == 9
        assert ckpt.seed == 0
        assert len(report.rows) == 2

    def test_standardizer_fitted_on_train_only(self):
        wells = self.make_wells()
        cfg = self.config(validation_wells=("SYNTH022",))
        ckpt, _ = train(cfg, wells, spec=small_spec())
        expected = fit_standardizer(wells[:2])
        assert ckpt.standardizer.mean == expected.mean
        assert ckpt.standardizer.std == expected.std

    def test_validation_split_by_name(self):
        wells = self.make_wells()
        cfg = self.config(validation_wells=("SYNTH021",))
        _, report = train(cfg, wells, spec=small_spec())
        assert all(not math.isnan(r.val_macro_f1) for r in report.rows)

    def test_unknown_validation_name_rejected(self):
        wells = self.make_wells()
        with pytest.raises(ConfigError):
            train(self.config(validation_wells=("NOPE",)), wells,
                  spec=small_spec())

    def test_class_weighting_smoke(self):
        wells = self.make_wells()
        ckpt, report = train(self.config(use_class_weights=True), wells,
                             spec=small_spec())
        assert len(report.rows) == 2

    def test_no_training_wells_rejected(self):
        with pytest.raises(ConfigError):
            train(self.config(), [])


class TestTrainReportFiles:
    def build_report(self):
        cfg = TrainConfig(epochs=3, batch_size=32, seed=1)
        _, report = train_on_windows(cfg, *synth_windows(n_samples=120),
                                     spec=small_spec())
        return report

    def test_csv_round_trip(self, tmp_path):
        report = self.build_report()
        path = tmp_path / "report.csv"
        report.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "train_acc",
                           "val_loss", "val_macro_f1"]
        assert len(rows) == 1 + len(report.rows)
        for raw, row in zip(rows[1:], report.rows):
            assert int(raw[0]) == row.epoch
            assert float(raw[1]) == row.train_loss
            assert float(raw[2]) == row.train_acc

    def test_json_summary(self, tmp_path):
        report = self.build_report()
        path = tmp_path / "report.json"
        report.to_json(path, small_spec())
        with open(path) as fh:
            data = json.load(fh)
        assert data["best_epoch"] == report.best_epoch
        assert data["seed"] == report.config.seed == 1
        assert data["epochs_run"] == len(report.rows)
        assert data["model"]["window"] == 9
