"""Metrics tests against a brute-force counting oracle, plus prediction
and export behaviour.

The oracle recomputes every metric by direct pair counting and simple
sequential arithmetic; comparisons are exact (==), not approximate,
because both sides divide and sum the same integers the same way.
"""

import csv
import dataclasses
import warnings

import numpy as np
import pytest

from faciesnet import evaluation, network
from faciesnet.errors import DataFormatError, ShapeError
from faciesnet.evaluation import (ConfusionMatrix, accuracy, adjacent_accuracy,
                                  confidence_band, confusion, evaluate,
                                  export_plot_data, precision_recall_f1,
                                  predict_with_confidence, write_metrics_json)
from faciesnet.network import (INFERENCE_BATCH, Checkpoint, ModelSpec, InceptionSpec,
                               init_params, model_forward)
from faciesnet.welldata import (CHANNELS, FaciesTable, Standardizer, Well,
                                apply_standardizer, default_adjacency, window_matrix)


# ---------------------------------------------------------------------------
# independent oracle

def oracle_confusion(true, pred):
    counts = [[0] * 9 for _ in range(9)]
    for t, p in zip(true, pred):
        counts[t - 1][p - 1] += 1
    return counts


def oracle_metrics(true, pred, adjacency):
    counts = oracle_confusion(true, pred)
    precision, recall, f1, support = [], [], [], []
    for f in range(9):
        tp = counts[f][f]
        fp = sum(counts[t][f] for t in range(9)) - tp
        fn = sum(counts[f][p] for p in range(9)) - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
        precision.append(p)
        recall.append(r)
        support.append(tp + fn)
    present = [f for f in range(9) if support[f] > 0]
    macro = sum(f1[f] for f in present) / len(present) if present else 0.0
    total = sum(support)
    weighted = sum(f1[f] * support[f] for f in present) / total if total else 0.0
    acc = sum(1 for t, p in zip(true, pred) if t == p) / len(true) if len(true) else 0.0
    adj = (sum(1 for t, p in zip(true, pred)
               if p == t or p in adjacency.get(t, set())) / len(true)
           if len(true) else 0.0)
    return counts, precision, recall, f1, macro, weighted, acc, adj


def random_labels(rng, n):
    return rng.integers(1, 10, size=n).tolist()


def random_adjacency(rng):
    """A symmetric map holding each pair of distinct facies with chance 0.3."""
    adjacency = {f: set() for f in range(1, 10)}
    for a in range(1, 10):
        for b in range(a + 1, 10):
            if rng.random() < 0.3:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return adjacency


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        labels = [1, 2, 3, 9, 9, 5]
        cm = confusion(labels, labels)
        assert np.array_equal(cm.counts, np.diag(np.bincount(labels, minlength=10)[1:]))

    def test_empty_input_gives_zero_matrix(self):
        cm = confusion([], [])
        assert not cm.counts.any()
        assert cm.n_samples == 0

    def test_described_cell_row_one_column_two(self):
        # 14 samples the geologist called facies 1 and the machine called 2
        cm = confusion([1] * 14, [2] * 14)
        assert cm.count(1, 2) == 14
        assert cm.counts[0, 1] == 14
        assert cm.counts.sum() == 14

    def test_row_sums_are_true_class_totals(self):
        rng = np.random.default_rng(0)
        true, pred = random_labels(rng, 500), random_labels(rng, 500)
        cm = confusion(true, pred)
        assert np.array_equal(cm.support, np.bincount(true, minlength=10)[1:])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion([1, 2], [1])

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataFormatError):
            confusion([0], [1])
        with pytest.raises(DataFormatError):
            confusion([1], [10])

    def test_negative_counts_rejected(self):
        counts = np.zeros((9, 9), dtype=np.int64)
        counts[0, 0] = -1
        with pytest.raises(ShapeError):
            ConfusionMatrix(counts)


class TestPrecisionRecallF1:
    def test_diagonal_matrix_all_ones(self):
        cm = confusion([1, 2, 3, 4, 5, 6, 7, 8, 9], [1, 2, 3, 4, 5, 6, 7, 8, 9])
        prf = precision_recall_f1(cm)
        assert prf.f1 == [1.0] * 9
        assert prf.macro_f1 == 1.0
        assert prf.weighted_f1 == 1.0
        assert prf.undefined == [False] * 9

    def test_hand_enumerated_two_thirds(self):
        # class 1: two hits, one false positive, one miss
        true = [1, 1, 2, 1]
        pred = [1, 1, 1, 3]
        prf = precision_recall_f1(confusion(true, pred))
        assert prf.precision[0] == 2 / 3
        assert prf.recall[0] == 2 / 3
        assert prf.f1[0] == 2 / 3

    def test_zero_support_class_excluded_and_flagged(self):
        true = [1, 1, 2]
        pred = [1, 9, 2]
        prf = precision_recall_f1(confusion(true, pred))
        assert prf.undefined[8]
        assert prf.f1[8] == 0.0
        # macro over classes 1 and 2 only
        assert prf.macro_f1 == (prf.f1[0] + prf.f1[1]) / 2

    def test_weighted_equals_macro_on_equal_supports(self):
        rng = np.random.default_rng(3)
        true = [f for f in range(1, 10) for _ in range(20)]
        pred = random_labels(rng, len(true))
        prf = precision_recall_f1(confusion(true, pred))
        assert prf.weighted_f1 == pytest.approx(prf.macro_f1, abs=1e-12)


class TestAdjacentAccuracy:
    def test_perfect_prediction(self):
        labels = [3, 4, 5]
        assert adjacent_accuracy(confusion(labels, labels)) == 1.0

    def test_one_neighbour_off_counts_as_hit(self):
        cm = confusion([2] * 10, [3] * 10)
        assert adjacent_accuracy(cm) == 1.0
        assert accuracy(cm) == 0.0

    def test_empty_adjacency_equals_plain_accuracy(self):
        rng = np.random.default_rng(4)
        true, pred = random_labels(rng, 200), random_labels(rng, 200)
        table = FaciesTable(adjacency={})
        cm = confusion(true, pred)
        assert adjacent_accuracy(cm, table) == accuracy(cm)

    def test_never_below_plain_accuracy(self):
        rng = np.random.default_rng(5)
        full = {f: set(range(1, 10)) - {f} for f in range(1, 10)}
        for trial in range(20):
            cm = confusion(random_labels(rng, 100), random_labels(rng, 100))
            for adj in ({}, default_adjacency(), full):
                table = FaciesTable(adjacency=adj)
                assert adjacent_accuracy(cm, table) >= accuracy(cm)

    def test_full_adjacency_is_always_one(self):
        rng = np.random.default_rng(6)
        full = {f: set(range(1, 10)) - {f} for f in range(1, 10)}
        true, pred = random_labels(rng, 50), random_labels(rng, 50)
        cm = confusion(true, pred)
        assert adjacent_accuracy(cm, FaciesTable(adjacency=full)) == 1.0


class TestOracleAgreement:
    @pytest.mark.parametrize("trial", range(100))
    def test_exact_match_on_random_sequences(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(1, 201))
        true, pred = random_labels(rng, n), random_labels(rng, n)
        for adjacency in (default_adjacency(), random_adjacency(rng)):
            report = evaluate(true, pred, FaciesTable(adjacency=adjacency))
            (counts, precision, recall, f1,
             macro, weighted, acc, adj) = oracle_metrics(true, pred, adjacency)
            assert report.cm.counts.tolist() == counts
            assert report.prf.precision == precision
            assert report.prf.recall == recall
            assert report.prf.f1 == f1
            assert report.prf.macro_f1 == macro
            assert report.prf.weighted_f1 == weighted
            assert report.accuracy == acc
            assert report.adjacent_accuracy == adj

    def test_report_counts_match_support(self):
        rng = np.random.default_rng(7)
        true, pred = random_labels(rng, 300), random_labels(rng, 300)
        report = evaluate(true, pred)
        assert sum(report.cm.support) == 300
        assert report.cm.n_samples == 300


# ---------------------------------------------------------------------------
# prediction

def tiny_checkpoint(seed=0):
    spec = ModelSpec(window=9, stem_kernel=3, stem_channels=4,
                     stages=(InceptionSpec(2, 2, 3, 2, 2, 5, 2, 2),),
                     fc_sizes=(8,), dropout=0.0)
    params = init_params(spec, seed)
    standardizer = Standardizer({c: 0.0 for c in CHANNELS},
                                {c: 1.0 for c in CHANNELS})
    return Checkpoint(spec, params, standardizer, seed)


def labeled_well(n=40, seed=0, name="W"):
    rng = np.random.default_rng(seed)
    return Well(name=name, depth=1000 + 0.5 * np.arange(n, dtype=float),
                channels={c: rng.normal(size=n) for c in CHANNELS},
                labels=rng.integers(1, 10, size=n))


class TestPredictWithConfidence:
    def test_one_prediction_per_depth(self):
        series = predict_with_confidence(tiny_checkpoint(), labeled_well(40))
        assert len(series) == 40
        assert series.facies.shape == (40,)
        assert series.probs.shape == (40, 9)

    def test_probabilities_sum_to_one(self):
        series = predict_with_confidence(tiny_checkpoint(), labeled_well(25))
        np.testing.assert_allclose(series.probs.sum(axis=1), 1.0, atol=1e-6)

    def test_argmax_matches_reported_facies(self):
        series = predict_with_confidence(tiny_checkpoint(), labeled_well(25))
        assert np.array_equal(series.probs.argmax(axis=1) + 1, series.facies)
        assert np.array_equal(series.probs.max(axis=1), series.confidence)

    def test_identical_wells_identical_predictions(self):
        model = tiny_checkpoint()
        a = predict_with_confidence(model, labeled_well(30, seed=2))
        b = predict_with_confidence(model, labeled_well(30, seed=2))
        assert np.array_equal(a.facies, b.facies)
        assert np.array_equal(a.probs, b.probs)

    def test_batching_agrees_to_float_precision(self, monkeypatch):
        # matmul blocking differs by batch shape, so only near-exact
        # agreement is promised across chunk sizes
        model = tiny_checkpoint()
        well = labeled_well(33, seed=3)
        b = predict_with_confidence(model, well)
        monkeypatch.setattr(network, "INFERENCE_BATCH", 4)
        a = predict_with_confidence(model, well)
        assert np.array_equal(a.facies, b.facies)
        np.testing.assert_allclose(a.probs, b.probs, rtol=1e-4, atol=1e-7)

    def test_unlabeled_well_supported(self):
        well = labeled_well(20, seed=4)
        unlabeled = Well(well.name, well.depth, well.channels, labels=None)
        series = predict_with_confidence(tiny_checkpoint(), unlabeled)
        assert series.true_labels is None

    def test_bands_follow_thresholds(self):
        assert confidence_band(0.71) == "high"
        assert confidence_band(0.7) == "high"
        assert confidence_band(0.69) == "medium"
        assert confidence_band(0.5) == "medium"
        assert confidence_band(0.49) == "low"
        series = predict_with_confidence(tiny_checkpoint(), labeled_well(30, seed=5))
        assert series.bands == [confidence_band(c) for c in series.confidence]

    def test_chunks_cut_from_the_view_equal_the_window_matrix(self):
        # one chunk boundary inside the well: the whole-well pass gives
        # the bits of one model_forward and softmax per chunk
        model = tiny_checkpoint()
        well = labeled_well(INFERENCE_BATCH + 37, seed=7)
        windows = window_matrix(apply_standardizer(model.standardizer, well),
                                model.spec.window)
        expected = np.concatenate([
            evaluation.ops.softmax(model_forward(model.spec, model.params,
                                                 windows[i:i + INFERENCE_BATCH])[0]
                                   .astype(np.float64))
            for i in range(0, len(windows), INFERENCE_BATCH)])
        series = predict_with_confidence(model, well)
        assert series.probs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("std", [1e-300, 1e-310], ids=["past-float32", "past-float64"])
    def test_standardized_value_outside_float32_names_well_channel_depth(self, std):
        # a checkpoint std this small scales ordinary logs past float32
        # (1e-310 past float64 too); either is an error, not a warning
        model = tiny_checkpoint()
        model.standardizer.std["PHIND"] = std
        well = labeled_well(20, seed=8, name="DEEP")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError) as info:
                predict_with_confidence(model, well)
        message = str(info.value)
        assert "well DEEP" in message and "PHIND" in message
        assert f"depth {float(well.depth[0])!r}" in message
        assert "float32" in message

    def test_standardizer_channel_mismatch_rejected(self):
        model = tiny_checkpoint()
        model.standardizer = Standardizer({"NOT_A_LOG": 0.0}, {"NOT_A_LOG": 1.0})
        with pytest.raises(ShapeError):
            predict_with_confidence(model, labeled_well(20))


class TestExport:
    def test_files_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        true, pred = random_labels(rng, 120), random_labels(rng, 120)
        report = evaluate(true, pred)
        series = predict_with_confidence(tiny_checkpoint(), labeled_well(30, seed=6))
        paths = export_plot_data(report, [series], tmp_path)
        assert [p.name for p in paths] == ["facies_column.csv", "confusion.csv",
                                           "facies_counts.csv"]

        with open(tmp_path / "confusion.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "true"
        counts = [[int(c) for c in row[1:10]] for row in rows[1:]]
        assert counts == report.cm.counts.tolist()
        f1 = [float(row[12]) for row in rows[1:]]
        assert f1 == report.prf.f1

        with open(tmp_path / "facies_column.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 31
        assert [int(r[2]) for r in rows[1:]] == series.facies.tolist()

        with open(tmp_path / "facies_counts.csv") as fh:
            rows = list(csv.reader(fh))
        assert [int(r[3]) for r in rows[1:]] == report.cm.support.tolist()
        # a checkpoint records no training counts
        assert [int(r[2]) for r in rows[1:]] == [0] * 9

    def test_facies_column_bytes_match_csv_writer(self, tmp_path):
        # names csv must quote, or must leave alone; the rows are f-strings
        names = ["A,B", 'say "hi"', " lead", "", "plain"]
        series = [dataclasses.replace(
                      predict_with_confidence(tiny_checkpoint(), labeled_well(6, seed=i)),
                      well_name=name)
                  for i, name in enumerate(names)]
        series[-1].true_labels = None
        rng = np.random.default_rng(10)
        export_plot_data(evaluate(random_labels(rng, 30), random_labels(rng, 30)),
                         series, tmp_path)

        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["well", "depth", "predicted", "true", "confidence", "band"])
            for s in series:
                true = [""] * len(s) if s.true_labels is None else s.true_labels.tolist()
                for depth, facies, label, confidence, band in zip(
                        s.depth.tolist(), s.facies.tolist(), true,
                        s.confidence.tolist(), s.bands):
                    writer.writerow([s.well_name, repr(depth), facies, label,
                                     repr(confidence), band])
        assert ((tmp_path / "facies_column.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    def test_metrics_json_mirrors_report(self, tmp_path):
        import json
        rng = np.random.default_rng(9)
        true, pred = random_labels(rng, 80), random_labels(rng, 80)
        report = evaluate(true, pred)
        write_metrics_json(report, tmp_path / "metrics.json")
        with open(tmp_path / "metrics.json") as fh:
            data = json.load(fh)
        assert data["macro_f1"] == report.prf.macro_f1
        assert data["weighted_f1"] == report.prf.weighted_f1
        assert data["accuracy"] == report.accuracy
        assert data["adjacent_accuracy"] == report.adjacent_accuracy
        assert data["confusion"] == report.cm.counts.tolist()
        assert len(data["per_class"]) == 9
