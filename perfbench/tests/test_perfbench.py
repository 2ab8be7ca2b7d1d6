"""Tests of the benchmark's own logic: span arithmetic, output checks,
seed handling and the tracer's patching.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def span(name, start, end, parent=None, op=0):
    s = Span(name, start, parent, op)
    s.end = end
    return s


# ---------------------------------------------------------------------------
# self time

def test_covered_length_merges_overlaps_and_gaps():
    assert tracing.covered_length([]) == 0.0
    assert tracing.covered_length([(1, 4), (3, 6)]) == 5
    assert tracing.covered_length([(5, 6), (1, 2), (1.5, 1.8)]) == 2
    assert tracing.covered_length([(0, 10), (2, 3)]) == 10


def test_self_time_of_hand_built_tree():
    # cli.main [0, 10]
    #   welldata.parse_csv [1, 4]
    #     ops.x [2, 3]
    #   evaluation.predict_with_confidence [3, 6]   (overlaps parse_csv)
    #   evaluation.predict_with_confidence [8, 12]  (runs past its parent)
    spans = [span("cli.main", 0, 10),
             span("welldata.parse_csv", 1, 4, parent=0),
             span("ops.x", 2, 3, parent=1),
             span("evaluation.predict_with_confidence", 3, 6, parent=0),
             span("evaluation.predict_with_confidence", 8, 12, parent=0)]
    # main is covered on [1, 6] and [8, 10]: 7 of its 10 seconds
    assert tracing.self_seconds(spans) == [3, 2, 1, 3, 4]


def test_layer_self_time_looks_through_own_layer():
    # network.model_forward [0, 10] -> network.inception_forward [2, 8]
    # -> ops.conv1d [3, 5]; model_forward also calls ops.dense [8, 9]
    spans = [span("network.model_forward", 0, 10),
             span("network.inception_forward", 2, 8, parent=0),
             span("ops.conv1d", 3, 5, parent=1),
             span("ops.dense", 8, 9, parent=0)]
    children = tracing.children_of(spans)
    assert tracing.layer_self_seconds(spans, 0, children) == 7
    assert tracing.self_seconds(spans, children)[0] == 3


def test_layer_metrics_on_hand_built_training_step():
    spans = [span("training.train_on_windows", 0, 100, op=1),
             span("network.model_forward", 10, 20, parent=0, op=1),
             span("ops.conv1d", 11, 15, parent=1, op=1),
             span("network.model_backward", 20, 40, parent=0, op=1),
             span("ops.conv1d_backward", 22, 30, parent=3, op=1),
             span("training.sgd_step", 40, 45, parent=0, op=1)]
    spans[2].attrs = {"flop": 4e9}
    spans[4].attrs = {"flop": 8e9}
    m = tracing.layer_metrics(spans, {1: 100.0})
    assert m["ops.conv1d.calls"] == 1 and m["ops.conv1d.ms"] == 4000
    assert m["ops.conv1d.computed_gflop"] == 4
    assert m["ops.conv1d.gflop_s"] == 1
    assert m["ops.conv1d_backward.gflop_s"] == 1
    assert m["network.model_forward.self_ms"] == 6000
    assert m["network.model_backward.self_ms"] == 12000
    assert m["training.step_ms.p50"] == 35000
    assert m["training.sgd_step.ms"] == 5000
    assert m["trace.coverage"] == 1.0
    assert m["ops.pool1d.branch.calls"] == 0


def test_reported_metrics_match_benchmark_json_and_layer_map():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE.parent / "layer_map.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(layer_map["per_layer"])
    layers = tracing.layer_metrics([span("cli.main", 0, 1, op=1)], {1: 1.0})
    assert set(run.per_layer([], layers, {})) == set(per_layer)
    metrics, _ = run.end_to_end([], [1.0], 1.0)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert set(layer_map["end_to_end"]) == set(metrics)
    assert set(layer_map["workloads"]) == {w["name"] for w in spec["workloads"]}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 99) == 99
    assert tracing.percentile([7], 95) == 7
    assert tracing.percentile([], 50) == 0.0


# ---------------------------------------------------------------------------
# tracing from outside the package

def test_install_patches_name_bindings_and_uninstall_restores():
    from faciesnet import cli, evaluation, network, ops, training

    originals = (training.model_forward, evaluation.model_forward,
                 cli.predict_with_confidence, ops.pool1d)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert training.model_forward is not originals[0]
        assert evaluation.model_forward is training.model_forward
        assert network.model_forward is training.model_forward
        assert cli.predict_with_confidence is not originals[2]
        spec = network.ModelSpec()
        params = network.init_params(spec, 0)
        x = np.zeros((2, spec.in_channels, spec.window), dtype=np.float32)
        tracer.op = 7
        training.model_forward(spec, params, x)
    finally:
        tracing.uninstall(patches)
    assert (training.model_forward, evaluation.model_forward,
            cli.predict_with_confidence, ops.pool1d) == originals

    spans = [s for s in tracer.spans if s.op == 7]
    names = [s.name for s in spans]
    assert names[0] == "network.model_forward" and spans[0].parent is None
    assert names.count("ops.pool1d.branch") == 2
    assert names.count("ops.pool1d.stage") == 2
    conv = next(s for s in spans if s.name == "ops.conv1d")
    # stem conv: 16 outputs x 31 samples x 2 windows, from 7 channels x k5
    assert conv.attrs["flop"] == 2 * (2 * 16 * 31) * 7 * 5


# ---------------------------------------------------------------------------
# output checks

@pytest.fixture(scope="module")
def predictions(tmp_path_factory):
    """A real predictions.csv from an untrained model over a short well."""
    from faciesnet import cli, network, welldata

    tmp = tmp_path_factory.mktemp("predict")
    wells = workloads._wells(1, 40, 3, "W")
    spec = network.ModelSpec()
    model = network.Checkpoint(spec, network.init_params(spec, 0),
                               welldata.fit_standardizer(wells))
    model.save(tmp / "model.fnet")
    welldata.write_csv([workloads._unlabelled(w) for w in wells], tmp / "w.csv")
    code = cli.main(["predict", str(tmp / "model.fnet"), str(tmp / "w.csv"),
                     "--out", str(tmp)])
    assert code == 0
    return (tmp / "predictions.csv").read_text().splitlines()


def _corrupt(lines, tmp_path, row, column, value):
    rows = [line.split(",") for line in lines]
    rows[row][column] = value
    path = tmp_path / "predictions.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return path


def test_valid_predictions_pass(predictions, tmp_path):
    path = tmp_path / "predictions.csv"
    path.write_text("\n".join(predictions) + "\n")
    facies = workloads.read_predictions_csv(path, 40)
    assert len(facies) == 40


@pytest.mark.parametrize("row, column, value", [
    (5, 2, "0"),          # facies below 1
    (5, 2, "10"),         # facies above 9
    (7, 4, "0.9"),        # p2 moved: the row no longer sums to 1
    (9, 11, "nan"),       # a probability is not finite
    (3, 3, "x"),          # not a number
])
def test_corrupted_predictions_are_rejected(predictions, tmp_path, row, column, value):
    path = _corrupt(predictions, tmp_path, row, column, value)
    with pytest.raises(workloads.CheckFailed):
        workloads.read_predictions_csv(path, 40)


def test_missing_or_extra_rows_are_rejected(predictions, tmp_path):
    path = tmp_path / "predictions.csv"
    path.write_text("\n".join(predictions[:-1]) + "\n")
    with pytest.raises(workloads.CheckFailed):
        workloads.read_predictions_csv(path, 40)
    path.write_text("\n".join(predictions + predictions[-1:]) + "\n")
    with pytest.raises(workloads.CheckFailed):
        workloads.read_predictions_csv(path, 40)


def test_non_finite_quality_metric_is_rejected(tmp_path):
    truth = np.array([1, 2, 3])
    (tmp_path / "facies_column.csv").write_text(
        "well,depth,predicted,true,confidence,band\n"
        + "".join(f"W,{i}.0,{t},{t},0.9,high\n" for i, t in enumerate(truth)))
    metrics = {"accuracy": 1.0, "adjacent_accuracy": 1.0, "macro_f1": 1.0,
               "weighted_f1": 1.0}
    (tmp_path / "metrics.json").write_text(json.dumps(metrics))
    assert workloads.read_evaluate_outputs(tmp_path, truth)["accuracy"] == 1.0
    metrics["macro_f1"] = float("nan")
    (tmp_path / "metrics.json").write_text(json.dumps(metrics))
    with pytest.raises(workloads.CheckFailed):
        workloads.read_evaluate_outputs(tmp_path, truth)


def test_quality_matches_hand_count():
    truth = np.array([1, 1, 2, 2, 3, 5])
    pred = np.array([1, 2, 2, 2, 1, 4])
    q = workloads.quality(truth, pred)
    assert q["accuracy"] == 3 / 6
    assert q["adjacent_accuracy"] == 5 / 6
    # F1 per true class: 1 -> 0.5, 2 -> 0.8, 3 -> 0, 5 -> 0
    assert q["macro_f1"] == pytest.approx((0.5 + 0.8) / 4)


# ---------------------------------------------------------------------------
# seeds

def _snapshot(workload, seed, workdir):
    for path in workdir.glob("*"):
        path.unlink()
    job = workloads.make_inputs(workload, seed, workdir, checkpoint="model.fnet")
    files = {p.name: p.read_bytes() for p in sorted(workdir.glob("*"))}
    return job, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_and_nothing_else(workload, tmp_path):
    job_a, files_a = _snapshot(workload, 1, tmp_path)
    job_b, files_b = _snapshot(workload, 2, tmp_path)
    job_a2, files_a2 = _snapshot(workload, 1, tmp_path)
    assert job_a == job_b == job_a2          # same command line and settings
    assert files_a == files_a2               # same seed, same bytes
    assert files_a.keys() == files_b.keys()
    assert all(files_a[name] != files_b[name] for name in files_a)
