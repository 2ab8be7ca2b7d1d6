"""End-to-end command-line tests on small synthetic datasets: artifact
production, idempotence, exit codes, config handling, fault injection."""

import csv
import dataclasses
import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from faciesnet import cli, ops
from faciesnet.cli import CASTS, SECTIONS, load_config, main
from faciesnet.errors import ConfigError
from faciesnet.evaluation import predict_wells
from faciesnet.network import MAX_THREADS, Checkpoint, InceptionSpec, ModelSpec
from faciesnet.synth import SynthConfig, generate_wells
from faciesnet.training import TrainConfig
from faciesnet.welldata import PE, default_adjacency, parse_csv, write_csv


SMALL_MODEL_CFG = """
[model]
window = 9
stem_kernel = 3
stem_channels = 4
stages = 1
branch_1x1 = 2
reduce_small = 2
small_kernel = 3
small_channels = 2
reduce_large = 2
large_kernel = 5
large_channels = 2
pool_proj = 2
fc_sizes = 8
dropout = 0.0

[training]
epochs = 2
batch_size = 32
seed = 1
"""


@pytest.fixture
def data_csv(tmp_path):
    wells = generate_wells(SynthConfig(n_samples=120, seed=30), 3)
    path = tmp_path / "wells.csv"
    write_csv(wells, path)
    return path


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_MODEL_CFG)
    return path


def run_train(tmp_path, data_csv, small_cfg, out="run", extra=()):
    out_dir = tmp_path / out
    code = main(["train", str(data_csv), "--config", str(small_cfg),
                 "--out", str(out_dir), *extra])
    return code, out_dir


# every [model], [training] and [synth] key, each at its default
EVERY_KEY_AT_DEFAULT_CFG = """
[model]
window = 31
stem_kernel = 5
stem_channels = 16
stages = 2
branch_1x1 = 8
reduce_small = 8
small_kernel = 3
small_channels = 16
reduce_large = 8
large_kernel = 7
large_channels = 16
pool_proj = 8
fc_sizes = 64
dropout = 0.5

[training]
batch_size = 64
learning_rate = 0.01
momentum = 0.9
epochs = 100
seed = 0
use_class_weights = false
validation_wells =
patience = 0
lr_decay_every = 20
lr_decay_factor = 0.5

[synth]
n_samples = 2000
p_stay = 0.95
sigma = 0.5
seed = 0
wells = 1
"""


class TestConfigFile:
    def test_valid_file_parses(self, small_cfg):
        cfg = load_config(small_cfg)
        assert cfg.model.window == 9
        assert cfg.training.epochs == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[training]\nepoch = 5\n")
        with pytest.raises(ConfigError, match="unknown key 'epoch'"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[optimizer]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match=r"unknown section \[optimizer\]"):
            load_config(path)

    def test_all_errors_listed_at_once(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[training]\nepoch = 5\nbatch_size = zero\nepochs = 0\n"
                        "momentum = 2\n[model]\nwindow = 8\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        assert str(path) in message
        assert "unknown key 'epoch'" in message
        assert "[training] batch_size" in message and "zero" in message
        # two out-of-range values in one section are both named
        assert "[training] epochs" in message
        assert "[training] momentum" in message
        assert "[model] window" in message

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.cfg")

    def test_every_key_at_its_default_builds_the_defaults(self, tmp_path):
        path = tmp_path / "defaults.cfg"
        path.write_text(EVERY_KEY_AT_DEFAULT_CFG)
        cfg = load_config(path)
        assert cfg.model == ModelSpec()
        assert cfg.training == TrainConfig()
        assert cfg.synth == SynthConfig()
        assert cfg.synth_wells == 1

    @pytest.mark.parametrize("cls, section", [(ModelSpec, "model"), (InceptionSpec, "model"),
                                              (TrainConfig, "training"), (SynthConfig, "synth")])
    def test_every_field_is_a_key_cast_by_its_type(self, cls, section):
        # stages is set by a count, not by its type
        for f in fields(cls):
            if f.name != "stages":
                assert SECTIONS[section].get(f.name) is CASTS[f.type], f.name


class TestTrainCommand:
    def test_writes_three_artifacts(self, tmp_path, data_csv, small_cfg, capsys):
        code, out_dir = run_train(tmp_path, data_csv, small_cfg)
        assert code == 0
        assert (out_dir / "model.fnet").exists()
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "report.json").exists()
        stdout = capsys.readouterr().out
        assert "seed = 1" in stdout
        assert "resolved training configuration" in stdout
        with open(out_dir / "report.json") as fh:
            model = json.load(fh)["model"]
        assert list(model) == ["window", "in_channels", "stem_kernel", "stem_channels",
                               "stages", "fc_sizes", "dropout", "n_classes"]
        assert (model["in_channels"], model["n_classes"]) == (7, 9)

    def test_same_seed_identical_checkpoints(self, tmp_path, data_csv, small_cfg):
        _, out_a = run_train(tmp_path, data_csv, small_cfg, out="a",
                             extra=["--seed", "7"])
        _, out_b = run_train(tmp_path, data_csv, small_cfg, out="b",
                             extra=["--seed", "7"])
        assert (out_a / "model.fnet").read_bytes() == \
               (out_b / "model.fnet").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, data_csv, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg,
                               extra=["--seed", "99"])
        assert Checkpoint.load(out_dir / "model.fnet").seed == 99

    def test_missing_data_path_exit_2(self, tmp_path, small_cfg, capsys):
        code = main(["train", str(tmp_path / "absent.csv"),
                     "--config", str(small_cfg)])
        assert code == 2
        assert str(tmp_path / "absent.csv") in capsys.readouterr().err

    def test_no_data_argument_exit_2(self, small_cfg):
        assert main(["train", "--config", str(small_cfg)]) == 2

    def test_bad_config_exit_2(self, tmp_path, data_csv):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[training]\nmomentum = 2\n")
        assert main(["train", str(data_csv), "--config", str(bad)]) == 2

    def test_unlabeled_data_exit_4(self, tmp_path, small_cfg):
        wells = generate_wells(SynthConfig(n_samples=60, seed=31), 1)
        wells[0].labels = None
        path = tmp_path / "unlabeled.csv"
        write_csv(wells, path)
        assert main(["train", str(path), "--config", str(small_cfg)]) == 4

    def test_unlabeled_blind_well_does_not_block_training(self, tmp_path, small_cfg,
                                                          capsys):
        # train fits every labeled well not held out
        wells = generate_wells(SynthConfig(n_samples=60, seed=31), 3)
        wells[2].labels = None
        path = tmp_path / "blind-unlabeled.csv"
        write_csv(wells, path)
        code, _ = run_train(tmp_path, path, small_cfg,
                            extra=["--blind-wells", wells[2].name])
        assert code == 0
        assert "2 wells" in capsys.readouterr().out

    def test_pe_gaps_filled_from_fitted_wells_only(self, tmp_path):
        wells = generate_wells(SynthConfig(n_samples=60, seed=33), 3)
        wells[0].channels[PE, ::4] = np.nan
        wells[2].channels[PE] += 100.0  # the validation well
        path = tmp_path / "gaps.csv"
        write_csv(wells, path)
        cfg = tmp_path / "val.cfg"
        cfg.write_text(SMALL_MODEL_CFG + f"validation_wells = {wells[2].name}\n")
        code, out_dir = run_train(tmp_path, path, cfg, extra=["--allow-missing-pe"])
        assert code == 0
        fitted = np.concatenate([w.channels[PE] for w in wells[:2]])
        # the gaps hold the recorded mean, so the mean is unchanged by them
        pe_mean = Checkpoint.load(out_dir / "model.fnet").standardizer.mean[PE]
        assert pe_mean == pytest.approx(np.nanmean(fitted), rel=1e-12)

    def test_blind_wells_excluded(self, tmp_path, data_csv, small_cfg, capsys):
        code, _ = run_train(tmp_path, data_csv, small_cfg,
                            extra=["--blind-wells", "SYNTH032"])
        assert code == 0
        assert "2 wells" in capsys.readouterr().out

    def test_unknown_blind_well_exit_2(self, tmp_path, data_csv, small_cfg):
        code, _ = run_train(tmp_path, data_csv, small_cfg,
                            extra=["--blind-wells", "NOPE"])
        assert code == 2

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "data-section"])
    def test_blind_validation_well_names_config_and_wells(self, tmp_path, data_csv,
                                                          capsys, flag):
        # the well is in the data file; naming it blind and validating on
        # it is the configuration's fault, and the message says where
        cfg = tmp_path / "val.cfg"
        blind_key = "" if flag else "[data]\nblind_wells = SYNTH032\n"
        cfg.write_text(blind_key + SMALL_MODEL_CFG
                       + "validation_wells = SYNTH031, SYNTH032\n")
        code, _ = run_train(tmp_path, data_csv, cfg,
                            extra=["--blind-wells", "SYNTH032"] if flag else [])
        err = capsys.readouterr().err
        assert code == 2
        assert str(cfg) in err and "['SYNTH032']" in err
        assert ("--blind-wells" if flag else "[data] blind_wells") in err
        assert "not in data" not in err


class TestPredictCommand:
    def test_predictions_csv_layout(self, tmp_path, data_csv, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        pred_dir = tmp_path / "pred"
        code = main(["predict", str(out_dir / "model.fnet"), str(data_csv),
                     "--out", str(pred_dir)])
        assert code == 0
        with open(pred_dir / "predictions.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == (["well", "depth", "facies"]
                           + [f"p{f}" for f in range(1, 10)]
                           + ["confidence", "band"])
        assert len(rows) == 1 + 3 * 120
        for row in rows[1:]:
            probs = [float(p) for p in row[3:12]]
            assert sum(probs) == pytest.approx(1.0, abs=1e-6)
            assert int(row[2]) == int(np.argmax(probs)) + 1

    def test_rerun_binary_identical(self, tmp_path, data_csv, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        a_dir, b_dir = tmp_path / "p1", tmp_path / "p2"
        main(["predict", str(out_dir / "model.fnet"), str(data_csv),
              "--out", str(a_dir)])
        main(["predict", str(out_dir / "model.fnet"), str(data_csv),
              "--out", str(b_dir)])
        assert (a_dir / "predictions.csv").read_bytes() == \
               (b_dir / "predictions.csv").read_bytes()

    def test_threads_do_not_change_output(self, tmp_path, data_csv, small_cfg):
        # 360 windows: three chunks, the first two spanning wells
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        written = []
        for threads in ("1", "2", "4"):
            pred_dir = tmp_path / f"t{threads}"
            assert main(["predict", str(out_dir / "model.fnet"), str(data_csv),
                         "--out", str(pred_dir), "--threads", threads]) == 0
            written.append((pred_dir / "predictions.csv").read_bytes())
        assert written[0] == written[1] == written[2]

    def test_blind_wells_select_subset(self, tmp_path, data_csv, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg,
                               extra=["--blind-wells", "SYNTH032"])
        pred_dir = tmp_path / "pred"
        code = main(["predict", str(out_dir / "model.fnet"), str(data_csv),
                     "--blind-wells", "SYNTH032", "--out", str(pred_dir)])
        assert code == 0
        with open(pred_dir / "predictions.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 120
        assert {row[0] for row in rows[1:]} == {"SYNTH032"}

    def test_predictions_csv_bytes_match_csv_writer(self, tmp_path, small_cfg):
        # well names csv must quote, or must leave alone; the rows are f-strings
        names = ["A,B", 'say "hi"', "plain"]
        data = tmp_path / "named.csv"
        write_csv([dataclasses.replace(w, name=name) for w, name in
                   zip(generate_wells(SynthConfig(n_samples=120, seed=30), 3), names)], data)
        _, out_dir = run_train(tmp_path, data, small_cfg)
        assert main(["predict", str(out_dir / "model.fnet"), str(data),
                     "--out", str(tmp_path / "pred")]) == 0
        series = predict_wells(Checkpoint.load(out_dir / "model.fnet"), parse_csv(data))

        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["well", "depth", "facies"]
                            + [f"p{f}" for f in range(1, 10)] + ["confidence", "band"])
            for s in series:
                for depth, facies, probs, confidence, band in zip(
                        s.depth.tolist(), s.facies.tolist(), s.probs.tolist(),
                        s.confidence.tolist(), s.bands):
                    writer.writerow([s.well_name, repr(depth), facies]
                                    + [repr(p) for p in probs] + [repr(confidence), band])
        assert [s.well_name for s in series] == names
        assert ((tmp_path / "pred" / "predictions.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    def test_unknown_blind_well_exit_2(self, tmp_path, data_csv, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        code = main(["predict", str(out_dir / "model.fnet"), str(data_csv),
                     "--blind-wells", "NOPE", "--out", str(tmp_path / "p")])
        assert code == 2

    def test_corrupt_checkpoint_exit_3(self, tmp_path, data_csv, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        ckpt = out_dir / "model.fnet"
        ckpt.write_bytes(b"#nope" + ckpt.read_bytes()[5:])
        assert main(["predict", str(ckpt), str(data_csv)]) == 3

    def test_missing_checkpoint_exit_2(self, tmp_path, data_csv):
        assert main(["predict", str(tmp_path / "no.fnet"), str(data_csv)]) == 2

    def test_reloaded_checkpoint_reproduces_predictions(self, tmp_path, data_csv,
                                                        small_cfg):
        from faciesnet.evaluation import predict_with_confidence
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        model = Checkpoint.load(out_dir / "model.fnet")
        wells = parse_csv(data_csv)
        a = predict_with_confidence(model, wells[0])
        b = predict_with_confidence(Checkpoint.load(out_dir / "model.fnet"),
                                    wells[0])
        assert np.array_equal(a.probs, b.probs)

    # the spec's edges, each on the default model: every checkpoint train
    # writes with exit 0 loads and predicts
    @pytest.mark.parametrize("model", [
        "stem_kernel = 0",  # stage 0 reads the input copy
        "fc_sizes =",  # the flattened features feed `out`
        "stages = 1",
        "stem_kernel = 0\nfc_sizes =\nstages = 1",
    ], ids=["no-stem", "no-fc", "one-stage", "all-three"])
    def test_edge_spec_trains_then_predicts(self, tmp_path, model):
        cfg, data = tmp_path / "edge.cfg", tmp_path / "one-well.csv"
        cfg.write_text(f"[model]\n{model}\n\n[training]\nepochs = 1\n\n"
                       f"[synth]\nn_samples = 150\n")
        assert main(["synth", str(data), "--config", str(cfg)]) == 0
        assert main(["train", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["predict", str(tmp_path / "run" / "model.fnet"), str(data),
                     "--config", str(cfg), "--out", str(tmp_path / "pred")]) == 0
        with open(tmp_path / "pred" / "predictions.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 150


class TestEvaluateCommand:
    def test_writes_reports_and_prints_metrics(self, tmp_path, data_csv,
                                               small_cfg, capsys):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        eval_dir = tmp_path / "eval"
        code = main(["evaluate", str(out_dir / "model.fnet"), str(data_csv),
                     "--out", str(eval_dir)])
        assert code == 0
        for name in ("facies_column.csv", "confusion.csv",
                     "facies_counts.csv", "metrics.json"):
            assert (eval_dir / name).exists()
        stdout = capsys.readouterr().out
        assert "macro-F1" in stdout
        assert "weighted-F1" in stdout
        assert "adjacent accuracy" in stdout
        with open(eval_dir / "metrics.json") as fh:
            metrics = json.load(fh)
        assert metrics["adjacent_accuracy"] >= metrics["accuracy"]

    def test_threads_do_not_change_outputs(self, tmp_path, data_csv, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        written = []
        for threads in ("1", "2", "4"):
            eval_dir = tmp_path / f"t{threads}"
            assert main(["evaluate", str(out_dir / "model.fnet"), str(data_csv),
                         "--out", str(eval_dir), "--threads", threads]) == 0
            written.append({name: (eval_dir / name).read_bytes()
                            for name in ("facies_column.csv", "confusion.csv",
                                         "facies_counts.csv", "metrics.json")})
        assert written[0] == written[1] == written[2]

    def test_unlabeled_well_exit_4(self, tmp_path, data_csv, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        wells = generate_wells(SynthConfig(n_samples=60, seed=32), 1)
        wells[0].labels = None
        path = tmp_path / "unlabeled.csv"
        write_csv(wells, path)
        assert main(["evaluate", str(out_dir / "model.fnet"), str(path)]) == 4

    def test_blind_wells_scored_alone(self, tmp_path, data_csv, small_cfg,
                                      capsys):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg,
                               extra=["--blind-wells", "SYNTH032"])
        code = main(["evaluate", str(out_dir / "model.fnet"), str(data_csv),
                     "--blind-wells", "SYNTH032",
                     "--out", str(tmp_path / "ev")])
        assert code == 0
        assert "120 samples over 1 wells" in capsys.readouterr().out

    def test_malformed_adjacency_exit_2(self, tmp_path, data_csv, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        adj = tmp_path / "adj.txt"
        adj.write_text("WS plus MS\n")
        assert main(["evaluate", str(out_dir / "model.fnet"), str(data_csv),
                     "--adjacency", str(adj)]) == 2

    def test_adjacency_file_honored(self, tmp_path, data_csv, small_cfg, capsys):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        adj = tmp_path / "adj.txt"
        lines = []
        for f in range(1, 10):
            neighbours = ", ".join(str(g) for g in range(1, 10) if g != f)
            lines.append(f"{f}: {neighbours}")
        adj.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", str(out_dir / "model.fnet"), str(data_csv),
                     "--adjacency", str(adj), "--out", str(tmp_path / "eval")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "adjacent accuracy 1.0000" in stdout


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        stdout = capsys.readouterr().out
        assert "gradient check passed" in stdout
        assert "worst:" in stdout

    def test_corrupted_conv_backward_fails(self, capsys, monkeypatch):
        true_backward = ops.conv1d_backward

        def broken(grad, x, kernels, **kwargs):
            d_x, d_k, d_b = true_backward(grad, x, kernels, **kwargs)
            return d_x, d_k * 1.01, d_b

        monkeypatch.setattr(ops, "conv1d_backward", broken)
        assert main(["gradcheck"]) == 1
        assert "FAILED" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_parseable_csv(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("[synth]\nn_samples = 80\nwells = 2\nseed = 5\n")
        assert main(["synth", str(out), "--config", str(cfg)]) == 0
        wells = parse_csv(out)
        assert len(wells) == 2
        assert all(len(w.depth) == 80 for w in wells)
        assert "160 samples" in capsys.readouterr().out

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", str(a), "--seed", "3"])
        main(["synth", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", str(a), "--seed", "3"])
        main(["synth", str(b), "--seed", "4"])
        assert a.read_bytes() != b.read_bytes()


class TestExitCodeMapping:
    def test_threads_below_one_rejected(self, data_csv, tmp_path, small_cfg):
        _, out_dir = run_train(tmp_path, data_csv, small_cfg)
        assert main(["predict", str(out_dir / "model.fnet"), str(data_csv),
                     "--threads", "0"]) == 2

    def test_unknown_command_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


# ---------------------------------------------------------------------------
# hostile inputs: every malformed file or diverging run ends in its exit
# code, says where on stderr, and never escapes main as a traceback

def _manifest_line(prefix, line):
    def edit(raw):
        head, marker, blob = raw.partition(b"\n[blob]\n")
        lines = [line if old.startswith(prefix) else old for old in head.split(b"\n")]
        return b"\n".join(lines) + marker + blob
    return edit


def _insert_after(prefix, line):
    """Checkpoint edit: `line` as a new manifest line after the one starting with prefix."""
    def edit(raw):
        head, marker, blob = raw.partition(b"\n[blob]\n")
        lines = []
        for old in head.split(b"\n"):
            lines += [old, line] if old.startswith(prefix) else [old]
        return b"\n".join(lines) + marker + blob
    return edit


def _first_row_cell(column, value):
    def edit(raw):
        lines = raw.split(b"\n")
        cells = lines[1].split(b",")
        cells[column] = value
        lines[1] = b",".join(cells)
        return b"\n".join(lines)
    return edit


def _append_column(name, value):
    """CSV edit: one more header column `name`, holding `value` in every row."""
    def edit(raw):
        head, *rows = raw.split(b"\r\n")
        return b"\r\n".join([head + b"," + name]
                             + [row + b"," + value for row in rows if row]) + b"\r\n"
    return edit


def _repeat_first_row(raw):
    lines = raw.split(b"\n")
    return b"\n".join(lines[:2] + lines[1:])


def _scale_params(factor):
    def edit(raw):
        head, marker, blob = raw.partition(b"\n[blob]\n")
        scaled = np.frombuffer(blob, dtype="<f4") * np.float32(factor)
        return head + marker + scaled.astype("<f4").tobytes()
    return edit


def _resize_model(key, value, resized):
    """Checkpoint edit: a consistent model with `key = value`, each param in
    `resized` ({name: axis}) resized to value along that axis, the blob to
    match."""
    def edit(raw):
        head, marker, blob = raw.partition(b"\n[blob]\n")
        lines, chunks, offset = [], [], 0
        for line in head.decode().split("\n"):
            if line.startswith(f"{key} = "):
                line = f"{key} = {value}"
            elif line.startswith("param "):
                _, name, *dims = line.split()
                shape = [int(d) for d in dims]
                n = int(np.prod(shape))
                values = np.frombuffer(blob, dtype="<f4", count=n, offset=offset)
                offset += 4 * n
                if name in resized:
                    shape[resized[name]] = value
                    line = f"param {name} {' '.join(map(str, shape))}"
                chunks.append(np.resize(values, int(np.prod(shape))).tobytes())
            lines.append(line)
        return "\n".join(lines).encode() + marker + b"".join(chunks)
    return edit


def _set_key(section, key, value):
    """Config edit: `key = value` first in [section], in place of any line
    already setting key there."""
    def edit(raw):
        text = raw.decode()
        if f"[{section}]\n" not in text:
            text += f"\n[{section}]\n"
        head, header, body = text.partition(f"[{section}]\n")
        body = re.sub(rf"(?m)^{key} = .*\n", "", body, count=1)
        return (head + header + f"{key} = {value}\n" + body).encode()
    return edit


NOT_UTF8 = b"# \xff\n"
DIRECTORY, ABSENT = "directory", "absent"  # the file becomes a directory, or is not there
EVALUATE = ("evaluate",)
PREDICT = ("predict",)
TRAIN = ("train",)
SYNTH = ("synth",)
ALL_BLIND = ("train", "--blind-wells", "SYNTH040,SYNTH041", "--allow-missing-pe")

# (input, command, file replaced, how, exit code, text stderr must hold);
# "{bad}" in the text stands for the replaced file
FILE_ROWS = [
    ("ckpt-seed", "checkpoint", _manifest_line(b"seed = ", b"seed = x"), 3),
    ("ckpt-param-dim", "checkpoint",
     _manifest_line(b"param stem.bias ", b"param stem.bias four"), 3),
    ("ckpt-std-one-float", "checkpoint", _manifest_line(b"std.GR = ", b"std.GR = 1.0"), 3),
    ("ckpt-std-zero", "checkpoint", _manifest_line(b"std.GR = ", b"std.GR = 0.0 0.0"), 3),
    ("ckpt-mean-nan", "checkpoint", _manifest_line(b"std.GR = ", b"std.GR = nan 1.0"), 3),
    ("ckpt-not-utf8", "checkpoint", _manifest_line(b"seed = ", b"seed = 1\xff"), 3),
    ("ckpt-nan-param", "checkpoint",
     lambda raw: raw[:-4] + np.float32(np.nan).tobytes(), 3),
    ("csv-short-row", "data", lambda raw: raw + b"3,A\n", 3),
    ("csv-facies-inf", "data", _first_row_cell(0, b"inf"), 3),
    ("csv-facies-fraction", "data", _first_row_cell(0, b"1.5"), 3),
    ("csv-log-inf", "data", _first_row_cell(4, b"inf"), 3),
    ("csv-log-minus-inf", "data", _first_row_cell(4, b"-inf"), 3),
    ("csv-not-utf8", "data", _first_row_cell(1, b"\xff"), 3),
    ("csv-header-only", "data", lambda raw: raw.split(b"\n")[0] + b"\n", 3),
    ("config-not-utf8", "config", lambda raw: raw + NOT_UTF8, 2),
    ("config-bad-interpolation", "config", lambda raw: raw + b"[data]\nadjacency = a%b\n", 2),
    ("adjacency-not-utf8", "adjacency", lambda raw: raw + NOT_UTF8, 2),
    ("data-dir", "data", DIRECTORY, 2),
    ("config-dir", "config", DIRECTORY, 2),
    ("adjacency-dir", "adjacency", DIRECTORY, 2),
    ("checkpoint-dir", "checkpoint", DIRECTORY, 2),
    ("config-missing", "config", ABSENT, 2),
    ("data-missing", "data", ABSENT, 2),
    ("adjacency-missing", "adjacency", ABSENT, 2),
]
HOSTILE = [(name, EVALUATE, target, how, code, ("{bad}",))
           for name, target, how, code in FILE_ROWS] + [
    ("csv-facies-12", EVALUATE, "data", _first_row_cell(0, b"12"), 3, ("{bad}", "row 2")),
    ("csv-depth-repeated", EVALUATE, "data", _repeat_first_row, 3,
     ("{bad}", "rows 2 and 3")),
    ("csv-well-name-blank", TRAIN, "data", _first_row_cell(2, b" "), 3,
     ("{bad}: row 2: missing Well Name",)),
    # a decimal comma once split a GR cell in two and shifted every later log
    ("csv-long-row", PREDICT, "data", _first_row_cell(4, b"1,5"), 3,
     ("{bad}: row 2: 12 cells for 11 header columns",)),
    # a cell past the csv module's field size limit once ended in a traceback
    ("csv-cell-too-large", EVALUATE, "data", _first_row_cell(1, b"x" * 200000), 3,
     ("{bad}", "row 2")),
    # the repeated column was once read from its last copy, with exit 0
    ("csv-column-repeated", TRAIN, "data", _append_column(b"GR", b"1.0"), 3,
     ("{bad}: column 'GR' appears 2 times in the header",)),
    ("csv-column-repeated-predict", PREDICT, "data", _append_column(b"GR", b"1.0"), 3,
     ("{bad}: column 'GR' appears 2 times in the header",)),
    ("train-diverges", TRAIN, "config", lambda raw: raw + b"learning_rate = 1e6\n", 3,
     ("numeric failure", "epoch 1, batch ")),
    ("all-blind-missing-pe", ALL_BLIND, None, None, 2,
     ("configuration error: no training wells",)),
    ("all-validation-missing-pe", TRAIN + ("--allow-missing-pe",), "config",
     _set_key("training", "validation_wells", "SYNTH040,SYNTH041"), 2,
     ("configuration error: no training wells",)),
    ("train-window-too-short", TRAIN, "config",
     lambda raw: raw.replace(b"window = 9", b"window = 1"), 2,
     ("configuration error", "window")),
    ("train-seed-flag-negative", TRAIN + ("--seed", "-3"), None, None, 2,
     ("configuration error", "seed")),
    ("synth-seed-flag-negative", SYNTH + ("--seed", "-1"), None, None, 2,
     ("configuration error", "seed")),
    # a log value float32 cannot hold, as ROADMAP item 6 reproduced it: train
    # once fitted an infinite std from it, predict printed numpy warnings
    ("csv-log-1e300-train", TRAIN, "data", _first_row_cell(4, b"1e300"), 3,
     ("{bad}", "row 2", "SYNTH040", "GR value '1e300' is outside the float32 range")),
    ("csv-log-1e300-predict", PREDICT, "data", _first_row_cell(4, b"1e300"), 3,
     ("{bad}", "row 2", "SYNTH040", "GR value '1e300' is outside the float32 range")),
    # a tiny checkpoint std scales ordinary logs past float32
    ("ckpt-std-tiny", PREDICT, "checkpoint",
     _manifest_line(b"std.GR = ", b"std.GR = 0.0 1e-300"), 3,
     ("malformed input", "well SYNTH040: GR at depth", "outside the float32 range")),
    # a manifest line that saving the loaded model would not write; each once
    # loaded with exit 0 (a repeated key read from its last line, an unknown
    # line skipped, `09` read as 9)
    ("ckpt-key-repeated", PREDICT, "checkpoint",
     _insert_after(b"std.GR = ", b"std.GR = 1000.0 5.0"), 3, ("{bad}", "std.GR")),
    ("ckpt-window-repeated", PREDICT, "checkpoint",
     _insert_after(b"window = ", b"window = 9"), 3, ("{bad}", "window")),
    ("ckpt-unknown-line", PREDICT, "checkpoint",
     _insert_after(b"seed = ", b"comment = hello"), 3, ("{bad}", "comment")),
    ("ckpt-noncanonical", PREDICT, "checkpoint", _manifest_line(b"window = ", b"window = 09"),
     3, ("{bad}: manifest 'window' must be 9, got 09",)),
    # a size line that is no canonical integer is malformed, not a model
    # for other data
    ("ckpt-classes-noncanonical", PREDICT, "checkpoint",
     _manifest_line(b"n_classes = ", b"n_classes = 09"), 3,
     ("malformed input: {bad}: manifest 'n_classes' must be 9, got 09",)),
    ("ckpt-channels-not-integer", PREDICT, "checkpoint",
     _manifest_line(b"in_channels = ", b"in_channels = x"), 3,
     ("malformed input: {bad}: manifest 'in_channels' must be 7, got x",)),
    # a gap in a log nothing imputes, named by its channel and depth
    ("csv-log-gap", PREDICT, "data", _first_row_cell(4, b""), 3,
     ("well SYNTH040: GR at depth",)),
    ("ckpt-overflows", PREDICT, "checkpoint", _scale_params(1e18), 3,
     ("numeric failure", "SYNTH040")),
    ("ckpt-overflows-evaluate", EVALUATE, "checkpoint", _scale_params(1e18), 3,
     ("numeric failure", "SYNTH040")),
    # each worker holds a workspace; the cap is checked before any file is read
    ("threads-above-cap", PREDICT + ("--threads", str(MAX_THREADS + 1)), None, None, 2,
     (f"--threads must be <= {MAX_THREADS}",)),
    ("validation-well-unknown", TRAIN, "config",
     _set_key("training", "validation_wells", "NOPE"), 2,
     ("configuration error: validation_wells not in data: ['NOPE']",)),
    # a stage count past any window once built a tuple that long: an
    # OverflowError traceback here, 8 GB at 10**9
    ("config-stages-huge", TRAIN, "config",
     _set_key("model", "stages", "10000000000000000000"), 2,
     ("{bad}", "[model] stages = '10000000000000000000': must be <= 32")),
]
# a consistent checkpoint whose input or output size is not the data's
SIZE_ROWS = [
    ("ckpt-5-classes", "n_classes", 5, {"out.weights": 0, "out.bias": 0}, 9),
    ("ckpt-12-classes", "n_classes", 12, {"out.weights": 0, "out.bias": 0}, 9),
    ("ckpt-3-channels", "in_channels", 3, {"stem.kernels": 1}, 7),
]
HOSTILE += [(f"{name}-{command[0]}", command, "checkpoint", _resize_model(key, value, resized),
             3, (f"data/model mismatch: {{bad}}: manifest '{key}' must be {size}, got {value}",))
            for name, key, value, resized, size in SIZE_ROWS for command in (PREDICT, EVALUATE)]

# one value breaking one rule of a config dataclass, or the stages/wells
# count: the message names the file and the [section] key
RULE_ROWS = [
    ("model", "window", "8"), ("model", "stem_kernel", "-3"), ("model", "stem_kernel", "4"),
    ("model", "stem_channels", "0"), ("model", "stages", "0"), ("model", "branch_1x1", "0"),
    ("model", "reduce_small", "0"), ("model", "small_kernel", "-1"),
    ("model", "small_kernel", "4"), ("model", "small_kernel", "5"),
    ("model", "small_channels", "0"), ("model", "reduce_large", "0"),
    ("model", "large_kernel", "4"), ("model", "large_channels", "0"),
    ("model", "pool_proj", "0"), ("model", "fc_sizes", "8,0"), ("model", "dropout", "1.0"),
    ("training", "batch_size", "0"), ("training", "learning_rate", "0"),
    ("training", "momentum", "1.0"), ("training", "epochs", "0"), ("training", "seed", "-1"),
    ("training", "patience", "-1"), ("training", "lr_decay_every", "-1"),
    ("training", "lr_decay_factor", "0"), ("training", "lr_decay_factor", "1.5"),
    ("training", "validation_wells", "SYNTH040,SYNTH040"),
    ("synth", "n_samples", "0"), ("synth", "p_stay", "1.0"), ("synth", "sigma", "-0.5"),
    ("synth", "seed", "-1"), ("synth", "wells", "0"),
    # a size past its cap once ended in a numpy memory error traceback (exit 1)
    ("synth", "n_samples", "1000000000000000"), ("model", "window", "1000000001"),
    ("model", "fc_sizes", "1000000000"), ("model", "stem_channels", "100000000"),
    ("synth", "wells", "1000"),
    # within the parameter cap, but 64 x 100000 x 31 floats per stem activation
    ("model", "stem_channels", "100000"),
]
HOSTILE += [(f"{section}-{key}={value}", SYNTH if section == "synth" else TRAIN,
             "config", _set_key(section, key, value), 2, ("{bad}", f"[{section}] {key}"))
            for section, key, value in RULE_ROWS]


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    """A valid checkpoint, labeled CSV, config and adjacency file for evaluate."""
    tmp = tmp_path_factory.mktemp("good")
    wells = generate_wells(SynthConfig(n_samples=60, seed=40), 2)
    write_csv(wells, tmp / "wells.csv")
    (tmp / "small.cfg").write_text(SMALL_MODEL_CFG)
    assert main(["train", str(tmp / "wells.csv"), "--config", str(tmp / "small.cfg"),
                 "--out", str(tmp / "run")]) == 0
    (tmp / "adj.txt").write_text("".join(
        f"{f}: {', '.join(str(g) for g in sorted(n))}\n"
        for f, n in default_adjacency().items()))
    return {"checkpoint": tmp / "run" / "model.fnet", "data": tmp / "wells.csv",
            "config": tmp / "small.cfg", "adjacency": tmp / "adj.txt"}


def _file_args(sub, paths, out):
    """The arguments of train, predict or evaluate that name files."""
    inputs = [paths["data"]] if sub == "train" else [paths["checkpoint"], paths["data"]]
    return [*inputs, "--config", paths["config"], "--adjacency", paths["adjacency"],
            "--out", out]


@pytest.mark.parametrize("command, target, how, code, expected",
                         [row[1:] for row in HOSTILE], ids=[row[0] for row in HOSTILE])
def test_hostile_input_exits_cleanly(good_inputs, tmp_path, capsys, command, target, how,
                                     code, expected):
    paths = dict(good_inputs)
    bad = None
    if target is not None:
        bad = paths[target] = tmp_path / f"bad-{good_inputs[target].name}"
        if how == DIRECTORY:
            bad.mkdir()
        elif how != ABSENT:
            bad.write_bytes(how(good_inputs[target].read_bytes()))
    sub, *flags = command
    if sub == "synth":
        args = [tmp_path / "synth.csv", "--config", paths["config"]]
    else:
        args = _file_args(sub, paths, tmp_path / "out")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([sub, *map(str, args), *flags]) == code
    err = capsys.readouterr().err
    for text in expected:
        assert text.format(bad=bad) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "predictions.csv").exists()
    # the error message is the one report: no numpy warning on the side
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("sub, target", [("train", "data"), ("evaluate", "data"),
                                         ("train", "config"), ("evaluate", "adjacency")])
def test_byte_order_mark_reads_as_the_plain_file(good_inputs, tmp_path, sub, target):
    # a UTF-8 byte order mark, as some editors save one, once hid the first
    # column, the first section header or the first facies code
    marked = dict(good_inputs)
    marked[target] = tmp_path / f"bom-{good_inputs[target].name}"
    marked[target].write_bytes(b"\xef\xbb\xbf" + good_inputs[target].read_bytes())
    outputs = []
    for paths, out in ((good_inputs, tmp_path / "plain"), (marked, tmp_path / "bom")):
        assert main([sub, *map(str, _file_args(sub, paths, out))]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]
