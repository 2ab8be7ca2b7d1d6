"""The acceptance gate: eight end-to-end criteria with stated tolerances.

Each test prints one `[criterion N] name: PASS/FAIL` line directly to
the terminal (bypassing capture) so the gate can be read off any run's
log. The contest-data criterion skips itself when no data file is
supplied.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from faciesnet import network, ops
from faciesnet.cli import main
from faciesnet.evaluation import (accuracy, adjacent_accuracy, confusion, evaluate,
                                  predict_with_confidence)
from faciesnet.network import (Checkpoint, InceptionSpec, ModelSpec,
                               inception_forward, init_params, model_forward)
from faciesnet.synth import SynthConfig, generate_wells
from faciesnet.training import TrainConfig, train, train_on_windows
from faciesnet.welldata import (FaciesTable, WindowSet, default_adjacency, fit_standardizer,
                                impute_pe, parse_csv, write_csv)

CONTEST_ENV = "FACIES_CONTEST_CSV"
CONTEST_FALLBACKS = ("data/facies_vectors.csv", "data/contest.csv")


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)
    return _announce


def verdict(announce, number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    announce(f"[criterion {number}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_gradient_correctness(announce):
    t0 = time.perf_counter()
    worst_err, worst_param = 0.0, ""
    for seed in range(5):
        err, param = network.gradient_check(seed=seed)
        if err > worst_err:
            worst_err, worst_param = err, param
    elapsed = time.perf_counter() - t0
    ok = worst_err < 1e-4 and elapsed < 30.0
    verdict(announce, 1, "gradient correctness", ok,
            f"worst {worst_err:.3e} at {worst_param or 'n/a'}, {elapsed:.1f}s")


def test_criterion_2_shapes_and_normalization(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    sums_ok = True
    for dtype in (np.float32, np.float64):
        for scale in (1.0, 30.0, 80.0):
            logits = (rng.standard_normal((64, 9)) * scale).astype(dtype)
            sums = ops.softmax(logits).sum(axis=1)
            sums_ok = sums_ok and bool(np.abs(sums - 1.0).max() <= 1e-6)

    ispec = InceptionSpec(3, 2, 3, 5, 2, 7, 4, 6)
    spec = ModelSpec(window=9, stem_kernel=0,
                     stages=(ispec,), fc_sizes=(4,), dropout=0.0)
    params = init_params(spec, seed=1)
    inception_ok = True
    for length in range(8, 65):
        x = rng.standard_normal((1, 7, length)).astype(np.float32)
        out, _ = inception_forward(params, x)
        expected_channels = ispec.out_channels
        inception_ok = inception_ok and out.shape == (1, expected_channels, length)
        assert expected_channels == 3 + 5 + 4 + 6

    pool_ok = True
    for length in range(2, 65, 2):
        out, _ = ops.pool1d(rng.standard_normal((1, 2, length)), 2, 2)
        pool_ok = pool_ok and out.shape[-1] == length // 2

    elapsed = time.perf_counter() - t0
    ok = sums_ok and inception_ok and pool_ok and elapsed < 10.0
    verdict(announce, 2, "shape/normalization suite", ok,
            f"softmax {sums_ok}, inception {inception_ok}, "
            f"pool {pool_ok}, {elapsed:.1f}s")


def _oracle(true, pred, adjacency):
    counts = [[0] * 9 for _ in range(9)]
    for t, p in zip(true, pred):
        counts[t - 1][p - 1] += 1
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
    acc = sum(1 for t, p in zip(true, pred) if t == p) / len(true)
    adj = sum(1 for t, p in zip(true, pred)
              if p == t or p in adjacency.get(t, set())) / len(true)
    return counts, precision, recall, f1, macro, weighted, acc, adj


def test_criterion_3_metrics_oracle(announce):
    adjacency = default_adjacency()
    table = FaciesTable(adjacency=adjacency)
    mismatches = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        n = int(rng.integers(1, 201))
        true = rng.integers(1, 10, size=n).tolist()
        pred = rng.integers(1, 10, size=n).tolist()
        report = evaluate(true, pred, table)
        (counts, precision, recall, f1,
         macro, weighted, acc, adj) = _oracle(true, pred, adjacency)
        exact = (report.cm.counts.tolist() == counts
                 and report.prf.precision == precision
                 and report.prf.recall == recall
                 and report.prf.f1 == f1
                 and report.prf.macro_f1 == macro
                 and report.prf.weighted_f1 == weighted
                 and report.accuracy == acc
                 and report.adjacent_accuracy == adj)
        mismatches += 0 if exact else 1

    cell = evaluate([1] * 14, [2] * 14, table)
    cell_ok = cell.cm.counts[0, 1] == 14
    ok = mismatches == 0 and cell_ok
    verdict(announce, 3, "metrics oracle", ok,
            f"{100 - mismatches}/100 sequences exact, "
            f"row 1 col 2 cell {'ok' if cell_ok else 'wrong'}")


def test_criterion_4_memorization(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    windows = rng.standard_normal((64, 7, 31)).astype(np.float32)
    labels = rng.integers(1, 10, size=64)
    config = TrainConfig(epochs=500)
    spec = ModelSpec()
    params, _ = train_on_windows(config, WindowSet(windows, labels), spec)
    logits, _ = model_forward(spec, params, windows)
    acc = float((logits.argmax(axis=1) + 1 == labels).mean())
    elapsed = time.perf_counter() - t0
    ok = acc >= 0.98 and elapsed < 60.0
    verdict(announce, 4, "memorization", ok,
            f"train accuracy {acc:.3f} after 500 epochs, {elapsed:.1f}s")


def test_criterion_5_synthetic_recovery(announce):
    t0 = time.perf_counter()
    scores = {}
    for sigma, bar in ((0.5, 0.90), (0.0, 0.99)):
        wells = generate_wells(
            SynthConfig(n_samples=2000, sigma=sigma, p_stay=0.95, seed=0), 9)
        checkpoint, _ = train(TrainConfig(epochs=20, seed=0), wells[:8])
        blind = wells[8]
        series = predict_with_confidence(checkpoint, blind)
        report = evaluate(blind.labels, series.facies)
        scores[sigma] = (report.prf.macro_f1, bar)
    elapsed = time.perf_counter() - t0
    ok = all(f1 >= bar for f1, bar in scores.values()) and elapsed < 300.0
    verdict(announce, 5, "synthetic recovery", ok,
            f"macro-F1 {scores[0.5][0]:.4f} at sigma 0.5 (need 0.90), "
            f"{scores[0.0][0]:.4f} at sigma 0 (need 0.99), {elapsed:.0f}s")


def test_criterion_6_adjacent_accuracy_invariant(announce):
    rng = np.random.default_rng(0)
    full = {f: set(range(1, 10)) - {f} for f in range(1, 10)}
    violations = 0
    checks = 0
    for trial in range(50):
        n = int(rng.integers(1, 300))
        true = rng.integers(1, 10, size=n)
        pred = rng.integers(1, 10, size=n)
        random_adj = {f: set() for f in range(1, 10)}
        for a in range(1, 10):
            for b in range(a + 1, 10):
                if rng.random() < 0.3:
                    random_adj[a].add(b)
                    random_adj[b].add(a)
        for adjacency in ({}, default_adjacency(), full, random_adj):
            table = FaciesTable(adjacency=adjacency)
            checks += 1
            if (adjacent_accuracy(confusion(true, pred), table)
                    < accuracy(confusion(true, pred))):
                violations += 1
    ok = violations == 0
    verdict(announce, 6, "adjacent accuracy invariant", ok,
            f"{checks} map/sequence combinations, {violations} violations")


def test_criterion_7_determinism(announce, tmp_path):
    wells = generate_wells(SynthConfig(n_samples=150, seed=40), 3)
    data = tmp_path / "wells.csv"
    write_csv(wells, data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[model]\nwindow = 9\nstem_kernel = 3\nstem_channels = 4\n"
        "stages = 1\nbranch_1x1 = 2\nreduce_small = 2\nsmall_kernel = 3\n"
        "small_channels = 2\nreduce_large = 2\nlarge_kernel = 5\n"
        "large_channels = 2\npool_proj = 2\nfc_sizes = 8\ndropout = 0.25\n"
        "[training]\nepochs = 3\nbatch_size = 32\nseed = 11\n")

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["train", str(data), "--config", str(cfg), "--out", str(out_a)])
    code_b = main(["train", str(data), "--config", str(cfg), "--out", str(out_b)])
    bytes_a = (out_a / "model.fnet").read_bytes()
    identical = bytes_a == (out_b / "model.fnet").read_bytes()

    model_a = Checkpoint.load(out_a / "model.fnet")
    model_b = Checkpoint.load(out_b / "model.fnet")
    first = predict_with_confidence(model_a, wells[0])
    second = predict_with_confidence(model_b, wells[0])
    reproduced = (np.array_equal(first.probs, second.probs)
                  and np.array_equal(first.facies, second.facies))
    ok = code_a == 0 and code_b == 0 and identical and reproduced
    verdict(announce, 7, "determinism", ok,
            f"checkpoints identical {identical}, "
            f"reloaded predictions exact {reproduced}")


def _contest_csv():
    candidates = []
    if os.environ.get(CONTEST_ENV):
        candidates.append(os.environ[CONTEST_ENV])
    root = Path(__file__).resolve().parent.parent
    candidates += [str(root / p) for p in CONTEST_FALLBACKS]
    for path in candidates:
        if Path(path).exists():
            return path
    return None


def test_criterion_8_contest_band(announce):
    path = _contest_csv()
    if path is None:
        announce(f"[criterion 8] contest band: SKIP (no contest CSV; set "
                 f"{CONTEST_ENV} or place data/facies_vectors.csv)")
        pytest.skip("contest data not supplied")

    t0 = time.perf_counter()
    wells = parse_csv(path, allow_missing_pe=True)
    names = sorted(w.name for w in wells)
    blind_names = names[-2:]
    macro_scores, weighted_scores = [], []
    confusion_sum = np.zeros((9, 9), dtype=np.int64)
    per_seed_ok = True
    for seed in range(5):
        seed_start = time.perf_counter()
        train_wells = [w for w in wells if w.name not in blind_names]
        blind = [w for w in wells if w.name in blind_names]
        all_wells = impute_pe(train_wells + blind, fit_standardizer(train_wells))
        train_wells, blind = all_wells[:len(train_wells)], all_wells[len(train_wells):]

        checkpoint, _ = train(TrainConfig(epochs=60, seed=seed), train_wells)
        true = np.concatenate([w.labels for w in blind])
        pred = np.concatenate([predict_with_confidence(checkpoint, w).facies
                               for w in blind])
        report = evaluate(true, pred)
        macro_scores.append(report.prf.macro_f1)
        weighted_scores.append(report.prf.weighted_f1)
        confusion_sum += report.cm.counts
        per_seed_ok = per_seed_ok and (time.perf_counter() - seed_start) < 900.0

    macro_avg = float(np.mean(macro_scores))
    weighted_avg = float(np.mean(weighted_scores))
    off_diag = confusion_sum.copy()
    np.fill_diagonal(off_diag, 0)
    pair_sums = off_diag + off_diag.T
    top_pair = np.unravel_index(np.argmax(np.triu(pair_sums, 1)), pair_sums.shape)
    dominant = tuple(sorted((top_pair[0] + 1, top_pair[1] + 1)))
    band_ok = 0.45 <= macro_avg <= 0.65 and 0.45 <= weighted_avg <= 0.65
    pair_ok = dominant == (2, 3)
    elapsed = time.perf_counter() - t0
    ok = band_ok and pair_ok and per_seed_ok
    verdict(announce, 8, "contest band", ok,
            f"macro avg {macro_avg:.3f}, weighted avg {weighted_avg:.3f}, "
            f"dominant confusion pair {dominant}, {elapsed:.0f}s")
