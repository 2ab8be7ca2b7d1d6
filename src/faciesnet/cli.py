"""Command-line entry point: train, predict, evaluate, gradcheck, synth.

Configuration comes from an INI-style file (sections [data], [model],
[training], [synth]) with command-line flags taking precedence. Every
key is schema-checked and all problems are reported together. Exit
codes: 0 success, 1 check failure, 2 configuration error, 3 data or
model mismatch or numeric failure, 4 missing labels.
"""

import argparse
import configparser
import csv
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import network
from .errors import (ConfigError, DataFormatError, MissingLabelsError,
                     NumericError, ShapeError)
from .evaluation import (evaluate, export_plot_data, predict_with_confidence,
                         write_metrics_json)
from .network import Checkpoint, InceptionSpec, ModelSpec
from .synth import SynthConfig, generate_wells
from .training import TrainConfig, train
from .welldata import (FaciesTable, fit_standardizer, impute_pe,
                       load_adjacency, parse_csv, split_by_well, write_csv)

GRADCHECK_SEEDS = range(5)
GRADCHECK_TOLERANCE = 1e-4
SYNTH_WELLS = 1  # wells `synth` writes when [synth] wells is not set


# ---------------------------------------------------------------------------
# config file schema

def _int(s):
    return int(s)


def _positive_int(s):
    v = int(s)
    if v < 1:
        raise ValueError("must be >= 1")
    return v


def _nonneg_int(s):
    v = int(s)
    if v < 0:
        raise ValueError("must be >= 0")
    return v


def _odd_int(s):
    v = int(s)
    if v < 1 or v % 2 == 0:
        raise ValueError("must be odd and >= 1")
    return v


def _kernel(s):
    # 0 disables the stem; anything else must be odd
    v = int(s)
    if v < 0 or (v and v % 2 == 0):
        raise ValueError("must be 0 or an odd length")
    return v


def _positive_float(s):
    v = float(s)
    if v <= 0:
        raise ValueError("must be > 0")
    return v


def _nonneg_float(s):
    v = float(s)
    if v < 0:
        raise ValueError("must be >= 0")
    return v


def _rate(s):
    v = float(s)
    if not 0.0 <= v < 1.0:
        raise ValueError("must be in [0, 1)")
    return v


def _decay_factor(s):
    v = float(s)
    if not 0.0 < v <= 1.0:
        raise ValueError("must be in (0, 1]")
    return v


def _boolean(s):
    lowered = s.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError("must be true or false")


def _names(s):
    return tuple(t.strip() for t in s.split(",") if t.strip())


def _int_list(s):
    return tuple(_positive_int(t) for t in s.split(",") if t.strip())


def _text(s):
    return s.strip()


SCHEMA = {
    "data": {
        "path": _text,
        "blind_wells": _names,
        "allow_missing_pe": _boolean,
        "adjacency": _text,
    },
    "model": {
        "window": _odd_int,
        "stem_kernel": _kernel,
        "stem_channels": _positive_int,
        "stages": _positive_int,
        "branch_1x1": _positive_int,
        "reduce_small": _positive_int,
        "small_kernel": _odd_int,
        "small_channels": _positive_int,
        "reduce_large": _positive_int,
        "large_kernel": _odd_int,
        "large_channels": _positive_int,
        "pool_proj": _positive_int,
        "fc_sizes": _int_list,
        "dropout": _rate,
    },
    "training": {
        "batch_size": _positive_int,
        "learning_rate": _positive_float,
        "momentum": _rate,
        "epochs": _positive_int,
        "seed": _int,
        "use_class_weights": _boolean,
        "validation_wells": _names,
        "patience": _nonneg_int,
        "lr_decay_every": _nonneg_int,
        "lr_decay_factor": _decay_factor,
    },
    "synth": {
        "n_samples": _positive_int,
        "p_stay": _rate,
        "sigma": _nonneg_float,
        "seed": _int,
        "wells": _positive_int,
    },
}


def read_config_file(path) -> dict:
    """Parse and schema-check a config file; every problem is reported.

    Returns {section: {key: typed value}} for the keys present.
    """
    parser = configparser.ConfigParser(strict=True)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path}: not UTF-8 text")
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}")

    values, errors = {}, []
    for section in parser.sections():
        if section not in SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        values[section] = {}
        for key, raw in parser[section].items():
            caster = SCHEMA[section].get(key)
            if caster is None:
                errors.append(f"unknown key {key!r} in [{section}]")
                continue
            try:
                values[section][key] = caster(raw)
            except ValueError as exc:
                reason = str(exc) if str(exc).startswith("must") else "not parseable"
                errors.append(f"bad value for {key!r} in [{section}]: "
                              f"{raw!r} ({reason})")
    if errors:
        raise ConfigError("config file " + str(path) + ":\n  "
                          + "\n  ".join(errors))
    return values


def _section(cfg: dict, name: str) -> dict:
    return cfg.get(name, {})


def build_model_spec(cfg: dict) -> ModelSpec:
    """ModelSpec from the [model] keys present; the dataclasses supply the rest.

    The inception keys describe one stage, repeated `stages` times.
    """
    m = dict(_section(cfg, "model"))
    stage = InceptionSpec(**{f.name: m.pop(f.name) for f in fields(InceptionSpec)
                             if f.name in m})
    n_stages = m.pop("stages", len(ModelSpec().stages))
    return ModelSpec(stages=(stage,) * n_stages, **m)


def build_train_config(cfg: dict, seed_override=None) -> TrainConfig:
    """TrainConfig from the [training] keys present; --seed wins over the file."""
    t = dict(_section(cfg, "training"))
    if seed_override is not None:
        t["seed"] = seed_override
    return TrainConfig(**t)


def build_synth_config(cfg: dict, seed_override=None) -> tuple[SynthConfig, int]:
    """SynthConfig from the [synth] keys present, plus the number of wells."""
    s = dict(_section(cfg, "synth"))
    n_wells = s.pop("wells", SYNTH_WELLS)
    if seed_override is not None:
        s["seed"] = seed_override
    return SynthConfig(**s), n_wells


# ---------------------------------------------------------------------------
# shared plumbing

def _load_wells(args, cfg):
    data_path = args.data or _section(cfg, "data").get("path")
    if not data_path:
        raise ConfigError("no data file given (positional argument or "
                          "[data] path in the config file)")
    allow_pe = args.allow_missing_pe or _section(cfg, "data").get(
        "allow_missing_pe", False)
    return parse_csv(data_path, allow_missing_pe=allow_pe), allow_pe


def _blind_names(args, cfg):
    if args.blind_wells:
        return _names(args.blind_wells)
    return _section(cfg, "data").get("blind_wells", ())


def _adjacency_table(args, cfg) -> FaciesTable:
    path = args.adjacency or _section(cfg, "data").get("adjacency")
    if not path:
        return FaciesTable()
    try:
        return load_adjacency(path)
    except DataFormatError as exc:
        # a broken adjacency file is a configuration problem, not a
        # data/model mismatch
        raise ConfigError(str(exc))


def _load_model_and_wells(args, cfg):
    """The checkpoint and the wells predict/evaluate score: only the blind
    wells when any are named, PE gaps filled with the training mean."""
    model = Checkpoint.load(args.checkpoint)
    wells, allow_pe = _load_wells(args, cfg)
    blind = _blind_names(args, cfg)
    if blind:
        _, wells = split_by_well(wells, list(blind))
    if allow_pe:
        wells = impute_pe(wells, model.standardizer.mean["PE"])
    return model, wells


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(title: str, pairs: list) -> None:
    print(title)
    for key, value in pairs:
        print(f"  {key} = {value}")


def _predict_wells(model, wells, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda w: predict_with_confidence(model, w),
                                 wells))
    return [predict_with_confidence(model, w) for w in wells]


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    cfg = read_config_file(args.config) if args.config else {}
    spec = build_model_spec(cfg)
    train_config = build_train_config(cfg, seed_override=args.seed)
    wells, allow_pe = _load_wells(args, cfg)

    unlabeled = [w.name for w in wells if w.labels is None]
    if unlabeled:
        raise MissingLabelsError(f"training data has unlabeled wells: "
                                 f"{sorted(unlabeled)}")
    blind = _blind_names(args, cfg)
    if blind:
        wells, _ = split_by_well(wells, list(blind))
    if allow_pe and wells:
        # the mean of the recorded PE values (gaps excluded); with no
        # wells left, train reports that
        wells = impute_pe(wells, fit_standardizer(wells).mean["PE"])

    checkpoint, report = train(train_config, wells, spec=spec)
    out = _out_dir(args)
    checkpoint.save(out / "model.fnet")
    report.to_csv(out / "report.csv")
    report.to_json(out / "report.json", spec)

    _echo_config("resolved training configuration:",
                 sorted(asdict(train_config).items()))
    print(f"trained {len(report.rows)} epochs on {len(wells)} wells "
          f"(best epoch {report.best_epoch}, seed {train_config.seed})")
    print(f"wrote {out / 'model.fnet'}, {out / 'report.csv'}, "
          f"{out / 'report.json'}")
    return 0


def cmd_predict(args) -> int:
    cfg = read_config_file(args.config) if args.config else {}
    model, wells = _load_model_and_wells(args, cfg)
    series = _predict_wells(model, wells, args.threads)
    out = _out_dir(args)
    path = out / "predictions.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["well", "depth", "facies"]
                        + [f"p{f}" for f in range(1, 10)]
                        + ["confidence", "band"])
        for s in series:
            for i in range(len(s)):
                writer.writerow([s.well_name, repr(float(s.depth[i])),
                                 int(s.facies[i])]
                                + [repr(float(p)) for p in s.probs[i]]
                                + [repr(float(s.confidence[i])), s.bands[i]])
    total = sum(len(s) for s in series)
    print(f"wrote {total} predictions for {len(series)} wells to {path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = read_config_file(args.config) if args.config else {}
    table = _adjacency_table(args, cfg)
    model, wells = _load_model_and_wells(args, cfg)
    unlabeled = [w.name for w in wells if w.labels is None]
    if unlabeled:
        raise MissingLabelsError(f"evaluation needs labels; missing in: "
                                 f"{sorted(unlabeled)}")

    series = _predict_wells(model, wells, args.threads)
    true = np.concatenate([w.labels for w in wells])
    pred = np.concatenate([s.facies for s in series])
    report = evaluate(true, pred, table)

    out = _out_dir(args)
    export_plot_data(report, series, out)
    write_metrics_json(report, out / "metrics.json")
    print(f"evaluated {report.n_samples} samples over {len(wells)} wells")
    print(f"  macro-F1          {report.prf.macro_f1:.4f}")
    print(f"  weighted-F1       {report.prf.weighted_f1:.4f}")
    print(f"  accuracy          {report.accuracy:.4f}")
    print(f"  adjacent accuracy {report.adjacent_accuracy:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    worst_err, worst_param, failed = 0.0, "", False
    for seed in GRADCHECK_SEEDS:
        err, param = network.gradient_check(seed=seed)
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"seed {seed}: max relative error {err:.3e} at {param} [{status}]")
        if err >= GRADCHECK_TOLERANCE:
            failed = True
        if err > worst_err:
            worst_err, worst_param = err, param
    print(f"worst: {worst_err:.3e} at {worst_param} "
          f"(tolerance {GRADCHECK_TOLERANCE:.0e})")
    if failed:
        print("gradient check FAILED", file=sys.stderr)
        return 1
    print("gradient check passed")
    return 0


def cmd_synth(args) -> int:
    cfg = read_config_file(args.config) if args.config else {}
    synth_config, n_wells = build_synth_config(cfg, seed_override=args.seed)
    wells = generate_wells(synth_config, n_wells)
    write_csv(wells, args.out_csv)
    total = sum(len(w.depth) for w in wells)
    print(f"wrote {n_wells} wells ({total} samples) to {args.out_csv} "
          f"(seed {synth_config.seed})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faciesnet",
        description="facies classification from well logs with a "
                    "1-d inception network")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint_arg=False):
        if checkpoint_arg:
            p.add_argument("checkpoint", help="path to a .fnet checkpoint")
        p.add_argument("data", nargs="?", default=None,
                       help="well-log CSV (or [data] path in the config)")
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--blind-wells", default=None,
                       help="comma-separated well names: held out of "
                            "training, selected by predict/evaluate")
        p.add_argument("--adjacency", default=None,
                       help="adjacency map file (facies: neighbours lines)")
        p.add_argument("--allow-missing-pe", action="store_true",
                       help="impute missing PE values instead of failing")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for per-well prediction")

    p_train = sub.add_parser("train", help="train a model on labeled wells")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="predict facies with confidence")
    common(p_predict, checkpoint_arg=True)
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="score predictions against labels")
    common(p_eval, checkpoint_arg=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference check of every gradient")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate synthetic labeled wells")
    p_synth.add_argument("out_csv", help="output CSV path")
    p_synth.add_argument("--config", default=None, help="config file path")
    p_synth.add_argument("--seed", type=int, default=None,
                         help="override the configured seed")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MissingLabelsError as exc:
        print(f"missing labels: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # unreadable or missing file, a directory given as a file
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, ShapeError) as exc:
        print(f"data/model mismatch: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
