"""Command-line entry point: train, predict, evaluate, gradcheck, synth.

Configuration comes from an INI-style file (sections [data], [model],
[training], [synth]) with command-line flags taking precedence. A
[model], [training] or [synth] key sets the field of the same name on
ModelSpec or InceptionSpec, TrainConfig or SynthConfig: its value is
cast by the field's annotated type and the dataclass checks its range.
Only the keys that set no field ([data]'s four, [model] stages and
[synth] wells) are described here. All problems in a file are reported
together, each naming its [section] key. Exit codes: 0 success, 1 check
failure, 2 configuration error, 3 malformed input, data/model mismatch
or numeric failure, 4 missing labels.
"""

import argparse
import configparser
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import network
from .errors import (ConfigError, DataFormatError, MissingLabelsError,
                     NumericError, ShapeError)
# predict_with_confidence is not called here; perfbench's tracer test
# checks that its binding in this module is traced
from .evaluation import (evaluate, export_plot_data, predict_wells,
                         predict_with_confidence, write_metrics_json,
                         write_predictions)
from .network import MAX_STAGES, MAX_THREADS, Checkpoint, InceptionSpec, ModelSpec
from .synth import MAX_SAMPLES, SynthConfig, generate_wells
from .training import TrainConfig, train
from .welldata import (FaciesTable, fit_standardizer, impute_pe, load_adjacency,
                       parse_csv, split_by_well, write_csv)

GRADCHECK_SEEDS = range(5)
GRADCHECK_TOLERANCE = 1e-4
SYNTH_WELLS = 1  # wells `synth` writes when [synth] wells is not set


# ---------------------------------------------------------------------------
# config file

def _boolean(s):
    lowered = s.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError("must be true or false")


def _names(s):
    return tuple(t.strip() for t in s.split(",") if t.strip())


def _ints(s):
    return tuple(int(t) for t in s.split(",") if t.strip())


def _count(s):
    v = int(s)
    if v < 1:
        raise ValueError("must be >= 1")
    return v


def _stage_count(s):
    v = _count(s)
    if v > MAX_STAGES:  # before load_config builds a tuple that long
        raise ValueError(f"must be <= {MAX_STAGES}")
    return v


# a key's value is cast by the annotated type of the field it sets;
# the dataclass then checks its range
CASTS = {
    int: int,
    float: float,
    bool: _boolean,
    tuple[int, ...]: _ints,
    tuple[str, ...]: _names,
}


def _field_keys(cls, leave_out=()) -> dict:
    """{field name: cast} for the fields of cls a config file sets."""
    return {f.name: CASTS[f.type] for f in fields(cls) if f.name not in leave_out}


INCEPTION_KEYS = _field_keys(InceptionSpec)
MODEL_KEYS = _field_keys(ModelSpec, leave_out=("stages",))  # stages is set by count
TRAINING_KEYS = _field_keys(TrainConfig)
SYNTH_KEYS = _field_keys(SynthConfig)
SECTIONS = {
    # the keys that set no dataclass field are the only hand-written ones
    "data": {"path": str.strip, "blind_wells": _names,
             "allow_missing_pe": _boolean, "adjacency": str.strip},
    "model": {**MODEL_KEYS, **INCEPTION_KEYS, "stages": _stage_count},
    "training": TRAINING_KEYS,
    "synth": {**SYNTH_KEYS, "wells": _count},
}


@dataclass(frozen=True)
class Config:
    """What a config file resolves to."""

    data: dict          # the [data] keys present
    model: ModelSpec
    training: TrainConfig
    synth: SynthConfig
    synth_wells: int    # how many wells `synth` writes


def _read_values(path) -> tuple[dict, list]:
    """The typed values of a config file's keys, {section: {key: value}},
    and one message per unknown section or key and unparseable value."""
    parser = configparser.ConfigParser(strict=True)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
        # reading a value interpolates it, which can fail too
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path}: not UTF-8 text")
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}")

    values, errors = {}, []
    for section, pairs in sections.items():
        if section not in SECTIONS:
            errors.append(f"unknown section [{section}]")
            continue
        values[section] = {}
        for key, raw in pairs.items():
            cast = SECTIONS[section].get(key)
            if cast is None:
                errors.append(f"[{section}] unknown key {key!r}")
                continue
            try:
                values[section][key] = cast(raw)
            except ValueError as exc:
                reason = str(exc) if str(exc).startswith("must") else "not parseable"
                errors.append(f"[{section}] {key} = {raw!r}: {reason}")
    return values, errors


def load_config(path, seed=None) -> Config:
    """Every config object, built from the file at `path` (without one,
    from the dataclass defaults), with a --seed override applied.

    Unknown sections and keys, unparseable values and every rule the
    dataclasses reject are reported together, in one ConfigError naming
    the file and each [section] key.
    """
    values, errors = _read_values(path) if path else ({}, [])

    def build(cls, section, keys, **extra):
        given = {k: v for k, v in values.get(section, {}).items() if k in keys}
        try:
            return cls(**given, **extra)
        except ConfigError as exc:
            errors.extend(f"[{section}] {problem}" for problem in exc.problems)
            return cls()  # a stand-in, so the other sections are still checked

    n_stages = values.get("model", {}).get("stages", len(ModelSpec().stages))
    stage = build(InceptionSpec, "model", INCEPTION_KEYS)
    config = Config(
        data=values.get("data", {}),
        model=build(ModelSpec, "model", MODEL_KEYS, stages=(stage,) * n_stages),
        training=build(TrainConfig, "training", TRAINING_KEYS),
        synth=build(SynthConfig, "synth", SYNTH_KEYS),
        synth_wells=values.get("synth", {}).get("wells", SYNTH_WELLS))
    n_samples = config.synth.n_samples
    if config.synth_wells * n_samples > MAX_SAMPLES:
        errors.append(f"[synth] wells must be <= {MAX_SAMPLES // n_samples} for n_samples = "
                      f"{n_samples} (at most {MAX_SAMPLES} samples in all), "
                      f"got {config.synth_wells}")
    if errors:
        raise ConfigError(f"config file {path}:\n  " + "\n  ".join(errors))
    if seed is not None:
        config = replace(config, training=replace(config.training, seed=seed),
                         synth=replace(config.synth, seed=seed))
    return config


# ---------------------------------------------------------------------------
# shared plumbing

def _load_wells(args, cfg):
    data_path = args.data or cfg.data.get("path")
    if not data_path:
        raise ConfigError("no data file given (positional argument or "
                          "[data] path in the config file)")
    allow_pe = args.allow_missing_pe or cfg.data.get("allow_missing_pe", False)
    return parse_csv(data_path, allow_missing_pe=allow_pe), allow_pe


def _blind_names(args, cfg):
    if args.blind_wells:
        return _names(args.blind_wells)
    return cfg.data.get("blind_wells", ())


def _adjacency_table(args, cfg) -> FaciesTable:
    path = args.adjacency or cfg.data.get("adjacency")
    return load_adjacency(path) if path else FaciesTable()


def _load_model_and_wells(args, cfg):
    """The checkpoint and the wells predict/evaluate score: only the blind
    wells when any are named, PE gaps filled with the training mean."""
    model = Checkpoint.load(args.checkpoint)
    wells, allow_pe = _load_wells(args, cfg)
    blind = _blind_names(args, cfg)
    if blind:
        _, wells = split_by_well(wells, list(blind))
    if allow_pe:
        wells = impute_pe(wells, model.standardizer)
    return model, wells


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(title: str, pairs: list) -> None:
    print(title)
    for key, value in pairs:
        print(f"  {key} = {value}")


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    wells, allow_pe = _load_wells(args, cfg)
    blind = _blind_names(args, cfg)
    both = sorted(set(blind) & set(cfg.training.validation_wells))
    if both:
        where = "--blind-wells" if args.blind_wells else "[data] blind_wells"
        raise ConfigError(f"config file {args.config}: wells named both in "
                          f"[training] validation_wells and in {where}: {both}; "
                          f"a blind well is held out of training")
    if blind:
        wells, _ = split_by_well(wells, list(blind))
    unlabeled = [w.name for w in wells if w.labels is None]
    if unlabeled:
        raise MissingLabelsError(f"training data has unlabeled wells: "
                                 f"{sorted(unlabeled)}")
    if allow_pe:
        # the mean of the recorded PE values (gaps excluded) of the wells
        # train fits on; with none, train reports that
        fitted = [w for w in wells if w.name not in cfg.training.validation_wells]
        if fitted:
            wells = impute_pe(wells, fit_standardizer(fitted))

    checkpoint, report = train(cfg.training, wells, spec=cfg.model)
    out = _out_dir(args)
    checkpoint.save(out / "model.fnet")
    report.to_csv(out / "report.csv")
    report.to_json(out / "report.json", cfg.model)

    _echo_config("resolved training configuration:",
                 sorted(asdict(cfg.training).items()))
    print(f"trained {len(report.rows)} epochs on {len(wells)} wells "
          f"(best epoch {report.best_epoch}, seed {cfg.training.seed})")
    print(f"wrote {out / 'model.fnet'}, {out / 'report.csv'}, "
          f"{out / 'report.json'}")
    return 0


def cmd_predict(args) -> int:
    cfg = load_config(args.config, args.seed)
    model, wells = _load_model_and_wells(args, cfg)
    series = predict_wells(model, wells, args.threads)
    out = _out_dir(args)
    path = out / "predictions.csv"
    write_predictions(series, path)
    total = sum(len(s) for s in series)
    print(f"wrote {total} predictions for {len(series)} wells to {path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.seed)
    table = _adjacency_table(args, cfg)
    model, wells = _load_model_and_wells(args, cfg)
    unlabeled = [w.name for w in wells if w.labels is None]
    if unlabeled:
        raise MissingLabelsError(f"evaluation needs labels; missing in: "
                                 f"{sorted(unlabeled)}")

    series = predict_wells(model, wells, args.threads)
    true = np.concatenate([w.labels for w in wells])
    pred = np.concatenate([s.facies for s in series])
    report = evaluate(true, pred, table)

    out = _out_dir(args)
    export_plot_data(report, series, out)
    write_metrics_json(report, out / "metrics.json")
    print(f"evaluated {report.cm.n_samples} samples over {len(wells)} wells")
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
    cfg = load_config(args.config, args.seed)
    wells = generate_wells(cfg.synth, cfg.synth_wells)
    write_csv(wells, args.out_csv)
    total = sum(len(w.depth) for w in wells)
    print(f"wrote {len(wells)} wells ({total} samples) to {args.out_csv} "
          f"(seed {cfg.synth.seed})")
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
                       help="override the configured seed (predict/evaluate only check it)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--blind-wells", default=None,
                       help="comma-separated well names: held out of "
                            "training, selected by predict/evaluate")
        p.add_argument("--adjacency", default=None,
                       help="evaluate's adjacency map file (facies: neighbours lines)")
        p.add_argument("--allow-missing-pe", action="store_true",
                       help="impute missing PE values instead of failing")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads sharing the chunks of the prediction "
                            f"pass, 1 to {MAX_THREADS} (not train)")

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
    threads = getattr(args, "threads", 1)
    if threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    if threads > MAX_THREADS:  # each one holds an inference workspace
        print(f"error: --threads must be <= {MAX_THREADS}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: a missing or unreadable file, a directory
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MissingLabelsError as exc:
        print(f"missing labels: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except DataFormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 3
    except ShapeError as exc:
        print(f"data/model mismatch: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
