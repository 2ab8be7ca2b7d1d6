"""Regenerate the fixed-seed artefacts and print their sha256s.

    python3 tools/golden.py [--root CHECKOUT] [--json]

Runs, from the faciesnet source under CHECKOUT/src (default: the
checkout this script lives in), in a temporary directory:

  synth        faciesnet synth wells.csv --seed 0
  small.fnet   faciesnet train wells.csv --seed 0 with tests/test_cli.py's
               SMALL_MODEL_CFG
  default.fnet faciesnet train wells.csv --seed 0, default model, 3 epochs
  fixture      perfbench's fixture checkpoint (workloads.fixture_checkpoint)
  predictions  faciesnet predict small.fnet wells.csv
  evaluate/*   faciesnet evaluate small.fnet wells.csv: facies_column.csv,
               confusion.csv, facies_counts.csv, metrics.json
  gaps.fnet    faciesnet train gaps.csv --seed 0 --allow-missing-pe with
               SMALL_MODEL_CFG, validation_wells = SYNTH001 and
               use_class_weights = true, where gaps.csv holds GAPS_WELLS
               synth wells of GAPS_SAMPLES samples, PE blank on every
               GAPS_EVERY-th row
  gaps predictions.csv
               faciesnet predict gaps.fnet gaps.csv --allow-missing-pe:
               one pass over three wells, whose chunks span wells

and prints one `sha256  name` line each. Two checkouts that print the
same lines write the same bytes on this machine. Each `.fnet` artefact
must also load and save back to its own bytes; if one does not, the
script exits 1 naming it. BLAS runs one thread unless the environment
says otherwise. Needs only numpy.

--json prints the hashes as golden.json holds them, together with the
fingerprint of the environment that made them (numpy version, BLAS
library and version, the BLAS's run-time configuration with the CPU
kernel set it chose, CPU model, machine), the per-epoch train_loss
of the default.fnet run's report.csv and the p1..p9 probabilities of
every PROBS_EVERY-th row of predictions.csv:

    python3 tools/golden.py --json > tools/golden.json
"""

import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # before numpy loads

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
EVALUATE_FILES = ("facies_column.csv", "confusion.csv", "facies_counts.csv",
                  "metrics.json")
PROBS_EVERY = 100  # predictions.csv rows 0, 100, ..., 1900 of the 2000-sample well
GAPS_WELLS, GAPS_SAMPLES, GAPS_EVERY = 3, 400, 7


def small_model_cfg(root: Path) -> str:
    """SMALL_MODEL_CFG, read from tests/test_cli.py without importing it."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["SMALL_MODEL_CFG"]):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SMALL_MODEL_CFG in {root / 'tests' / 'test_cli.py'}")


def blank_pe(path: Path) -> None:
    """Empty the PE cell of data rows 0, GAPS_EVERY, 2 * GAPS_EVERY, ..."""
    header, *rows = path.read_text().splitlines()
    pe = header.split(",").index("PE")
    for i in range(0, len(rows), GAPS_EVERY):
        cells = rows[i].split(",")
        cells[pe] = ""
        rows[i] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")


def fingerprint() -> dict:
    """What the golden bytes may depend on besides the source."""
    import numpy as np
    # perfbench's, so BENCH files name the CPU and the BLAS alike
    from run import cpu_model
    from worker import blas_runtime

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dicts mode
        blas = {}
    # the CPU string is generic on VMs; OpenBLAS's configuration names the
    # kernel set it picked at run time, which OPENBLAS_CORETYPE can change
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_config": blas_runtime()["config"], "cpu": cpu_model(),
            "machine": platform.machine()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artefacts(root: Path, work: Path) -> list:
    """[(name, path)] of every artefact, made in work."""
    from faciesnet.cli import main
    import workloads

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"faciesnet {' '.join(map(str, argv))} exited {code}")

    data = work / "wells.csv"
    (work / "small.cfg").write_text(small_model_cfg(root))
    (work / "default.cfg").write_text("[training]\nepochs = 3\n")
    run("synth", data, "--seed", 0)
    run("train", data, "--seed", 0, "--config", work / "small.cfg", "--out", work / "small")
    run("train", data, "--seed", 0, "--config", work / "default.cfg",
        "--out", work / "default")
    small = work / "small" / "model.fnet"
    run("predict", small, data, "--out", work / "predict")
    run("evaluate", small, data, "--out", work / "evaluate")
    fixture = workloads.fixture_checkpoint(root / "src", work)
    # several wells: fit_standardizer over more than one, the validation
    # split, class weights and PE imputation
    gaps = work / "gaps.csv"
    (work / "gaps-synth.cfg").write_text(
        f"[synth]\nwells = {GAPS_WELLS}\nn_samples = {GAPS_SAMPLES}\n")
    (work / "gaps.cfg").write_text(small_model_cfg(root) + "validation_wells = SYNTH001\n"
                                   "use_class_weights = true\n")
    run("synth", gaps, "--seed", 0, "--config", work / "gaps-synth.cfg")
    blank_pe(gaps)
    run("train", gaps, "--seed", 0, "--config", work / "gaps.cfg", "--allow-missing-pe",
        "--out", work / "gaps")
    run("predict", work / "gaps" / "model.fnet", gaps, "--allow-missing-pe",
        "--out", work / "gaps-predict")
    return ([("synth wells.csv", data), ("small.fnet", small),
             ("default.fnet", work / "default" / "model.fnet"), ("fixture.fnet", fixture),
             ("predictions.csv", work / "predict" / "predictions.csv")]
            + [(f"evaluate/{name}", work / "evaluate" / name) for name in EVALUATE_FILES]
            + [("gaps.fnet", work / "gaps" / "model.fnet"),
               ("gaps predictions.csv", work / "gaps-predict" / "predictions.csv")])


def check_resave(made: list) -> None:
    """Exit 1, naming the artefact, unless every checkpoint saves back to
    its own bytes through Checkpoint.load(...).save(...)."""
    from faciesnet.network import Checkpoint

    for name, path in made:
        if name.endswith(".fnet"):
            resaved = path.with_name(path.name + ".resaved")
            Checkpoint.load(path).save(resaved)
            if resaved.read_bytes() != path.read_bytes():
                raise SystemExit(f"{name}: Checkpoint.load(...).save(...) does not "
                                 f"give back its bytes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="source checkout to run (default: this one)")
    parser.add_argument("--json", action="store_true",
                        help="print golden.json: the hashes and the environment's "
                             "fingerprint")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        made = artefacts(root, Path(tmp))
        hashes = {name: sha256(path) for name, path in made}
        check_resave(made)
        with open(Path(tmp) / "default" / "report.csv", newline="") as fh:
            train_loss = [float(row["train_loss"]) for row in csv.DictReader(fh)]
        with open(Path(tmp) / "predict" / "predictions.csv", newline="") as fh:
            probs = [[float(row[f"p{f}"]) for f in range(1, 10)]
                     for row in list(csv.DictReader(fh))[::PROBS_EVERY]]
    if args.json:
        print(json.dumps({"fingerprint": fingerprint(), "sha256": hashes,
                          "train_loss": train_loss, "probs": probs}, indent=2))
    else:
        for name, digest in hashes.items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
