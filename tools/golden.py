"""Regenerate the fixed-seed artefacts and print their sha256s.

    python3 tools/golden.py [--root CHECKOUT]

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

and prints one `sha256  name` line each. Two checkouts that print the
same lines write the same bytes on this machine. BLAS runs one thread
unless the environment says otherwise. Needs only numpy.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # before numpy loads

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
EVALUATE_FILES = ("facies_column.csv", "confusion.csv", "facies_counts.csv",
                  "metrics.json")


def small_model_cfg(root: Path) -> str:
    """SMALL_MODEL_CFG, read from tests/test_cli.py without importing it."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["SMALL_MODEL_CFG"]):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SMALL_MODEL_CFG in {root / 'tests' / 'test_cli.py'}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artefacts(root: Path, work: Path) -> list:
    """[(name, path)] of every artefact, made in work."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
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
    return ([("synth wells.csv", data), ("small.fnet", small),
             ("default.fnet", work / "default" / "model.fnet"), ("fixture.fnet", fixture),
             ("predictions.csv", work / "predict" / "predictions.csv")]
            + [(f"evaluate/{name}", work / "evaluate" / name) for name in EVALUATE_FILES])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="source checkout to run (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for name, path in artefacts(args.root.resolve(), Path(tmp)):
            print(f"{sha256(path)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
