"""The fixed-seed artefacts against their committed sha256s and loss curve.

tools/golden.json holds the hashes `python3 tools/golden.py` prints, the
fingerprint of the environment that made them, and the per-epoch
train_loss of its 3-epoch default-model run. On a matching fingerprint
every hash must be exact. Another numpy, BLAS kernel set or CPU may
round float32 sums differently, so on any other fingerprint the bytes
may differ but the loss curve must agree within TRAIN_LOSS_RTOL.
Regenerate the file with `python3 tools/golden.py --json > tools/golden.json`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"

# The OpenBLAS Haswell and SkylakeX kernels agree to 1e-8 on epochs 1-2
# and differ by 7.1e-4 (relative) on epoch 3; 5e-3 leaves a 7x margin.
TRAIN_LOSS_RTOL = 5e-3


def test_golden_outputs_match_committed_hashes():
    stored = json.loads((TOOLS / "golden.json").read_text())
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(TOOLS / "golden.py"), "--json"],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    current = json.loads(run.stdout)
    if current["fingerprint"] == stored["fingerprint"]:
        assert current["sha256"] == stored["sha256"]
    np.testing.assert_allclose(current["train_loss"], stored["train_loss"],
                               rtol=TRAIN_LOSS_RTOL)


# prints the fingerprint golden.py records and the bits of a float32
# matmul, which differ between BLAS kernel sets
PROBE = f"""
import hashlib, json, sys
sys.path[:0] = [{str(TOOLS)!r}, {str(ROOT / "perfbench")!r}]
import numpy as np
import golden
a = np.random.default_rng(0).standard_normal((256, 56)).astype(np.float32)
print(json.dumps({{"fingerprint": golden.fingerprint(),
                  "matmul": hashlib.sha256((a @ a[:56].T).tobytes()).hexdigest()}}))
"""


def _probe(**env):
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    return subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**base, "OPENBLAS_NUM_THREADS": "1", **env}, timeout=60)


def test_fingerprint_names_the_blas_kernel_set():
    # OPENBLAS_CORETYPE picks another kernel set on the same CPU, numpy
    # and BLAS build; where that changes the bits, the fingerprint
    # must change too, or the exact hashes would be required of it
    default, haswell = _probe(), _probe(OPENBLAS_CORETYPE="Haswell")
    assert default.returncode == 0, default.stderr
    if haswell.returncode != 0:  # a CPU without the Haswell instructions
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell does not run here: {haswell.stderr[-200:]}")
    default, haswell = json.loads(default.stdout), json.loads(haswell.stdout)
    if default["matmul"] == haswell["matmul"]:
        pytest.skip("OPENBLAS_CORETYPE=Haswell changes no float32 matmul bits here")
    assert default["fingerprint"] != haswell["fingerprint"]
