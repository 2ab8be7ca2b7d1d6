"""The fixed-seed artefacts against their committed sha256s.

tools/golden.json holds the hashes `python3 tools/golden.py` prints and
the fingerprint of the environment that made them. Another numpy, BLAS
or CPU may round float32 sums differently, so on a fingerprint that does
not match the test skips, naming the field; on a matching one every
hash must be exact. Regenerate the file with
`python3 tools/golden.py --json > tools/golden.json`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_golden_outputs_match_committed_hashes():
    stored = json.loads((TOOLS / "golden.json").read_text())
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(TOOLS / "golden.py"), "--json"],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    current = json.loads(run.stdout)
    for field, value in stored["fingerprint"].items():
        if current["fingerprint"].get(field) != value:
            pytest.skip(f"golden.json was made with {field} = {value!r}; this "
                        f"environment has {current['fingerprint'].get(field)!r}")
    assert current["sha256"] == stored["sha256"]
