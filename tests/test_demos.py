"""Every demo runs to completion against the library in src/ and prints
exactly the stdout pinned below."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ARGS = {"05_exhaustive_sweep.py": ["4"]}
STDOUT_SHA256 = {
    "01_competition_basics.py":
        "de0d8de59e1eaa9abf092a966c9e16170c450eb084e90559ca203d12fc1510a9",
    "02_exact_invariants.py":
        "1ab6995cd19887dec93ca5eb84de8cf41bf8ef659f098647c4bbf429f70499da",
    "03_effective_covers.py":
        "eecf28cc039d512ca3ad506ac0d8355b62b633e67ac1e609d03ef5819ae2770a",
    "04_bounds_and_plane_formula.py":
        "74daa518657546e2de9a257ffd9f2dd6fa58dcfb032b9a6eb4a8ef9d68908f6b",
    "05_exhaustive_sweep.py":
        "92419680d509518d6d95520024abed6aa65d2fe3f97d9a3c5d4df58efb51d844",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo), *ARGS.get(demo.name, [])],
                            env=env, cwd=ROOT, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == \
        STDOUT_SHA256[demo.name]
