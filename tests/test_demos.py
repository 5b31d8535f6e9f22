"""Every demo runs to completion.

Each demo runs in its own interpreter with ``PYTHONPATH=src`` and a single
BLAS thread, as a user would start it from the root of a checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "counting_sectors.py",
    "exact_vs_hartree_trend.py",
    "observables_snapshots.py",
    "auxiliary_truncation.py",
    "gauge_two_routes.py",
    "hartree_evolution.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
