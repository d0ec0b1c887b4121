"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs every workload once untraced and once traced in ``--quick`` mode and
checks BENCHMARK.json against the contract and against what the runs print.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_quick_run_matches_manifest():
    done = subprocess.run(
        [sys.executable, str(RUN), "--quick", "--check-manifest"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout
    assert "schema ok" in done.stdout
