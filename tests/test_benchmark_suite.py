import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmarks_pass_as_plain_tests():
    """``benchmarks/`` calls private signatures (``mirror_descent._prox``,
    say) and sits outside the default test paths, so its cases run here once,
    as plain tests with the timing off."""
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
