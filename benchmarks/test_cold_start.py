"""Cold start of the ``rbmd`` CLI and the cost of one t-CDF call.

    PYTHONPATH=src python -m pytest benchmarks/test_cold_start.py

``test_cold_start_cost`` times a fresh interpreter on this checkout's ``src/``
that imports ``rbmd.bench_cli`` ("import"), and one that runs ``rbmd
reference`` on the README three-asset mixture, ES 95% at tol 1e-10
("reference"); ``extra_info["s"]`` is the median wall time of the child, from
spawn to exit.  Start-up is most of a small ``reference`` run, so this is where
an import shows.  ``test_t_cdf_cost`` times one t-CDF call at each
component's standardized README VaR (nu = 3.4 and 2.6), for the package's
kernel and for ``scipy.special.stdtr``, the kernel it replaced;
``extra_info["us_per_call"]`` is the median.  ``--benchmark-disable`` runs
each case once and records NaN.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbmd import market_models as mm

SRC = Path(mm.__file__).resolve().parents[1]

README_MODEL = {
    "weight": 0.7, "mu1": [0.0001, 0.0002, -0.0003], "mu2": [0.001, 0.0005, 0.0002],
    "lambda1": [[9e-5, 3e-5, 5e-5], [3e-5, 9e-5, 3e-5], [5e-5, 3e-5, 1e-4]],
    "lambda2": [[4e-4, 1e-4, 1e-4], [1e-4, 1e-4, 6e-5], [1e-4, 6e-5, 1e-4]],
    "nu1": 3.4, "nu2": 2.6,
}
README_WEIGHTS = np.array([0.2535, 0.3866, 0.3599])


def median_s(benchmark) -> float:
    """Median round time in seconds; NaN under ``--benchmark-disable``."""
    return math.nan if benchmark.stats is None else benchmark.stats.stats.median


@pytest.mark.parametrize("child", ["import", "reference"])
def test_cold_start_cost(benchmark, tmp_path, child):
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-c", "import rbmd.bench_cli"]
    if child == "reference":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"inline": README_MODEL},
                                      "measure": {"kind": "es", "alpha": 0.95},
                                      "tolerance": 1e-10, "seed": 1}))
        argv = [sys.executable, "-m", "rbmd.bench_cli", "reference", "--config", str(config),
                "--out", str(tmp_path / "out")]

    def spawn():
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)

    benchmark.pedantic(spawn, rounds=10, warmup_rounds=1)
    benchmark.extra_info["s"] = median_s(benchmark)


@pytest.mark.parametrize("kernel", ["rbmd", "scipy"])
@pytest.mark.parametrize("component", [1, 2])
def test_t_cdf_cost(benchmark, kernel, component):
    model = mm.MixtureModel.from_dict(README_MODEL)
    params = mm.portfolio_loss_params(model, README_WEIGHTS)
    _, loc, scale, _, nu = params.components()[component - 1]
    z = (mm.var_exact(params, 0.95) - loc) / scale
    if kernel == "scipy":
        from scipy.special import stdtr
        fn, args = stdtr, (nu, z)
    else:
        fn, args = mm._t_sf, (-z, nu)
    value = benchmark.pedantic(fn, args=args, rounds=2000, iterations=10, warmup_rounds=10)
    assert 0.9 < value < 1.0
    benchmark.extra_info["us_per_call"] = median_s(benchmark) * 1e6
