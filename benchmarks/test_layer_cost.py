"""Cost of the objective layer: outer_gradient per measure mode and reference solves.

    PYTHONPATH=src python -m pytest benchmarks/test_layer_cost.py

``test_outer_gradient_cost`` times one ``outer_gradient`` call, under the
context's default outer function, at a fixed interior point of the README
three-asset mixture (a centred single-t model for ``dev_unit``);
``extra_info["us_per_call"]`` is the median.  ``test_reference_cost`` times
``reference_portfolio`` on the same mixture, ES 95% at tol 1e-10 and MAD at
tol 1e-5, and records the median seconds and the iteration count.  These
files sit outside ``tests/`` and are not part of the default test run.
"""

import numpy as np
import pytest

from rbmd import market_models as mm
from rbmd import rb_solver as rb
from rbmd import risk_loss as rl

LAMBDA1 = [[9e-5, 3e-5, 5e-5], [3e-5, 9e-5, 3e-5], [5e-5, 3e-5, 1e-4]]
README_MODEL = mm.MixtureModel(
    weight=0.7, mu1=[0.0001, 0.0002, -0.0003], mu2=[0.001, 0.0005, 0.0002],
    lambda1=LAMBDA1,
    lambda2=[[4e-4, 1e-4, 1e-4], [1e-4, 1e-4, 6e-5], [1e-4, 6e-5, 1e-4]],
    nu1=3.4, nu2=2.6)
CENTRED_T = mm.MixtureModel.single_t(np.zeros(3), LAMBDA1, 4.5)

MODES = {
    "es": (rl.MeasureSpec.expected_shortfall(0.95), README_MODEL),
    "vol": (rl.MeasureSpec.volatility(), README_MODEL),
    "dev_unit": (rl.MeasureSpec.variantile(0.75), CENTRED_T),
    "dev_general_p1": (rl.MeasureSpec.mad(), README_MODEL),
    "dev_general_p2": (rl.MeasureSpec.variantile(0.75), README_MODEL),
}


def context(case: str) -> rb.ObjectiveContext:
    spec, model = MODES[case]
    return rb.ObjectiveContext(rb.RiskBudget.uniform(3), spec, model)


@pytest.mark.parametrize("case", sorted(MODES))
def test_outer_gradient_cost(benchmark, case):
    ctx = context(case)
    assert ctx._mode == case.rsplit("_p", 1)[0]
    y = np.array([2.5, 3.9, 3.6])
    grad = benchmark.pedantic(ctx.outer_gradient, args=(y,), rounds=200, warmup_rounds=5)
    assert np.all(np.isfinite(grad))
    benchmark.extra_info["us_per_call"] = benchmark.stats.stats.median * 1e6


@pytest.mark.parametrize("case, tol", [("es", 1e-10), ("dev_general_p1", 1e-5)],
                         ids=["es-d3", "mad-d3"])
def test_reference_cost(benchmark, case, tol):
    ctx = context(case)
    report = benchmark.pedantic(rb.reference_portfolio, args=(ctx, tol), rounds=3,
                                warmup_rounds=0)
    assert report.grad_norm <= tol
    benchmark.extra_info["s"] = benchmark.stats.stats.median
    benchmark.extra_info["iterations"] = report.iterations
