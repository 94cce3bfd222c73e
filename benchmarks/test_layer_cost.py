"""Cost of the objective layer: VaR, outer_gradient per (measure, model) and reference solves.

    PYTHONPATH=src python -m pytest benchmarks/test_layer_cost.py

``test_outer_gradient_cost`` times one ``outer_gradient`` call at a fixed
interior point, for each measure on the README three-asset mixture and for
the variantile on a centred single t; ``extra_info["us_per_call"]`` is the
median.  ``test_var_cost`` times one ``var_exact`` call at alpha = 0.95 for
the equal-weight portfolio of the README mixture and of the d = 50 desk model
(synthetic, seed 2024).  ``test_reference_cost`` times ``reference_portfolio``:
ES 95% on the README mixture at tol 1e-10 and on the desk model at tol 1e-8,
MAD on the README mixture at tol 1e-5; it records the median seconds and the
iteration count.  These files sit outside ``tests/`` and are not part of the
default test run.
"""

import numpy as np
import pytest

from rbmd import market_models as mm
from rbmd import rb_solver as rb
from rbmd import risk_loss as rl
from rbmd.bench_cli import generate_model

LAMBDA1 = [[9e-5, 3e-5, 5e-5], [3e-5, 9e-5, 3e-5], [5e-5, 3e-5, 1e-4]]
README_MODEL = mm.MixtureModel(
    weight=0.7, mu1=[0.0001, 0.0002, -0.0003], mu2=[0.001, 0.0005, 0.0002],
    lambda1=LAMBDA1,
    lambda2=[[4e-4, 1e-4, 1e-4], [1e-4, 1e-4, 6e-5], [1e-4, 6e-5, 1e-4]],
    nu1=3.4, nu2=2.6)
CENTRED_T = mm.MixtureModel.single_t(np.zeros(3), LAMBDA1, 4.5)

DESK_MODEL = generate_model(50, 2024)

# (measure, model) -> objective inputs
CASES = {
    ("es", "mixture"): (rl.MeasureSpec.expected_shortfall(0.95), README_MODEL),
    ("volatility", "mixture"): (rl.MeasureSpec.volatility(), README_MODEL),
    ("mad", "mixture"): (rl.MeasureSpec.mad(), README_MODEL),
    ("variantile", "mixture"): (rl.MeasureSpec.variantile(0.75), README_MODEL),
    ("variantile", "single-t"): (rl.MeasureSpec.variantile(0.75), CENTRED_T),
    ("es", "desk"): (rl.MeasureSpec.expected_shortfall(0.95), DESK_MODEL),
}


def context(case) -> rb.ObjectiveContext:
    spec, model = CASES[case]
    return rb.ObjectiveContext(rb.RiskBudget.uniform(model.d), spec, model)


@pytest.mark.parametrize("case", [case for case in CASES if case[1] != "desk"], ids="-".join)
def test_outer_gradient_cost(benchmark, case):
    ctx = context(case)
    y = np.array([2.5, 3.9, 3.6])
    grad = benchmark.pedantic(ctx.outer_gradient, args=(y,), rounds=200, warmup_rounds=5)
    assert np.all(np.isfinite(grad))
    benchmark.extra_info["us_per_call"] = benchmark.stats.stats.median * 1e6


@pytest.mark.parametrize("model", [README_MODEL, DESK_MODEL], ids=["mixture", "desk"])
def test_var_cost(benchmark, model):
    params = mm.portfolio_loss_params(model, np.full(model.d, 1.0 / model.d))
    var = benchmark.pedantic(mm.var_exact, args=(params, 0.95), rounds=500, warmup_rounds=5)
    assert abs(mm.mixture_cdf(params, var) - 0.95) <= 1e-12
    benchmark.extra_info["us_per_call"] = benchmark.stats.stats.median * 1e6


@pytest.mark.parametrize("case, tol", [(("es", "mixture"), 1e-10), (("es", "desk"), 1e-8),
                                       (("mad", "mixture"), 1e-5)],
                         ids=["es-d3", "es-d50", "mad-d3"])
def test_reference_cost(benchmark, case, tol):
    ctx = context(case)
    report = benchmark.pedantic(rb.reference_portfolio, args=(ctx, tol), rounds=3,
                                warmup_rounds=0)
    assert report.grad_norm <= tol
    benchmark.extra_info["s"] = benchmark.stats.stats.median
    benchmark.extra_info["iterations"] = report.iterations
