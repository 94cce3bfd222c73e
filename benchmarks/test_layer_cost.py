"""Cost of the market and objective layers: sampling, the VaR, ES and partial-moment
kernels, outer_gradient per (measure, model) and reference solves.

    PYTHONPATH=src python -m pytest benchmarks/test_layer_cost.py

``test_outer_gradient_cost`` times one ``outer_gradient`` call at a fixed
interior point, for each measure on the README three-asset mixture and for
the variantile on a centred single t; ``extra_info["us_per_call"]`` is the
median.  ``test_var_cost`` times one ``var_exact`` call at alpha = 0.95 for
the equal-weight portfolio of the README mixture and of the d = 50 desk model
(synthetic, seed 2024); ``test_tail_kernel_cost`` times ``es_exact`` (alpha =
0.95) and ``expected_power_loss`` (p = 1 and 2, about the 0.75 quantile) for
the same two portfolios.  ``test_gamma_cost`` evaluates Gamma (ES 95%) at 5,000
portfolios near equal weight on the same two models, one ``gamma_value`` call
each ("scalar") or one ``gamma_values`` call on their stack ("batched"), and
records ``extra_info["us_per_portfolio"]``.  ``test_sampling_cost`` draws 100,000 return vectors
with ``sample_returns`` from the synthetic (seed 2024) models at d = 3, 10 and
50 and records ``extra_info["draws_per_s"]`` and ``extra_info["peak_mb"]``,
the ``tracemalloc`` peak of one call in MiB, result included.
``test_reference_cost`` times ``reference_portfolio``: ES 95% on the README
mixture at tol 1e-10, on a synthetic d = 10 model (seed 2024), on the desk
model and on synthetic d = 250 and 1,000 models (seed 7) at tol 1e-8, MAD on
the README mixture at tol 1e-5 and the 0.75 variantile on it at tol 1e-10; it
records the median seconds and the Newton step count.  These files sit outside
``tests/`` and are not part of the default test run;
``PYTHONPATH=src python -m pytest benchmarks --benchmark-disable`` runs every
case once as a smoke test.
"""

import math
import tracemalloc

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
N_DRAWS = 100_000

# (measure, model) -> objective inputs
CASES = {
    ("es", "mixture"): (rl.MeasureSpec.expected_shortfall(0.95), README_MODEL),
    ("volatility", "mixture"): (rl.MeasureSpec.volatility(), README_MODEL),
    ("mad", "mixture"): (rl.MeasureSpec.mad(), README_MODEL),
    ("variantile", "mixture"): (rl.MeasureSpec.variantile(0.75), README_MODEL),
    ("variantile", "single-t"): (rl.MeasureSpec.variantile(0.75), CENTRED_T),
    ("es", "d10"): (rl.MeasureSpec.expected_shortfall(0.95), generate_model(10, 2024)),
    ("es", "desk"): (rl.MeasureSpec.expected_shortfall(0.95), DESK_MODEL),
    ("es", "d250"): (rl.MeasureSpec.expected_shortfall(0.95), generate_model(250, 7)),
    ("es", "d1000"): (rl.MeasureSpec.expected_shortfall(0.95), generate_model(1000, 7)),
}


def median_s(benchmark) -> float:
    """Median round time in seconds; NaN under ``--benchmark-disable``, which
    runs each case once and keeps no stats."""
    return math.nan if benchmark.stats is None else benchmark.stats.stats.median


def context(case) -> rb.ObjectiveContext:
    spec, model = CASES[case]
    return rb.ObjectiveContext(rb.RiskBudget.uniform(model.d), spec, model)


@pytest.mark.parametrize("case", [case for case in CASES if CASES[case][1].d == 3], ids="-".join)
def test_outer_gradient_cost(benchmark, case):
    ctx = context(case)
    y = np.array([2.5, 3.9, 3.6])
    grad = benchmark.pedantic(ctx.outer_gradient, args=(y,), rounds=200, warmup_rounds=5)
    assert np.all(np.isfinite(grad))
    benchmark.extra_info["us_per_call"] = median_s(benchmark) * 1e6


@pytest.mark.parametrize("model", [README_MODEL, DESK_MODEL], ids=["mixture", "desk"])
def test_var_cost(benchmark, model):
    params = mm.portfolio_loss_params(model, np.full(model.d, 1.0 / model.d))
    var = benchmark.pedantic(mm.var_exact, args=(params, 0.95), rounds=500, warmup_rounds=5)
    assert abs(mm.mixture_cdf(params, var) - 0.95) <= 1e-12
    benchmark.extra_info["us_per_call"] = median_s(benchmark) * 1e6


@pytest.mark.parametrize("kernel", ["es", "power-loss-p1", "power-loss-p2"])
@pytest.mark.parametrize("model", [README_MODEL, DESK_MODEL], ids=["mixture", "desk"])
def test_tail_kernel_cost(benchmark, model, kernel):
    params = mm.portfolio_loss_params(model, np.full(model.d, 1.0 / model.d))
    if kernel == "es":
        fn, args = mm.es_exact, (params, 0.95)
    else:  # an asymmetric p-th moment about the 0.75 quantile
        fn, args = mm.expected_power_loss, (params, 1.0, 0.5, int(kernel[-1]),
                                            mm.var_exact(params, 0.75))
    value = benchmark.pedantic(fn, args=args, rounds=500, warmup_rounds=5)
    assert np.isfinite(value) and value > 0.0
    benchmark.extra_info["us_per_call"] = median_s(benchmark) * 1e6


N_PORTFOLIOS = 5_000


@pytest.mark.parametrize("mode", ["scalar", "batched"])
@pytest.mark.parametrize("model", [README_MODEL, DESK_MODEL], ids=["mixture", "desk"])
def test_gamma_cost(benchmark, model, mode):
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(model.d),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    ys = np.exp(np.random.default_rng(3).normal(0.0, 0.2, (N_PORTFOLIOS, model.d)))
    if mode == "scalar":
        def run():
            return np.array([rb.gamma_value(ctx, y) for y in ys])
    else:
        def run():
            return rb.gamma_values(ctx, ys)
    values = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    assert np.all(np.isfinite(values))
    benchmark.extra_info["us_per_portfolio"] = median_s(benchmark) / N_PORTFOLIOS * 1e6


@pytest.mark.parametrize("d", [3, 10, 50], ids=lambda d: f"d{d}")
def test_sampling_cost(benchmark, d):
    model = DESK_MODEL if d == 50 else generate_model(d, 2024)
    draws = benchmark.pedantic(mm.sample_returns, args=(model, N_DRAWS, 11), rounds=5,
                               warmup_rounds=1)
    assert draws.shape == (N_DRAWS, d) and np.all(np.isfinite(draws))
    benchmark.extra_info["draws_per_s"] = N_DRAWS / median_s(benchmark)
    tracemalloc.start()
    try:
        mm.sample_returns(model, N_DRAWS, 11)
        benchmark.extra_info["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case, tol", [(("es", "mixture"), 1e-10), (("es", "d10"), 1e-8),
                                       (("es", "desk"), 1e-8), (("es", "d250"), 1e-8),
                                       (("es", "d1000"), 1e-8), (("mad", "mixture"), 1e-5),
                                       (("variantile", "mixture"), 1e-10)],
                         ids=["es-d3", "es-d10", "es-d50", "es-d250", "es-d1000", "mad-d3",
                              "variantile-d3"])
def test_reference_cost(benchmark, case, tol):
    ctx = context(case)
    report = benchmark.pedantic(rb.reference_portfolio, args=(ctx, tol), rounds=3,
                                warmup_rounds=0)
    assert report.grad_norm <= tol
    benchmark.extra_info["s"] = median_s(benchmark)
    benchmark.extra_info["iterations"] = report.iterations
