"""Per-step cost of the mirror-descent engines, in microseconds per step.

    PYTHONPATH=src python -m pytest benchmarks/test_step_cost.py

The stochastic cases run one epoch over 20,000 seeded samples of a synthetic
ES 95% problem at d = 3, 10 and 50, the DMD case 200 iterations on the same
problem, each with sparse recording (one gap record at the end), so the loop
body and the once-per-block bookkeeping dominate.  ``test_dense_record_cost``
runs SMD at d = 3 with a gap record every 100 steps, as a desk-scale ``run``
does; its gaps are evaluated after the loop in one ``rb.gamma_values`` call.
It times that call per record (``us_per_record``), one scalar ``gamma_value``
next to it (``us_per_record_scalar``), and reports the step cost less the
records' batched share.  ``test_prox_cost`` times the entropic prox alone,
as SMD calls it, at d = 3, 10, 50 and 250, with the l1 cap inactive and
with it binding.  The cases above start on the cap (sum y0 = m = 100);
``test_certified_step_cost`` runs SMD off it instead: at d = 3 in the
``stochastic`` benchmark's ``smd-d3`` regime, where the iterate settles well
inside the ball with min y >= 1 and nearly every step certifies kappa = 1 and
the cap inactive on the loop's carried bounds, and at d = 50 on the desk model
with ``rbmd run``'s default cap m = 100 d.
``extra_info["us_per_step"]`` is the median run time divided by the step
count.  These files sit outside ``tests/`` and are not part of the default
test run.
"""

import dataclasses
import math
import timeit

import numpy as np
import pytest

from rbmd import market_models as mm
from rbmd import mirror_descent as md
from rbmd import rb_solver as rb
from rbmd import risk_loss as rl
from rbmd.bench_cli import generate_model
from test_layer_cost import DESK_MODEL, README_MODEL

N_SAMPLES = 20_000
N_DMD = 200
N_PROX = 20_000
DENSE_RECORD = 100


def median_s(benchmark) -> float:
    """Median round time in seconds; NaN under ``--benchmark-disable``, which
    runs each case once and keeps no stats."""
    return math.nan if benchmark.stats is None else benchmark.stats.stats.median


def make_problem(d):
    model = generate_model(d, 2024)
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(d),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    samples = mm.sample_returns(model, N_SAMPLES, seed=11)
    cfg = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.power(1.0, 0.65),
                             iterations=1, y0=rb.default_y0(model, 100.0),
                             record_every=N_SAMPLES)
    return ctx, samples, cfg


@pytest.fixture(scope="module", params=[3, 10, 50], ids=lambda d: f"d{d}")
def problem(request):
    return make_problem(request.param)


@pytest.mark.parametrize("runner", ["smd", "sgd-tamed", "sgd-classical"])
def test_step_cost(benchmark, problem, runner):
    ctx, samples, cfg = problem
    if runner == "smd":
        def run():
            return md.smd_run(ctx, samples, cfg)
    else:
        variant = runner.split("-")[1]

        def run():
            return md.sgd_run(variant, ctx, samples, cfg)

    result = benchmark.pedantic(run, rounds=5, warmup_rounds=1)
    assert not result.diverged and result.iterations == N_SAMPLES
    assert np.all(np.isfinite(result.y_final))
    benchmark.extra_info["us_per_step"] = median_s(benchmark) / N_SAMPLES * 1e6


def test_dmd_iteration_cost(benchmark, problem):
    ctx, _, cfg = problem
    cfg = dataclasses.replace(cfg, iterations=N_DMD, record_every=N_DMD)
    result = benchmark.pedantic(md.dmd_run, args=(ctx, cfg), rounds=5, warmup_rounds=1)
    assert not result.diverged and result.iterations == N_DMD
    benchmark.extra_info["us_per_step"] = median_s(benchmark) / N_DMD * 1e6


def test_dense_record_cost(benchmark):
    ctx, samples, cfg = make_problem(3)
    cfg = dataclasses.replace(cfg, record_every=DENSE_RECORD)
    result = benchmark.pedantic(md.smd_run, args=(ctx, samples, cfg), rounds=5, warmup_rounds=1)
    assert result.iterations == N_SAMPLES and len(result.gap_trace) == N_SAMPLES // DENSE_RECORD
    us_per_step = median_s(benchmark) / N_SAMPLES * 1e6
    ys = np.array([y for _, y in result.y_trace])
    us_per_record = timeit.timeit(lambda: rb.gamma_values(ctx, ys), number=20) / 20 / len(ys) * 1e6
    us_per_record_scalar = timeit.timeit(lambda: rb.gamma_value(ctx, result.y_final),
                                         number=200) / 200 * 1e6
    benchmark.extra_info["us_per_step"] = us_per_step
    benchmark.extra_info["us_per_record"] = us_per_record
    benchmark.extra_info["us_per_record_scalar"] = us_per_record_scalar
    benchmark.extra_info["us_per_step_less_records"] = us_per_step - us_per_record / DENSE_RECORD


@pytest.mark.parametrize("model, m_cap", [(README_MODEL, 100.0), (DESK_MODEL, 5000.0)],
                         ids=["d3", "d50"])
def test_certified_step_cost(benchmark, model, m_cap):
    """SMD with ES 95% and power(1, 0.75), one record at the end, on the
    README three-asset mixture at m = 100 and on the d = 50 desk model at
    m = 100 d, the cap ``rbmd run`` gives it; ``extra_info`` adds the capped
    steps and the final sum y."""
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(model.d),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    samples = mm.sample_returns(model, N_SAMPLES, seed=11)
    cfg = md.OptimizerConfig(m_cap=m_cap, schedule=md.StepSchedule.power(1.0, 0.75),
                             iterations=1, y0=rb.default_y0(model, m_cap),
                             record_every=N_SAMPLES)
    result = benchmark.pedantic(md.smd_run, args=(ctx, samples, cfg), rounds=5, warmup_rounds=1)
    assert not result.diverged and result.iterations == N_SAMPLES
    benchmark.extra_info["us_per_step"] = median_s(benchmark) / N_SAMPLES * 1e6
    benchmark.extra_info["n_projections"] = result.n_projections
    benchmark.extra_info["sum_y_final"] = float(result.y_final.sum())


@pytest.mark.parametrize("cap", ["inactive", "binding"])
@pytest.mark.parametrize("d", [3, 10, 50, 250], ids=lambda d: f"d{d}")
def test_prox_cost(benchmark, d, cap):
    """One ``_prox`` call as the runners make it: small exponents, the new
    point written to a reused buffer.  The ball's radius is ten
    times the sum of y * exp(e) (cap inactive) or half of it (binding).  Each
    call first restores the exponents, which ``_prox`` overwrites; that
    ``np.copyto`` counts in ``us_per_call``."""
    rng = np.random.default_rng(d)
    y = rng.uniform(0.5, 1.5, d)
    e0 = rng.normal(0.0, 0.1, d)
    m = float((y * np.exp(e0)).sum()) * (10.0 if cap == "inactive" else 0.5)
    e = np.empty(d)
    out = np.empty(d)

    def run():
        for _ in range(N_PROX):
            np.copyto(e, e0)
            projected = md._prox(y, e, m, out)[1]
        return projected

    projected = benchmark.pedantic(run, rounds=5, warmup_rounds=1)
    assert projected == (cap == "binding")
    benchmark.extra_info["us_per_call"] = median_s(benchmark) / N_PROX * 1e6
