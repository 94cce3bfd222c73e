import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmd import bench_cli as bc
from rbmd import market_models as mm
from rbmd import rb_solver as rb
from rbmd import risk_loss as rl

from conftest import (BENCH_CONTRIBUTION, BENCH_ES, BENCH_LAMBDA1, BENCH_VAR,
                      BENCH_WEIGHTS, make_bench_model, random_mixture_model)


@pytest.fixture(scope="module")
def vol_power_ctx():
    model = mm.MixtureModel.single_gaussian(np.zeros(3), np.eye(3))
    return rb.ObjectiveContext(rb.RiskBudget.uniform(3), rl.MeasureSpec.volatility(), model)


# ---------------------------------------------------------------------------
# Budgets and context wiring
# ---------------------------------------------------------------------------

def test_budget_normalizes_on_construction():
    budget = rb.RiskBudget(np.array([2.0, 3.0, 5.0]))
    np.testing.assert_allclose(budget.b, [0.2, 0.3, 0.5], rtol=1e-15)
    assert abs(budget.b.sum() - 1.0) <= 1e-12


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        rb.RiskBudget(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ValueError):
        rb.RiskBudget(np.array([0.5, -0.1, 0.6]))


# ---------------------------------------------------------------------------
# gamma_value
# ---------------------------------------------------------------------------

def test_gamma_value_power_volatility(vol_power_ctx):
    assert rb.gamma_value(vol_power_ctx, np.ones(3)) == pytest.approx(3.0)


def test_gamma_value_scaling_identity_at_reference(es_ctx, bench_reference):
    # for the identity outer function the minimizer sits on the r(y) = 1 shell
    assert es_ctx.risk_value(bench_reference.y_raw) == pytest.approx(1.0, abs=1e-6)


def test_gamma_value_log_term_shift(es_ctx):
    rng = np.random.default_rng(0)
    y = rng.uniform(1.0, 10.0, 3)
    for i in range(3):
        y2 = y.copy()
        y2[i] *= 0.5
        shift = (rb.gamma_value(es_ctx, y2) - rb.gamma_value(es_ctx, y)
                 - (es_ctx.outer_value(y2) - es_ctx.outer_value(y)))
        assert shift == pytest.approx(es_ctx.budget.b[i] * math.log(2.0), rel=1e-9)


def test_gamma_value_rejects_boundary(es_ctx):
    with pytest.raises(ValueError):
        rb.gamma_value(es_ctx, np.array([1.0, 0.0, 1.0]))


def test_gamma_strict_convexity_probe(es_ctx):
    rng = np.random.default_rng(1)
    for _ in range(200):
        y1 = rng.uniform(0.5, 30.0, 3)
        y2 = rng.uniform(0.5, 30.0, 3)
        if np.allclose(y1, y2):
            continue
        mid = 0.5 * (y1 + y2)
        assert (rb.gamma_value(es_ctx, mid)
                < 0.5 * rb.gamma_value(es_ctx, y1) + 0.5 * rb.gamma_value(es_ctx, y2))


# ---------------------------------------------------------------------------
# gamma_gradient
# ---------------------------------------------------------------------------

def test_gamma_gradient_volatility_closed_form(vol_power_ctx):
    grad = rb.gamma_gradient(vol_power_ctx, np.ones(3))
    np.testing.assert_allclose(grad, (2.0 - 1.0 / 3.0) * np.ones(3), rtol=1e-12)


def assert_gradient_matches_value_differences(ctx, rng, trials, outer="power"):
    """gamma_gradient against central differences of gamma_value; with
    ``outer`` "identity", the same for r(y) - sum_i b_i log y_i, the objective
    with r in place of g(r), built from risk_value and risk_gradient."""
    b = ctx.budget.b
    if outer == "power":
        value, gradient = partial(rb.gamma_value, ctx), partial(rb.gamma_gradient, ctx)
    else:
        def value(y):
            return ctx.risk_value(y) - float(b @ np.log(y))

        def gradient(y):
            return ctx.risk_gradient(y) - b / y
    for _ in range(trials):
        y = rng.uniform(2.0, 25.0, 3)
        grad = gradient(y)
        h = 1e-5 * np.maximum(1.0, y)
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h[i]
            fd[i] = (value(y + e) - value(y - e)) / (2 * h[i])
        assert np.linalg.norm(fd - grad) <= 1e-4 * max(1e-8, np.linalg.norm(grad))


def test_gamma_gradient_matches_value_differences(es_ctx):
    assert_gradient_matches_value_differences(es_ctx, np.random.default_rng(2), 5)


# (measure, model) inputs that cover both branches of the objective: ES, and
# the deviation measures at p = 1 and p = 2, on the README mixture and on a
# centred single t.  ``outer`` names the function of r under test: "identity"
# checks r itself, "power" checks g(r) = r^p, which is r for ES.
_UNIT_T = mm.MixtureModel.single_t(np.zeros(3), 9.0 * np.array(BENCH_LAMBDA1), 4.5)
MODE_CASES = {
    "es": (rl.MeasureSpec.expected_shortfall(0.95), make_bench_model()),
    "vol": (rl.MeasureSpec.volatility(), make_bench_model()),
    "dev_unit": (rl.MeasureSpec.variantile(0.75), _UNIT_T),
    "dev_general_p1": (rl.MeasureSpec.mad(), make_bench_model()),
    "dev_general_p2": (rl.MeasureSpec.variantile(0.75), make_bench_model()),
}
MODE_CONTEXTS = {case: rb.ObjectiveContext(rb.RiskBudget.uniform(3), spec, model)
                 for case, (spec, model) in MODE_CASES.items()}
OUTER_CASES = sorted((case, outer) for case, (spec, _) in MODE_CASES.items()
                     for outer in ("identity", "power") if outer == "identity" or not spec.is_es)


@pytest.mark.parametrize("case, outer", [c for c in OUTER_CASES if c != ("es", "identity")])
def test_gamma_gradient_matches_value_differences_per_mode(case, outer):
    # ES is test_gamma_gradient_matches_value_differences
    assert_gradient_matches_value_differences(MODE_CONTEXTS[case], np.random.default_rng(7), 3,
                                              outer)


@pytest.mark.parametrize("case, outer", OUTER_CASES)
@settings(max_examples=25)
@given(weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
def test_euler_identity(case, outer, weights):
    # sum_i u_i d_i f(u) = k f(u) for a k-homogeneous f: k = 1 for r and
    # k = p for g(r) = r^p
    ctx = MODE_CONTEXTS[case]
    u = np.array(weights) / sum(weights)
    if outer == "identity":
        degree, value, grad = 1, ctx.risk_value(u), ctx.risk_gradient(u)
    else:
        degree, value, grad = ctx.measure.p_power, ctx.outer_value(u), ctx.outer_gradient(u)
    assert float(u @ grad) == pytest.approx(degree * value, rel=1e-7)


@pytest.mark.parametrize("model", [
    mm.MixtureModel.single_gaussian(np.array([1e-4, -2e-4, 3e-4]), np.array(BENCH_LAMBDA1)),
    _UNIT_T,
    make_bench_model(),
], ids=["gaussian", "single-t", "mixture"])
def test_volatility_objective_is_the_covariance_form(model):
    # g(r(y)) = a^2 y' Sigma y with gradient 2 a^2 Sigma y for volatility, the
    # (a, a, 2) deviation measure, with Sigma the exact covariance of X
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(3), rl.MeasureSpec.volatility(), model)
    sigma = mm.covariance(model)
    a2 = ctx.measure.a_plus ** 2
    rng = np.random.default_rng(8)
    for _ in range(5):
        y = rng.uniform(0.2, 5.0, 3)
        assert ctx.outer_value(y) == pytest.approx(a2 * float(y @ sigma @ y), rel=1e-12)
        np.testing.assert_allclose(ctx.outer_gradient(y), 2.0 * a2 * (sigma @ y), rtol=1e-12)


@pytest.mark.parametrize("spec", [
    rl.MeasureSpec.mad(),
    rl.MeasureSpec.variantile(0.75),
    rl.MeasureSpec.variantile(0.9999),
    rl.MeasureSpec.deviation(1.0, 2.0, 2),
    rl.MeasureSpec.deviation(1.0, 1e-4, 1),
], ids=["mad", "variantile-0.75", "variantile-0.9999", "dev-1-2-2", "dev-1-1e-4-1"])
def test_inner_minimum_matches_scalar_minimizer(spec):
    # g(r(y)) = min_xi E[L(xi, Z)] against a bounded scalar minimizer whose
    # bracket, the 1e-7 and 1 - 1e-7 quantiles, holds xi* for every level here
    from scipy.optimize import minimize_scalar
    rng = np.random.default_rng(11)
    models = [make_bench_model()] + [random_mixture_model(rng, d) for d in (3, 3, 10)]
    for model in models:
        y = rng.uniform(0.2, 2.0, model.d)
        ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(model.d), spec, model)
        params = mm.portfolio_loss_params(model, y)
        lo, hi = mm.var_exact(params, 1e-7), mm.var_exact(params, 1.0 - 1e-7)
        oracle = minimize_scalar(
            lambda xi: mm.expected_power_loss(params, spec.a_plus, spec.b_minus,
                                              spec.p_power, xi),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-12 * (hi - lo)})
        assert lo + 1e-3 * (hi - lo) < oracle.x < hi - 1e-3 * (hi - lo)
        assert ctx.outer_value(y) == pytest.approx(oracle.fun, rel=1e-10)


@pytest.mark.parametrize("case", sorted(MODE_CONTEXTS))
@settings(max_examples=25)
@given(w1=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
       w2=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
       lam=st.floats(0.01, 100.0))
def test_risk_is_positively_homogeneous_and_subadditive(case, w1, w2, lam):
    ctx = MODE_CONTEXTS[case]
    y1, y2 = np.array(w1), np.array(w2)
    r1, r2 = ctx.risk_value(y1), ctx.risk_value(y2)
    assert ctx.risk_value(lam * y1) == pytest.approx(lam * r1, rel=1e-10)
    assert ctx.risk_value(y1 + y2) <= (r1 + r2) * (1.0 + 1e-10)


def test_gamma_gradient_vanishes_at_reference(es_ctx, bench_reference):
    grad = rb.gamma_gradient(es_ctx, bench_reference.y_raw)
    assert np.abs(grad).max() <= 1e-6


# ---------------------------------------------------------------------------
# tamed_gradient
# ---------------------------------------------------------------------------

def test_tamed_gradient_boundary_formula():
    budget = rb.RiskBudget.uniform(3)
    out = rb.tamed_gradient(budget, np.array([5.0, -3.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(out, np.array([-1.0 / 3.0, 0.0, 0.0]))


def test_tamed_gradient_interior_scaling():
    budget = rb.RiskBudget(np.array([0.5, 0.5]))
    g = np.array([1.0, 2.0])
    y = np.array([0.5, 2.0])
    np.testing.assert_allclose(rb.tamed_gradient(budget, g, y), 0.5 * (g - budget.b / y))
    y2 = np.array([3.0, 4.0])
    np.testing.assert_allclose(rb.tamed_gradient(budget, g, y2), g - budget.b / y2)


def test_tamed_gradient_rejects_negative():
    budget = rb.RiskBudget.uniform(2)
    with pytest.raises(ValueError):
        rb.tamed_gradient(budget, np.zeros(2), np.array([1.0, -0.1]))


# ---------------------------------------------------------------------------
# normalize / mde / kl
# ---------------------------------------------------------------------------

def test_normalize_examples():
    np.testing.assert_allclose(rb.normalize(np.array([2.0, 3.0, 5.0])), [0.2, 0.3, 0.5])
    u = np.array([0.25, 0.75])
    np.testing.assert_allclose(rb.normalize(u), u)
    y = np.array([1.0, 4.0])
    np.testing.assert_allclose(rb.normalize(7.3 * y), rb.normalize(y))
    with pytest.raises(ValueError):
        rb.normalize(np.array([1.0, 0.0]))


def test_mde_examples():
    assert rb.mde(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0
    assert rb.mde(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    got = rb.mde(np.array([0.2537, 0.3877, 0.3586]), BENCH_WEIGHTS)
    assert got == pytest.approx((0.0002 + 0.0011 + 0.0013) / 3.0, rel=1e-10)
    with pytest.raises(ValueError):
        rb.mde(np.ones(2), np.ones(3))


def test_divergence_flag():
    assert not rb.divergence_flag(0.04, 5e-2)
    assert rb.divergence_flag(math.inf, 50.0)
    assert rb.divergence_flag(math.nan, 0.5)
    for eps in (5e-2, 5e-1, 5.0, 50.0):
        assert rb.divergence_flag(eps * 1.01, eps)
        assert not rb.divergence_flag(eps * 0.99, eps)
    with pytest.raises(ValueError):
        rb.divergence_flag(1.0, 0.0)


# ---------------------------------------------------------------------------
# risk_contributions
# ---------------------------------------------------------------------------

def test_contributions_at_benchmark_weights(es_ctx):
    u = BENCH_WEIGHTS / BENCH_WEIGHTS.sum()
    contributions, risk = rb.risk_contributions(es_ctx, u)
    np.testing.assert_allclose(contributions, BENCH_CONTRIBUTION, atol=3e-4)
    assert risk == pytest.approx(BENCH_ES, abs=1e-3)


def test_contributions_symmetry(vol_power_ctx):
    u = np.full(3, 1.0 / 3.0)
    contributions, risk = rb.risk_contributions(vol_power_ctx, u)
    assert np.ptp(contributions) <= 1e-12
    assert risk == pytest.approx(math.sqrt(1.0 / 3.0))


def test_contributions_euler_identity(es_ctx):
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = rng.uniform(0.1, 1.0, 3)
        u /= u.sum()
        contributions, risk = rb.risk_contributions(es_ctx, u)
        assert contributions.sum() == pytest.approx(risk, rel=1e-4)


def test_contributions_reject_boundary(es_ctx):
    with pytest.raises(ValueError):
        rb.risk_contributions(es_ctx, np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        rb.risk_contributions(es_ctx, np.array([0.3, 0.3, 0.3]))


# ---------------------------------------------------------------------------
# reference_portfolio
# ---------------------------------------------------------------------------

def test_reference_matches_benchmark(bench_reference):
    np.testing.assert_allclose(bench_reference.u, BENCH_WEIGHTS, atol=5e-4)
    assert bench_reference.var == pytest.approx(BENCH_VAR, abs=5e-4)
    assert bench_reference.risk == pytest.approx(BENCH_ES, abs=1e-3)
    np.testing.assert_allclose(bench_reference.contributions, BENCH_CONTRIBUTION, atol=3e-4)
    assert bench_reference.y_raw.sum() == pytest.approx(30.4, abs=0.1)
    assert bench_reference.grad_norm <= 1e-10


def test_reference_two_asset_inverse_vol():
    for corr in (-0.4, 0.0, 0.6):
        lam = np.array([[1.0, corr * 2.0], [corr * 2.0, 4.0]])
        model = mm.MixtureModel.single_gaussian(np.zeros(2), lam)
        ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(2), rl.MeasureSpec.volatility(), model)
        report = rb.reference_portfolio(ctx, tol=1e-11)
        np.testing.assert_allclose(report.u, [2.0 / 3.0, 1.0 / 3.0], atol=1e-6)


def test_reference_exchangeable_assets_uniform():
    lam = np.full((3, 3), 4e-5) + np.diag(np.full(3, 6e-5))
    model = mm.MixtureModel.single_t(np.zeros(3), lam, 5.0)
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(3), rl.MeasureSpec.expected_shortfall(0.95), model)
    report = rb.reference_portfolio(ctx, tol=1e-9)
    np.testing.assert_allclose(report.u, np.full(3, 1.0 / 3.0), atol=1e-9)


def test_reference_scale_invariance(bench_model, bench_reference):
    lam_scale = 2.5
    scaled = mm.MixtureModel(
        weight=bench_model.weight,
        mu1=lam_scale * bench_model.mu1,
        mu2=lam_scale * bench_model.mu2,
        lambda1=lam_scale ** 2 * bench_model.lambda1,
        lambda2=lam_scale ** 2 * bench_model.lambda2,
        nu1=bench_model.nu1,
        nu2=bench_model.nu2,
    )
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(3),
                              rl.MeasureSpec.expected_shortfall(0.95), scaled)
    report = rb.reference_portfolio(ctx, tol=1e-9)
    np.testing.assert_allclose(report.u, bench_reference.u, atol=1e-7)


def test_reference_convergence_error(es_ctx):
    # five mirror-descent steps cannot bring the gradient down to 1e-14
    with pytest.raises(rb.ConvergenceError) as err:
        rb.reference_portfolio(es_ctx, tol=1e-14, max_iterations=5)
    assert err.value.grad_norm > 1e-14


def test_reference_d50_es_converges_at_tight_tolerance():
    model = bc.generate_model(50, 2024)
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(50),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    report = rb.reference_portfolio(ctx, tol=1e-10, max_iterations=20_000)
    assert report.grad_norm <= 1e-10
    assert report.iterations < 20_000


# ---------------------------------------------------------------------------
# Taming properties (small-scale versions; the acceptance suite runs the
# full-size sweeps)
# ---------------------------------------------------------------------------

def test_taming_positivity_toward_minimizer(es_ctx, bench_reference):
    rng = np.random.default_rng(5)
    y_star = bench_reference.y_raw
    for i in range(100):
        y = rng.uniform(0.0, 3.0, 3) * rng.choice([1.0, 10.0], 3)
        if i % 4 == 0:
            y[rng.integers(0, 3)] = 0.0
        if np.allclose(y, y_star):
            continue
        if np.any(y == 0.0):
            tg = rb.tamed_gradient(es_ctx.budget, np.zeros(3), y)
        else:
            tg = rb.tamed_gradient(es_ctx.budget, es_ctx.outer_gradient(y), y)
        assert float((y - y_star) @ tg) > 0.0


def test_taming_pointwise_bound(es_ctx):
    rng = np.random.default_rng(6)
    b_max = es_ctx.budget.b.max()
    for _ in range(200):
        y = rng.uniform(1e-3, 30.0, 3)
        if y.sum() > 100.0:
            y *= 100.0 / y.sum()
        grad_outer = es_ctx.outer_gradient(y)
        tg = rb.tamed_gradient(es_ctx.budget, grad_outer, y)
        assert np.abs(tg).max() <= np.abs(grad_outer).max() + b_max + 1e-9
