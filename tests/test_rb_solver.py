import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmd import bench_cli as bc
from rbmd import market_models as mm
from rbmd import mirror_descent as md
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


_BATCH_MEASURES = {"es": rl.MeasureSpec.expected_shortfall(0.95), "mad": rl.MeasureSpec.mad(),
                   "variantile": rl.MeasureSpec.variantile(0.75),
                   "volatility": rl.MeasureSpec.volatility()}


def _scalar_gammas(ctx, ys):
    """gamma_value row by row, as the runs called it (a row whose scale
    overflows warns): inf where it raises ValueError, nan where it raises
    NumericsError."""
    out = []
    for y in ys:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out.append(rb.gamma_value(ctx, y))
        except ValueError:
            out.append(math.inf)
        except mm.NumericsError:
            out.append(math.nan)
    return np.array(out)


@pytest.mark.parametrize("d", [3, 10, 50])
@pytest.mark.parametrize("measure", list(_BATCH_MEASURES))
def test_gamma_values_match_gamma_value(measure, d):
    """The array kernels against the scalar path: within 1e-13 max(1, |Gamma|)
    on random interior rows, inf on rows off the open orthant and on rows whose
    scale overflows (1e200) or underflows to 0 (1e-200), and K = 0 and 1."""
    rng = np.random.default_rng(d)
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(d), _BATCH_MEASURES[measure],
                              random_mixture_model(rng, d))
    ys = np.exp(rng.normal(0.0, 1.5, (40, d)))
    got, want = rb.gamma_values(ctx, ys), _scalar_gammas(ctx, ys)
    assert np.all(np.isfinite(want))
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    bad = np.ones((7, d))
    bad[0, 0], bad[1, -1], bad[2, 0], bad[3, 0], bad[4, 0] = 0.0, -1.0, math.nan, math.inf, -0.0
    bad[5], bad[6] = 1e200, 1e-200
    assert np.all(_scalar_gammas(ctx, bad) == math.inf)
    mixed = rb.gamma_values(ctx, np.vstack([bad[:3], ys[:2], bad[3:]]))
    np.testing.assert_array_equal(np.isinf(mixed), [True] * 3 + [False] * 2 + [True] * 4)
    np.testing.assert_allclose(mixed[3:5], got[:2], rtol=1e-13)
    assert rb.gamma_values(ctx, np.empty((0, d))).shape == (0,)
    one = rb.gamma_values(ctx, ys[:1])
    assert one.shape == (1,) and abs(one[0] - want[0]) <= 1e-13 * max(1.0, abs(want[0]))


@pytest.mark.parametrize("measure, nu2", [("volatility", 1.8), ("variantile", 1.8),
                                          ("es", math.nan), ("mad", math.nan),
                                          ("variantile", math.nan)])
def test_gamma_values_read_nan_where_gamma_value_raises_numerics_error(measure, nu2):
    """A second moment of a t component with nu <= 2, and a Newton solve that
    does not converge (a NaN nu), raise NumericsError in gamma_value and read
    nan in gamma_values; a row gamma_value rejects with ValueError first still
    reads inf."""
    rng = np.random.default_rng(5)
    m = random_mixture_model(rng, 3)
    model = mm.MixtureModel(m.weight, m.mu1, m.mu2, m.lambda1, m.lambda2, m.nu1, nu2)
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(3), _BATCH_MEASURES[measure], model)
    ys = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 1.0], [1e200] * 3, [2.0, 1.0, 0.5]])
    with pytest.raises(mm.NumericsError):
        rb.gamma_value(ctx, ys[0])
    got = rb.gamma_values(ctx, ys)
    assert np.isnan(got[[0, 3]]).all() and np.all(got[[1, 2]] == math.inf)
    np.testing.assert_array_equal(got, _scalar_gammas(ctx, ys))


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


def test_contributions_solve_xi_star_once_per_evaluation(monkeypatch):
    """r(u) is evaluated once: one expectile for the value, one for the
    gradient, and one expected power loss, with the same result bit for bit
    as ``risk_gradient`` solving r(u) itself."""
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(3), rl.MeasureSpec.volatility(),
                              make_bench_model())
    u = rb.reference_portfolio(ctx, tol=1e-8).u
    want = u * ctx.risk_gradient(u), ctx.risk_value(u)
    calls = {"expectile": 0, "expected_power_loss": 0}
    for name in calls:
        def counted(*args, _kernel=getattr(mm, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(mm, name, counted)
    contributions, risk = rb.risk_contributions(ctx, u)
    assert calls == {"expectile": 2, "expected_power_loss": 1}
    assert contributions.tobytes() == want[0].tobytes() and risk == want[1]


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


def test_default_y0_inverse_variance():
    lam = np.diag([0.01, 0.04])
    model = mm.MixtureModel.single_gaussian(np.zeros(2), lam)
    y0 = rb.default_y0(model, m_cap=1000.0)
    np.testing.assert_allclose(y0, [1.0 / (2 * 0.01), 1.0 / (2 * 0.04)])
    # rescaled into a small ball, direction preserved
    y0s = rb.default_y0(model, m_cap=10.0)
    assert y0s.sum() == pytest.approx(10.0)
    np.testing.assert_allclose(y0s / y0s.sum(), y0 / y0.sum())


def test_default_y0_entropy_fallback():
    model = mm.MixtureModel.single_t(np.zeros(3), np.eye(3), 1.9)  # no covariance
    y0 = rb.default_y0(model, m_cap=100.0)
    np.testing.assert_allclose(y0, np.full(3, math.exp(-1.0)))
    y0_small = rb.default_y0(model, m_cap=0.5)
    np.testing.assert_allclose(y0_small, np.full(3, 0.5 / 3.0))


def test_reference_convergence_error(es_ctx):
    # five Newton steps cannot bring the gradient down to 1e-14
    with pytest.raises(rb.ConvergenceError) as err:
        rb.reference_portfolio(es_ctx, tol=1e-14, max_iterations=5)
    assert err.value.grad_norm > 1e-14


def test_reference_d50_es_converges_at_tight_tolerance():
    model = bc.generate_model(50, 2024)
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(50),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    report = rb.reference_portfolio(ctx, tol=1e-10)
    assert report.grad_norm <= 1e-10
    assert report.iterations < 100


@pytest.mark.parametrize("spec", [rl.MeasureSpec.expected_shortfall(0.95), rl.MeasureSpec.mad()],
                         ids=["es", "mad"])
def test_reference_matches_mirror_descent_oracle(bench_model, spec):
    # the paper's deterministic mirror descent, run far past the reference
    # tolerance, lands on the same portfolio as the Newton solve
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(3), spec, bench_model)
    report = rb.reference_portfolio(ctx, tol=1e-10)
    cfg = md.OptimizerConfig(m_cap=300.0, schedule=md.StepSchedule.constant(1.0),
                             iterations=100_000, y0=rb.default_y0(bench_model, 300.0),
                             record_every=100_000, grad_tol=1e-12)
    oracle = md.dmd_run(ctx, cfg)
    assert not oracle.diverged and oracle.grad_norm <= 1e-12
    assert np.abs(rb.normalize(oracle.y_final) - report.u).max() <= 1e-9


def test_reference_d50_contributions_match_budget():
    model = bc.generate_model(50, 2024)
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(50),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    report = rb.reference_portfolio(ctx, tol=1e-12)
    assert np.abs(report.contributions / report.risk - 1.0 / 50).max() <= 1e-10


MEASURE_SHAPES = {
    "es": lambda rng: rl.MeasureSpec.expected_shortfall(float(rng.uniform(0.5, 0.995))),
    "volatility": lambda rng: rl.MeasureSpec.volatility(),
    "mad": lambda rng: rl.MeasureSpec.mad(),
    "variantile": lambda rng: rl.MeasureSpec.variantile(float(rng.uniform(0.05, 0.995))),
    "deviation": lambda rng: rl.MeasureSpec.deviation(
        float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)), int(rng.integers(1, 3))),
}


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 10),
       shape=st.sampled_from(sorted(MEASURE_SHAPES)))
def test_reference_contributions_match_random_budgets(seed, d, shape):
    rng = np.random.default_rng(seed)
    model = random_mixture_model(rng, d)
    budget = rb.RiskBudget(rng.uniform(0.2, 1.0, d))
    ctx = rb.ObjectiveContext(budget, MEASURE_SHAPES[shape](rng), model)
    tol = 1e-10
    report = rb.reference_portfolio(ctx, tol=tol)
    assert report.grad_norm <= tol
    # At the stop y_i d_i g(y) = b_i + y_i e_i with |e_i| <= tol / kappa, and
    # c_i / r = y_i d_i g / sum_j y_j d_j g by homogeneity, so the relative
    # contributions sit within about 2 |y|_1 tol / kappa of b.
    y = report.y_raw
    bound = 2.5 * y.sum() * tol / min(1.0, y.min()) + 1e-13
    assert np.abs(report.contributions / report.risk - budget.b).max() <= bound


def _nan_after_first_call(monkeypatch):
    """Make ``outer_gradient`` return NaN from its second call on."""
    calls = []
    real = rb.ObjectiveContext.outer_gradient

    def outer_gradient(self, y):
        calls.append(None)
        grad = real(self, y)
        return grad if len(calls) == 1 else np.full_like(grad, np.nan)

    monkeypatch.setattr(rb.ObjectiveContext, "outer_gradient", outer_gradient)


def _singular_solve(monkeypatch):
    def solve(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(rb.np.linalg, "solve", solve)


@pytest.mark.parametrize("fault, reason", [(_nan_after_first_call, "non-finite Hessian"),
                                           (_singular_solve, "singular Hessian")],
                         ids=["nan-hessian", "singular-hessian"])
def test_reference_newton_failure_raises(es_ctx, monkeypatch, fault, reason):
    y0 = rb.default_y0(es_ctx.model, 300.0)
    start_norm = float(np.abs(rb.tamed_gradient(
        es_ctx.budget, es_ctx.outer_gradient(y0), y0)).max())
    fault(monkeypatch)
    with pytest.raises(rb.ConvergenceError, match=reason) as err:
        rb.reference_portfolio(es_ctx, tol=1e-10)
    assert err.value.grad_norm == start_norm


def test_cmd_reference_newton_failure_exits_2(capsys, tmp_path, monkeypatch):
    _nan_after_first_call(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"inline": make_bench_model().to_dict()},
                                  "measure": {"kind": "es", "alpha": 0.95}}))
    code = bc.main(["reference", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite Hessian" in err and "Traceback" not in err


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
