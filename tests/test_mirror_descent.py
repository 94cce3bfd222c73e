import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rbmd import market_models as mm
from rbmd import mirror_descent as md
from rbmd import rb_solver as rb
from rbmd import risk_loss as rl
from rbmd.bench_cli import generate_model

from conftest import make_bench_model


@pytest.fixture(scope="module")
def small_es_setup():
    model = make_bench_model()
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(3),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    samples = mm.sample_returns(model, 5000, seed=17)
    return ctx, samples


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_step_size_values():
    assert md.step_size(md.StepSchedule.power(1.0, 0.55), 1) == 1.0
    # direct exponentiation oracle
    assert md.step_size(md.StepSchedule.power(1.0, 0.55), 1024) == pytest.approx(1024.0 ** -0.55)
    assert md.step_size(md.StepSchedule.constant(1.0), 12345) == 1.0
    with pytest.raises(ValueError):
        md.step_size(md.StepSchedule.constant(1.0), 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        md.StepSchedule("power", 0.0, 0.5)
    with pytest.raises(ValueError):
        md.StepSchedule("power", 1.0, 1.5)
    with pytest.raises(ValueError):
        md.StepSchedule("geometric", 1.0)


# ---------------------------------------------------------------------------
# Proximal map
# ---------------------------------------------------------------------------

def test_prox_identity_at_zero_step():
    y = np.array([0.5, 1.5, 2.0])
    np.testing.assert_array_equal(md.prox_map(y, np.zeros(3), 10.0), y)


def test_prox_componentwise_exponential():
    out = md.prox_map(np.array([1.0, 1.0]), np.array([math.log(2.0)] * 2), 10.0)
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=1e-15)


def test_prox_cap_rescaling():
    out = md.prox_map(np.array([4.0, 4.0]), np.array([-math.log(2.0)] * 2), 10.0)
    np.testing.assert_allclose(out, [5.0, 5.0], rtol=1e-15)


def test_prox_stays_positive_under_extreme_steps():
    y = np.array([1e-10, 1.0])
    out = md.prox_map(y, np.array([5000.0, -5000.0]), 10.0)
    assert np.all(out > 0.0)
    assert out.sum() <= 10.0 * (1 + 1e-12)


def test_prox_log_domain_fallback():
    # y * exp(700) overflows, so the sum is inf and the prox works in logs
    y = np.array([3e4, 3e4, 1.0])
    v = np.array([-5000.0, -699.0, 2.0])
    with np.errstate(over="ignore"):
        assert not math.isfinite((y * np.exp(np.minimum(-v, 700.0))).sum())
        out = md.prox_map(y, v, 1e5)
    assert np.all(np.isfinite(out))
    assert np.all(out > 0.0)
    assert out.sum() <= 1e5 * (1 + 1e-12)


def test_prox_validation():
    with pytest.raises(ValueError):
        md.prox_map(np.array([1.0, -1.0]), np.zeros(2), 10.0)
    with pytest.raises(ValueError):
        md.prox_map(np.array([6.0, 6.0]), np.zeros(2), 10.0)
    with pytest.raises(ValueError):
        md.prox_map(np.array([1.0, 1.0]), np.zeros(2), 0.0)


def test_prox_is_bregman_argmin():
    # Monte-Carlo argmin certificate: no feasible candidate does better.
    rng = np.random.default_rng(13)
    for _ in range(500):
        d = int(rng.integers(2, 6))
        m = float(rng.uniform(1.0, 20.0))
        y = rng.uniform(0.05, 1.0, d)
        y *= rng.uniform(0.2, 1.0) * m / y.sum()
        v = rng.normal(0.0, 1.5, d)
        w_star = md.prox_map(y, v, m)

        def objective(w):
            kl = np.sum(w * np.log(w / y), axis=-1) - w.sum(axis=-1) + y.sum()
            return (w - y) @ v + kl

        best = objective(w_star)
        cand = rng.uniform(1e-4, 1.0, (2000, d))
        cand *= (m * rng.uniform(0.01, 1.0, 2000) / cand.sum(axis=1))[:, None]
        vals = ((cand - y) @ v
                + np.sum(cand * np.log(cand / y), axis=1) - cand.sum(axis=1) + y.sum())
        assert best <= vals.min() + 1e-9
        for shrink in (0.95, 1.05):
            w = w_star * shrink
            if w.sum() <= m:
                assert best <= objective(w) + 1e-9


# ---------------------------------------------------------------------------
# Averaging helpers
# ---------------------------------------------------------------------------

def test_weighted_average_examples():
    traj = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    out = md.weighted_average(traj, md.StepSchedule.constant(1.0))
    np.testing.assert_allclose(out, [0.5, 0.5])
    np.testing.assert_allclose(md.weighted_average(traj[:1], md.StepSchedule.power(2.0, 0.75)),
                               traj[0])
    rng = np.random.default_rng(14)
    stack = [rng.uniform(0, 1, 3) for _ in range(7)]
    np.testing.assert_allclose(md.weighted_average(stack, md.StepSchedule.constant(0.3)),
                               np.mean(stack, axis=0))
    with pytest.raises(ValueError):
        md.weighted_average([], md.StepSchedule.constant(1.0))


def test_tail_average_examples():
    rng = np.random.default_rng(15)
    stack = [rng.uniform(0, 1, 2) for _ in range(5)]
    np.testing.assert_allclose(md.tail_average(stack, 1.0), np.mean(stack, axis=0))
    np.testing.assert_allclose(md.tail_average(stack, 0.5), np.mean(stack[-3:], axis=0))
    const = [np.array([0.3, 0.7])] * 9
    np.testing.assert_allclose(md.tail_average(const, 0.2), const[0])
    with pytest.raises(ValueError):
        md.tail_average([], 0.2)
    with pytest.raises(ValueError):
        md.tail_average(const, 0.0)


# ---------------------------------------------------------------------------
# Config validation and defaults
# ---------------------------------------------------------------------------

def test_config_rejects_start_outside_ball():
    with pytest.raises(ValueError):
        md.OptimizerConfig(m_cap=1.0, schedule=md.StepSchedule.constant(1.0),
                           iterations=10, y0=np.array([2.0, 2.0]))
    with pytest.raises(ValueError):
        md.OptimizerConfig(m_cap=10.0, schedule=md.StepSchedule.constant(1.0),
                           iterations=10, y0=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        md.OptimizerConfig(m_cap=10.0, schedule=md.StepSchedule.constant(1.0),
                           iterations=10, y0=np.ones(2), tail_fraction=0.0)


def test_default_y0_inverse_variance():
    lam = np.diag([0.01, 0.04])
    model = mm.MixtureModel.single_gaussian(np.zeros(2), lam)
    y0 = md.default_y0(model, m_cap=1000.0)
    np.testing.assert_allclose(y0, [1.0 / (2 * 0.01), 1.0 / (2 * 0.04)])
    # rescaled into a small ball, direction preserved
    y0s = md.default_y0(model, m_cap=10.0)
    assert y0s.sum() == pytest.approx(10.0)
    np.testing.assert_allclose(y0s / y0s.sum(), y0 / y0.sum())


def test_default_y0_entropy_fallback():
    model = mm.MixtureModel.single_t(np.zeros(3), np.eye(3), 1.9)  # no covariance
    y0 = md.default_y0(model, m_cap=100.0)
    np.testing.assert_allclose(y0, np.full(3, math.exp(-1.0)))
    y0_small = md.default_y0(model, m_cap=0.5)
    np.testing.assert_allclose(y0_small, np.full(3, 0.5 / 3.0))


# ---------------------------------------------------------------------------
# Deterministic runs
# ---------------------------------------------------------------------------

def test_dmd_feasibility_and_determinism(small_es_setup):
    ctx, _ = small_es_setup
    cfg = md.OptimizerConfig(m_cap=40.0, schedule=md.StepSchedule.constant(1.0),
                             iterations=120, y0=md.default_y0(ctx.model, 40.0),
                             record_every=1)
    res1 = md.dmd_run(ctx, cfg)
    res2 = md.dmd_run(ctx, cfg)
    np.testing.assert_array_equal(res1.y_final, res2.y_final)
    assert res1.min_underbar_y > 0.0
    for _, y in res1.y_trace:
        assert np.all(y > 0.0)
        assert y.sum() <= 40.0 * (1 + 1e-9)
    assert [k for k, _ in res1.gap_trace] == list(range(1, 121))


def test_dmd_gradient_stop(small_es_setup):
    ctx, _ = small_es_setup
    cfg = md.OptimizerConfig(m_cap=300.0, schedule=md.StepSchedule.constant(1.0),
                             iterations=10 ** 5, y0=md.default_y0(ctx.model, 300.0),
                             record_every=10 ** 5, grad_tol=1e-9)
    res = md.dmd_run(ctx, cfg)
    assert res.grad_norm <= 1e-9
    assert res.iterations < 10 ** 5
    assert not res.diverged


def test_dmd_weighted_average_matches_helper(small_es_setup):
    ctx, _ = small_es_setup
    sched = md.StepSchedule.power(1.0, 0.55)
    cfg = md.OptimizerConfig(m_cap=40.0, schedule=sched, iterations=60,
                             y0=md.default_y0(ctx.model, 40.0),
                             record_every=1)
    res = md.dmd_run(ctx, cfg)
    trajectory = [cfg.y0] + [y for _, y in res.y_trace[:-1]]
    np.testing.assert_allclose(md.weighted_average(trajectory, sched),
                               res.y_weighted_avg, rtol=1e-12)
    tail = [y for _, y in res.y_trace[-math.ceil(0.2 * 60):]]
    np.testing.assert_allclose(np.mean(tail, axis=0), res.y_tail_avg, rtol=1e-12)


# ---------------------------------------------------------------------------
# Stochastic runs
# ---------------------------------------------------------------------------

def test_smd_determinism_and_feasibility(small_es_setup):
    ctx, samples = small_es_setup
    cfg = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.power(1.0, 0.75),
                             iterations=1, epochs=2, y0=md.default_y0(ctx.model, 100.0),
                             record_every=500)
    res1 = md.smd_run(ctx, samples, cfg)
    res2 = md.smd_run(ctx, samples, cfg)
    np.testing.assert_array_equal(res1.y_final, res2.y_final)
    assert res1.xi_final == res2.xi_final
    assert res1.min_underbar_y > 0.0
    assert res1.iterations == 10000
    for _, y in res1.y_trace:
        assert np.all(y > 0.0)
        assert y.sum() <= 100.0 * (1 + 1e-9)


def test_smd_epochs_replay_in_order(small_es_setup):
    ctx, samples = small_es_setup
    short = samples[:1000]
    cfg2 = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.power(1.0, 0.75),
                              iterations=1, epochs=2, y0=md.default_y0(ctx.model, 100.0),
                              record_every=2000)
    doubled = np.vstack([short, short])
    cfg1 = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.power(1.0, 0.75),
                              iterations=1, epochs=1, y0=md.default_y0(ctx.model, 100.0),
                              record_every=2000)
    res_epochs = md.smd_run(ctx, short, cfg2)
    res_concat = md.smd_run(ctx, doubled, cfg1)
    np.testing.assert_array_equal(res_epochs.y_final, res_concat.y_final)
    assert res_epochs.xi_final == res_concat.xi_final


def test_smd_xi_tracks_quantile(small_es_setup):
    ctx, samples = small_es_setup
    cfg = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.power(1.0, 0.65),
                             iterations=1, epochs=10, y0=md.default_y0(ctx.model, 100.0),
                             record_every=50000)
    res = md.smd_run(ctx, samples, cfg)
    params = mm.portfolio_loss_params(ctx.model, res.y_final)
    target = mm.var_exact(params, 0.95)
    assert res.xi_tail_avg == pytest.approx(target, rel=0.1)


def test_sgd_floor_resets_nonpositive_coordinates():
    model = mm.MixtureModel.single_gaussian(np.zeros(2), np.diag([0.01, 0.01]))
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(2),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    y0 = np.array([0.3, 5.0])
    x = np.array([[-0.5, -0.1]])
    cfg = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.constant(0.1),
                             iterations=1, epochs=1, y0=y0, record_every=1)
    res = md.sgd_run("classical", ctx, x, cfg)
    # z = 0.65 > xi = 0, so dL/dz = 20; the first coordinate is pushed negative
    grad = -x[0] * 20.0 - ctx.budget.b / y0
    expected = y0 - 0.1 * grad
    assert expected[0] < 0.0
    assert res.y_final[0] == 1e-4
    assert res.y_final[1] == pytest.approx(expected[1])


def test_sgd_tamed_scales_by_kappa():
    model = mm.MixtureModel.single_gaussian(np.zeros(2), np.diag([0.01, 0.01]))
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(2),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    y0 = np.array([0.5, 2.0])
    x = np.array([[0.2, -0.3]])
    cfg = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.constant(0.1),
                             iterations=1, epochs=1, y0=y0, record_every=1)
    res = md.sgd_run("tamed", ctx, x, cfg)
    z = -float(y0 @ x[0])
    gz = rl.loss_grad_z(ctx.measure, 0.0, z)
    grad = -x[0] * gz - ctx.budget.b / y0
    expected = y0 - 0.1 * 0.5 * grad  # kappa = min(y) = 0.5
    np.testing.assert_allclose(res.y_final, expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow stays silent
def test_sgd_divergence_flagged():
    model = mm.MixtureModel.single_gaussian(np.zeros(2), np.diag([0.01, 0.01]))
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(2),
                              rl.MeasureSpec.expected_shortfall(0.95), model)
    # first step floors y, the 1/y kick then overflows the next update
    samples = np.array([[-1.0, -1.0], [-1.0, -1.0]])
    cfg = md.OptimizerConfig(m_cap=1e9, schedule=md.StepSchedule.constant(1e305),
                             iterations=1, epochs=1, y0=np.array([1.0, 1.0]),
                             record_every=10)
    res = md.sgd_run("classical", ctx, samples, cfg)
    assert res.diverged
    assert not math.isfinite(res.gap_trace[-1][1])


def test_feasibility_across_random_runs():
    # every mirror-descent iterate stays strictly positive inside the cap
    rng = np.random.default_rng(20)
    from conftest import random_mixture_model

    for trial in range(100):
        d = int(rng.integers(2, 5))
        model = random_mixture_model(rng, d)
        ctx = rb.ObjectiveContext(rb.RiskBudget(rng.uniform(0.2, 1.0, d)),
                                  rl.MeasureSpec.expected_shortfall(0.95), model)
        m_cap = float(rng.uniform(5.0, 200.0))
        y0 = md.default_y0(model, m_cap)
        cfg = md.OptimizerConfig(m_cap=m_cap,
                                 schedule=md.StepSchedule.power(float(rng.uniform(0.5, 3.0)), 0.65),
                                 iterations=40, epochs=1, y0=y0,
                                 record_every=1)
        if trial % 10 == 0:
            res = md.dmd_run(ctx, cfg)
        else:
            samples = mm.sample_returns(model, 40, seed=trial)
            res = md.smd_run(ctx, samples, cfg)
        assert res.min_underbar_y > 0.0
        for _, y in res.y_trace:
            assert np.all(y > 0.0)
            assert y.sum() <= m_cap * (1 + 1e-9)


def test_sgd_rejects_unknown_variant(small_es_setup):
    ctx, samples = small_es_setup
    cfg = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.constant(0.1),
                             iterations=1, epochs=1, y0=np.ones(3))
    with pytest.raises(ValueError):
        md.sgd_run("momentum", ctx, samples, cfg)


# ---------------------------------------------------------------------------
# Bit-identity against a plain per-step oracle
# ---------------------------------------------------------------------------

def _plain_prox(y, v, m):
    """The entropic prox written plainly: y * exp(-v) with every exponent
    clamped to +-700, rescaled onto the m ball, a log-domain fallback when
    the sum overflows, and every underflow floored to the smallest double."""
    v = np.minimum(np.maximum(v, -md._CLAMP), md._CLAMP)
    np.negative(v, out=v)
    np.exp(v, out=v)
    w = y * v
    s = w.sum()
    if not math.isfinite(s):
        t = np.log(y) + np.log(v)
        t -= t.max()
        w = np.exp(t)
        return np.maximum(w * (m / w.sum()), md._TINY), True
    if s <= m:
        return np.maximum(w, md._TINY, out=w), False
    w *= m / s
    return np.maximum(w, md._TINY, out=w), True


@given(log_y=st.lists(st.floats(-300.0, 4.0), min_size=1, max_size=6),
       v=st.lists(st.floats(-5000.0, 5000.0), min_size=6, max_size=6),
       log_m=st.floats(-2.0, 7.0))
@example(log_y=[4.0, 4.0, 0.0], v=[-5000.0, -5000.0, 2.0, 0, 0, 0], log_m=7.0)  # fallback
@example(log_y=[-300.0, 0.0], v=[5000.0, -1.0, 0, 0, 0, 0], log_m=2.0)  # clamp, floor
def test_prox_map_matches_plain_prox(log_y, v, log_m):
    y = 10.0 ** np.array(log_y)
    v = np.array(v[:y.size])
    m = 10.0 ** log_m
    if y.sum() > m:
        y *= m / y.sum()
    with np.errstate(all="ignore"):
        want = _plain_prox(y, v.copy(), m)[0]
        got = md.prox_map(y, v, m)
    assert got.tobytes() == want.tobytes()
    assert np.all(got > 0.0) and np.all(np.isfinite(got))
    assert got.sum() <= m * (1 + 1e-12)


def _plain_gap(ctx, y):
    """The gap a run without a reference records: Gamma(y), inf once y left
    the open orthant, nan where the objective cannot be evaluated."""
    try:
        return rb.gamma_value(ctx, y)
    except ValueError:
        return math.inf
    except mm.NumericsError:
        return math.nan


def _end_trace(gaps, k, diverged):
    """A run whose last record reads inf at its final step k is diverged; a
    diverged run's gap trace ends with one (k, inf)."""
    if gaps[-1:] == [(k, math.inf)]:
        return True
    if diverged:
        gaps.append((k, math.inf))
    return diverged


def _reference_stochastic_run(rule, ctx, samples, cfg, floor_eps=1e-4):
    """SMD ("smd") and SGD ("tamed", "classical") one plain step at a time:
    grad_y = -X dL/dz - b/y, kappa from y.min(), then ``_plain_prox`` or the
    np.where reset.  Returns the run and the set of guarded branches met."""
    hits = set()
    total = cfg.epochs * samples.shape[0]
    tail_start = total - max(1, math.ceil(cfg.tail_fraction * total)) + 1
    b = ctx.budget.b
    y = cfg.y0.copy()
    xi = float(cfg.xi0)
    wacc = np.zeros_like(y)
    tail_acc = np.zeros_like(y)
    wsum = gamma_sum = xi_tail = 0.0
    tail_n = 0
    min_under = float(y.min())
    gaps, ys, avgs, xis, projections = [], [], [], [], []
    diverged = False
    k = 0
    for x in np.vstack([samples] * cfg.epochs):
        k += 1
        z = -float(y @ x)
        if not (math.isfinite(z) and math.isfinite(xi)):
            diverged = True
            break
        if y.min() < np.finfo(float).tiny:
            hits.add("subnormal")
        gamma = md.step_size(cfg.schedule, k)
        g_xi = rl.loss_grad_xi(ctx.measure, xi, z)
        g_z = rl.loss_grad_z(ctx.measure, xi, z)
        grad_y = -x * g_z - b / y
        wacc += gamma * y
        wsum += gamma
        gamma_sum += gamma
        xi = xi - gamma * g_xi
        kappa = min(float(y.min()), 1.0)
        if rule == "smd":
            v = (gamma * kappa) * grad_y
            with np.errstate(all="ignore"):
                w = y * np.exp(-np.clip(v, -md._CLAMP, md._CLAMP))
                s = w.sum()
                if s > cfg.m_cap:
                    w *= cfg.m_cap / s
            if np.any(np.abs(v) > md._CLAMP):
                hits.add("clamp")
            if not math.isfinite(s):
                hits.add("fallback")
            elif np.any(w == 0.0):
                hits.add("floor")
            y, projected = _plain_prox(y, v, cfg.m_cap)
            if projected:
                hits.add("cap")
                projections.append(k)
        else:
            out = y - (gamma * kappa if rule == "tamed" else gamma) * grad_y
            if np.any(out <= 0.0):
                hits.add("reset")
            y = np.where(out <= 0.0, floor_eps, out)
        min_under = min(min_under, float(y.min()))
        if k >= tail_start:
            tail_acc += y
            tail_n += 1
            xi_tail += xi
        if k % cfg.record_every == 0 or k == total:
            gaps.append((k, _plain_gap(ctx, y)))
            ys.append((k, y.copy()))
            avgs.append((k, wacc / wsum))
            xis.append((k, xi))
    if not (np.all(np.isfinite(y)) and math.isfinite(xi)):
        diverged = True
    if gaps[-1:] == [(k, math.inf)]:
        hits.add("overflow")
    diverged = _end_trace(gaps, k, diverged)
    if diverged:
        hits.add("diverged")
    result = md.RunResult(
        y_final=y, xi_final=xi,
        y_weighted_avg=wacc / wsum if wsum > 0.0 else y.copy(),
        y_tail_avg=tail_acc / tail_n if tail_n > 0 else y.copy(),
        xi_tail_avg=xi_tail / tail_n if tail_n > 0 else xi,
        gap_trace=gaps, min_underbar_y=min_under, diverged=diverged,
        iterations=k, grad_norm=math.nan, gamma_sum=gamma_sum,
        n_projections=len(projections), y_trace=ys, avg_trace=avgs, xi_trace=xis,
        projection_iters=projections)
    return result, hits


def _bits(value):
    """Exact fingerprint: float and array payloads compared by their bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return type(value), value


_MEASURES = {"es": rl.MeasureSpec.expected_shortfall(0.95), "mad": rl.MeasureSpec.mad(),
             "variantile": rl.MeasureSpec.variantile(0.75)}

# (rule, measure, d, (schedule, gamma0), m_cap, guarded branches the case reaches)
_ORACLE_GRID = [
    # plain regime: the cap projection fires, nothing else
    ("smd", "es", 3, ("constant", 1.0), 100.0, {"cap"}),
    ("smd", "mad", 3, ("power", 3.0), 100.0, {"cap"}),
    # a ball so large that no guarded branch fires
    ("smd", "es", 10, ("constant", 1.0), 1e7, set()),
    # clamp active, _TINY floor, and subnormal y_i: b/y overflows to inf, so
    # the clamp must not be skipped on the exponent bound alone
    ("smd", "variantile", 3, ("constant", 400.0), 100.0, {"clamp", "floor", "subnormal"}),
    ("smd", "mad", 10, ("constant", 5e4), 100.0, {"clamp", "floor", "cap"}),
    # gamma * b_i = 705: the clamp acts on an exponent whose exp is still finite
    ("smd", "es", 3, ("constant", 2115.0), 100.0, {"clamp"}),
    # y exp(-v) overflows its sum: log-domain fallback
    ("smd", "variantile", 10, ("constant", 5e4), 1e7, {"fallback"}),
    # xi runs off to inf: divergence stop
    ("smd", "variantile", 3, ("constant", 1e6), 100.0, {"diverged"}),
    ("tamed", "es", 3, ("power", 1.0), 100.0, set()),
    # SGD reset to floor_eps
    ("tamed", "mad", 10, ("constant", 400.0), 100.0, {"reset"}),
    ("classical", "es", 10, ("power", 3.0), 100.0, set()),
    # reset, then divergence stop
    ("classical", "variantile", 3, ("constant", 1e6), 100.0, {"reset", "diverged"}),
    # finite iterates whose loss law overflows: the last record reads inf
    ("classical", "es", 10, ("power", 1e300), 100.0, {"reset", "overflow", "diverged"}),
]


@pytest.mark.parametrize("rule,measure,d,sched,m_cap,branches", _ORACLE_GRID)
def test_stochastic_runs_match_plain_oracle_bit_for_bit(rule, measure, d, sched, m_cap,
                                                        branches):
    model = generate_model(d, 40 + d)
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(d), _MEASURES[measure], model)
    samples = mm.sample_returns(model, 60, seed=d)
    kind, gamma0 = sched
    schedule = (md.StepSchedule.power(gamma0, 0.65) if kind == "power"
                else md.StepSchedule.constant(gamma0))
    cfg = md.OptimizerConfig(m_cap=m_cap, schedule=schedule, iterations=1, epochs=2,
                             y0=md.default_y0(model, m_cap), record_every=7)
    with np.errstate(all="ignore"):
        want, hits = _reference_stochastic_run(rule, ctx, samples, cfg)
        if rule == "smd":
            got = md.smd_run(ctx, samples, cfg)
        else:
            got = md.sgd_run(rule, ctx, samples, cfg)
    assert branches <= hits
    for name in vars(want):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


def _reference_dmd_run(ctx, cfg):
    """DMD one plain step at a time: ``tamed_gradient``, then ``_plain_prox``
    on gamma * tg.  Returns the run and the set of guarded branches met."""
    hits = set()
    n = cfg.iterations
    tail_start = n - max(1, math.ceil(cfg.tail_fraction * n)) + 1
    y = cfg.y0.copy()
    wacc = np.zeros_like(y)
    tail_acc = np.zeros_like(y)
    wsum = gamma_sum = 0.0
    tail_n = done = 0
    min_under = float(y.min())
    gaps, ys, avgs, projections = [], [], [], []
    diverged = converged = False
    grad_norm = math.inf
    for k in range(1, n + 1):
        gamma = md.step_size(cfg.schedule, k)
        tg = rb.tamed_gradient(ctx.budget, ctx.outer_gradient(y), y)
        if not np.all(np.isfinite(tg)):
            hits.add("diverged")
            diverged = True
            break
        grad_norm = float(np.abs(tg).max())
        if cfg.grad_tol is not None and grad_norm <= cfg.grad_tol:
            hits.add("grad_tol")
            converged = True
            break
        wacc += gamma * y
        wsum += gamma
        gamma_sum += gamma
        v = gamma * tg
        if np.any(np.abs(v) > md._CLAMP):
            hits.add("clamp")
        with np.errstate(all="ignore"):
            if not math.isfinite((y * np.exp(-np.clip(v, -md._CLAMP, md._CLAMP))).sum()):
                hits.add("fallback")
        y, projected = _plain_prox(y, v, cfg.m_cap)
        done = k
        if projected:
            hits.add("cap")
            projections.append(k)
        min_under = min(min_under, float(y.min()))
        if k >= tail_start:
            tail_acc += y
            tail_n += 1
        if k % cfg.record_every == 0 or k == n:
            gaps.append((k, _plain_gap(ctx, y)))
            ys.append((k, y.copy()))
            avgs.append((k, wacc / wsum))
    if not diverged and not converged:
        tg = rb.tamed_gradient(ctx.budget, ctx.outer_gradient(y), y)
        grad_norm = float(np.abs(tg).max()) if np.all(np.isfinite(tg)) else math.inf
    if converged and (not gaps or gaps[-1][0] != done):  # the trace ends at the returned y
        hits.add("final record")
        gaps.append((done, _plain_gap(ctx, y)))
        ys.append((done, y.copy()))
        if wsum > 0.0:
            avgs.append((done, wacc / wsum))
    diverged = _end_trace(gaps, done, diverged)
    result = md.RunResult(
        y_final=y, xi_final=math.nan,
        y_weighted_avg=wacc / wsum if wsum > 0.0 else y.copy(),
        y_tail_avg=tail_acc / tail_n if tail_n > 0 else y.copy(),
        xi_tail_avg=math.nan, gap_trace=gaps, min_underbar_y=min_under,
        diverged=diverged, iterations=done, grad_norm=grad_norm, gamma_sum=gamma_sum,
        n_projections=len(projections), y_trace=ys, avg_trace=avgs, xi_trace=[],
        projection_iters=projections)
    return result, hits


# (measure, d, gamma0, m_cap, grad_tol, guarded branches the case reaches)
_DMD_ORACLE_GRID = [
    ("es", 3, 1.0, 10.0, None, {"cap"}),
    ("mad", 10, 30.0, 100.0, None, {"cap"}),
    ("variantile", 3, 1.0, 1e7, None, set()),
    ("mad", 3, 30.0, 1e7, 1e-3, {"grad_tol", "final record"}),
    ("es", 3, 5e4, 100.0, None, {"clamp", "cap", "diverged"}),
    ("mad", 10, 5e4, 10.0, None, {"clamp", "cap"}),
    ("variantile", 10, 30.0, 1e7, None, {"clamp", "cap", "diverged"}),
]


@pytest.mark.parametrize("measure,d,gamma0,m_cap,grad_tol,branches", _DMD_ORACLE_GRID)
def test_dmd_runs_match_plain_oracle_bit_for_bit(measure, d, gamma0, m_cap, grad_tol,
                                                 branches):
    model = generate_model(d, 40 + d)
    ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(d), _MEASURES[measure], model)
    cfg = md.OptimizerConfig(m_cap=m_cap, schedule=md.StepSchedule.constant(gamma0),
                             iterations=40, y0=md.default_y0(model, m_cap), record_every=7,
                             grad_tol=grad_tol)
    with np.errstate(all="ignore"):
        want, hits = _reference_dmd_run(ctx, cfg)
        got = md.dmd_run(ctx, cfg)
    assert branches <= hits, hits
    for name in vars(want):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
