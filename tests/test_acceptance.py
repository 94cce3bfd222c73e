"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
registers a pass/fail line that is printed at the end of the session.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from rbmd import bench_cli as bc
from rbmd import market_models as mm
from rbmd import mirror_descent as md
from rbmd import rb_solver as rb
from rbmd import risk_loss as rl

from conftest import (BENCH_CONTRIBUTION, BENCH_ES, BENCH_LAMBDA1, BENCH_VAR,
                      BENCH_WEIGHTS, make_bench_model, random_mixture_model,
                      record_criterion)


def mde_of(y, u_ref):
    return rb.mde(rb.normalize(y), u_ref)


# ---------------------------------------------------------------------------
# Shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig_runs(es_ctx, bench_reference):
    """DMD runs behind the step-size and rate criteria."""
    gamma_star = rb.gamma_value(es_ctx, bench_reference.y_raw)
    y0 = md.default_y0(es_ctx.model, 100.0)
    runs = {}
    for key, schedule, iters in (
        ("const", md.StepSchedule.constant(1.0), 1000),
        ("p55", md.StepSchedule.power(1.0, 0.55), 50_000),
        ("p75", md.StepSchedule.power(1.0, 0.75), 50_000),
    ):
        cfg = md.OptimizerConfig(m_cap=100.0, schedule=schedule, iterations=iters,
                                 y0=y0, record_every=100)
        runs[key] = md.dmd_run(es_ctx, cfg, gamma_star=gamma_star)
    return runs


# ---------------------------------------------------------------------------
# Criterion 1: reference-portfolio reproduction through the CLI
# ---------------------------------------------------------------------------

def test_reference_benchmark_reproduction(tmp_path):
    doc = {
        "model": {"inline": make_bench_model().to_dict()},
        "budget": "uniform",
        "measure": {"kind": "es", "alpha": 0.95},
        "tolerance": 1e-10,
        "seed": 1,
    }
    cfg_path = tmp_path / "ref.json"
    cfg_path.write_text(json.dumps(doc))
    t0 = time.time()
    code = bc.main(["reference", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    elapsed = time.time() - t0
    report = json.loads((tmp_path / "out" / "reference.json").read_text())
    weights = np.array(report["weights"])
    contributions = np.array(report["contributions"])
    ok = (code == 0
          and np.all(np.abs(weights - BENCH_WEIGHTS) <= 5e-4)
          and abs(report["var"] - BENCH_VAR) <= 5e-4
          and abs(report["risk"] - BENCH_ES) <= 1e-3
          and np.all(np.abs(contributions - BENCH_CONTRIBUTION) <= 3e-4)
          and elapsed < 30.0)
    record_criterion(
        "three-asset reference reproduction",
        ok,
        f"weights err {np.abs(weights - BENCH_WEIGHTS).max():.2e}, "
        f"var {report['var']:.5f}, risk {report['risk']:.5f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: stochastic solve at desk scale, averaged over seeds
# ---------------------------------------------------------------------------

def test_smd_desk_scale_accuracy(es_ctx, bench_reference):
    y0 = md.default_y0(es_ctx.model, 100.0)
    t0 = time.time()
    weight_estimates = []
    var_estimates = []
    for seed in range(5):
        samples = mm.sample_returns(es_ctx.model, 100_000, seed=seed)
        cfg = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.power(1.0, 0.75),
                                 iterations=1, epochs=10, y0=y0, xi0=0.0,
                                 record_every=1_000_000)
        res = md.smd_run(es_ctx, samples, cfg)
        weight_estimates.append(rb.normalize(res.y_final))
        var_estimates.append(res.xi_final / float(res.y_final.sum()))
    elapsed = time.time() - t0
    u_mean = np.mean(weight_estimates, axis=0)
    var_mean = float(np.mean(var_estimates))
    weight_err = np.abs(u_mean - bench_reference.u).max()
    var_rel = abs(var_mean - bench_reference.var) / bench_reference.var
    ok = weight_err <= 1e-2 and var_rel <= 0.02 and elapsed < 120.0
    record_criterion(
        "stochastic desk-scale accuracy (5 seeds)",
        ok,
        f"weight err {weight_err:.4f}, var rel {var_rel:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criteria 3 and 5: step-size behavior and the averaged-iterate rate bound
# ---------------------------------------------------------------------------

def test_step_size_behavior(fig_runs, bench_reference):
    u_star = bench_reference.u
    mde_const = {k: mde_of(y, u_star) for k, y in fig_runs["const"].y_trace}
    mde_p55 = {k: mde_of(y, u_star) for k, y in fig_runs["p55"].y_trace}
    mde_p75 = {k: mde_of(y, u_star) for k, y in fig_runs["p75"].y_trace}
    ok = (mde_const[1000] < 1e-5
          and mde_p55[50_000] < 1e-3
          and mde_p75[1000] > mde_const[1000]
          and mde_p75[1000] > mde_p55[1000]
          and mde_p75[50_000] > mde_p55[50_000])
    record_criterion(
        "constant/decaying step-size ordering",
        ok,
        f"const@1e3 {mde_const[1000]:.1e}, n^-.55@5e4 {mde_p55[50_000]:.1e}, "
        f"n^-.75@5e4 {mde_p75[50_000]:.1e}",
    )


def test_averaged_iterate_rate_bound(fig_runs, es_ctx, bench_reference):
    gamma_star = rb.gamma_value(es_ctx, bench_reference.y_raw)
    gamma_cumsum = np.cumsum(np.arange(1, 50_001, dtype=float) ** -0.55)
    bounds = {}
    for k, y_avg in fig_runs["p55"].avg_trace:
        if 1000 <= k <= 50_000:
            bounds[k] = gamma_cumsum[k - 1] * (rb.gamma_value(es_ctx, y_avg) - gamma_star)
    ratio = max(bounds.values()) / bounds[1000]
    ok = ratio < 10.0 and all(v > 0 for v in bounds.values())
    record_criterion(
        "averaged-iterate rate bound stays flat",
        ok,
        f"max/start ratio {ratio:.3f} over n in [1e3, 5e4]",
    )


# ---------------------------------------------------------------------------
# Criterion 4: cap-radius sweep
# ---------------------------------------------------------------------------

def test_cap_radius_sweep(es_ctx, bench_reference):
    y0 = np.full(3, math.exp(-1.0))
    runs = {}
    for m_cap in (10.0, 35.0, 100.0, 1000.0):
        cfg = md.OptimizerConfig(m_cap=m_cap, schedule=md.StepSchedule.constant(1.0),
                                 iterations=400, y0=y0, record_every=1)
        runs[m_cap] = md.dmd_run(es_ctx, cfg)
    errs = {m: mde_of(r.y_final, bench_reference.u) for m, r in runs.items()}
    small_cap_fails = errs[10.0] >= 1e-2
    others_converge = all(errs[m] < 1e-2 for m in (35.0, 100.0, 1000.0))
    # traces for the two largest caps agree once neither run projects
    proj = set(runs[100.0].projection_iters) | set(runs[1000.0].projection_iters)
    k0 = next(k for k, _ in runs[100.0].y_trace if k not in proj)
    ya = dict(runs[100.0].y_trace)
    yb = dict(runs[1000.0].y_trace)
    agree = max(np.abs(ya[k] - yb[k]).max() for k in ya if k >= k0)
    ok = small_cap_fails and others_converge and agree <= 1e-6
    record_criterion(
        "cap-radius sweep (small cap blocks, large caps agree)",
        ok,
        f"mde@m=10 {errs[10.0]:.1e}, mde@m=1000 {errs[1000.0]:.1e}, "
        f"trace diff {agree:.1e} from iteration {k0}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: gradient-taming property suite
# ---------------------------------------------------------------------------

def test_taming_property_suite(es_ctx, bench_reference):
    rng = np.random.default_rng(123)
    y_star = bench_reference.y_raw
    budget = es_ctx.budget

    positivity_ok = True
    for i in range(1000):
        y = rng.uniform(0.0, 3.0, 3) * rng.choice([1.0, 4.0, 12.0], 3)
        if i % 5 == 0:
            y[rng.integers(0, 3)] = 0.0
        if np.allclose(y, y_star):
            continue
        grad_outer = np.zeros(3) if np.any(y == 0.0) else es_ctx.outer_gradient(y)
        tg = rb.tamed_gradient(budget, grad_outer, y)
        if not float((y - y_star) @ tg) > 0.0:
            positivity_ok = False
            break

    bound_ok = True
    b_max = budget.b.max()
    for _ in range(10_000):
        y = rng.uniform(1e-4, 40.0, 3)
        if y.sum() > 100.0:
            y *= rng.uniform(0.2, 1.0) * 100.0 / y.sum()
        grad_outer = es_ctx.outer_gradient(y)
        tg = rb.tamed_gradient(budget, grad_outer, y)
        if not np.abs(tg).max() <= np.abs(grad_outer).max() + b_max + 1e-9:
            bound_ok = False
            break

    boundary = rb.tamed_gradient(budget, np.array([7.0, -2.0, 0.4]),
                                 np.array([0.0, 2.0, 0.0]))
    boundary_ok = (boundary[0] == -budget.b[0] and boundary[1] == 0.0
                   and boundary[2] == -budget.b[2])

    ok = positivity_ok and bound_ok and boundary_ok
    record_criterion(
        "gradient taming suite (positivity, boundedness, boundary values)",
        ok,
        f"positivity {positivity_ok}, bound {bound_ok}, boundary {boundary_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: deviation measures agree on a centered heavy-tailed model
# ---------------------------------------------------------------------------

def test_deviation_measures_match_volatility_reference():
    lam = 9.0 * np.array(BENCH_LAMBDA1)
    model = mm.MixtureModel.single_t(np.zeros(3), lam, 4.0)
    budget = rb.RiskBudget.uniform(3)
    vol_ctx = rb.ObjectiveContext(budget, rl.MeasureSpec.volatility(), model)
    reference = rb.reference_portfolio(vol_ctx, tol=1e-10)
    samples = mm.sample_returns(model, 500_000, seed=11)
    errs = {}
    for name, spec in (("mad", rl.MeasureSpec.mad()),
                       ("volatility", rl.MeasureSpec.volatility()),
                       ("variantile", rl.MeasureSpec.variantile(0.75))):
        ctx = rb.ObjectiveContext(budget, spec, model)
        cfg = md.OptimizerConfig(m_cap=100.0, schedule=md.StepSchedule.power(1.0, 0.65),
                                 iterations=1, epochs=1,
                                 y0=md.default_y0(model, 100.0),
                                 record_every=500_000, tail_fraction=0.2)
        res = md.smd_run(ctx, samples, cfg)
        u = rb.normalize(res.y_tail_avg)
        errs[name] = np.abs(u - reference.u).max()
    ok = all(err <= 2e-3 for err in errs.values())
    record_criterion(
        "deviation measures recover the volatility portfolio",
        ok,
        ", ".join(f"{k} {v:.1e}" for k, v in errs.items()),
    )


# ---------------------------------------------------------------------------
# Criterion 8: stability ordering across seeded replications
# ---------------------------------------------------------------------------

def test_stability_ordering(tmp_path):
    outputs = {}
    for d, tamed_gamma0 in ((10, 3.0), (50, 12.0)):
        doc = {
            "model": {"synthetic": {"d": d}},
            "measure": {"kind": "es", "alpha": 0.95},
            "optimizers": ["smd", "sgd-tamed", "sgd-classical"],
            "optimizer": {"epochs": 2, "tamed_gamma0": tamed_gamma0},
            "samples": 100_000,
            "replications": 20,
            "dimensions": [d],
            "seed": 2024,
            "tolerance": 1e-8,
        }
        cfg_path = tmp_path / f"stab{d}.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / f"stab{d}_out"
        assert bc.main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "replications.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "aggregate.csv", newline="") as fh:
            agg = {r["optimizer"]: r for r in csv.DictReader(fh)}
        outputs[d] = (rows, agg)

    eps_cols = [f"diverged_eps{i}" for i in (1, 2, 3, 4)]
    tamed_clean = all(
        int(row[c]) == 0
        for rows, _ in outputs.values()
        for row in rows if row["optimizer"] in ("smd", "sgd-tamed")
        for c in eps_cols
    )
    classical_unstable = all(
        sum(int(row["diverged_eps1"]) for row in rows
            if row["optimizer"] == "sgd-classical") >= 1
        for rows, _ in outputs.values()
    )
    agg50 = outputs[50][1]
    smd_leads = (float(agg50["smd"]["gap_k90_median"])
                 <= float(agg50["sgd-tamed"]["gap_k90_median"]))
    ok = tamed_clean and classical_unstable and smd_leads
    record_criterion(
        "stability ordering over seeded replications",
        ok,
        f"tamed clean {tamed_clean}, classical diverges {classical_unstable}, "
        f"smd gap {float(agg50['smd']['gap_k90_median']):.2e} <= "
        f"t-sgd {float(agg50['sgd-tamed']['gap_k90_median']):.2e} at d=50",
    )


# ---------------------------------------------------------------------------
# Criterion 9: oracle equivalences
# ---------------------------------------------------------------------------

def test_oracle_equivalences(es_ctx):
    # (a) two-asset inverse-volatility closed form
    erc_ok = True
    for corr in (-0.3, 0.0, 0.5):
        lam = np.array([[1.0, corr * 2.0], [corr * 2.0, 4.0]])
        model = mm.MixtureModel.single_gaussian(np.zeros(2), lam)
        ctx = rb.ObjectiveContext(rb.RiskBudget.uniform(2), rl.MeasureSpec.volatility(), model)
        report = rb.reference_portfolio(ctx, tol=1e-11)
        if np.abs(report.u - np.array([2.0, 1.0]) / 3.0).max() > 1e-6:
            erc_ok = False

    # (b) semi-analytic tail mean against brute-force Monte Carlo
    rng = np.random.default_rng(31)
    mc_ok = True
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(2, 4))
        model = random_mixture_model(rng, d)
        w = rng.uniform(0.1, 1.0, d)
        params = mm.portfolio_loss_params(model, w)
        x = mm.sample_returns(model, 10 ** 7, seed=7000 + i)
        losses = -(x @ w)
        q = np.quantile(losses, 0.95)
        tail = losses[losses >= q]
        se = tail.std() / math.sqrt(tail.size)
        dev = abs(tail.mean() - mm.es_exact(params, 0.95)) / se
        worst = max(worst, dev)
        if dev > 4.0:
            mc_ok = False

    # (c) every gradient path against independent central differences
    fd_ok = True
    rng = np.random.default_rng(32)
    lam = 9.0 * np.array(BENCH_LAMBDA1)
    contexts = [
        es_ctx,
        rb.ObjectiveContext(rb.RiskBudget.uniform(3), rl.MeasureSpec.volatility(),
                            mm.MixtureModel.single_t(np.zeros(3), lam, 4.5)),
        rb.ObjectiveContext(rb.RiskBudget.uniform(3), rl.MeasureSpec.variantile(0.75),
                            mm.MixtureModel.single_t(np.zeros(3), lam, 4.5)),
        rb.ObjectiveContext(rb.RiskBudget.uniform(3), rl.MeasureSpec.mad(),
                            make_bench_model()),
    ]
    for ctx in contexts:
        for _ in range(3):
            y = rng.uniform(2.0, 25.0, 3)
            grad = rb.gamma_gradient(ctx, y)
            h = 1e-5 * np.maximum(1.0, y)
            fd = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h[i]
                fd[i] = (rb.gamma_value(ctx, y + e) - rb.gamma_value(ctx, y - e)) / (2 * h[i])
            if np.linalg.norm(fd - grad) > 1e-4 * max(1e-8, np.linalg.norm(grad)):
                fd_ok = False

    ok = erc_ok and mc_ok and fd_ok
    record_criterion(
        "oracle equivalences (closed form, Monte Carlo, finite differences)",
        ok,
        f"erc {erc_ok}, tail-mean worst dev {worst:.2f} se, gradients {fd_ok}",
    )
