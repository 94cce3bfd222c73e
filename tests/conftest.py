import numpy as np
import pytest
from hypothesis import settings

from rbmd import market_models as mm
from rbmd import rb_solver as rb
from rbmd import risk_loss as rl

# Seeded property tests without a per-example deadline: the semi-analytic
# kernels take milliseconds, and their timing swings on a loaded host.
settings.register_profile("rbmd", derandomize=True, deadline=None)
settings.load_profile("rbmd")

# Acceptance-criterion outcomes registered by test_acceptance.py; printed as
# one line per criterion at the end of the session.
ACCEPTANCE_RESULTS = []


def record_criterion(name: str, ok: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((name, ok, detail))
    assert ok, f"{name}: {detail}"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)

# Three-asset heavy-tailed benchmark mixture used throughout the suite.
BENCH_WEIGHT = 0.7
BENCH_MU1 = [0.0001, 0.0002, -0.0003]
BENCH_MU2 = [0.001, 0.0005, 0.0002]
BENCH_LAMBDA1 = [[9e-5, 3e-5, 5e-5],
                 [3e-5, 9e-5, 3e-5],
                 [5e-5, 3e-5, 1e-4]]
BENCH_LAMBDA2 = [[4e-4, 1e-4, 1e-4],
                 [1e-4, 1e-4, 6e-5],
                 [1e-4, 6e-5, 1e-4]]
BENCH_NU1 = 3.4
BENCH_NU2 = 2.6

# Converged solution of the benchmark problem (uniform budgets, ES 95%).
BENCH_WEIGHTS = np.array([0.2535, 0.3866, 0.3599])
BENCH_VAR = 0.0193
BENCH_ES = 0.0329
BENCH_CONTRIBUTION = 0.01096


def make_bench_model() -> mm.MixtureModel:
    return mm.MixtureModel(
        weight=BENCH_WEIGHT,
        mu1=BENCH_MU1,
        mu2=BENCH_MU2,
        lambda1=BENCH_LAMBDA1,
        lambda2=BENCH_LAMBDA2,
        nu1=BENCH_NU1,
        nu2=BENCH_NU2,
    )


@pytest.fixture(scope="session")
def bench_model():
    return make_bench_model()


@pytest.fixture(scope="session")
def es_ctx(bench_model):
    return rb.ObjectiveContext(rb.RiskBudget.uniform(3),
                               rl.MeasureSpec.expected_shortfall(0.95),
                               bench_model)


@pytest.fixture(scope="session")
def bench_reference(es_ctx):
    return rb.reference_portfolio(es_ctx, tol=1e-10)


def random_loss_params(rng) -> mm.LossLawParams:
    """Random but well-behaved two-component loss law."""
    return mm.LossLawParams(
        weight=float(rng.uniform(0.2, 1.0)),
        loc1=float(rng.normal(0.0, 0.05)),
        loc2=float(rng.normal(0.0, 0.05)),
        scale1=float(np.exp(rng.uniform(np.log(0.005), np.log(0.08)))),
        scale2=float(np.exp(rng.uniform(np.log(0.005), np.log(0.08)))),
        nu1=float(rng.uniform(2.2, 9.0)),
        nu2=float(rng.uniform(2.2, 9.0)),
    )


def random_spd(rng, d: int, vol_lo=0.01, vol_hi=0.04) -> np.ndarray:
    a = rng.standard_normal((d, d + 4))
    g = a @ a.T / (d + 4)
    dinv = 1.0 / np.sqrt(np.diag(g))
    corr = dinv[:, None] * g * dinv
    vols = np.exp(rng.uniform(np.log(vol_lo), np.log(vol_hi), d))
    return vols[:, None] * corr * vols


def random_mixture_model(rng, d: int) -> mm.MixtureModel:
    return mm.MixtureModel(
        weight=float(rng.uniform(0.4, 0.9)),
        mu1=rng.normal(0.0, 2e-4, d),
        mu2=rng.normal(0.0, 5e-4, d),
        lambda1=random_spd(rng, d),
        lambda2=random_spd(rng, d, 0.02, 0.08),
        nu1=float(rng.uniform(3.0, 7.0)),
        nu2=float(rng.uniform(2.4, 5.0)),
    )
