import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rbmd import market_batch as mb
from rbmd import market_models as mm
from rbmd.bench_cli import generate_model

from conftest import make_bench_model, random_loss_params, random_mixture_model


# ---------------------------------------------------------------------------
# Model validation and IO
# ---------------------------------------------------------------------------

def test_model_requires_spd_scale():
    bad = [[1.0, 2.0], [2.0, 1.0]]  # indefinite
    with pytest.raises(mm.ModelError):
        mm.MixtureModel(1.0, [0, 0], [0, 0], bad, bad, 4.0, 4.0)


def test_model_requires_symmetry():
    bad = [[1.0, 0.2], [0.1, 1.0]]
    with pytest.raises(mm.ModelError):
        mm.MixtureModel(1.0, [0, 0], [0, 0], bad, bad, 4.0, 4.0)


def test_model_nu_floor():
    eye = np.eye(2)
    with pytest.raises(mm.ModelError):
        mm.MixtureModel(1.0, [0, 0], [0, 0], eye, eye, 0.9, 4.0)
    # gaussian flag lifts the floor
    mm.MixtureModel(1.0, [0, 0], [0, 0], eye, eye, 0.9, 4.0, gaussian1=True)


def test_model_roundtrip(tmp_path, bench_model):
    path = tmp_path / "model.json"
    bench_model.save(path)
    loaded = mm.MixtureModel.load(path)
    assert loaded.weight == bench_model.weight
    np.testing.assert_array_equal(loaded.lambda2, bench_model.lambda2)
    with pytest.raises(mm.ModelError):
        mm.MixtureModel.from_dict({"weight": 1.0})
    with pytest.raises(mm.ModelError):
        mm.MixtureModel.from_dict({**bench_model.to_dict(), "extra": 1})
    with pytest.raises(mm.ModelError, match="lambda1"):
        mm.MixtureModel.from_dict({**bench_model.to_dict(), "lambda1": [[1.0, 0.0], [0.0]]})
    # the key order of the saved file
    assert list(bench_model.to_dict()) == ["weight", "mu1", "mu2", "lambda1", "lambda2",
                                           "nu1", "nu2", "gaussian1", "gaussian2"]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic(bench_model):
    a = mm.sample_returns(bench_model, 1000, seed=7)
    b = mm.sample_returns(bench_model, 1000, seed=7)
    np.testing.assert_array_equal(a, b)
    c = mm.sample_returns(bench_model, 1000, seed=8)
    assert not np.array_equal(a, c)


def test_sampling_gaussian_component_clt():
    model = mm.MixtureModel.single_gaussian(np.zeros(3), np.eye(3))
    n = 10 ** 6
    x = mm.sample_returns(model, n, seed=42)
    assert np.all(np.abs(x.mean(axis=0)) <= 4.0 / math.sqrt(n))
    np.testing.assert_allclose(np.cov(x.T), np.eye(3), atol=0.01)


def test_sampling_mixture_mean(bench_model):
    n = 10 ** 6
    x = mm.sample_returns(bench_model, n, seed=5)
    target = np.array([0.00037, 0.00029, -0.00015])
    se = x.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(x.mean(axis=0) - target) <= 5.0 * se)


def test_sampling_marginals_match_cdf(bench_model):
    # Kolmogorov-Smirnov at the 0.1% level against the semi-analytic marginal
    x = mm.sample_returns(bench_model, 10 ** 5, seed=99)
    for j in range(3):
        e = np.zeros(3)
        e[j] = -1.0  # loss of -e_j is the raw return X_j
        params = mm.portfolio_loss_params(bench_model, e)
        res = stats.kstest(x[:, j], lambda q: mm.mixture_cdf(params, q))
        assert res.pvalue > 0.001


def _plain_sample_returns(model, n, seed):
    """The sampler written plainly: both components transformed out of place
    over each chunk, then merged row by row with ``np.where``."""
    d = model.d
    rng = mm._rng(seed)
    chunk = min(n, max(1024, mm._CHUNK_BUDGET // d))
    out = np.empty((n, d))
    chol1_t = model._chol1.T
    chol2_t = model._chol2.T
    done = 0
    while done < n:
        k = min(chunk, n - done)
        pick1 = rng.random(k) < model.weight
        g = rng.standard_normal((k, d))
        w1 = 2.0 * rng.standard_gamma(model.nu1 / 2.0, k)
        w2 = 2.0 * rng.standard_gamma(model.nu2 / 2.0, k)
        f1 = 1.0 if model.gaussian1 else np.sqrt(model.nu1 / w1)[:, None]
        f2 = 1.0 if model.gaussian2 else np.sqrt(model.nu2 / w2)[:, None]
        x1 = model.mu1 + (g @ chol1_t) * f1
        x2 = model.mu2 + (g @ chol2_t) * f2
        out[done:done + k] = np.where(pick1[:, None], x1, x2)
        done += k
    return out


def _sampling_model(name):
    """The README mixture, synthetic d = 10 and d = 50 models, and variants of
    the d = 10 model: one t component, a Gaussian component on either side
    and a weight below 1/2."""
    if name == "readme":
        return make_bench_model()
    if name == "d50":
        return generate_model(50, 2024)
    base = generate_model(10, 2024)
    if name == "single-t":
        return mm.MixtureModel.single_t(base.mu1, base.lambda1, base.nu1)
    changes = {"gaussian1": {"gaussian1": True}, "gaussian2": {"gaussian2": True},
               "weight-0.3": {"weight": 0.3}}.get(name, {})
    return mm.MixtureModel.from_dict({**base.to_dict(), **changes})


def _chunk(d):
    return max(1024, mm._CHUNK_BUDGET // d)


@pytest.mark.parametrize("name", ["readme", "d10", "d50", "single-t", "gaussian1", "gaussian2",
                                  "weight-0.3"])
def test_sampling_matches_plain_sampler(name):
    """The in-place chunk loop draws the plain loop's stream bit for bit, for
    one row and for sizes on either side of one and two chunks."""
    model = _sampling_model(name)
    chunk = _chunk(model.d)
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 7):
        got = mm.sample_returns(model, n, seed=n)
        assert got.tobytes() == _plain_sample_returns(model, n, seed=n).tobytes(), n


@pytest.mark.parametrize("name", ["readme", "d10", "d50"])
def test_sampling_temporaries_are_bounded(name):
    """Besides its result, a draw allocates at most the normals' chunk buffer,
    the component-2 rows of one chunk and five doubles per chunk row."""
    model = _sampling_model(name)
    d, chunk = model.d, _chunk(model.d)
    tracemalloc.start()
    try:
        x = mm.sample_returns(model, chunk + 7, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - x.nbytes <= (2.0 - model.weight) * chunk * d * 8 + 5 * 8 * chunk


# ---------------------------------------------------------------------------
# Loss law parameters
# ---------------------------------------------------------------------------

def test_loss_params_identity_scale():
    d = 4
    model = mm.MixtureModel.single_t(np.zeros(d), np.eye(d), 5.0)
    w = np.full(d, 1.0 / d)
    p = mm.portfolio_loss_params(model, w)
    assert p.loc1 == 0.0
    assert p.scale1 == pytest.approx(1.0 / math.sqrt(d))


def test_loss_params_reference_quantile(bench_model):
    w = np.array([0.2535, 0.3866, 0.3599])
    p = mm.portfolio_loss_params(bench_model, w)
    assert mm.var_exact(p, 0.95) == pytest.approx(0.0193, abs=5e-4)


def test_loss_params_linearity(bench_model):
    rng = np.random.default_rng(1)
    w = rng.uniform(0.1, 1.0, 3)
    p1 = mm.portfolio_loss_params(bench_model, w)
    p2 = mm.portfolio_loss_params(bench_model, 2.0 * w)
    assert p2.loc1 == pytest.approx(2.0 * p1.loc1)
    assert p2.loc2 == pytest.approx(2.0 * p1.loc2)
    assert p2.scale1 == pytest.approx(2.0 * p1.scale1)
    assert p2.scale2 == pytest.approx(2.0 * p1.scale2)


def test_zero_portfolio_rejected(bench_model):
    with pytest.raises(mm.ModelError):
        mm.portfolio_loss_params(bench_model, np.zeros(3))
    with pytest.raises(ValueError):
        mm.portfolio_loss_params(bench_model, np.array([1.0, np.nan, 0.0]))


# ---------------------------------------------------------------------------
# Univariate t / normal kernels against scipy.special
# ---------------------------------------------------------------------------

EPS = sys.float_info.epsilon


def tail_tolerance(tail: float) -> float:
    """Relative error allowed between two double-precision evaluations of a tail
    P = exp(-E): 1e-13, or 3 eps |ln P| where that is larger (below P = 1e-65),
    since each evaluation carries the rounding of E, about |E| eps."""
    return max(1e-13, 3.0 * EPS * abs(math.log(tail)))


def assert_matches_oracle(cdf, oracle_cdf, points):
    """|cdf - oracle| <= 1e-14 at +-x, and the smaller tail (oracle_cdf(-x) for
    x >= 0) within ``tail_tolerance`` of the oracle's where it is at least 1e-300
    and within 1e-300 below, at every x in ``points``."""
    for x in points:
        for v in (x, -x):
            assert abs(cdf(v) - oracle_cdf(v)) <= 1e-14, v
        tail, ref = cdf(-x), float(oracle_cdf(-x))
        if ref >= 1e-300:
            assert abs(tail - ref) <= tail_tolerance(ref) * ref, (x, tail, ref)
        else:
            assert abs(tail - ref) <= 1e-300, (x, tail, ref)


@pytest.mark.parametrize("nu", np.geomspace(1.0001, 1e9, 61).tolist(), ids="nu{:.4g}".format)
def test_t_cdf_matches_scipy(nu):
    from scipy.special import stdtr
    points = [0.0] + np.geomspace(1e-8, 1e8, 97).tolist()
    assert_matches_oracle(lambda t: mm._t_sf(-t, nu), lambda t: stdtr(nu, t), points)


def test_normal_cdf_matches_scipy():
    from scipy.special import ndtr
    points = [0.0] + np.geomspace(1e-8, 38.0, 400).tolist()
    assert_matches_oracle(lambda z: mm._norm_sf(-z), ndtr, points)


@pytest.mark.parametrize("gaussian", [False, True], ids=["t", "normal"])
@pytest.mark.parametrize("nu", [1.0001, 3.4, 40.0, 1e9])
def test_kernel_edge_values(gaussian, nu):
    # t = 0 is exactly the median, +-inf the limits, and NaN stays NaN: the VaR
    # Newton relies on a NaN never passing |F - alpha| <= tol
    sf = mm._norm_sf if gaussian else lambda t: mm._t_sf(t, nu)
    pdf = mm._norm_pdf if gaussian else lambda t: mm._t_pdf(t, nu)
    assert sf(0.0) == sf(-0.0) == 0.5
    assert sf(math.inf) == 0.0 and sf(-math.inf) == 1.0
    assert pdf(math.inf) == pdf(-math.inf) == 0.0
    assert math.isnan(sf(math.nan)) and math.isnan(pdf(math.nan))
    assert all(math.isnan(m) for m in mm.upper_moments(math.nan, gaussian, nu, 0))
    # no ValueError / OverflowError from math.log or math.exp at extreme finite points
    extremes = [5e-324, 1e-310, 1e-160, 1e-8, 1e150, 1e154, 1e160, 1e300, sys.float_info.max]
    for t in extremes + [-t for t in extremes]:
        assert 0.0 <= sf(t) <= 1.0 and 0.0 <= pdf(t) < math.inf
        for m in mm.upper_moments(t, gaussian, nu, 0):
            assert not math.isnan(m)
    for alpha in (1e-300, 1e-16, 0.5, 1.0 - 1e-16):
        q = mm._std_quantile(gaussian, nu, alpha)
        tail = sf(abs(q))
        assert abs(tail - min(alpha, 1.0 - alpha)) <= 1e-12 * min(alpha, 1.0 - alpha)


def _rows_table(kernel, points):
    """kernel on the array of +-points in one call, as a lookup by point."""
    grid = np.array(points + [-x for x in points])
    return dict(zip(grid.tolist(), kernel(grid).tolist())).__getitem__


@pytest.mark.parametrize("nu", np.geomspace(1.0001, 1e9, 61).tolist(), ids="nu{:.4g}".format)
def test_t_tail_rows_match_scipy(nu):
    from scipy.special import stdtr
    points = [0.0] + np.geomspace(1e-8, 1e8, 97).tolist()
    cdf = _rows_table(lambda t: mb._t_sf_rows(-t, nu), points)
    assert_matches_oracle(cdf, lambda t: stdtr(nu, t), points)


def test_normal_tail_rows_match_scipy():
    from scipy.special import ndtr
    points = [0.0] + np.geomspace(1e-8, 38.0, 400).tolist()
    assert_matches_oracle(_rows_table(lambda z: mb._norm_sf_rows(-z), points), ndtr, points)


@pytest.mark.parametrize("gaussian", [False, True], ids=["t", "normal"])
@pytest.mark.parametrize("nu", [1.0001, 3.4, 40.0, 1e9])
def test_rows_kernel_edge_values(gaussian, nu):
    """test_kernel_edge_values for the array kernels, in one call and without a
    warning: each element as the scalar kernel gives it."""
    extremes = [5e-324, 1e-310, 1e-160, 1e-8, 1e150, 1e154, 1e160, 1e300, sys.float_info.max]
    t = np.array([0.0, -0.0, math.inf, -math.inf, math.nan] + extremes + [-v for v in extremes])
    sf = mb._norm_sf_rows if gaussian else lambda x: mb._t_sf_rows(x, nu)
    scalar = mm._norm_sf if gaussian else lambda x: mm._t_sf(x, nu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sf(t)
        moments = mb._upper_moments_rows(t, gaussian, nu, 0)
        density = mb._mixture_eval_rows(t, [(1.0, 0.0, 1.0, gaussian, nu)], density=True)
    assert got[0] == got[1] == 0.5 and got[2] == 0.0 and got[3] == 1.0 and math.isnan(got[4])
    want = np.array([scalar(v) for v in t.tolist()])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    for m, m_scalar in zip(moments, zip(*[mm.upper_moments(v, gaussian, nu, 0) for v in t.tolist()])):
        assert math.isnan(m[4]) and not np.isnan(np.delete(m, 4)).any()
        np.testing.assert_allclose(m, m_scalar, rtol=1e-14, atol=0.0)
    pdf = mm._norm_pdf if gaussian else lambda x: mm._t_pdf(x, nu)
    np.testing.assert_allclose(density, [pdf(v) for v in t.tolist()], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)], ids=["0d", "1d", "2d"])
def test_mixture_cdf_arrays_match_the_scalar_path(shape):
    """mixture_cdf on an array, element by element against ``_mixture_eval``,
    with NaN and +-inf entries and a Gaussian component."""
    rng = np.random.default_rng(len(shape))
    x = rng.normal(0.0, 0.1, shape)
    if x.size > 3:
        x.flat[:3] = [math.nan, math.inf, -math.inf]
    for params in (mm.LossLawParams(0.6, 0.01, -0.02, 0.03, 0.05, 4.0, 3.0, gaussian2=True),
                   random_loss_params(rng)):
        got = mm.mixture_cdf(params, x)
        want = np.array([mm._mixture_eval(v, params.components()) for v in x.ravel().tolist()])
        assert np.shape(got) == shape
        np.testing.assert_allclose(np.ravel(got), want, rtol=1e-14, atol=1e-16)


def test_var_of_a_nan_law_is_a_numerics_error():
    p = mm.LossLawParams(1.0, 0.0, 0.0, 1.0, 1.0, math.nan, math.nan)
    assert math.isnan(mm.mixture_cdf(p, 0.3))
    with pytest.raises(mm.NumericsError):
        mm.var_exact(p, 0.95)


@settings(max_examples=300)
@given(gaussian=st.booleans(), log_nu=st.floats(math.log10(1.0001), 9.0),
       alpha=st.floats(1e-7, 1.0 - 1e-7))
def test_component_quantile_roundtrip(gaussian, log_nu, alpha):
    nu = 10.0 ** log_nu
    q = mm._std_quantile(gaussian, nu, alpha)
    cdf = mm._norm_sf(-q) if gaussian else mm._t_sf(-q, nu)
    assert abs(cdf - alpha) <= 1e-13


# ---------------------------------------------------------------------------
# CDF / VaR / ES
# ---------------------------------------------------------------------------

def test_cdf_symmetry_and_limits():
    p = mm.LossLawParams(0.6, 0.0, 0.0, 1.0, 2.0, 4.0, 6.0)
    assert mm.mixture_cdf(p, 0.0) == pytest.approx(0.5)
    assert mm.mixture_cdf(p, 1e9) == pytest.approx(1.0)
    assert mm.mixture_cdf(p, -1e9) == pytest.approx(0.0)
    mirror = mm.LossLawParams(0.5, -1.0, 1.0, 1.0, 1.0, 3.0, 3.0)
    assert mm.mixture_cdf(mirror, 0.0) == pytest.approx(0.5)


def test_cdf_monotone():
    rng = np.random.default_rng(2)
    p = random_loss_params(rng)
    xs = np.linspace(-1.0, 1.0, 301)
    vals = mm.mixture_cdf(p, xs)
    assert np.all(np.diff(vals) >= 0.0)


def test_var_median_of_symmetric_t():
    p = mm.LossLawParams(1.0, 0.0, 0.0, 1.0, 1.0, 4.0, 4.0)
    assert abs(mm.var_exact(p, 0.5)) < 1e-12


def test_var_standard_t_quantile():
    p = mm.LossLawParams(1.0, 0.0, 0.0, 1.0, 1.0, 4.0, 4.0)
    # 2.1318 from independent numerical inversion of the t CDF
    assert mm.var_exact(p, 0.95) == pytest.approx(2.1318, abs=1e-3)


def wide_loss_params(rng) -> mm.LossLawParams:
    """Loss law with scales from 1e-4 to 10, nu from 1.05 to 30, Gaussian
    components and single-component laws."""
    scale1, scale2 = np.exp(rng.uniform(math.log(1e-4), math.log(10.0), 2))
    nu1, nu2 = np.exp(rng.uniform(math.log(1.05), math.log(30.0), 2))
    loc1, loc2 = rng.normal(0.0, 1.0, 2) * rng.choice([scale1, scale2], 2)
    gauss1, gauss2 = rng.random(2) < 0.2
    weight = 1.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 0.99))
    return mm.LossLawParams(weight, float(loc1), float(loc2), float(scale1), float(scale2),
                            float(nu1), float(nu2), bool(gauss1), bool(gauss2))


def test_var_cdf_roundtrip_property():
    rng = np.random.default_rng(3)
    cases = [(random_loss_params(rng), float(rng.uniform(0.01, 0.99))) for _ in range(200)]
    cases += [(wide_loss_params(rng), float(np.exp(rng.uniform(math.log(1e-7), math.log(0.5)))))
              for _ in range(300)]
    cases = [(p, alpha) for p, a in cases for alpha in (a, 1.0 - a)]
    # component scales 8,000x apart: a wide bracket, closed by Newton and bisection together
    cases.append((mm.LossLawParams(0.4320172261688698, -0.005927745277141489,
                                   -0.0015783670219035235, 1.5394199447701937,
                                   0.00019026540292858235, 12.212751096810168,
                                   17.276372043447456), 0.75))
    for p, alpha in cases:
        q = mm.var_exact(p, alpha)
        assert abs(mm.mixture_cdf(p, q) - alpha) <= 1e-12


@pytest.mark.parametrize("field", ["loc1", "loc2", "scale1", "scale2"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_loss_law_rejects_non_finite_parameters(field, value):
    fields = {"weight": 0.6, "loc1": 0.0, "loc2": 0.1, "scale1": 1.0, "scale2": 2.0,
              "nu1": 4.0, "nu2": 6.0, field: value}
    with pytest.raises(mm.ModelError):
        mm.LossLawParams(**fields)


@settings(max_examples=50)
@given(weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
       alphas=st.lists(st.floats(1e-4, 1.0 - 1e-4), min_size=2, max_size=2))
def test_var_nondecreasing_in_alpha(bench_model, weights, alphas):
    # levels closer than the solver's 1e-12 cdf tolerance are not ordered
    lo, hi = sorted(alphas)
    if lo < hi:
        hi = max(hi, lo + 1e-9)
    p = mm.portfolio_loss_params(bench_model, np.array(weights))
    assert mm.var_exact(p, lo) <= mm.var_exact(p, hi)


def test_es_reference_value(bench_model):
    w = np.array([0.2535, 0.3866, 0.3599])
    p = mm.portfolio_loss_params(bench_model, w)
    assert mm.es_exact(p, 0.95) == pytest.approx(0.0329, abs=1e-3)


def test_es_dominates_var_and_mean():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = random_loss_params(rng)
        alpha = float(rng.uniform(0.05, 0.99))
        es = mm.es_exact(p, alpha)
        assert es > mm.var_exact(p, alpha)
    p = random_loss_params(rng)
    mean = p.weight * p.loc1 + (1.0 - p.weight) * p.loc2
    assert mm.es_exact(p, 0.01) >= mean


def test_es_undefined_below_nu_one():
    p = mm.LossLawParams(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 4.0)
    with pytest.raises(mm.NumericsError):
        mm.es_exact(p, 0.95)


def test_var_es_positive_homogeneity(bench_model):
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = rng.uniform(0.05, 1.0, 3)
        lam = float(rng.uniform(0.1, 20.0))
        p1 = mm.portfolio_loss_params(bench_model, w)
        p2 = mm.portfolio_loss_params(bench_model, lam * w)
        assert mm.var_exact(p2, 0.95) == pytest.approx(lam * mm.var_exact(p1, 0.95), rel=1e-10)
        assert mm.es_exact(p2, 0.95) == pytest.approx(lam * mm.es_exact(p1, 0.95), rel=1e-10)


def test_es_monte_carlo_agreement():
    # empirical tail mean over 1e6 draws within 4 standard errors, 20 models
    rng = np.random.default_rng(7)
    n = 10 ** 6
    alpha = 0.95
    for i in range(20):
        d = int(rng.integers(2, 5))
        model = random_mixture_model(rng, d)
        w = rng.uniform(0.1, 1.0, d)
        p = mm.portfolio_loss_params(model, w)
        x = mm.sample_returns(model, n, seed=1000 + i)
        losses = -(x @ w)
        q = np.quantile(losses, alpha)
        tail = losses[losses >= q]
        se = tail.std() / math.sqrt(tail.size)
        assert abs(tail.mean() - mm.es_exact(p, alpha)) <= 4.0 * se


# ---------------------------------------------------------------------------
# Covariance
# ---------------------------------------------------------------------------

def test_covariance_single_t_component():
    model = mm.MixtureModel.single_t(np.zeros(3), np.eye(3), 4.0)
    np.testing.assert_allclose(mm.covariance(model), 2.0 * np.eye(3), rtol=1e-12)


def test_covariance_gaussian_degeneration():
    rng = np.random.default_rng(8)
    lam = np.diag(rng.uniform(0.5, 2.0, 3))
    model = mm.MixtureModel.single_gaussian(np.zeros(3), lam)
    np.testing.assert_allclose(mm.covariance(model), lam, rtol=1e-12)


def test_covariance_undefined_for_heavy_tail():
    model = mm.MixtureModel.single_t(np.zeros(2), np.eye(2), 1.8)
    with pytest.raises(mm.NumericsError):
        mm.covariance(model)


def test_covariance_monte_carlo(bench_model):
    n = 10 ** 7
    x = mm.sample_returns(bench_model, n, seed=21)
    target = mm.covariance(bench_model)
    centered = x - x.mean(axis=0)
    for i in range(3):
        for j in range(3):
            prods = centered[:, i] * centered[:, j]
            se = prods.std() / math.sqrt(n)
            assert abs(prods.mean() - target[i, j]) <= 5.0 * se


# ---------------------------------------------------------------------------
# Expected power loss building block
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("gaussian, nu", [(True, math.nan), (False, 2.6), (False, 3.4),
                                          (False, 30.0)],
                         ids=["normal", "t2.6", "t3.4", "t30"])
def test_upper_moments_match_quadrature(gaussian, nu, k):
    # (E[(T - q)_+^k], E[T (T - q)_+^k]) against direct integration of the
    # standardized density, for q deep in either tail and near the centre
    from scipy.integrate import quad
    dens = stats.norm.pdf if gaussian else stats.t(nu).pdf
    for q in (-4.5, -2.5, -0.7, 0.0, 0.4, 1.9, 5.0):
        m0, m1 = mm.upper_moments(q, gaussian, nu, k)
        e0, _ = quad(lambda t: (t - q) ** k * dens(t), q, np.inf, epsabs=0.0, limit=300)
        e1, _ = quad(lambda t: t * (t - q) ** k * dens(t), q, np.inf, epsabs=0.0, limit=300)
        assert float(m0) == pytest.approx(e0, rel=1e-7)
        assert float(m1) == pytest.approx(e1, rel=1e-7)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("gaussian, nu", [(True, math.nan), (False, 2.6), (False, 30.0)],
                         ids=["normal", "t2.6", "t30"])
def test_upper_moments_of_order_k_minus_1_are_minus_the_q_derivative(gaussian, nu, k):
    # order -1 is the density pair (f(q), q f(q)): the point mass at q.  The
    # difference quotient carries the moments' rounding over h, about 1e-10.
    for q in (-4.5, -0.7, 0.0, 0.4, 5.0):
        h = 1e-5 * max(1.0, abs(q))
        up, down = mm.upper_moments(q + h, gaussian, nu, k), mm.upper_moments(q - h, gaussian, nu, k)
        for below, hi, lo in zip(mm.upper_moments(q, gaussian, nu, k - 1), up, down):
            assert -(hi - lo) / (2.0 * h) == pytest.approx(below, rel=1e-6, abs=1e-9)
    dens = stats.norm.pdf(0.4) if gaussian else stats.t(nu).pdf(0.4)
    assert mm.upper_moments(0.4, gaussian, nu, -1) == pytest.approx((dens, 0.4 * dens), rel=1e-13)


@pytest.mark.parametrize("k", [0, 1])
def test_upper_moments_need_nu_above_k_plus_one(k):
    for nu in (k + 1.0, k + 0.5):
        with pytest.raises(mm.NumericsError):
            mm.upper_moments(0.3, False, nu, k)
    mm.upper_moments(0.3, True, k + 0.5, k)  # a normal component has every moment


def test_expected_power_loss_matches_quadrature():
    from scipy.integrate import quad
    rng = np.random.default_rng(9)
    for _ in range(8):
        p = random_loss_params(rng)
        a, b = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
        power = int(rng.integers(1, 3))
        if power == 2 and min(p.nu1, p.nu2) <= 2.0:
            continue
        xi = float(rng.normal(0.0, 0.05))

        def integrand(z):
            dens = (p.weight * stats.t.pdf((z - p.loc1) / p.scale1, p.nu1) / p.scale1
                    + (1 - p.weight) * stats.t.pdf((z - p.loc2) / p.scale2, p.nu2) / p.scale2)
            return (a * max(z - xi, 0.0) + b * max(xi - z, 0.0)) ** power * dens

        expected, _ = quad(integrand, -np.inf, np.inf, limit=300)
        got = mm.expected_power_loss(p, a, b, power, xi)
        assert got == pytest.approx(expected, rel=1e-6)


def test_expectile_solves_its_defining_equation():
    # tau E[(Z - x)_+] = (1 - tau) E[(x - Z)_+], both sides by expected_power_loss
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = random_loss_params(rng)
        for tau in (1e-4, 0.1, 0.5, 0.75, 0.9999):
            x = mm.expectile(p, tau)
            upper = mm.expected_power_loss(p, 1.0, 0.0, 1, x)
            lower = mm.expected_power_loss(p, 0.0, 1.0, 1, x)
            assert tau * upper == pytest.approx((1.0 - tau) * lower, rel=1e-10)
        mean = p.weight * p.loc1 + (1.0 - p.weight) * p.loc2
        assert mm.expectile(p, 0.5) == pytest.approx(mean, rel=1e-12, abs=1e-15)
    with pytest.raises(ValueError):
        mm.expectile(p, 1.0)
