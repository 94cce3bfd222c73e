"""Array twins of the ``market_models`` kernels: the loss laws, quantiles,
expected shortfalls, expectiles and expected power losses of many portfolios
at once, as ``rb_solver.gamma_values`` evaluates a run's gap records.

Each kernel takes its scalar twin's steps on every element of an array, in the
same order, so an element differs from the scalar result only where numpy's
exp, log1p and pow round differently from the math module's.  Loops run in
lockstep, and an element leaves one (a per-lane mask) at the step its scalar
loop stops at; where the scalar path raises NumericsError, the element reads
nan.  Gaussian tails and BGRAT's rows call the scalar helpers per element.  A
size-1 call costs tens of times the scalar kernel (one t tail: about 9 us
scalar, 230-380 us as an array, 2-core host), so the scalar kernels stay the
path of single evaluations, the reference solve's among them.  Its callers
import this module on first use, so a process that evaluates no batch does not
load it.
"""

import math

import numpy as np

from .market_models import (_DENS_FLOOR, _SQRT1_2, MixtureModel, NumericsError, _bgrat,
                            _std_quantile, _t_consts)

__all__ = [
    "portfolio_loss_rows",
    "var_rows",
    "es_rows",
    "expected_power_loss_rows",
    "expectile_rows",
]

_erfc_rows = np.vectorize(math.erfc, otypes=[float])  # numpy has no erfc


def _take(comps, keep) -> list:
    """The mixture ``comps`` with its loc and scale arrays cut to ``keep``."""
    return [(w, loc[keep], scale[keep], gauss, nu) for w, loc, scale, gauss, nu in comps]


def _beta_cf_rows(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """``_beta_cf`` at each element of the 1-d array x."""
    ab = a + b
    out = np.empty_like(x)
    lanes = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / (1.0 - ab * x / (a + 1.0))
    h = d.copy()
    for m in range(1, 300):
        if not lanes.size:
            return out
        p = a + (m + m)
        aa = m * (b - m) * x / ((p - 1.0) * p)
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        h *= d * c
        aa = -(a + m) * (ab + m) * x / (p * (p + 1.0))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        step = d * c
        h *= step
        done = np.abs(step - 1.0) <= 1e-16
        if done.any():
            out[lanes[done]] = h[done]
            live = ~done
            lanes, x, c, d, h = lanes[live], x[live], c[live], d[live], h[live]
    out[lanes] = h
    return out


@np.errstate(all="ignore")
def _t_sf_rows(t, nu: float) -> np.ndarray:
    """``_t_sf`` at each element of the array t, in its shape."""
    t = np.asarray(t, dtype=float)
    out = np.where(t > 0.0, 0.0, 1.0)  # the limits at +-inf
    out[t == 0.0] = 0.5
    out[np.isnan(t)] = math.nan
    live = np.isfinite(t) & (t != 0.0)
    t = t[live]
    a = 0.5 * nu
    inv_beta = _t_consts(nu)[0]
    t2 = t * t
    r = t2 / nu
    s = nu + t2
    x, y = nu / s, t2 / s
    xa = np.where(r <= 1.0, np.exp(-a * np.log1p(r)), x ** a)
    over = s == math.inf  # t^2 overflows
    xa[over] = np.exp(a * (math.log(nu) - 2.0 * np.log(np.abs(t[over]))))
    y[over] = 1.0
    prefactor = xa * np.sqrt(y) * inv_beta
    tail = np.empty_like(t)
    upper = r * (a + 1.0) <= 1.5  # x at or above the switch point
    tail[upper] = 0.5 - prefactor[upper] * _beta_cf_rows(0.5, a, y[upper])
    lower = ~upper
    if a > 15.0:  # x > 0.7 takes BGRAT
        bgrat = lower & (r < 3.0 / 7.0)
        tail[bgrat] = [0.5 * _bgrat(a, math.log1p(v), inv_beta) for v in r[bgrat].tolist()]
        lower &= ~bgrat
    tail[lower] = 0.5 * prefactor[lower] * _beta_cf_rows(a, 0.5, x[lower]) / a
    out[live] = np.where(t > 0.0, tail, 1.0 - tail)
    return out


def _norm_sf_rows(z) -> np.ndarray:
    """``_norm_sf`` at each element of the array z, in its shape."""
    return 0.5 * _erfc_rows(np.multiply(z, _SQRT1_2))


@np.errstate(all="ignore")
def _mixture_eval_rows(x, comps, density: bool = False) -> np.ndarray:
    """``_mixture_eval`` at each element of the array x, where each
    component's loc and scale are floats or arrays of the shape of x."""
    total = 0.0
    for w, loc, scale, gauss, nu in comps:
        z = (x - loc) / scale
        if not density:
            total = total + w * (_norm_sf_rows(-z) if gauss else _t_sf_rows(-z, nu))
        elif gauss:
            total = total + w * (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / scale)
        else:
            pdf = np.exp(_t_consts(nu)[1] - 0.5 * (nu + 1.0) * np.log1p(z * z / nu))
            total = total + w * (pdf / scale)
    return total


@np.errstate(all="ignore")
def _upper_moments_rows(q: np.ndarray, gaussian: bool, nu: float, k: int) -> tuple:
    """``upper_moments`` at each element of the array q; a t component with
    nu <= k + 1 reads nan."""
    if gaussian:
        sf, ex1 = _norm_sf_rows(q), np.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)
    elif nu <= k + 1:
        return np.full_like(q, math.nan), np.full_like(q, math.nan)
    else:  # ex1 as _t_tail_ex1
        sf = _t_sf_rows(q, nu)
        ex1 = nu / (nu - 1.0) * np.exp(_t_consts(nu)[1] - 0.5 * (nu - 1.0) * np.log1p(q * q / nu))
    if k == 0:
        return sf, ex1
    if gaussian:
        ex2 = q * ex1 + sf
    else:  # _t_tail_ex2
        shrink = math.sqrt((nu - 2.0) / nu)
        ex2 = nu * ((nu - 1.0) / (nu - 2.0) * _t_sf_rows(q * shrink, nu - 2.0) - sf)
    return ex1 - q * sf, ex2 - q * ex1


@np.errstate(all="ignore")
def portfolio_loss_rows(model: MixtureModel, ys) -> tuple:
    """The loss laws of the portfolios in the rows of the (K, d) array ys, as
    ``portfolio_loss_params`` gives them: (ok, comps), where ok marks the rows
    whose law it accepts (finite locations, finite positive scales; a row
    that is not finite or is zero has none) and comps lists the components of
    positive weight as ``LossLawParams.components`` does, with loc and scale
    arrays over the ok rows."""
    ys = np.asarray(ys, dtype=float)
    locs = [-(ys @ model.mu1), -(ys @ model.mu2)]
    scales = [np.sqrt(np.einsum("ij,ij->i", ys @ lam, ys)) for lam in (model.lambda1, model.lambda2)]
    ok = np.all(np.isfinite(locs + scales), axis=0) & (scales[0] > 0.0) & (scales[1] > 0.0)
    comps = [(model.weight, locs[0][ok], scales[0][ok], model.gaussian1, model.nu1)]
    if model.weight < 1.0:
        comps.append((1.0 - model.weight, locs[1][ok], scales[1][ok], model.gaussian2, model.nu2))
    return ok, comps


def _newton_quantile_rows(comps, alpha: float, lo, hi, q, tol: float) -> np.ndarray:
    """``_newton_quantile`` on every lane at once; a lane that misses the
    tolerance in 100 steps reads nan."""
    out = np.full_like(q, math.nan)
    lanes = np.arange(q.size)
    for _ in range(100):
        f = _mixture_eval_rows(q, comps) - alpha
        done = np.abs(f) <= tol
        if done.any():
            out[lanes[done]] = q[done]
            live = ~done
            lanes, q, f, lo, hi = lanes[live], q[live], f[live], lo[live], hi[live]
            comps = _take(comps, live)
        if not lanes.size:
            break
        above = f > 0.0
        hi = np.where(above, q, hi)
        lo = np.where(above, lo, q)
        step = q - f / np.maximum(_mixture_eval_rows(q, comps, density=True), _DENS_FLOOR)
        q = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    return out


@np.errstate(all="ignore")
def var_rows(comps, alpha: float) -> np.ndarray:
    """``var_exact`` of each lane of the loss laws ``comps`` (as
    ``portfolio_loss_rows`` lists them), by ``_quantile``'s bracket and
    start."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    try:
        qs = [loc + scale * _std_quantile(gauss, nu, alpha) for _, loc, scale, gauss, nu in comps]
    except NumericsError:
        return np.full_like(comps[0][1], math.nan)
    lo, hi = np.min(qs, axis=0), np.max(qs, axis=0)
    pad = 1e-8 * (np.maximum(np.abs(lo), np.abs(hi)) + np.max([c[2] for c in comps], axis=0))
    q = sum(c[0] * qc for c, qc in zip(comps, qs))
    return _newton_quantile_rows(comps, alpha, lo - pad, hi + pad, q, 1e-12)


@np.errstate(all="ignore")
def es_rows(comps, alpha: float) -> np.ndarray:
    """``es_exact`` of each lane of the loss laws ``comps``."""
    q = var_rows(comps, alpha)
    tail = 0.0
    for w, loc, scale, gauss, nu in comps:
        sf, ex1 = _upper_moments_rows((q - loc) / scale, gauss, nu, 0)
        tail = tail + w * (loc * sf + scale * ex1)
    return tail / (1.0 - alpha)


@np.errstate(all="ignore")
def expected_power_loss_rows(comps, a_plus: float, b_minus: float, p_power: int,
                             xi: np.ndarray) -> np.ndarray:
    """``expected_power_loss`` of each lane of the loss laws ``comps``, about
    the lane's xi."""
    total = 0.0
    for w, loc, scale, gauss, nu in comps:
        q = (xi - loc) / scale
        up0, up1 = _upper_moments_rows(q, gauss, nu, p_power - 1)
        down0, down1 = _upper_moments_rows(-q, gauss, nu, p_power - 1)
        up = up1 - q * up0
        down = down1 + q * down0
        total = total + w * scale ** p_power * (a_plus ** p_power * up + b_minus ** p_power * down)
    return total


@np.errstate(all="ignore")
def expectile_rows(comps, tau: float) -> np.ndarray:
    """``expectile`` of each lane of the loss laws ``comps``: its Newton
    iteration and stopping rule, lane by lane."""
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    x = mean = sum(w * loc for w, loc, _, _, _ in comps)
    scale1 = comps[0][2]
    last = np.zeros_like(x)
    out = np.full_like(x, math.nan)
    lanes = np.arange(x.size)
    for _ in range(100):
        if not lanes.size:
            break
        upper = sf = 0.0
        for w, loc, scale, gauss, nu in comps:
            q = (x - loc) / scale
            sf_c, ex1 = _upper_moments_rows(q, gauss, nu, 0)
            upper = upper + w * scale * (ex1 - q * sf_c)
            sf = sf + w * sf_c
        step = (((1.0 - 2.0 * tau) * upper + (1.0 - tau) * (x - mean))
                / (1.0 - tau - (1.0 - 2.0 * tau) * sf))
        done = (step * last < 0.0) | (np.abs(step) <= 1e-12 * (np.abs(x) + scale1))
        if done.any():
            out[lanes[done]] = x[done] - step[done]
            live = ~done
            lanes, x, mean, scale1, step = lanes[live], x[live], mean[live], scale1[live], step[live]
            comps = _take(comps, live)
        x, last = x - step, step
    return out
