"""Two-component multivariate Student-t mixture market model.

Provides exact seeded sampling, the induced univariate law of a portfolio
loss -<w, X> (a location-scale t mixture), and semi-analytic VaR / ES /
covariance used to build reference portfolios.  Either component can be
degenerated to a Gaussian via an explicit flag (nu = infinity is not
representable).
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr, ndtri, stdtr, stdtrit

__all__ = [
    "ModelError",
    "NumericsError",
    "MixtureModel",
    "LossLawParams",
    "sample_returns",
    "portfolio_loss_params",
    "mixture_cdf",
    "var_exact",
    "es_exact",
    "covariance",
    "expected_power_loss",
    "expectile",
]

# Fixed sampling chunk (rows scaled by dimension) so that the draws for a
# given (model, n, seed) are identical no matter the available memory.
_CHUNK_BUDGET = 2_097_152

_DENS_FLOOR = 1e-300


class ModelError(ValueError):
    """Invalid model parameters (e.g. a scale matrix that is not SPD)."""


class NumericsError(RuntimeError):
    """A semi-analytic routine failed to attain its stated tolerance."""


# JSON model key -> the dimensions of its value: 0 a number, 1 a vector, 2 a
# matrix (a list of equal-length vectors), None a boolean flag
_MODEL_KEYS = {"weight": 0, "nu1": 0, "nu2": 0, "mu1": 1, "mu2": 1, "lambda1": 2, "lambda2": 2,
               "gaussian1": None, "gaussian2": None}


def _json_value(value, ndim: int | None):
    """``value`` checked against ``ndim`` (see _MODEL_KEYS): numbers must be
    finite JSON numbers, not booleans, and become floats or arrays."""
    if ndim is None:
        if isinstance(value, bool):
            return value
    elif ndim == 0:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    elif isinstance(value, list):
        return np.array([_json_value(v, ndim - 1) for v in value])  # ragged: ValueError
    raise TypeError("wrong type")


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """p * t(mu1, lambda1, nu1) + (1 - p) * t(mu2, lambda2, nu2)."""

    weight: float
    mu1: np.ndarray
    mu2: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    nu1: float
    nu2: float
    gaussian1: bool = False
    gaussian2: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mu1", np.asarray(self.mu1, dtype=float))
        object.__setattr__(self, "mu2", np.asarray(self.mu2, dtype=float))
        object.__setattr__(self, "lambda1", np.asarray(self.lambda1, dtype=float))
        object.__setattr__(self, "lambda2", np.asarray(self.lambda2, dtype=float))
        if not (0.0 < self.weight <= 1.0):
            raise ModelError(f"weight must lie in (0, 1], got {self.weight}")
        if self.mu1.ndim != 1:
            raise ModelError("mu1 must be a vector")
        d = self.mu1.shape[0]
        if self.mu2.shape != (d,):
            raise ModelError(f"mu2 must have shape ({d},)")
        for name in ("lambda1", "lambda2"):
            lam = getattr(self, name)
            if lam.shape != (d, d):
                raise ModelError(f"{name} must have shape ({d}, {d})")
            if not np.allclose(lam, lam.T, rtol=1e-10, atol=1e-14):
                raise ModelError(f"{name} is not symmetric")
        for name, nu, gauss in (("nu1", self.nu1, self.gaussian1),
                                ("nu2", self.nu2, self.gaussian2)):
            if not gauss and nu <= 1.0:
                raise ModelError(f"{name} must exceed 1, got {nu}")
        # Cholesky both factors up front: failure means the model is unusable.
        try:
            chol1 = np.linalg.cholesky(self.lambda1)
            chol2 = np.linalg.cholesky(self.lambda2)
        except np.linalg.LinAlgError as exc:
            raise ModelError(f"scale matrix is not positive definite: {exc}") from exc
        object.__setattr__(self, "_chol1", chol1)
        object.__setattr__(self, "_chol2", chol2)

    @property
    def d(self) -> int:
        return self.mu1.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.weight * self.mu1 + (1.0 - self.weight) * self.mu2

    @classmethod
    def single_t(cls, mu, lam, nu: float) -> "MixtureModel":
        """Degenerate one-component Student-t model."""
        return cls(1.0, mu, mu, lam, lam, nu, nu)

    @classmethod
    def single_gaussian(cls, mu, lam) -> "MixtureModel":
        return cls(1.0, mu, mu, lam, lam, 4.0, 4.0, gaussian1=True, gaussian2=True)

    def to_dict(self) -> dict:
        return {
            "weight": self.weight,
            "mu1": self.mu1.tolist(),
            "mu2": self.mu2.tolist(),
            "lambda1": self.lambda1.tolist(),
            "lambda2": self.lambda2.tolist(),
            "nu1": self.nu1,
            "nu2": self.nu2,
            "gaussian1": self.gaussian1,
            "gaussian2": self.gaussian2,
        }

    @classmethod
    def from_dict(cls, doc: dict, where: str = "") -> "MixtureModel":
        """Model from its JSON form; a ModelError names the first bad key,
        prefixed by ``where``."""
        if not isinstance(doc, dict):
            raise ModelError(f"model must be a JSON object, got {doc!r}")
        unknown = set(doc) - set(_MODEL_KEYS)
        if unknown:
            raise ModelError(f"unknown model keys: {sorted(unknown)}")
        missing = set(_MODEL_KEYS) - set(doc) - {"gaussian1", "gaussian2"}
        if missing:
            raise ModelError(f"missing model keys: {sorted(missing)}")
        fields = {}
        for key, value in doc.items():
            try:
                fields[key] = _json_value(value, _MODEL_KEYS[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ModelError(f"bad value {value!r} for '{where}{key}'") from exc
        return cls(**fields)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "MixtureModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class LossLawParams:
    """Univariate law of the loss Z = -<w, X>: a two-component location-scale
    t mixture with loc_i = -<w, mu_i> and scale_i = sqrt(w' Lambda_i w)."""

    weight: float
    loc1: float
    loc2: float
    scale1: float
    scale2: float
    nu1: float
    nu2: float
    gaussian1: bool = False
    gaussian2: bool = False

    def __post_init__(self):
        if not (0.0 < self.weight <= 1.0):
            raise ModelError(f"weight must lie in (0, 1], got {self.weight}")
        if not all(map(math.isfinite, (self.loc1, self.loc2, self.scale1, self.scale2))):
            raise ModelError("component locations and scales must be finite")
        if not (self.scale1 > 0.0 and self.scale2 > 0.0):
            raise ModelError("component scales must be positive")

    def components(self) -> list:
        """(weight, loc, scale, gaussian, nu) of each component of positive weight."""
        comps = [(self.weight, self.loc1, self.scale1, self.gaussian1, self.nu1)]
        if self.weight < 1.0:
            comps.append((1.0 - self.weight, self.loc2, self.scale2, self.gaussian2, self.nu2))
        return comps


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _rng(seed: int) -> np.random.Generator:
    # Philox is counter based, so streams are stable and cheap to derive.
    return np.random.Generator(np.random.Philox(key=seed & (2 ** 64 - 1)))


def sample_returns(model: MixtureModel, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. return vectors; identical seeds give bit-identical output.

    Each row picks component 1 with probability ``weight``, then draws
    mu + (chol(Lambda) g) * sqrt(nu / chi2_nu) with g standard normal
    (the chi-squared factor is skipped for Gaussian-flagged components).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = model.d
    rng = _rng(seed)
    chunk = min(n, max(1024, _CHUNK_BUDGET // d))
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


# ---------------------------------------------------------------------------
# Univariate t / normal building blocks (all vectorized over the quantile)
# ---------------------------------------------------------------------------

_T_LOGNORM_CACHE: dict = {}


def _t_lognorm(nu: float) -> float:
    c = _T_LOGNORM_CACHE.get(nu)
    if c is None:
        c = gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0) - 0.5 * math.log(nu * math.pi)
        _T_LOGNORM_CACHE[nu] = c
    return c


def _t_pdf(x, nu: float):
    return np.exp(_t_lognorm(nu) - 0.5 * (nu + 1.0) * np.log1p(np.asarray(x) ** 2 / nu))

def _t_sf(x, nu: float):
    return stdtr(nu, -np.asarray(x))

def _norm_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)

def _norm_sf(x):
    return ndtr(-np.asarray(x))


def _t_tail_ex1(q, nu: float):
    """E[T 1{T > q}] for standard t; finite for nu > 1."""
    return _t_pdf(q, nu) * (nu + np.asarray(q) ** 2) / (nu - 1.0)


def _t_tail_ex2(q, nu: float):
    """E[T^2 1{T > q}] for standard t; finite for nu > 2."""
    q = np.asarray(q)
    shrink = math.sqrt((nu - 2.0) / nu)
    return nu * ((nu - 1.0) / (nu - 2.0) * _t_sf(q * shrink, nu - 2.0) - _t_sf(q, nu))


def _tail_moments(q, gaussian: bool, nu: float, order: int):
    """(E[1{T > q}], E[T 1{T > q}]) and, for order 2, E[T^2 1{T > q}] of the
    standardized component T; a t component needs nu > order."""
    q = np.asarray(q, dtype=float)
    if gaussian:
        sf = _norm_sf(q)
        ex1 = _norm_pdf(q)
        return (sf, ex1) if order == 1 else (sf, ex1, q * ex1 + sf)
    if nu <= order:
        raise NumericsError(f"tail moment of order {order} needs nu > {order}, got {nu}")
    if order == 1:
        return _t_sf(q, nu), _t_tail_ex1(q, nu)
    return _t_sf(q, nu), _t_tail_ex1(q, nu), _t_tail_ex2(q, nu)


def _partial_upper(q, gaussian: bool, nu: float, p: int):
    """E[(T - q)_+^p] for the standardized component, p in {1, 2}."""
    q = np.asarray(q, dtype=float)
    if p == 1:
        sf, ex1 = _tail_moments(q, gaussian, nu, 1)
        return ex1 - q * sf
    sf, ex1, ex2 = _tail_moments(q, gaussian, nu, 2)
    return ex2 - 2.0 * q * ex1 + q ** 2 * sf


# ---------------------------------------------------------------------------
# Portfolio loss law, CDF, VaR, ES
# ---------------------------------------------------------------------------

def portfolio_loss_params(model: MixtureModel, w: np.ndarray) -> LossLawParams:
    """Parameters of the univariate law of -<w, X>."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("portfolio weights must be finite")
    if not np.any(w != 0.0):
        raise ModelError("zero portfolio has a degenerate loss law")
    return LossLawParams(
        weight=model.weight,
        loc1=float(-w @ model.mu1),
        loc2=float(-w @ model.mu2),
        scale1=float(np.sqrt(w @ model.lambda1 @ w)),
        scale2=float(np.sqrt(w @ model.lambda2 @ w)),
        nu1=model.nu1,
        nu2=model.nu2,
        gaussian1=model.gaussian1,
        gaussian2=model.gaussian2,
    )


def _mixture_eval(x, p: LossLawParams, density: bool = False):
    """CDF of the loss mixture at x, or its density when ``density`` is set:
    one ndtr / stdtr (normal / t pdf) call per component, summed w1 c1 + w2 c2."""

    def component(loc, scale, gaussian, nu):
        z = (x - loc) / scale
        if density:
            return (_norm_pdf(z) if gaussian else _t_pdf(z, nu)) / scale
        return ndtr(z) if gaussian else stdtr(nu, z)

    c1 = component(p.loc1, p.scale1, p.gaussian1, p.nu1)
    if p.weight >= 1.0:
        return c1
    return p.weight * c1 + (1.0 - p.weight) * component(p.loc2, p.scale2, p.gaussian2, p.nu2)


def mixture_cdf(params: LossLawParams, x) -> float:
    """CDF of the loss mixture at x (scalar or array)."""
    out = _mixture_eval(np.asarray(x, dtype=float), params)
    return float(out) if np.ndim(x) == 0 else out


def _quantile(p: LossLawParams, alpha: float) -> float:
    """Alpha-quantile of the loss law by bracketed Newton.

    The mixture CDF is a weighted mean of the component CDFs, so its
    alpha-quantile lies between the component quantiles; padded by a relative
    margin for stdtrit / ndtri rounding, they bracket it.  Newton starts from
    their weight average, a step that would leave the bracket is replaced by
    bisection, and the loop stops at |cdf(q) - alpha| <= 1e-12, which a NaN
    never satisfies."""
    comps = [(w, loc + scale * float(ndtri(alpha) if gauss else stdtrit(nu, alpha)), scale)
             for w, loc, scale, gauss, nu in p.components()]
    lo = min(qc for _, qc, _ in comps)
    hi = max(qc for _, qc, _ in comps)
    pad = 1e-8 * (max(abs(lo), abs(hi)) + max(scale for _, _, scale in comps))
    lo, hi = lo - pad, hi + pad
    q = sum(w * qc for w, qc, _ in comps)
    for _ in range(100):
        f = float(_mixture_eval(q, p)) - alpha
        if abs(f) <= 1e-12:
            return q
        if f > 0.0:
            hi = q
        else:
            lo = q
        step = q - f / max(float(_mixture_eval(q, p, density=True)), _DENS_FLOOR)
        q = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericsError(f"quantile Newton missed |cdf - alpha| <= 1e-12 at alpha = {alpha} "
                        "after 100 steps")


def var_exact(params: LossLawParams, alpha: float) -> float:
    """Value-at-risk: the unique root of mixture_cdf(x) = alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return _quantile(params, alpha)


def es_exact(params: LossLawParams, alpha: float) -> float:
    """Expected shortfall at level alpha: the closed-form tail expectation
    E[Z | Z >= VaR_alpha], summed over components."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    q = _quantile(params, alpha)
    tail = 0.0
    for w, loc, scale, gauss, nu in params.components():
        sf, ex1 = _tail_moments((q - loc) / scale, gauss, nu, 1)
        tail = tail + w * (loc * sf + scale * ex1)
    return float(tail / (1.0 - alpha))


def covariance(model: MixtureModel) -> np.ndarray:
    """Exact covariance of X; needs nu > 2 for non-Gaussian components."""
    pieces = []
    for w, mu, lam, nu, gauss in (
        (model.weight, model.mu1, model.lambda1, model.nu1, model.gaussian1),
        (1.0 - model.weight, model.mu2, model.lambda2, model.nu2, model.gaussian2),
    ):
        if w == 0.0:
            continue
        if gauss:
            c = 1.0
        else:
            if nu <= 2.0:
                raise NumericsError(f"covariance needs nu > 2, got {nu}")
            c = nu / (nu - 2.0)
        pieces.append(w * (c * lam + np.outer(mu, mu)))
    mean = model.mean
    return sum(pieces) - np.outer(mean, mean)


# ---------------------------------------------------------------------------
# Expected power loss of the mixture (deviation-measure objective)
# ---------------------------------------------------------------------------

def expected_power_loss(params: LossLawParams, a_plus: float, b_minus: float,
                        p_power: int, xi: float) -> float:
    """E[(a (Z - xi)_+ + b (Z - xi)_-)^p] in expanded two-branch form."""
    total = 0.0
    for w, loc, scale, gauss, nu in params.components():
        q = (xi - loc) / scale
        up = _partial_upper(q, gauss, nu, p_power)
        down = _partial_upper(-q, gauss, nu, p_power)  # symmetry of t / normal
        total += w * scale ** p_power * (a_plus ** p_power * up + b_minus ** p_power * down)
    return float(total)


def expectile(params: LossLawParams, tau: float) -> float:
    """Tau-expectile of the loss law, the x with tau E[(Z - x)_+] = (1 - tau) E[(x - Z)_+]
    (Newey and Powell 1987): Newton from E Z on F(x) = (1 - 2 tau) E[(Z - x)_+] +
    (1 - tau)(x - E Z), which is convex or concave with slope between tau and
    1 - tau, so the iterates approach the root from one side; a step back is noise."""
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    comps = params.components()
    x = mean = sum(w * loc for w, loc, _, _, _ in comps)
    last = 0.0
    for _ in range(100):
        upper = sf = 0.0
        for w, loc, scale, gauss, nu in comps:
            q = (x - loc) / scale
            sf_c, ex1 = _tail_moments(q, gauss, nu, 1)
            upper += w * scale * (ex1 - q * sf_c)
            sf += w * sf_c
        step = float(((1.0 - 2.0 * tau) * upper + (1.0 - tau) * (x - mean))
                     / (1.0 - tau - (1.0 - 2.0 * tau) * sf))
        if step * last < 0.0 or abs(step) <= 1e-12 * (abs(x) + params.scale1):
            return x - step
        x, last = x - step, step
    raise NumericsError(f"expectile Newton did not converge at tau = {tau}")
