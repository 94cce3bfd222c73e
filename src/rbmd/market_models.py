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
    "upper_moments",
]

# Sampling chunk: max(1024, _CHUNK_BUDGET // d) rows.  The chunk boundaries and
# the order of the draws within a chunk fix the stream of a (model, n, seed);
# the buffers the draws land in do not.  A chunk's temporaries take about
# (2 - weight) * chunk * d doubles (see sample_returns).
_CHUNK_BUDGET = 2_097_152

# The least positive float: a Newton step over a density that underflowed to 0
# is infinite, so the quantile solve bisects instead of dividing by zero.
_DENS_FLOOR = 5e-324


class ModelError(ValueError):
    """Invalid model parameters (e.g. a scale matrix that is not SPD)."""


class NumericsError(RuntimeError):
    """A semi-analytic routine failed to attain its stated tolerance."""


REQUIRED = object()  # default of a key that must be given


def _check(value, kind, where: str, error=ModelError):
    """Copy of the JSON value ``value`` checked against ``kind``, with the
    defaults of its tables filled in.  A kind is a type (int, float, bool, str
    or dict), a tuple of the allowed strings (optionally ending in the kind
    that any other value must have), [kind] for a list, or a table: a dict
    key -> (kind, default), where a default of None leaves the key absent and
    REQUIRED makes it mandatory.  Numbers must be finite JSON numbers, not
    booleans or strings, and an int must be integral; an ``error`` names the
    first bad key by its dotted path ``where``."""
    if value is REQUIRED:
        raise error(f"missing key '{where}'")
    if isinstance(kind, dict):
        if isinstance(value, dict):
            unknown = set(value) - set(kind)
            if unknown:
                raise error(f"unknown key(s) {sorted(unknown)} in {where or 'config'}")
            return {key: _check(value.get(key, default), sub, f"{where}.{key}".lstrip("."), error)
                    for key, (sub, default) in kind.items() if key in value or default is not None}
    elif isinstance(kind, list):
        if isinstance(value, list):
            return [_check(item, kind[0], f"{where}[{i}]", error) for i, item in enumerate(value)]
    elif isinstance(kind, tuple):
        if not isinstance(value, str) and not isinstance(kind[-1], str):
            return _check(value, kind[-1], where, error)
        if value in kind:
            return value
    elif kind in (int, float):
        try:
            if (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and (math.isfinite(value) if kind is float else value == int(value))):
                return kind(value)
        except (ValueError, OverflowError):
            pass
    elif isinstance(value, kind):
        return value
    raise error(f"bad value {value!r} for '{where or 'config'}'")


# The JSON form of a MixtureModel, in _check's kinds and in to_dict's key order
_MODEL_SCHEMA = {"weight": (float, REQUIRED), "mu1": ([float], REQUIRED),
                 "mu2": ([float], REQUIRED), "lambda1": ([[float]], REQUIRED),
                 "lambda2": ([[float]], REQUIRED), "nu1": (float, REQUIRED),
                 "nu2": (float, REQUIRED), "gaussian1": (bool, False), "gaussian2": (bool, False)}


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
        for name in ("mu1", "mu2", "lambda1", "lambda2"):
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            except ValueError as exc:  # a ragged matrix
                raise ModelError(f"{name} is not a numeric array: {exc}") from exc
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
        fields = {key: getattr(self, key) for key in _MODEL_SCHEMA}
        return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in fields.items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "MixtureModel":
        """Model from its JSON form (_MODEL_SCHEMA); a ModelError names the
        first bad key by its dotted path below ``model``."""
        return cls(**_check(doc, _MODEL_SCHEMA, "model"))

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

def _rng(seed: int) -> "np.random.Generator":
    # Philox is counter based, so streams are stable and cheap to derive.  The
    # annotation is quoted: numpy.random loads on the first draw, not on import.
    return np.random.Generator(np.random.Philox(key=seed & (2 ** 64 - 1)))


def _t_factor(nu: float, w: np.ndarray) -> np.ndarray:
    """sqrt(nu / (2 w)) in place: the t scale of the chi-squared draws 2 w."""
    w *= 2.0
    np.divide(nu, w, out=w)
    return np.sqrt(w, out=w)


def sample_returns(model: MixtureModel, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. return vectors; identical seeds give bit-identical output.

    Each row picks component 1 with probability ``weight``, then draws
    mu + (chol(Lambda) g) * sqrt(nu / chi2_nu) with g standard normal
    (the chi-squared factor is skipped for Gaussian-flagged components).

    The stream is fixed by the chunk boundaries (``_CHUNK_BUDGET``) and by
    the order of the draws in a chunk of k rows: k uniforms, k x d normals,
    then k chi-squared draws for each component, Gaussian or not.  Each chunk
    is transformed in place in its rows of the result: component 2's product
    g chol2^T is written there and only its own rows are kept aside, then
    component 1's overwrites it.  Each product spans the whole chunk (a
    product over a subset of rows may round differently).  Besides the
    result, the temporaries stay within (2 - weight) * chunk * d doubles, up
    to the binomial spread of the component-2 row count, plus five doubles
    per chunk row.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = model.d
    rng = _rng(seed)
    chunk = min(n, max(1024, _CHUNK_BUDGET // d))
    out = np.empty((n, d))
    g_buf = np.empty((chunk, d))
    w1_buf = np.empty(chunk)
    w2_buf = np.empty(chunk)
    done = 0
    while done < n:
        k = min(chunk, n - done)
        rows, g, w1, w2 = out[done:done + k], g_buf[:k], w1_buf[:k], w2_buf[:k]
        rng.random(out=w1)
        rest = np.flatnonzero(w1 >= model.weight)  # the rows of component 2
        rng.standard_normal(out=g)
        rng.standard_gamma(model.nu1 / 2.0, out=w1)
        rng.standard_gamma(model.nu2 / 2.0, out=w2)
        if rest.size:
            x2 = np.matmul(g, model._chol2.T, out=rows)[rest]
            if not model.gaussian2:
                x2 *= _t_factor(model.nu2, w2[rest])[:, None]
            x2 += model.mu2
        np.matmul(g, model._chol1.T, out=rows)
        if not model.gaussian1:
            rows *= _t_factor(model.nu1, w1)[:, None]
        rows += model.mu1
        if rest.size:
            rows[rest] = x2
        done += k
    return out


# ---------------------------------------------------------------------------
# Univariate t / normal building blocks (scalar kernels on Python floats)
# ---------------------------------------------------------------------------
#
# For t >= 0 the standard t tail is P(T > t) = I_x(a, 1/2) / 2, with a = nu / 2,
# x = nu / (nu + t^2) and I the regularized incomplete beta function.  I_x(a, 1/2)
# is the continued fraction of Press et al. (Numerical Recipes, 6.4, modified
# Lentz) times the prefactor x^a (1 - x)^(1/2) / B(a, 1/2): taken directly below
# the switch point x = (a + 1) / (a + 5/2), and as 1 - I_{1-x}(1/2, a) above it.
# Between x = 0.7 and the switch point with a > 15, the direct fraction's leading
# terms cancel, and the asymptotic expansion of DiDonato and Morris (1992, ACM
# TOMS 708, BGRAT) is used instead.  x^a comes from exp(-a log1p(t^2 / nu)) while x >= 1/2 and from
# pow(x, a) below, whichever rounds the less.

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)

# B_2k / (2k (2k - 1)) for k = 1..8: the Stirling series of ln Gamma
_STIRLING = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), 1))


def _stirling_rest(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), for z >= 10."""
    zi = 1.0 / z
    zi2 = zi * zi
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * zi2 + c
    return s * zi


def _log_gamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a).  Above a = 10 the Stirling series of the
    two terms is subtracted in closed form: an lgamma difference would lose 3e-9
    of relative accuracy at a = 5e5 and 5e-6 at a = 5e8."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5)
            + (_stirling_rest(a + 0.5) - _stirling_rest(a)))


def _bgrat_coefficients() -> tuple:
    """The first 30 d_n of BGRAT for b = 1/2 (they depend on b alone)."""
    c, d = [], []
    for n in range(1, 31):
        c.append((c[-1] if c else 1.0) / (2 * n * (2 * n + 1)))
        s = sum((0.5 * i - n) * c[i - 1] * d[n - i - 1] for i in range(1, n))
        d.append(-0.5 * c[-1] + s / n)
    return tuple(d)


_BGRAT_D = _bgrat_coefficients()

_T_CONSTS_CACHE: dict = {}


def _t_consts(nu: float) -> tuple:
    """(1 / B(nu/2, 1/2), ln of the t density's normalizing constant), memoized per nu."""
    c = _T_CONSTS_CACHE.get(nu)
    if c is None:
        log_ib = _log_gamma_half_ratio(0.5 * nu) - _LOG_SQRT_PI
        c = _T_CONSTS_CACHE[nu] = (math.exp(log_ib), log_ib - 0.5 * math.log(nu))
    return c


def _beta_cf(a: float, b: float, x: float) -> float:
    """I_x(a, b) over its prefactor x^a (1 - x)^b / (a B(a, b)), by the continued
    fraction; it converges fast for x below (a + 1) / (a + b + 2)."""
    ab = a + b
    c = 1.0
    d = 1.0 / (1.0 - ab * x / (a + 1.0))
    h = d
    for m in range(1, 300):
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
        if abs(step - 1.0) <= 1e-16:
            break
    return h


def _bgrat(a: float, log1p_r: float, inv_beta: float) -> float:
    """I_x(a, 1/2) for a > 15 and x > 0.7, with -ln x = log1p_r and inv_beta =
    1 / B(a, 1/2): BGRAT's expansion in the incomplete gamma Q(1/2, z) =
    erfc(sqrt(z)), z = (a - 1/4)(-ln x), with its terms scaled by
    e^-z z^(1/2) / Gamma(1/2) so that none is divided by it."""
    nu_ = a - 0.25
    z = nu_ * log1p_r
    j = math.erfc(math.sqrt(z))
    total = j
    scaled = math.exp(-z) * math.sqrt(z / math.pi)
    v = 0.25 / (nu_ * nu_)
    t2 = 0.25 * log1p_r * log1p_r
    bp = 0.5
    for dn in _BGRAT_D:
        j = (bp * (bp + 1.0) * j + (z + bp + 1.0) * scaled) * v
        bp += 2.0
        scaled *= t2
        term = dn * j
        total += term
        if abs(term) <= 1e-16 * total:
            break
    return inv_beta * math.sqrt(math.pi / nu_) * total


def _t_sf(t: float, nu: float) -> float:
    """P(T > t) for the standard t law: exactly 1/2 at t = 0, 0 and 1 at t = +-inf,
    NaN for NaN."""
    if t == 0.0:
        return 0.5
    if not abs(t) < math.inf:
        return t if t != t else (0.0 if t > 0.0 else 1.0)
    a = 0.5 * nu
    inv_beta = _t_consts(nu)[0]
    t2 = t * t
    r = t2 / nu
    s = nu + t2
    x, y = nu / s, t2 / s
    if r <= 1.0:
        xa = math.exp(-a * math.log1p(r))
    elif s < math.inf:
        xa = x ** a
    else:  # t^2 overflows
        xa, y = math.exp(a * (math.log(nu) - 2.0 * math.log(abs(t)))), 1.0
    prefactor = xa * math.sqrt(y) * inv_beta
    if r * (a + 1.0) <= 1.5:  # x at or above the switch point
        tail = 0.5 - prefactor * _beta_cf(0.5, a, y)
    elif a > 15.0 and r < 3.0 / 7.0:  # x > 0.7
        tail = 0.5 * _bgrat(a, math.log1p(r), inv_beta)
    else:
        tail = 0.5 * prefactor * _beta_cf(a, 0.5, x) / a
    return tail if t > 0.0 else 1.0 - tail


def _t_pdf(t: float, nu: float) -> float:
    return math.exp(_t_consts(nu)[1] - 0.5 * (nu + 1.0) * math.log1p(t * t / nu))


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z * _SQRT1_2)


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _t_tail_ex1(q: float, nu: float) -> float:
    """E[T 1{T > q}] = nu / (nu - 1) f(q) (1 + q^2 / nu) for standard t; finite for nu > 1."""
    return nu / (nu - 1.0) * math.exp(_t_consts(nu)[1] - 0.5 * (nu - 1.0) * math.log1p(q * q / nu))


def _t_tail_ex2(q: float, nu: float) -> float:
    """E[T^2 1{T > q}] for standard t; finite for nu > 2."""
    shrink = math.sqrt((nu - 2.0) / nu)
    return nu * ((nu - 1.0) / (nu - 2.0) * _t_sf(q * shrink, nu - 2.0) - _t_sf(q, nu))


def upper_moments(q: float, gaussian: bool, nu: float, k: int) -> tuple:
    """(E[(T - q)_+^k], E[T (T - q)_+^k]) of the standardized component T for
    k in {0, 1}, with (T - q)_+^0 = 1{T > q}; a t component needs nu > k + 1."""
    if gaussian:
        sf, ex1 = _norm_sf(q), _norm_pdf(q)
    elif nu <= k + 1:
        raise NumericsError(f"tail moment of order {k + 1} needs nu > {k + 1}, got {nu}")
    else:
        sf, ex1 = _t_sf(q, nu), _t_tail_ex1(q, nu)
    if k == 0:
        return sf, ex1
    ex2 = q * ex1 + sf if gaussian else _t_tail_ex2(q, nu)
    return ex1 - q * sf, ex2 - q * ex1


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


def _mixture_eval(x: float, comps, density: bool = False) -> float:
    """CDF at x of the location-scale mixture ``comps`` (as listed by
    ``LossLawParams.components``), or its density when ``density`` is set."""
    total = 0.0
    for w, loc, scale, gauss, nu in comps:
        z = (x - loc) / scale
        if density:
            total += w * ((_norm_pdf(z) if gauss else _t_pdf(z, nu)) / scale)
        else:
            total += w * (_norm_sf(-z) if gauss else _t_sf(-z, nu))
    return total


def mixture_cdf(params: LossLawParams, x):
    """CDF of the loss mixture at x: a float, or an array of the shape of x
    (by ``market_batch``'s array kernel)."""
    comps = params.components()
    if np.ndim(x) == 0:
        return _mixture_eval(float(x), comps)
    from . import market_batch  # loaded on first use: see its docstring
    return market_batch._mixture_eval_rows(np.asarray(x, dtype=float), comps)


def _newton_quantile(comps, alpha: float, lo: float, hi: float, q: float, tol: float) -> float:
    """Root of cdf(q) = alpha in [lo, hi] for the mixture ``comps``, by Newton
    from q.  A step that would leave the bracket is replaced by bisection, and
    the loop stops at |cdf(q) - alpha| <= tol, which a NaN never satisfies."""
    for _ in range(100):
        f = _mixture_eval(q, comps) - alpha
        if abs(f) <= tol:
            return q
        if f > 0.0:
            hi = q
        else:
            lo = q
        step = q - f / max(_mixture_eval(q, comps, density=True), _DENS_FLOOR)
        q = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericsError(f"quantile Newton missed |cdf - alpha| <= {tol:.3g} at alpha = {alpha} "
                        "after 100 steps")


_STD_QUANTILE_CACHE: dict = {}


def _std_quantile(gauss: bool, nu: float, alpha: float) -> float:
    """Alpha-quantile of a standardized component, memoized per (gauss, nu, alpha).
    The law is symmetric: this is q, or -q for alpha > 1/2, where q is the
    quantile of tail = min(alpha, 1 - alpha).  Doubling from -1 brackets q in
    [-2^k, -2^(k-1)] or [-1, 0], and ``_newton_quantile`` solves it to
    |cdf(q) - tail| <= 1e-13 tail, so that deep quantiles keep their relative
    accuracy too.  Below tail = e^-100 the bound is 1e-15 |ln tail| tail
    instead: a tail exp(-E) carries the rounding of E, about |ln tail| ulps."""
    key = (gauss, nu, alpha)
    q = _STD_QUANTILE_CACHE.get(key)
    if q is None:
        comps = [(1.0, 0.0, 1.0, gauss, nu)]
        tail = min(alpha, 1.0 - alpha)
        lo, hi = -1.0, 0.0
        while _mixture_eval(lo, comps) > tail:
            lo, hi = 2.0 * lo, lo
        tol = max(1e-13, -1e-15 * math.log(tail)) * tail
        q = _newton_quantile(comps, tail, lo, hi, 0.5 * (lo + hi), tol)
        q = _STD_QUANTILE_CACHE[key] = q if alpha <= 0.5 else -q
    return q


def _quantile(p: LossLawParams, alpha: float) -> float:
    """Alpha-quantile of the loss law by bracketed Newton.

    The mixture CDF is a weighted mean of the component CDFs, so its
    alpha-quantile lies between the component quantiles; padded by a relative
    margin for their rounding, they bracket it.  Newton starts from their
    weight average and stops at |cdf(q) - alpha| <= 1e-12."""
    comps = p.components()
    qs = [loc + scale * _std_quantile(gauss, nu, alpha) for _, loc, scale, gauss, nu in comps]
    lo, hi = min(qs), max(qs)
    pad = 1e-8 * (max(abs(lo), abs(hi)) + max(c[2] for c in comps))
    q = sum(c[0] * qc for c, qc in zip(comps, qs))
    return _newton_quantile(comps, alpha, lo - pad, hi + pad, q, 1e-12)


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
        sf, ex1 = upper_moments((q - loc) / scale, gauss, nu, 0)
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
    """E[(a (Z - xi)_+ + b (Z - xi)_-)^p] in expanded two-branch form.  Per component,
    with (m0, m1) the ``upper_moments`` of order p - 1, E[(T - q)_+^p] = m1 - q m0 at
    q and E[(q - T)_+^p] = m1 + q m0 at -q (the standardized law is symmetric)."""
    total = 0.0
    for w, loc, scale, gauss, nu in params.components():
        q = (xi - loc) / scale
        up0, up1 = upper_moments(q, gauss, nu, p_power - 1)
        down0, down1 = upper_moments(-q, gauss, nu, p_power - 1)
        up = up1 - q * up0
        down = down1 + q * down0
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
            sf_c, ex1 = upper_moments(q, gauss, nu, 0)
            upper += w * scale * (ex1 - q * sf_c)
            sf += w * sf_c
        step = float(((1.0 - 2.0 * tau) * upper + (1.0 - tau) * (x - mean))
                     / (1.0 - tau - (1.0 - 2.0 * tau) * sf))
        if step * last < 0.0 or abs(step) <= 1e-12 * (abs(x) + params.scale1):
            return x - step
        x, last = x - step, step
    raise NumericsError(f"expectile Newton did not converge at tau = {tau}")

