"""Risk-budgeting objective, tamed gradient, reference portfolios, diagnostics.

The unnormalized objective is

    Gamma(y) = g(r(y)) - sum_i b_i log y_i,      r(y) = rho(-<y, X>),

whose unique minimizer y*, once normalized to the simplex, is the portfolio
whose risk contributions match the budgets b.  The gradient is tamed by the
factor kappa(y) = min_i y_i ^ 1 so that it stays bounded and extends
continuously to the boundary of the nonnegative orthant.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import market_models as mm
from . import risk_loss as rl

__all__ = [
    "ConvergenceError",
    "RiskBudget",
    "ObjectiveContext",
    "PortfolioReport",
    "gamma_value",
    "gamma_values",
    "gamma_gradient",
    "tamed_gradient",
    "normalize",
    "risk_contributions",
    "mde",
    "default_y0",
    "reference_portfolio",
    "divergence_flag",
]

_ARMIJO_C = 1e-4  # sufficient-decrease constant of the reference line search
_ARMIJO_HALVINGS = 60  # backtracking steps before the line search counts as exhausted
# Rounding of a computed Gamma, relative to max(1, |Gamma|): its two terms are
# O(1) near the minimizer (g(r(y*)) = 1/p) and each carries up to some tens of
# ulps.  Near the minimizer a Newton step lowers Gamma by less than that, so the
# Armijo test allows it; without the slack the line search stalls there with a
# tamed gradient of 1e-10 to 5e-9.
_GAMMA_ROUNDING = 1e-13


class ConvergenceError(RuntimeError):
    """Reference solve did not reach the requested gradient tolerance."""

    def __init__(self, message: str, grad_norm: float):
        super().__init__(message)
        self.grad_norm = grad_norm


@dataclass(frozen=True, eq=False)
class RiskBudget:
    """Positive budget shares, normalized to sum to one on construction."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("budget must be a nonempty vector")
        if not np.all(np.isfinite(b)) or np.any(b <= 0.0):
            raise ValueError("budget entries must be positive and finite")
        object.__setattr__(self, "b", b / b.sum())

    @classmethod
    def uniform(cls, d: int) -> "RiskBudget":
        return cls(np.full(d, 1.0 / d))

    @property
    def d(self) -> int:
        return self.b.size


@dataclass(eq=False)
class ObjectiveContext:
    """Binds budgets, measure and market model to one evaluable objective.

    The outer function g is fixed by the measure's loss representation
    g(r(y)) = min_xi E[L(xi, -<y, X>)]: the identity for expected shortfall
    and x**p for the deviation measures.
    """

    budget: RiskBudget
    measure: rl.MeasureSpec
    model: mm.MixtureModel

    def __post_init__(self):
        if self.budget.d != self.model.d:
            raise ValueError("budget and model dimensions differ")

    @property
    def d(self) -> int:
        return self.model.d

    def _xi_star(self, params: mm.LossLawParams) -> float:
        """The minimizing xi of E[L(xi, Z)]: the measure's ``xi_rule``."""
        level, expectile = self.measure.xi_rule
        return (mm.expectile if expectile else mm.var_exact)(params, level)

    # -- outer objective g(r(y)) ------------------------------------------

    def outer_value(self, y: np.ndarray) -> float:
        """g(r(y)): expected shortfall itself, or min_xi E[L(xi, -<y, X>)] = r(y)**p
        for a deviation measure."""
        m = self.measure
        params = mm.portfolio_loss_params(self.model, y)
        if m.is_es:
            return mm.es_exact(params, m.alpha)
        return mm.expected_power_loss(params, m.a_plus, m.b_minus, m.p_power,
                                      self._xi_star(params))

    def outer_values(self, ys: np.ndarray) -> np.ndarray:
        """``outer_value`` at each row of the (K, d) array ys on the array
        kernels: inf for a row whose loss law ``portfolio_loss_params``
        rejects, nan where ``outer_value`` raises NumericsError."""
        from . import market_batch as mb  # loaded on first use: see its docstring
        m = self.measure
        ok, comps = mb.portfolio_loss_rows(self.model, ys)
        if m.is_es:
            values = mb.es_rows(comps, m.alpha)
        else:
            level, expectile = m.xi_rule
            xi = (mb.expectile_rows if expectile else mb.var_rows)(comps, level)
            values = mb.expected_power_loss_rows(comps, m.a_plus, m.b_minus, m.p_power, xi)
        out = np.full(len(ok), math.inf)
        out[ok] = values
        return out

    def risk_value(self, y: np.ndarray) -> float:
        """r(y) = rho(-<y, X>)."""
        return rl.rho_from_expected_loss(self.measure, self.outer_value(y))

    # -- gradients ----------------------------------------------------------

    def outer_gradient(self, y: np.ndarray, hessian: bool = False):
        """Gradient of g(r(.)) in closed form: E[h(Z) (-X)] with h = dL/dz(xi*, .),
        by the envelope theorem at xi* (for expected shortfall this is
        E[-X | Z >= VaR], Tasche 1999); with ``hessian`` set, (gradient, Hessian).

        In component c, Z = loc_c + s_c T and E[-X | T] = -mu_c + a T with
        a = Lambda_c y / s_c, so each component needs only h0 = E_c[h] and h1 = E_c[T h].
        With q = (xi* - loc_c) / s_c and h = p s^(p-1) (a+^p (T - q)_+^(p-1) -
        b-^p (q - T)_+^(p-1)) (expected shortfall: p = a+ = 1, b- = 0, over 1 - alpha)
        these are ``mm.upper_moments`` of order p - 1 at q and at -q, as the
        standardized law is symmetric; those of order p - 2 give their q-derivatives
        h0q, h1q.  At fixed xi the Hessian is G = sum_c w_c / s_c [(h1q a - h0q mu_c)
        (mu_c - q a)' + h1 Lambda_c + ((p - 2) h1 a - (p - 1) h0 mu_c) a'], and xi*
        moves by the implicit derivative of E[h] = 0 (grad xi* = E[-X | Z = VaR] for
        expected shortfall, Gourieroux, Laurent and Scaillet 2000), so H = G - v v' / C
        with v = sum_c w_c (h1q a - h0q mu_c) / s_c and C = -sum_c w_c h0q / s_c.
        """
        m = self.measure
        model = self.model
        params = mm.portfolio_loss_params(model, y)
        xi = self._xi_star(params)
        p = 1 if m.is_es else m.p_power
        ap, bp = (1.0, 0.0) if m.is_es else (m.a_plus ** p, m.b_minus ** p)
        grad, v, hess, curv = np.zeros(self.d), np.zeros(self.d), 0.0, 0.0
        for (w, loc, scale, gauss, nu), mu, lam in zip(
                params.components(), (model.mu1, model.mu2), (model.lambda1, model.lambda2)):
            q = (xi - loc) / scale
            c = p * scale ** (p - 1)
            up0, up1 = mm.upper_moments(q, gauss, nu, p - 1)
            down0, down1 = mm.upper_moments(-q, gauss, nu, p - 1) if bp else (0.0, 0.0)
            h0, h1 = c * (ap * up0 - bp * down0), c * (ap * up1 + bp * down1)
            ly = lam @ y
            grad += w * (h1 / scale * ly - h0 * mu)
            if hessian:
                up0, up1 = mm.upper_moments(q, gauss, nu, p - 2)
                down0, down1 = mm.upper_moments(-q, gauss, nu, p - 2) if bp else (0.0, 0.0)
                h0q, h1q = -c * (ap * up0 + bp * down0), -c * (ap * up1 - bp * down1)
                a = ly / scale
                dxi = w / scale * (h1q * a - h0q * mu)
                hess += (np.outer(dxi, mu - q * a) + w * h1 / scale * lam
                         + np.outer(w / scale * ((p - 2) * h1 * a - (p - 1) * h0 * mu), a))
                v += dxi
                curv -= w * h0q / scale
        if hessian:
            with np.errstate(divide="ignore", invalid="ignore"):  # C = 0 leaves H non-finite
                hess -= np.outer(v, v / curv)
        if m.is_es:
            grad /= 1.0 - m.alpha
            hess /= 1.0 - m.alpha
        return (grad, hess) if hessian else grad

    def risk_gradient(self, y: np.ndarray, risk: float | None = None) -> np.ndarray:
        """Gradient of r(.) itself (no outer function, no log term), by the
        chain rule through g(r) = r^p: ``outer_gradient`` / (p r^(p-1)), with
        p = 1 (g the identity) for expected shortfall.  ``risk`` is r(y) when
        the caller has it; otherwise it is solved for when p > 1."""
        grad = self.outer_gradient(y)
        p = 1 if self.measure.is_es else self.measure.p_power
        if p == 1:
            return grad
        if risk is None:
            risk = self.risk_value(y)
        return grad / (p * risk ** (p - 1))


def _require_interior(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("y must be strictly positive and finite")
    return y


def gamma_value(ctx: ObjectiveContext, y: np.ndarray) -> float:
    """Gamma(y) = g(r(y)) - sum_i b_i log y_i on the open orthant."""
    y = _require_interior(y)
    return ctx.outer_value(y) - float(ctx.budget.b @ np.log(y))


def gamma_values(ctx: ObjectiveContext, ys) -> np.ndarray:
    """``gamma_value`` at each row of the (K, d) array ys, in one pass of the
    array kernels: inf where it raises ValueError (a row off the open
    orthant, or a loss law with a non-finite or non-positive location or
    scale), nan where it raises NumericsError."""
    ys = np.asarray(ys, dtype=float).reshape(-1, ctx.d)
    out = np.full(len(ys), math.inf)
    with np.errstate(all="ignore"):
        rows = np.flatnonzero(np.all((ys > 0.0) & (ys < math.inf), axis=1))
        y = ys[rows]
        out[rows] = ctx.outer_values(y) - np.log(y) @ ctx.budget.b
    return out


def gamma_gradient(ctx: ObjectiveContext, y: np.ndarray) -> np.ndarray:
    """Untamed gradient of Gamma at an interior point."""
    y = _require_interior(y)
    return ctx.outer_gradient(y) - ctx.budget.b / y


def tamed_gradient(budget: RiskBudget, grad_outer: np.ndarray, y: np.ndarray) -> np.ndarray:
    """kappa(y) * grad Gamma(y), extended by continuity to the boundary.

    At a boundary point the value is -b_j on zero coordinates and 0 elsewhere
    (the 0/0 = 1 convention applied to b_j * min(y)/y_j).
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("y must be nonnegative")
    b = budget.b
    if np.any(y == 0.0):
        return np.where(y == 0.0, -b, 0.0)
    kappa = min(float(y.min()), 1.0)
    return kappa * (np.asarray(grad_outer, dtype=float) - b / y)


def normalize(y: np.ndarray) -> np.ndarray:
    """Project onto the simplex by the l1 rescaling u = y / sum(y)."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("y must be strictly positive")
    return y / y.sum()


def risk_contributions(ctx: ObjectiveContext, u: np.ndarray):
    """(u_i * d_i r(u), r(u)) for an interior simplex point u."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("u must be interior to the simplex")
    if abs(u.sum() - 1.0) > 1e-6:
        raise ValueError("u must sum to one")
    risk = ctx.risk_value(u)
    return u * ctx.risk_gradient(u, risk), risk


def mde(u: np.ndarray, u_ref: np.ndarray) -> float:
    """Mean deviation error (1/d) sum_i |u_i - u_ref_i|."""
    u = np.asarray(u, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    if u.shape != u_ref.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {u_ref.shape}")
    return float(np.abs(u - u_ref).mean())


def divergence_flag(gap: float, epsilon: float) -> bool:
    """True when a run's objective gap exceeds epsilon or is not finite."""
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    return (not math.isfinite(gap)) or gap > epsilon


@dataclass(eq=False)
class PortfolioReport:
    """Converged reference portfolio with its Euler decomposition."""

    u: np.ndarray
    y_raw: np.ndarray
    contributions: np.ndarray
    risk: float
    var: float | None
    grad_norm: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "weights": self.u.tolist(),
            "y_raw": self.y_raw.tolist(),
            "contributions": self.contributions.tolist(),
            "risk": self.risk,
            "var": self.var,
            "gradient_norm": self.grad_norm,
            "iterations": self.iterations,
        }


def default_y0(model: mm.MixtureModel, m_cap: float) -> np.ndarray:
    """Inverse-variance start 1/(d sigma_i^2), rescaled into the m ball.

    Falls back to the entropy minimizer e^-1 (1, ..., 1) (or m/d when the
    ball is smaller) if the model covariance does not exist.
    """
    d = model.d
    try:
        variances = np.diag(mm.covariance(model))
        y0 = 1.0 / (d * variances)
    except mm.NumericsError:
        level = math.exp(-1.0) if m_cap >= d / math.e else m_cap / d
        y0 = np.full(d, level)
    total = y0.sum()
    if total > m_cap:
        y0 = y0 * (m_cap / total)
    return y0


def reference_portfolio(ctx: ObjectiveContext, tol: float,
                        max_iterations: int = 100) -> PortfolioReport:
    """Solve for the budget-matching portfolio to a tamed-gradient tolerance.

    Damped Newton on Gamma from ``default_y0`` (cap m = 100 d), in the manner
    of Spinu (2013): one ``outer_gradient`` call per step gives the gradient
    and the closed-form Hessian of g(r(.)), to which the log term adds
    diag(b / y^2); each step stops at 0.9 of the distance to the orthant
    boundary and backtracks by Armijo on ``gamma_value``.  The solve stops
    once the tamed-gradient sup-norm is at most ``tol``; ``max_iterations``
    caps the Newton steps, and ``PortfolioReport.iterations`` counts them.
    A non-finite Hessian, a singular one, a direction that does not descend,
    an exhausted line search or the step cap raises ``ConvergenceError``.
    """
    def failure(reason: str) -> ConvergenceError:
        return ConvergenceError(
            f"reference solve failed after {step} Newton steps: {reason}; "
            f"gradient norm {grad_norm:.3e} > {tol:.3e}", grad_norm=grad_norm)

    b = ctx.budget.b
    y = default_y0(ctx.model, 100.0 * ctx.d)
    value = gamma_value(ctx, y)
    for step in range(max_iterations + 1):
        grad_outer, hess = ctx.outer_gradient(y, hessian=True)
        tg = tamed_gradient(ctx.budget, grad_outer, y)
        grad_norm = float(np.abs(tg).max()) if np.all(np.isfinite(tg)) else math.inf
        if grad_norm <= tol:
            return _report(ctx, y, grad_norm, step)
        if step == max_iterations:
            raise failure("step cap reached")
        hess += np.diag(b / (y * y))
        if not np.all(np.isfinite(hess)):
            raise failure("non-finite Hessian")
        grad = grad_outer - b / y
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise failure("singular Hessian") from None
        slope = float(grad @ direction)
        if not slope < 0.0:
            raise failure("Newton direction does not descend")
        shrinking = direction < 0.0
        t = min(1.0, 0.9 * float((y[shrinking] / -direction[shrinking]).min(initial=math.inf)))
        slack = _GAMMA_ROUNDING * max(1.0, abs(value))
        for _ in range(_ARMIJO_HALVINGS):
            trial = y + t * direction
            trial_value = gamma_value(ctx, trial)
            if trial_value <= value + _ARMIJO_C * t * slope + slack:
                break
            t *= 0.5
        else:
            raise failure("line search exhausted")
        y, value = trial, trial_value


def _report(ctx: ObjectiveContext, y: np.ndarray, grad_norm: float,
            iterations: int) -> PortfolioReport:
    u = normalize(y)
    contributions, risk = risk_contributions(ctx, u)
    var = None
    if ctx.measure.is_es:
        var = mm.var_exact(mm.portfolio_loss_params(ctx.model, u), ctx.measure.alpha)
    return PortfolioReport(u=u, y_raw=y, contributions=contributions, risk=risk, var=var,
                           grad_norm=grad_norm, iterations=iterations)
