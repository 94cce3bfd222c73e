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
    "gamma_gradient",
    "tamed_gradient",
    "normalize",
    "risk_contributions",
    "mde",
    "reference_portfolio",
    "divergence_flag",
]

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

    def _loss_min(self, params: mm.LossLawParams):
        """(xi*, min_xi E[L(xi, Z)]) from the first-order condition in xi:
        xi* is the a/(a+b) quantile for p = 1 (Koenker and Bassett 1978) and
        the a^2/(a^2+b^2) expectile for p = 2 (Newey and Powell 1987)."""
        m = self.measure
        a, b = m.a_plus, m.b_minus
        xi = (mm.var_exact(params, a / (a + b)) if m.p_power == 1
              else mm.expectile(params, a * a / (a * a + b * b)))
        return xi, mm.expected_power_loss(params, a, b, m.p_power, xi)

    # -- outer objective g(r(y)) ------------------------------------------

    def outer_value(self, y: np.ndarray) -> float:
        """g(r(y)): expected shortfall itself, or min_xi E[L(xi, -<y, X>)] = r(y)**p
        for a deviation measure."""
        params = mm.portfolio_loss_params(self.model, y)
        if self.measure.is_es:
            return mm.es_exact(params, self.measure.alpha)
        return self._loss_min(params)[1]

    def risk_value(self, y: np.ndarray) -> float:
        """r(y) = rho(-<y, X>)."""
        return rl.rho_from_expected_loss(self.measure, self.outer_value(y))

    # -- gradients ----------------------------------------------------------

    def _euler_sum(self, y: np.ndarray, params: mm.LossLawParams, threshold: float,
                   moments) -> np.ndarray:
        """E[h(Z) (-X)] for a function h of the loss Z = -<y, X>.

        In component c, Z = loc_c + s_c T and E[-X | T] = -mu_c + (Lambda_c y / s_c) T
        is linear in T, so the sum over components needs only the 1-D moments
        (E_c[h], E_c[T h]) = moments(q_c, s_c, gaussian_c, nu_c), taken at
        q_c = (threshold - loc_c) / s_c.
        """
        model = self.model
        grad = np.zeros(self.d)
        for (w, loc, scale, gauss, nu), mu, lam in zip(
                params.components(), (model.mu1, model.mu2), (model.lambda1, model.lambda2)):
            h0, h1 = moments((threshold - loc) / scale, scale, gauss, nu)
            grad += w * (h1 / scale * (lam @ y) - h0 * mu)
        return grad

    def _deviation_moments(self, q, scale: float, gaussian: bool, nu: float):
        """(E[h], E[T h]) for h = dL/dz(xi*, loc + s T) with q = (xi* - loc) / s.

        h = p s^(p-1) (a^p (T - q)_+^(p-1) - b^p (q - T)_+^(p-1)); the second
        branch is the first one for -T at -q, as the standardized law is symmetric.
        """
        m = self.measure
        p = m.p_power

        def upper(t):
            """(E[(T - t)_+^(p-1)], E[T (T - t)_+^(p-1)])."""
            mom = mm._tail_moments(t, gaussian, nu, p)
            if p == 1:
                return mom
            return mom[1] - t * mom[0], mom[2] - t * mom[1]

        up0, up1 = upper(q)
        down0, down1 = upper(-q)
        c = p * scale ** (p - 1)
        return (c * (m.a_plus ** p * up0 - m.b_minus ** p * down0),
                c * (m.a_plus ** p * up1 + m.b_minus ** p * down1))

    def _value_and_gradient(self, y: np.ndarray):
        """(g(r(y)), grad g(r(y))) in closed form."""
        m = self.measure
        params = mm.portfolio_loss_params(self.model, y)
        if m.is_es:
            # grad ES(y) = E[-X | Z >= VaR] (Tasche 1999); by Euler's theorem
            # the value is <y, grad ES(y)>.
            var = mm.var_exact(params, m.alpha)
            grad = self._euler_sum(y, params, var,
                                   lambda q, s, gauss, nu: mm._tail_moments(q, gauss, nu, 1))
            grad /= 1.0 - m.alpha
            return float(y @ grad), grad
        # Envelope theorem at the minimizing xi*: grad = E[dL/dz(xi*, Z) (-X)].
        xi, value = self._loss_min(params)
        return value, self._euler_sum(y, params, xi, self._deviation_moments)

    def outer_gradient(self, y: np.ndarray) -> np.ndarray:
        """Gradient of g(r(.)), in closed form for every measure."""
        return self._value_and_gradient(y)[1]

    def risk_gradient(self, y: np.ndarray) -> np.ndarray:
        """Gradient of r(.) itself (no outer function, no log term), by the
        chain rule through g: r = g(r) for expected shortfall, g(r) = r^p for
        the deviation measures."""
        value, grad = self._value_and_gradient(y)
        if self.measure.is_es:
            return grad
        p = self.measure.p_power
        return grad / (p * rl.rho_from_expected_loss(self.measure, value) ** (p - 1))


def _require_interior(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("y must be strictly positive and finite")
    return y


def gamma_value(ctx: ObjectiveContext, y: np.ndarray) -> float:
    """Gamma(y) = g(r(y)) - sum_i b_i log y_i on the open orthant."""
    y = _require_interior(y)
    return ctx.outer_value(y) - float(ctx.budget.b @ np.log(y))


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
    total = y.sum()
    if total == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return y / total


def risk_contributions(ctx: ObjectiveContext, u: np.ndarray):
    """(u_i * d_i r(u), r(u)) for an interior simplex point u."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("u must be interior to the simplex")
    if abs(u.sum() - 1.0) > 1e-6:
        raise ValueError("u must sum to one")
    grad = ctx.risk_gradient(u)
    return u * grad, ctx.risk_value(u)


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


def reference_portfolio(ctx: ObjectiveContext, tol: float,
                        max_iterations: int = 100_000) -> PortfolioReport:
    """Solve for the budget-matching portfolio to a tamed-gradient tolerance.

    Runs the deterministic mirror descent with a constant unit step and cap
    m = 100 d; if that stalls, retries once with the decaying n^-0.55
    schedule before giving up.
    """
    from . import mirror_descent as md

    m_cap = 100.0 * ctx.d
    schedules = [md.StepSchedule.constant(1.0), md.StepSchedule.power(1.0, 0.55)]
    last_norm = math.inf
    for schedule in schedules:
        cfg = md.OptimizerConfig(
            m_cap=m_cap,
            schedule=schedule,
            iterations=max_iterations,
            y0=md.default_y0(ctx.model, m_cap),
            record_every=max_iterations,
            grad_tol=tol,
        )
        result = md.dmd_run(ctx, cfg)
        last_norm = result.grad_norm
        if not result.diverged and result.grad_norm <= tol:
            u = normalize(result.y_final)
            contributions, risk = risk_contributions(ctx, u)
            var = None
            if ctx.measure.is_es:
                params = mm.portfolio_loss_params(ctx.model, u)
                var = mm.var_exact(params, ctx.measure.alpha)
            return PortfolioReport(
                u=u,
                y_raw=result.y_final,
                contributions=contributions,
                risk=risk,
                var=var,
                grad_norm=result.grad_norm,
                iterations=result.iterations,
            )
    raise ConvergenceError(
        f"reference solve stalled with gradient norm {last_norm:.3e} > {tol:.3e}",
        grad_norm=last_norm,
    )
