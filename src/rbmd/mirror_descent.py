"""Optimization engines: entropic proximal map with an l1-ball cap,
deterministic and stochastic mirror descent, tamed and classical projected
SGD baselines, step schedules, and iterate averaging."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import market_models as mm
from . import rb_solver as rb
from . import risk_loss as rl

__all__ = [
    "StepSchedule",
    "OptimizerConfig",
    "RunResult",
    "step_size",
    "prox_map",
    "default_y0",
    "dmd_run",
    "smd_run",
    "sgd_run",
    "weighted_average",
    "tail_average",
]

_CLAMP = 700.0
_TINY = 5e-324  # smallest positive double; prox outputs stay strictly positive
_SGD_FLOOR = 1e-4  # value the SGD baselines reset nonpositive coordinates to


@dataclass(frozen=True)
class StepSchedule:
    """Step sequence: gamma_n = gamma0 (constant) or gamma0 * n^-beta."""

    kind: str
    gamma0: float
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "power"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (self.gamma0 > 0.0):
            raise ValueError("gamma0 must be positive")
        if self.kind == "power" and not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")

    @classmethod
    def constant(cls, gamma0: float) -> "StepSchedule":
        return cls("constant", gamma0)

    @classmethod
    def power(cls, gamma0: float, beta: float) -> "StepSchedule":
        return cls("power", gamma0, beta)


def step_size(schedule: StepSchedule, n: int) -> float:
    if n < 1:
        raise ValueError("step index starts at 1")
    if schedule.kind == "constant":
        return schedule.gamma0
    return schedule.gamma0 * float(n) ** -schedule.beta


@dataclass
class OptimizerConfig:
    """Shared knobs for all runners.

    ``iterations`` drives the deterministic runs; stochastic runs derive
    their total count as epochs * len(samples) and replay the sample matrix
    in a fixed order.
    """

    m_cap: float
    schedule: StepSchedule
    iterations: int
    y0: np.ndarray
    epochs: int = 1
    xi0: float = 0.0
    record_every: int = 100
    tail_fraction: float = 0.2
    record_weights: bool = False
    grad_tol: float | None = None

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)
        if not (self.m_cap > 0.0):
            raise ValueError("m_cap must be positive")
        if self.iterations < 1 or self.epochs < 1 or self.record_every < 1:
            raise ValueError("iterations, epochs and record_every must be >= 1")
        if np.any(self.y0 <= 0.0) or not np.all(np.isfinite(self.y0)):
            raise ValueError("y0 must be strictly positive and finite")
        if self.y0.sum() > self.m_cap * (1.0 + 1e-9):
            raise ValueError("y0 must start inside the l1 ball of radius m_cap")
        if not (0.0 < self.tail_fraction <= 1.0):
            raise ValueError("tail_fraction must lie in (0, 1]")


@dataclass(eq=False)
class RunResult:
    """Final iterates, averages and diagnostics of one optimizer run."""

    y_final: np.ndarray
    xi_final: float
    y_weighted_avg: np.ndarray
    y_tail_avg: np.ndarray
    xi_tail_avg: float
    gap_trace: list
    min_underbar_y: float
    diverged: bool
    iterations: int
    grad_norm: float = math.nan
    gamma_sum: float = 0.0
    n_projections: int = 0
    y_trace: list = field(default_factory=list)
    avg_trace: list = field(default_factory=list)
    xi_trace: list = field(default_factory=list)
    projection_iters: list = field(default_factory=list)


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


def _prox(y: np.ndarray, e: np.ndarray, m: float, bound: float = math.inf):
    """Entropic prox y * exp(e), rescaled onto the l1 ball of radius m when its
    sum exceeds m; e is overwritten.  Returns the new point, whether the cap
    was active, and its min.  The output is always finite and strictly
    positive: exponents are clamped to +-_CLAMP and underflows floored to
    _TINY.  ``bound`` is an upper bound on max|e_i|; at 600 or less (100 below
    _CLAMP, room for its rounding) the clamp cannot act and is skipped."""
    if not bound <= 600.0:
        np.maximum(e, -_CLAMP, out=e)
        np.minimum(e, _CLAMP, out=e)
    np.exp(e, out=e)
    w = y * e
    s = float(w.sum())
    projected = not s <= m
    if not math.isfinite(s):
        # log-domain fallback: only reachable for extreme caps/overflow
        w = np.log(y) + np.log(e)
        w -= w.max()
        np.exp(w, out=w)
        w *= m / w.sum()
    elif projected:
        w *= m / s
    ymin = float(w.min())
    if ymin < _TINY:  # an exp or a rescale underflowed to 0
        np.maximum(w, _TINY, out=w)
        ymin = _TINY
    return w, projected, ymin


def prox_map(y: np.ndarray, v: np.ndarray, m: float) -> np.ndarray:
    """Entropic proximal step from a strictly positive y inside the m ball."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (m > 0.0):
        raise ValueError("m must be positive")
    if np.any(y <= 0.0):
        raise ValueError("y must be strictly positive")
    if y.sum() > m * (1.0 + 1e-9):
        raise ValueError("y must lie inside the l1 ball of radius m")
    return _prox(y, -v, m)[0]


class _Recorder:
    """Shared trace bookkeeping for all runners, and their one result builder."""

    def __init__(self, ctx, cfg: OptimizerConfig, total: int, gamma_star):
        self.ctx = ctx
        self.cfg = cfg
        self.total = total
        self.gamma_star = gamma_star
        self.tail_start = total - max(1, math.ceil(cfg.tail_fraction * total)) + 1
        self.gap_trace = []
        self.y_trace = []
        self.avg_trace = []
        self.xi_trace = []
        self.projection_iters = []
        self.n_projections = 0

    def want(self, k: int) -> bool:
        return k % self.cfg.record_every == 0 or k == self.total

    def record(self, k: int, y, xi, wacc, wsum):
        base = 0.0 if self.gamma_star is None else self.gamma_star
        try:
            gap = rb.gamma_value(self.ctx, y) - base
        except ValueError:  # y left the open orthant: the run blew up
            gap = math.inf
        except mm.NumericsError:  # the objective cannot be evaluated here
            gap = math.nan
        self.gap_trace.append((k, gap))
        if self.cfg.record_weights:
            self.y_trace.append((k, y.copy()))
            if wsum > 0.0:
                self.avg_trace.append((k, wacc / wsum))
            if xi is not None:
                self.xi_trace.append((k, xi))

    def projection(self, k: int):
        self.n_projections += 1
        if self.cfg.record_weights:
            self.projection_iters.append(k)

    def result(self, y, xi, wacc, wsum, tail_acc, tail_n, xi_tail, min_under,
               diverged, iterations, grad_norm=math.nan) -> RunResult:
        """``wacc``/``wsum`` accumulate gamma_k y and gamma_k; ``tail_acc``,
        ``xi_tail`` and ``tail_n`` the iterates from step ``tail_start`` on."""
        return RunResult(
            y_final=y,
            xi_final=xi,
            y_weighted_avg=wacc / wsum if wsum > 0.0 else y.copy(),
            y_tail_avg=tail_acc / tail_n if tail_n > 0 else y.copy(),
            xi_tail_avg=xi_tail / tail_n if tail_n > 0 else xi,
            gap_trace=self.gap_trace,
            min_underbar_y=min_under,
            diverged=diverged,
            iterations=iterations,
            grad_norm=grad_norm,
            gamma_sum=wsum,
            n_projections=self.n_projections,
            y_trace=self.y_trace,
            avg_trace=self.avg_trace,
            xi_trace=self.xi_trace,
            projection_iters=self.projection_iters,
        )


def dmd_run(ctx: rb.ObjectiveContext, cfg: OptimizerConfig,
            gamma_star: float | None = None) -> RunResult:
    """Deterministic mirror descent on the semi-analytic objective.

    Iterates y^{k+1} = prox(y^k, gamma_{k+1} * tamed gradient, m) and stops
    early once the tamed gradient sup-norm falls below ``cfg.grad_tol``.
    """
    y = cfg.y0.copy()
    n = cfg.iterations
    rec = _Recorder(ctx, cfg, n, gamma_star)
    wacc = np.zeros_like(y)
    wsum = 0.0
    tail_acc = np.zeros_like(y)
    tail_n = 0
    min_under = float(y.min())
    diverged = False
    grad_norm = math.inf
    done = 0
    converged = False
    for k in range(1, n + 1):
        gamma = step_size(cfg.schedule, k)
        tg = rb.tamed_gradient(ctx.budget, ctx.outer_gradient(y), y)
        if not np.all(np.isfinite(tg)):
            diverged = True
            break
        grad_norm = float(np.abs(tg).max())
        if cfg.grad_tol is not None and grad_norm <= cfg.grad_tol:
            converged = True
            break
        wacc += gamma * y
        wsum += gamma
        y, projected, ymin = _prox(y, tg * -gamma, cfg.m_cap, gamma * grad_norm)
        done = k
        if projected:
            rec.projection(k)
        if ymin < min_under:
            min_under = ymin
        if k >= rec.tail_start:
            tail_acc += y
            tail_n += 1
        if rec.want(k):
            rec.record(k, y, None, wacc, wsum)
    if not diverged and not converged:
        tg = rb.tamed_gradient(ctx.budget, ctx.outer_gradient(y), y)
        grad_norm = float(np.abs(tg).max()) if np.all(np.isfinite(tg)) else math.inf
    return rec.result(y, math.nan, wacc, wsum, tail_acc, tail_n, math.nan, min_under,
                      diverged, done, grad_norm)


def _stochastic_loop(ctx, samples, cfg, gamma_star, rule):
    """Shared loop of SMD (``rule`` "smd") and the SGD baselines ("tamed",
    "classical").

    Every rule builds ng = -grad_y = b/y + X dL/dz and steps along
    step * ng, with step = gamma * kappa(y) (gamma for "classical").  SMD
    takes the entropic prox ``_prox(y, step * ng)``; the SGD baselines take
    y + step * ng and reset nonpositive coordinates to ``_SGD_FLOOR``.
    min(y) is taken once per step and serves the record of min y, the next
    kappa and the floor test.
    """
    samples = np.ascontiguousarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("samples must be a nonempty n x d matrix")
    if samples.shape[1] != ctx.d:
        raise ValueError("sample dimension does not match the model")
    n_rows = samples.shape[0]
    total = cfg.epochs * n_rows
    grads = rl.make_gradient_fn(ctx.measure)
    b = ctx.budget.b
    m = cfg.m_cap
    smd = rule == "smd"
    tamed = rule != "classical"
    x_max = max(float(samples.max()), -float(samples.min()))  # bounds every |X_i|
    y = cfg.y0.copy()
    xi = float(cfg.xi0)
    rec = _Recorder(ctx, cfg, total, gamma_star)
    tail_start = rec.tail_start
    wacc = np.zeros_like(y)
    wsum = 0.0
    tail_acc = np.zeros_like(y)
    tail_n = 0
    xi_tail = 0.0
    ymin = float(y.min())
    min_under = ymin
    diverged = False
    constant = cfg.schedule.kind == "constant"
    gamma0 = cfg.schedule.gamma0
    beta = cfg.schedule.beta
    k = 0
    for _ in range(cfg.epochs):
        for x in samples:
            k += 1
            z = -float(y @ x)
            if not (math.isfinite(z) and math.isfinite(xi)):
                diverged = True
                break
            gamma = gamma0 if constant else gamma0 * float(k) ** -beta
            g_xi, g_z = grads(xi, z)
            wacc += gamma * y
            wsum += gamma
            xi = xi - gamma * g_xi
            ng = b / y
            if g_z != 0.0:  # x * 0 would only add signed zeros
                ng += x * g_z
            step = gamma * min(ymin, 1.0) if tamed else gamma
            ng *= step
            if smd:
                # Since kappa <= y_i and b_i <= 1, |step * ng_i| is at most
                # gamma + step * |X_i dL/dz|.  That bound needs b/y finite,
                # which y >= 1e-300 ensures: for a subnormal y_i, b_i / y_i is
                # inf.
                bound = step * abs(g_z) * x_max + gamma if ymin >= 1e-300 else math.inf
                y, projected, ymin = _prox(y, ng, m, bound)
                if projected:
                    rec.projection(k)
            else:
                ng += y
                y = ng
                ymin = float(y.min())
                if not ymin > 0.0:
                    y = np.where(y <= 0.0, _SGD_FLOOR, y)
                    ymin = float(y.min())
            if ymin < min_under:
                min_under = ymin
            if k >= tail_start:
                tail_acc += y
                tail_n += 1
                xi_tail += xi
            if rec.want(k):
                rec.record(k, y, xi, wacc, wsum)
        if diverged:
            break
    # Blowups in the uncapped baselines surface as a non-finite loss z at the
    # next draw; iterates produced on the very last step are checked here.
    if not diverged and not (np.all(np.isfinite(y)) and math.isfinite(xi)):
        diverged = True
    if diverged:
        rec.gap_trace.append((k, math.inf))
    return rec.result(y, xi, wacc, wsum, tail_acc, tail_n, xi_tail, min_under,
                      diverged, k)


def smd_run(ctx: rb.ObjectiveContext, samples: np.ndarray, cfg: OptimizerConfig,
            gamma_star: float | None = None) -> RunResult:
    """Stochastic mirror descent on z = (xi, y).

    Per sample X: xi takes a plain gradient step on the loss; y takes an
    entropic proximal step on the tamed stochastic gradient
    kappa(y) * (-X dL/dz - b/y).
    """
    return _stochastic_loop(ctx, samples, cfg, gamma_star, "smd")


def sgd_run(variant: str, ctx: rb.ObjectiveContext, samples: np.ndarray,
            cfg: OptimizerConfig, gamma_star: float | None = None) -> RunResult:
    """Projected SGD baselines.

    "classical" steps along the raw stochastic gradient, "tamed" scales it by
    kappa(y).  Either way nonpositive coordinates are reset to ``_SGD_FLOOR``
    and there is no l1 cap.
    """
    if variant not in ("classical", "tamed"):
        raise ValueError(f"unknown variant {variant!r}")
    return _stochastic_loop(ctx, samples, cfg, gamma_star, variant)


def weighted_average(trajectory, schedule: StepSchedule) -> np.ndarray:
    """Step-weighted average sum_k gamma_k traj[k-1] / sum_k gamma_k."""
    traj = [np.asarray(y, dtype=float) for y in trajectory]
    if not traj:
        raise ValueError("trajectory must be nonempty")
    gammas = np.array([step_size(schedule, k) for k in range(1, len(traj) + 1)])
    stacked = np.stack(traj)
    return (gammas[:, None] * stacked).sum(axis=0) / gammas.sum()


def tail_average(trajectory, fraction: float) -> np.ndarray:
    """Unweighted mean of the final ceil(fraction * len) iterates."""
    traj = [np.asarray(y, dtype=float) for y in trajectory]
    if not traj:
        raise ValueError("trajectory must be nonempty")
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must lie in (0, 1]")
    count = max(1, math.ceil(fraction * len(traj)))
    return np.stack(traj[-count:]).mean(axis=0)
