"""Optimization engines: entropic proximal map with an l1-ball cap,
deterministic and stochastic mirror descent, tamed and classical projected
SGD baselines, step schedules, and iterate averaging."""

import math
from dataclasses import dataclass

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
    in a fixed order.  Every run records its gap, y, weighted average and xi
    each ``record_every`` steps and at the iterate it returns; the tail
    average covers the last ``tail_fraction`` of the steps; ``grad_tol``
    stops DMD once the tamed-gradient sup-norm falls to it.
    """

    m_cap: float
    schedule: StepSchedule
    iterations: int
    y0: np.ndarray
    epochs: int = 1
    xi0: float = 0.0
    record_every: int = 100
    tail_fraction: float = 0.2
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
    """Final iterates, averages and diagnostics of one run (``_Run.result``).

    The traces hold ``(k, value)`` every ``record_every`` steps and end at the
    returned iterate, step ``iterations``; a diverged run's ``gap_trace`` ends
    with ``(iterations, inf)``.  ``gamma_sum`` is the step sum behind
    ``y_weighted_avg``, ``projection_iters`` the capped steps.  DMD reports
    NaN xi, the stochastic runs NaN ``grad_norm``.
    """

    y_final: np.ndarray
    xi_final: float
    y_weighted_avg: np.ndarray
    y_tail_avg: np.ndarray
    xi_tail_avg: float
    gap_trace: list
    min_underbar_y: float
    diverged: bool
    iterations: int
    grad_norm: float
    gamma_sum: float
    n_projections: int
    y_trace: list
    avg_trace: list
    xi_trace: list
    projection_iters: list


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


class _Run:
    """Bookkeeping of one run for every runner, which keeps only its update
    rule, and the one RunResult builder.  ``step`` books an update: the
    gamma-weighted sum of the iterates steps start from, the tail sums from
    step ``tail_start`` on, min y, the capped steps, and every
    ``record_every`` steps and at step ``total`` a record.  xi is None for DMD."""

    def __init__(self, ctx, cfg: OptimizerConfig, total: int, gamma_star, y0):
        self.ctx = ctx
        self.record_every = cfg.record_every
        self.total = total
        self.base = 0.0 if gamma_star is None else gamma_star
        self.tail_start = total - max(1, math.ceil(cfg.tail_fraction * total)) + 1
        self.wacc = np.zeros_like(y0)
        self.wsum = 0.0
        self.tail_acc = np.zeros_like(y0)
        self.tail_n = 0
        self.xi_tail = 0.0
        self.min_under = float(y0.min())
        self.gap_trace = []
        self.y_trace = []
        self.avg_trace = []
        self.xi_trace = []
        self.projection_iters = []

    def step(self, k: int, gamma: float, y_old, y, xi, ymin: float, projected: bool):
        """Book step k, which moved ``y_old`` to ``y`` (least coordinate
        ``ymin``) with step size gamma."""
        self.wacc += gamma * y_old
        self.wsum += gamma
        if projected:
            self.projection_iters.append(k)
        if ymin < self.min_under:
            self.min_under = ymin
        if k >= self.tail_start:
            self.tail_acc += y
            self.tail_n += 1
            if xi is not None:
                self.xi_tail += xi
        if k % self.record_every == 0 or k == self.total:
            self.record(k, y, xi)

    def record(self, k: int, y, xi):
        try:
            gap = rb.gamma_value(self.ctx, y) - self.base
        except ValueError:  # y left the open orthant: the run blew up
            gap = math.inf
        except mm.NumericsError:  # the objective cannot be evaluated here
            gap = math.nan
        self.gap_trace.append((k, gap))
        self.y_trace.append((k, y.copy()))
        if self.wsum > 0.0:
            self.avg_trace.append((k, self.wacc / self.wsum))
        if xi is not None:
            self.xi_trace.append((k, xi))

    def result(self, y, xi, diverged: bool, iterations: int,
               grad_norm: float = math.nan) -> RunResult:
        """The trace ends at the returned iterate y: a run that stopped early
        (DMD on ``grad_tol``) records it at step ``iterations``.  A run whose
        last record reads +inf (its loss law overflowed) is diverged, and a
        diverged run's trace ends with one ``(iterations, inf)``."""
        trace = self.gap_trace
        if not diverged and (not trace or trace[-1][0] != iterations):
            self.record(iterations, y, xi)
        if trace[-1:] == [(iterations, math.inf)]:
            diverged = True
        elif diverged:
            trace.append((iterations, math.inf))
        return RunResult(
            y_final=y, xi_final=math.nan if xi is None else xi,
            y_weighted_avg=self.wacc / self.wsum if self.wsum > 0.0 else y.copy(),
            y_tail_avg=self.tail_acc / self.tail_n if self.tail_n > 0 else y.copy(),
            xi_tail_avg=(math.nan if xi is None
                         else self.xi_tail / self.tail_n if self.tail_n > 0 else xi),
            gap_trace=trace, min_underbar_y=self.min_under, diverged=diverged,
            iterations=iterations, grad_norm=grad_norm, gamma_sum=self.wsum,
            n_projections=len(self.projection_iters), projection_iters=self.projection_iters,
            y_trace=self.y_trace, avg_trace=self.avg_trace, xi_trace=self.xi_trace)


@np.errstate(over="ignore", invalid="ignore")  # a diverging run overflows; it is flagged
def dmd_run(ctx: rb.ObjectiveContext, cfg: OptimizerConfig,
            gamma_star: float | None = None) -> RunResult:
    """Deterministic mirror descent on the semi-analytic objective.

    Iterates y^{k+1} = prox(y^k, gamma_{k+1} * tamed gradient, m) and stops
    early once the tamed gradient sup-norm falls below ``cfg.grad_tol``.
    """
    y = cfg.y0.copy()
    run = _Run(ctx, cfg, cfg.iterations, gamma_star, y)
    diverged = False
    grad_norm = math.inf
    done = 0
    for k in range(1, cfg.iterations + 1):
        gamma = step_size(cfg.schedule, k)
        tg = rb.tamed_gradient(ctx.budget, ctx.outer_gradient(y), y)
        if not np.all(np.isfinite(tg)):
            diverged = True
            break
        grad_norm = float(np.abs(tg).max())
        if cfg.grad_tol is not None and grad_norm <= cfg.grad_tol:
            break
        y_new, projected, ymin = _prox(y, tg * -gamma, cfg.m_cap, gamma * grad_norm)
        run.step(k, gamma, y, y_new, None, ymin, projected)
        y = y_new
        done = k
    else:
        tg = rb.tamed_gradient(ctx.budget, ctx.outer_gradient(y), y)
        grad_norm = float(np.abs(tg).max()) if np.all(np.isfinite(tg)) else math.inf
    return run.result(y, None, diverged, done, grad_norm)


@np.errstate(over="ignore", invalid="ignore")  # a diverging run overflows; it is flagged
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
    grads = rl.make_gradient_fn(ctx.measure)
    b = ctx.budget.b
    m = cfg.m_cap
    smd = rule == "smd"
    tamed = rule != "classical"
    x_max = max(float(samples.max()), -float(samples.min()))  # bounds every |X_i|
    y = cfg.y0.copy()
    xi = float(cfg.xi0)
    run = _Run(ctx, cfg, cfg.epochs * samples.shape[0], gamma_star, y)
    ymin = run.min_under
    projected = False
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
            xi = xi - gamma * g_xi
            ng = b / y
            if g_z != 0.0:  # x * 0 would only add signed zeros
                ng += x * g_z
            step = gamma * min(ymin, 1.0) if tamed else gamma
            ng *= step
            y_old = y
            if smd:
                # Since kappa <= y_i and b_i <= 1, |step * ng_i| is at most
                # gamma + step * |X_i dL/dz|.  That bound needs b/y finite,
                # which y >= 1e-300 ensures: for a subnormal y_i, b_i / y_i is
                # inf.
                bound = step * abs(g_z) * x_max + gamma if ymin >= 1e-300 else math.inf
                y, projected, ymin = _prox(y, ng, m, bound)
            else:
                ng += y
                y = ng
                ymin = float(y.min())
                if not ymin > 0.0:
                    y = np.where(y <= 0.0, _SGD_FLOOR, y)
                    ymin = float(y.min())
            run.step(k, gamma, y_old, y, xi, ymin, projected)
        if diverged:
            break
    # Blowups in the uncapped baselines surface as a non-finite loss z at the
    # next draw, or as an overflowed loss law at the last record (see
    # ``_Run.result``); iterates produced on the very last step are checked
    # here.
    if not (np.all(np.isfinite(y)) and math.isfinite(xi)):
        diverged = True
    return run.result(y, xi, diverged, k)


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
