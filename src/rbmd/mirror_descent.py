"""Optimization engines: entropic proximal map with an l1-ball cap,
deterministic and stochastic mirror descent, tamed and classical projected
SGD baselines, step schedules, and iterate averaging."""

import math
from dataclasses import dataclass

import numpy as np

from . import rb_solver as rb
from . import risk_loss as rl

__all__ = [
    "StepSchedule",
    "OptimizerConfig",
    "RunResult",
    "step_size",
    "prox_map",
    "dmd_run",
    "smd_run",
    "sgd_run",
    "weighted_average",
    "tail_average",
]

_CLAMP = 700.0
_TINY = 5e-324  # smallest positive double; prox outputs stay strictly positive
_SGD_FLOOR = 1e-4  # value the SGD baselines reset nonpositive coordinates to
_BLOCK = 256  # steps between two updates of a run's running sums
_NORMAL = 2.0 ** -1022  # smallest normal double
_sum = np.add.reduce  # the reduction ndarray.sum calls, without its Python wrapper


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
    with ``(iterations, inf)``.  The gaps are evaluated after the run's loop,
    in one ``rb.gamma_values`` call on the recorded iterates, so they never
    feed back into the run.  ``gamma_sum`` is the step sum behind
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


def _prox(y: np.ndarray, e: np.ndarray, m: float, out=None):
    """Entropic prox y * exp(e), rescaled onto the l1 ball of radius m when its
    sum exceeds m, written to ``out`` (a new array when None, never y); e is
    overwritten.  Returns the new point, whether the cap was active, and its
    min.  The output is always finite and strictly positive: exponents are
    clamped to +-_CLAMP, a sum that overflows is rescaled in the log domain
    and underflows are floored to _TINY.  The min is ``w[argmin]``: the exact
    minimum, as a reduction gives, but for which zero it returns when +0 and
    -0 tie; a zero is floored to _TINY either way."""
    np.maximum(e, -_CLAMP, out=e)
    np.minimum(e, _CLAMP, out=e)
    np.exp(e, out=e)
    w = np.multiply(y, e, out=out)
    s = float(_sum(w))
    projected = not s <= m
    if not math.isfinite(s):
        # log-domain fallback: only reachable for extreme caps/overflow
        np.log(y, out=w)
        w += np.log(e, out=e)
        w -= w.max()
        np.exp(w, out=w)
        w *= m / w.sum()
    elif projected:
        w *= m / s
    ymin = w.item(w.argmin())
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
    if y.shape != v.shape:
        raise ValueError(f"y and v must have the same shape, got {y.shape} and {v.shape}")
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("y must be strictly positive and finite")
    if np.any(np.isnan(v)):
        raise ValueError("v must not contain NaN")
    if y.sum() > m * (1.0 + 1e-9):
        raise ValueError("y must lie inside the l1 ball of radius m")
    return _prox(y, -v, m)[0]


class _Run:
    """Bookkeeping of one run for every runner, which keeps only its update
    rule, and the one RunResult builder.

    The iterates live in a block of ``_BLOCK + 1`` row views ``rows``: row 0
    holds the iterate the block starts from, and the runner writes the
    block's step j straight into row j and its step size into
    ``gammas[j - 1]``.  Between flushes the runner keeps the block's step
    count n, the step sum and the xi tail sum as locals, each a sequential
    scalar sum; it hands them over only at ``flush``, on a full block and at
    the end.  ``flush`` keeps the gamma-weighted sum of the iterates steps
    start from, the tail sum of the iterates from step ``tail_start`` on and
    the least coordinate of the block's iterates.  It sums each over the block
    with the running sum in its first row; an axis-0 reduction or
    accumulation of a C-contiguous array adds the rows in order, so the sums,
    and the weighted sum at each of the block's rows, equal per-step ``+=``
    updates bit for bit.  The least coordinate skips an iterate with a NaN
    coordinate, as a per-step ``<`` test on its min would.  A record falls
    every ``record_every`` steps and at step ``total``; ``record`` notes its
    row, and ``flush`` keeps its iterate and average.  xi is None for DMD."""

    def __init__(self, ctx, cfg: OptimizerConfig, total: int, gamma_star, y0):
        self.ctx = ctx
        self.record_every = cfg.record_every
        self.total = total
        self.base = 0.0 if gamma_star is None else gamma_star
        self.tail_start = total - max(1, math.ceil(cfg.tail_fraction * total)) + 1
        self.block = np.empty((_BLOCK + 1, y0.size))
        self.block[0] = y0
        self.rows = list(self.block)  # row views made once, not per step
        self.addends = np.empty_like(self.block)
        self.gammas = np.empty(_BLOCK)
        self.k0 = 0  # steps before the block
        self.wacc = np.zeros_like(y0)
        self.wsum = 0.0
        self.tail_acc = np.zeros_like(y0)
        self.tail_n = 0
        self.xi_tail = 0.0
        self.min_under = float(y0.min())
        self.pending = []  # (row, k, xi, step sum) of the block's records
        self.y_trace = []
        self.avg_trace = []
        self.xi_trace = []
        self.projection_iters = []

    def flush(self, n: int, wsum: float, xi_tail: float = 0.0):
        """Book the block's n steps and records, with the step sum and xi
        tail sum over the whole run so far, and start a new block from its
        last iterate."""
        self.wsum = wsum
        self.xi_tail = xi_tail
        if n == 0:
            return
        block, acc = self.block, self.addends
        acc[0] = self.wacc
        np.multiply(self.gammas[:n, None], block[:n], out=acc[1:n + 1])
        np.add.accumulate(acc[:n + 1], axis=0, out=acc[:n + 1])
        self.wacc[:] = acc[n]
        for j, k, xi, s in self.pending:
            self._book(k, block[j], acc[j], s, xi)
        self.pending.clear()
        first = max(self.tail_start - self.k0, 1)
        if first <= n:
            acc[first - 1] = self.tail_acc
            acc[first:n + 1] = block[first:n + 1]
            np.add.reduce(acc[first - 1:n + 1], axis=0, out=self.tail_acc)
            self.tail_n += n + 1 - first
        least = float(np.fmin.reduce(np.minimum.reduce(block[1:n + 1], axis=1)))
        if least < self.min_under:
            self.min_under = least
        block[0] = block[n]
        self.k0 += n

    def record(self, j: int, k: int, xi, wsum: float) -> int:
        """Note a record of step k, whose iterate is the block's row j, at the
        step sum wsum; returns the step of the next record."""
        self.pending.append((j, k, xi, wsum))
        return min(k + self.record_every, self.total)

    def _book(self, k: int, y, acc, wsum: float, xi):
        """Keep the record of step k: y, the average acc / wsum and xi."""
        self.y_trace.append((k, y.copy()))
        if wsum > 0.0:
            self.avg_trace.append((k, acc / wsum))
        if xi is not None:
            self.xi_trace.append((k, xi))

    def result(self, xi, diverged: bool, iterations: int,
               grad_norm: float = math.nan) -> RunResult:
        """The trace ends at the returned iterate, the last one booked (flush
        first): a run that stopped early (DMD on ``grad_tol``) records it at
        step ``iterations``.  The gaps of all records are evaluated here, in
        one ``rb.gamma_values`` call.  A run whose last record reads +inf (its
        loss law overflowed) is diverged, and a diverged run's trace ends with
        one ``(iterations, inf)``."""
        y = self.rows[0].copy()
        if not diverged and (not self.y_trace or self.y_trace[-1][0] != iterations):
            self._book(iterations, self.rows[0], self.wacc, self.wsum, xi)
        gaps = rb.gamma_values(self.ctx, [y_k for _, y_k in self.y_trace]) - self.base
        trace = [(k, gap) for (k, _), gap in zip(self.y_trace, gaps.tolist())]
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
    run = _Run(ctx, cfg, cfg.iterations, gamma_star, cfg.y0)
    rows, gammas, full = run.rows, run.gammas, _BLOCK
    record_at = min(cfg.record_every, cfg.iterations)
    n, wsum = 0, 0.0
    y = rows[0]
    diverged = False
    grad_norm = math.inf
    for k in range(cfg.iterations + 1):  # y is y^k
        tg = rb.tamed_gradient(ctx.budget, ctx.outer_gradient(y), y)
        if not np.all(np.isfinite(tg)):
            diverged = k < cfg.iterations  # at the last iterate, the norm just reads inf
            grad_norm = grad_norm if diverged else math.inf
            break
        grad_norm = float(np.abs(tg).max())
        if k == cfg.iterations or cfg.grad_tol is not None and grad_norm <= cfg.grad_tol:
            break
        gamma = step_size(cfg.schedule, k + 1)
        y, projected, _ = _prox(y, tg * -gamma, cfg.m_cap, rows[n + 1])
        gammas[n] = gamma
        n += 1
        wsum += gamma
        if projected:
            run.projection_iters.append(k + 1)
        if k + 1 == record_at:
            record_at = run.record(n, k + 1, None, wsum)
        if n == full:
            run.flush(n, wsum)
            n = 0
            y = rows[0]
    run.flush(n, wsum)
    return run.result(None, diverged, k, grad_norm)


@np.errstate(over="ignore", invalid="ignore")  # a diverging run overflows; it is flagged
def _stochastic_loop(ctx, samples, cfg, gamma_star, rule):
    """Shared loop of SMD (``rule`` "smd") and the SGD baselines ("tamed",
    "classical").

    Every rule builds ng = -grad_y = b/y + X dL/dz in one reused buffer and
    steps along step * ng, with step = gamma * kappa, kappa = min(min y, 1)
    (gamma for "classical").  SMD takes the entropic prox
    ``_prox(y, step * ng)``; the SGD baselines take y + step * ng and reset
    nonpositive coordinates to ``_SGD_FLOOR``.  Either writes the new iterate
    straight into the run's next block row.  The step sizes, the step count
    and the step and xi tail sums stay in locals until ``_Run.flush``.

    Most steps take neither the sum nor the min of y.  The loop carries two
    bounds, up >= sum y and low <= min y, both reset from the first row of
    each new block, and certifies on them:

    * kappa = min(low, 1): below 1, low is the exact min (for "classical",
      which takes no kappa, only below 1e-300).  A step whose new bound
      would fall below that takes the min of its new point.
    * SMD: since kappa <= y_i and b_i <= 1, every exponent |step * ng_i| is
      at most bound = gamma + step |dL/dz| x_max, once b/y is finite
      (low >= 1e-300; for a subnormal y_i, b_i / y_i is inf).  With
      u = 2^-53 the computed exponents lie within bound (1 + 7 u).  For
      bound <= 600 each y_i exp(e_i) then lies within a relative 4400 u of
      [y_i e^-bound, y_i e^bound] while it is normal: 4200 u for the
      exponent's rounding, 128 u for an exp within 64 ulp and u for the
      product.  The slack s = 1 + (d + 8192) 2^-52 covers that, the
      rounding of up' = up e^bound s and low' = low / (e^bound s), and the
      pairwise sum of y that up is taken from (within d u).  If
      low' >= 2^-1022, every product is normal, and a pairwise sum of d
      nonnegative normal products lies within d u / (1 - d u) of their exact
      sum (Higham 2002, sections 3.1 and 4.2).  So up' <= m (1 - 4 (d + 1) u)
      puts the pairwise sum of the new point at most m, with room to spare.
      Then neither the cap, the clamp nor the floor can act, and exp and a
      multiply give ``_prox``'s point bit for bit.  A step that fails on up
      first retakes it from sum y.  If it fails again, y sits near the cap,
      and the next retake waits 1, 2, 4, ... steps, until a retake certifies
      or a block starts.  Every other step calls ``_prox``, takes low from
      its exact min and leaves up inf.
    * SGD: a step with dL/dz = 0 and low >= 1e-300 adds a finite,
      nonnegative step to y, so it keeps low ("tamed" only while low >= 1).
      Every other step takes the exact min, which is also its floor test.
    """
    samples = np.ascontiguousarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("samples must be a nonempty n x d matrix")
    if samples.shape[1] != ctx.d:
        raise ValueError("sample dimension does not match the model")
    grads = rl.make_gradient_fn(ctx.measure)
    b = ctx.budget.b
    d = ctx.d
    m = cfg.m_cap
    smd = rule == "smd"
    tamed = rule != "classical"
    x_max = max(float(samples.max()), -float(samples.min()))  # bounds every |X_i|
    cap = m * (1.0 - (4 * (d + 1)) * 2.0 ** -53)
    slack = 1.0 + (d + 8192) * 2.0 ** -52
    exp = math.exp
    keep = 1.0 if tamed else 1e-300  # least low an SGD step with dL/dz = 0 keeps
    xi = float(cfg.xi0)
    total = cfg.epochs * samples.shape[0]
    run = _Run(ctx, cfg, total, gamma_star, cfg.y0)
    rows, gammas, full, tail_start = run.rows, run.gammas, _BLOCK, run.tail_start
    book_projection = run.projection_iters.append
    record_at = min(cfg.record_every, total)
    n, wsum, xi_tail = 0, 0.0, 0.0
    y, nxt = rows[0], rows[1]
    up, low = float(_sum(y)) * slack, y.item(y.argmin())
    resum_at, wait = 0, 1  # the first step that may retake up from sum y, and the next wait
    ng = np.empty_like(y)
    xg = np.empty_like(y)
    step_a = np.empty(())  # the step as a 0-d array, to scale ng without a conversion
    diverged = False
    constant = cfg.schedule.kind == "constant"
    gamma0 = cfg.schedule.gamma0
    beta = cfg.schedule.beta
    k = 0
    for _ in range(cfg.epochs):
        for x in samples:
            k += 1
            z = -float(y.dot(x))
            if not (math.isfinite(z) and math.isfinite(xi)):
                diverged = True
                break
            gamma = gamma0 if constant else gamma0 * float(k) ** -beta
            g_xi, g_z = grads(xi, z)
            xi = xi - gamma * g_xi
            np.divide(b, y, ng)  # out passed by position: a keyword costs a tenth more
            if g_z != 0.0:  # x * 0 would only add signed zeros
                ng += np.multiply(x, g_z, xg)
            # kappa = min(min y, 1), NaN kept, without a builtin call
            step = gamma if low >= 1.0 or not tamed else gamma * low
            step_a[()] = step
            np.multiply(ng, step_a, ng)
            if smd:
                bound = step * abs(g_z) * x_max + gamma if low >= 1e-300 else math.inf
                certified = False
                if bound <= 600.0:
                    grow = exp(bound) * slack
                    if not up * grow <= cap and k >= resum_at:
                        up = float(_sum(y)) * slack
                        if up * grow <= cap:
                            wait = 1
                        else:  # y sits near the cap: wait longer for the next retake
                            resum_at, wait = k + wait, 2 * wait
                    up_next = up * grow
                    low_next = low / grow
                    certified = up_next <= cap and low_next >= _NORMAL
                if certified:
                    np.exp(ng, ng)
                    np.multiply(y, ng, nxt)
                    up = up_next
                    low = low_next if low_next >= 1.0 else nxt.item(nxt.argmin())
                else:
                    _, projected, low = _prox(y, ng, m, nxt)
                    up = math.inf
                    if projected:
                        book_projection(k)
            else:
                np.add(ng, y, nxt)
                if g_z != 0.0 or not low >= keep:
                    low = nxt.item(nxt.argmin())
                    if not low > 0.0:
                        nxt[nxt <= 0.0] = _SGD_FLOOR
                        low = nxt.item(nxt.argmin())
            gammas[n] = gamma
            n += 1
            wsum += gamma
            if k >= tail_start:
                xi_tail += xi
            y = nxt
            if k == record_at:
                record_at = run.record(n, k, xi, wsum)
            if n == full:
                run.flush(n, wsum, xi_tail)
                n = 0
                y = rows[0]
                up, low = float(_sum(y)) * slack, y.item(y.argmin())
                resum_at, wait = 0, 1
            nxt = rows[n + 1]
        if diverged:
            break
    # Blowups in the uncapped baselines surface as a non-finite loss z at the
    # next draw, or as an overflowed loss law at the last record (see
    # ``_Run.result``); iterates produced on the very last step are checked
    # here.
    if not (np.all(np.isfinite(y)) and math.isfinite(xi)):
        diverged = True
    run.flush(n, wsum, xi_tail)
    return run.result(xi, diverged, k)


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
