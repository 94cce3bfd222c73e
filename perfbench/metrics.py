"""Metric definitions and the per-layer arithmetic over tracer dumps.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions that
``BENCHMARK.json`` lists.  Each per-layer entry also records the end-to-end
metric it should move and the workloads where it should show.
"""

import statistics
from collections import defaultdict

from tracer import LAYERS

NS = 1e9

# name, unit, better, bound
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_ALL = "reference, stochastic"

# name, unit, better, moves, on
PER_LAYER = (
    *((f"{layer}.self.s", "s", "lower", "wall_s", _ALL) for layer in LAYERS),
    *((f"{layer}.calls", "count", "lower", "wall_s", _ALL) for layer in LAYERS),
    ("rb_solver.outer_gradient.calls", "count", "lower", "wall_s", _ALL),
    ("rb_solver.outer_gradient.us_per_call", "us", "lower", "wall_s", _ALL),
    ("rb_solver.reference_portfolio.calls", "count", "lower", "wall_s", _ALL),
    ("rb_solver.reference_portfolio.s", "s", "lower", "wall_s", _ALL),
    ("rb_solver.reference_portfolio.iterations", "count", "lower", "wall_s", _ALL),
    ("rb_solver.reference_portfolio.attempts", "count", "lower", "wall_s", _ALL),
    ("market_models.expected_power_loss.calls", "count", "lower", "wall_s", "reference"),
    ("market_models.expected_power_loss.us_per_call", "us", "lower", "wall_s", "reference"),
    ("market_models.var_exact.calls", "count", "lower", "wall_s", "reference"),
    ("market_models.var_exact.us_per_call", "us", "lower", "wall_s", "reference"),
    ("market_models.es_exact.calls", "count", "lower", "wall_s", "stochastic"),
    ("market_models.es_exact.us_per_call", "us", "lower", "wall_s", "stochastic"),
    ("market_models.portfolio_loss_params.calls", "count", "lower", "wall_s", "stochastic"),
    ("market_models.portfolio_loss_params.us_per_call", "us", "lower", "wall_s", "stochastic"),
    ("rb_solver.gamma_value.calls", "count", "lower", "wall_s", "stochastic"),
    ("rb_solver.gamma_value.us_per_call", "us", "lower", "wall_s", "stochastic"),
    ("rb_solver.tamed_gradient.calls", "count", "lower", "wall_s", "stochastic"),
    ("rb_solver.tamed_gradient.us_per_call", "us", "lower", "wall_s", "stochastic"),
    ("mirror_descent.record.s", "s", "lower", "wall_s", "stochastic"),
    ("mirror_descent.smd_run.us_per_step", "us", "lower",
     "wall_s, tamed_diverged, gap_k90_median.*", "stochastic"),
    ("mirror_descent.sgd_run.tamed.us_per_step", "us", "lower",
     "wall_s, tamed_diverged, gap_k90_median.*", "stochastic"),
    ("mirror_descent.steps", "count", "lower", "wall_s", "stochastic"),
    ("mirror_descent.n_projections", "count", "lower",
     "wall_s, tamed_diverged, gap_k90_median.*", "stochastic"),
    ("mirror_descent.min_underbar_y", "1", "higher",
     "tamed_diverged, gap_k90_median.*", "stochastic"),
    ("mirror_descent.dmd_run.us_per_iter", "us", "lower", "wall_s", "reference"),
    ("bench_cli.write_trace_csv.s", "s", "lower", "wall_s", "stochastic"),
    ("bench_cli.write_trace_csv.rows", "count", "higher", "wall_s", "stochastic"),
    ("bench_cli.generate_model.us_per_call", "us", "lower", "wall_s", "reference, stochastic"),
    ("market_models.sample_returns.s", "s", "lower", "wall_s, peak_rss_mb", "stochastic"),
    ("market_models.sample_returns.draws_per_s", "1/s", "higher", "wall_s, peak_rss_mb", "stochastic"),
    ("risk_loss.make_gradient_fn.calls", "count", "lower", "none (diagnostic)", _ALL),
    ("trace.wall_s", "s", "lower", "none (diagnostic)", _ALL),
    ("trace.outside.s", "s", "lower", "none (diagnostic)", _ALL),
    ("trace.overhead_s", "s", "lower", "none (diagnostic)", _ALL),
    # Accuracy of the outputs: bit-deterministic for a seed and build, and
    # 0 on workloads that do not produce them.
    ("rc_err", "1", "lower", "accuracy", "reference"),
    ("mde_final", "1", "lower", "accuracy", "stochastic"),
    ("mde_tail_avg", "1", "lower", "accuracy", "stochastic"),
    ("gap_k90_median.smd", "1", "lower", "accuracy", "stochastic"),
    ("gap_k90_median.sgd-tamed", "1", "lower", "accuracy", "stochastic"),
    ("tamed_diverged", "count", "lower", "accuracy", "stochastic"),
    ("failed_ops", "1", "lower", "correctness", _ALL),
)

ACCURACY = ("rc_err", "mde_final", "mde_tail_avg", "gap_k90_median.smd",
            "gap_k90_median.sgd-tamed", "tamed_diverged")

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

RUNNERS = ("mirror_descent.dmd_run", "mirror_descent.smd_run", "mirror_descent.sgd_run")
STOCHASTIC = RUNNERS[1:]

_PER_CALL = (
    "rb_solver.outer_gradient", "rb_solver.gamma_value", "rb_solver.tamed_gradient",
    "market_models.expected_power_loss", "market_models.var_exact",
    "market_models.es_exact", "market_models.portfolio_loss_params",
)


def merge(dumps):
    """Sum tracer dumps of several processes: ({(name, parent): [calls,
    total_ns, self_ns]}, records)."""
    stats = defaultdict(lambda: [0, 0, 0])
    records = []
    for dump in dumps:
        for name, parent, *vals in dump["stats"]:
            entry = stats[(name, parent)]
            for i, v in enumerate(vals):
                entry[i] += v
        records.extend(dump["records"])
    return dict(stats), records


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, records: list) -> dict:
    """Per-layer calls, self time and per-call costs from merged spans."""
    by_name = defaultdict(lambda: [0, 0, 0])
    for (name, _parent), vals in stats.items():
        entry = by_name[name]
        for i, v in enumerate(vals):
            entry[i] += v
    out = {}
    for layer in LAYERS:
        rows = [v for n, v in by_name.items() if n.split(".")[0] == layer]
        out[f"{layer}.self.s"] = sum(v[2] for v in rows) / NS
        out[f"{layer}.calls"] = sum(v[0] for v in rows)
    for fn in _PER_CALL:
        calls, total, _ = by_name.get(fn, (0, 0, 0))
        out[f"{fn}.calls"] = calls
        out[f"{fn}.us_per_call"] = _per(total / 1e3, calls)

    def recs(name, **match):
        return [r for r in records if r["name"] == name
                and all(r.get(k) == v for k, v in match.items())]

    refs = recs("rb_solver.reference_portfolio")
    out["rb_solver.reference_portfolio.calls"] = len(refs)
    out["rb_solver.reference_portfolio.s"] = sum(r["ns"] for r in refs) / NS
    out["rb_solver.reference_portfolio.iterations"] = sum(r["iterations"] for r in refs)
    out["rb_solver.reference_portfolio.attempts"] = sum(
        r["children"].get("mirror_descent.dmd_run", 0) for r in refs)

    def self_per_step(runs) -> float:
        return _per(sum(r["self_ns"] for r in runs) / 1e3, sum(r["iterations"] for r in runs))

    out["mirror_descent.record.s"] = sum(
        vals[1] for (name, parent), vals in stats.items()
        if name == "rb_solver.gamma_value" and parent in RUNNERS) / NS
    out["mirror_descent.smd_run.us_per_step"] = self_per_step(recs("mirror_descent.smd_run"))
    out["mirror_descent.sgd_run.tamed.us_per_step"] = self_per_step(
        recs("mirror_descent.sgd_run", variant="tamed"))
    out["mirror_descent.dmd_run.us_per_iter"] = self_per_step(recs("mirror_descent.dmd_run"))
    stochastic = [r for r in records if r["name"] in STOCHASTIC]
    out["mirror_descent.steps"] = sum(r["iterations"] for r in stochastic)
    out["mirror_descent.n_projections"] = sum(r["n_projections"] for r in stochastic)
    out["mirror_descent.min_underbar_y"] = min(
        (r["min_underbar_y"] for r in stochastic), default=0.0)

    out["bench_cli.write_trace_csv.s"] = by_name["bench_cli.write_trace_csv"][1] / NS
    out["bench_cli.write_trace_csv.rows"] = sum(r["rows"] for r in recs("bench_cli.write_trace_csv"))
    calls, total, _ = by_name["bench_cli.generate_model"]
    out["bench_cli.generate_model.us_per_call"] = _per(total / 1e3, calls)
    sample_s = by_name["market_models.sample_returns"][1] / NS
    out["market_models.sample_returns.s"] = sample_s
    out["market_models.sample_returns.draws_per_s"] = _per(
        sum(r["draws"] for r in recs("market_models.sample_returns")), sample_s)
    out["risk_loss.make_gradient_fn.calls"] = by_name["risk_loss.make_gradient_fn"][0]
    return out


def end_to_end(round_walls, setup_walls, round_rss) -> dict:
    """Medians over the rounds and set-up probes of one timed run."""
    return {
        "wall_s": statistics.median(round_walls),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(round_rss),
    }


def per_layer(dumps, traced_wall: float, untraced_wall: float, accuracy: dict,
              failed_ops: float) -> dict:
    """Every ``PER_LAYER`` metric of one traced run."""
    stats, records = merge(dumps)
    out = layer_metrics(stats, records)
    out.update(trace_metrics(stats, traced_wall, untraced_wall))
    out.update((name, accuracy.get(name, 0)) for name in ACCURACY)
    out["failed_ops"] = failed_ops
    return {name: out[name] for name, *_ in PER_LAYER}


def trace_metrics(stats: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Traced wall time, the part of it outside ``bench_cli.main`` spans
    (interpreter start, imports, span dump), and the tracing overhead.
    The layers' self times plus ``trace.outside.s`` equal ``trace.wall_s``."""
    main_ns = sum(vals[1] for (name, _), vals in stats.items() if name == "bench_cli.main")
    return {
        "trace.wall_s": traced_wall,
        "trace.outside.s": traced_wall - main_ns / NS,
        "trace.overhead_s": traced_wall - untraced_wall,
    }

