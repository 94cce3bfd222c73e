"""Outside-in tracer for the rbmd modules.

The tracer replaces public functions (and a few public methods) of the rbmd
modules with wrappers that time each call.  Nothing inside ``src/`` changes:
the wrappers are installed on the module and class attributes that callers
look up at call time, so cross-module calls (``md.smd_run``), calls through
module globals (``cmd_run`` -> ``write_trace_csv``) and method calls
(``ctx.outer_gradient``) all pass through them.

Each call is one span.  Spans are aggregated in memory by (name, parent
name) into calls, total time and self time, where self time is the span's
duration minus the durations of its direct child spans.  Calls listed with an
inspector also keep one record per span with counters read from the value the
call returned (``RunResult``, ``PortfolioReport``).
"""

import functools
import json
import time

# (owner path, attribute).  Owner paths are "module" or "module.Class"; the
# span name is "<module>.<attribute>".  These are the entry points the
# per-layer metrics name; the other public functions are cheap, and their
# time counts in their caller's self time.
TRACED = (
    ("market_models", "sample_returns"),
    ("market_models", "portfolio_loss_params"),
    ("market_models", "var_exact"),
    ("market_models", "es_exact"),
    ("market_models", "expected_power_loss"),
    ("rb_solver", "reference_portfolio"),
    ("rb_solver", "gamma_value"),
    ("rb_solver", "tamed_gradient"),
    ("rb_solver.ObjectiveContext", "outer_gradient"),
    ("mirror_descent", "dmd_run"),
    ("mirror_descent", "smd_run"),
    ("mirror_descent", "sgd_run"),
    ("risk_loss", "make_gradient_fn"),
    ("bench_cli", "main"),
    ("bench_cli", "generate_model"),
    ("bench_cli", "write_trace_csv"),
)

LAYERS = ("market_models", "rb_solver", "mirror_descent", "risk_loss", "bench_cli")


def _run_counters(args, kwargs, result):
    out = {
        "iterations": result.iterations,
        "n_projections": result.n_projections,
        "min_underbar_y": result.min_underbar_y,
        "diverged": result.diverged,
    }
    if isinstance(args[0], str):  # sgd_run(variant, ...)
        out["variant"] = args[0]
    return out


def _report_counters(args, kwargs, result):
    return {"iterations": result.iterations, "grad_norm": result.grad_norm}


INSPECTORS = {
    "mirror_descent.dmd_run": _run_counters,
    "mirror_descent.smd_run": _run_counters,
    "mirror_descent.sgd_run": _run_counters,
    "rb_solver.reference_portfolio": _report_counters,
    "market_models.sample_returns": lambda args, kwargs, result: {"draws": len(result)},
    "bench_cli.write_trace_csv": lambda args, kwargs, result: {"rows": len(args[1].y_trace)},
}


class Tracer:
    """Span aggregator; ``clock`` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack = []   # open frames: [name, child_ns, child_calls]
        self.stats = {}   # (name, parent) -> [calls, total_ns, self_ns]
        self.records = []  # inspected spans, in completion order

    def wrap(self, owner, attr: str, name: str, inspect=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper."""
        fn = getattr(owner, attr)
        clock = self.clock
        stack = self.stack
        stats = self.stats
        records = self.records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0, {}]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                key = (name, parent[0] if parent else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    counts = parent[2]
                    counts[name] = counts.get(name, 0) + 1
            if inspect is not None:
                rec = inspect(args, kwargs, result)
                rec.update(name=name, ns=dur, self_ns=dur - frame[1],
                           children=frame[2])
                records.append(rec)
            return result

        setattr(owner, attr, traced)

    def install(self, package) -> None:
        """Wrap every entry of ``TRACED`` inside the imported ``package``."""
        for owner_path, attr in TRACED:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            name = f"{owner_path.split('.')[0]}.{attr}"
            self.wrap(owner, attr, name, INSPECTORS.get(name))

    def to_dict(self) -> dict:
        return {
            "stats": [[name, parent, *vals] for (name, parent), vals in self.stats.items()],
            "records": self.records,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)
