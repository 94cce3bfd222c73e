"""Config-driven benchmarking front end.

Subcommands (all read a JSON config and write into an output directory):

  reference    solve the budget-matching portfolio and dump the report
  run          one optimizer run with trace CSV and a summary
  compare      seeded replication sweep over several optimizers
  figure-data  melt trace CSVs of a finished run into long-format series

Exit codes: 0 success, 1 usage/config/IO error, 2 convergence or numerics failure,
3 internal error (a bug: the message names the exception type).  Every
failure prints one ``error:`` line on stderr.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from . import market_models as mm
from . import mirror_descent as md
from . import rb_solver as rb
from . import risk_loss as rl

DIVERGENCE_EPSILONS = (5e-2, 5e-1, 5.0, 50.0)
CHECKPOINT_FRACTIONS = (0.3, 0.6, 0.9)

# Starting learning rates per portfolio size for the compare sweep, decayed
# as gamma0 * n^-0.65.  Both tables assume iteration budgets near 1e6; for
# smaller sweeps pass tamed_gamma0 / classical_gamma0 in the optimizer
# section (the tamed pair needs hotter rates to finish mixing there).
TAMED_GAMMA0 = {10: 1.0, 25: 2.5, 50: 5.0, 100: 10.0, 250: 25.0}
CLASSICAL_GAMMA0 = {10: 5.0, 25: 1.0, 50: 0.5, 100: 0.25, 250: 0.1}

_SAMPLE_SEED_SALT = 0xA5A5A5A5A5A5A5A5

# Largest synthetic model size, 4x the largest size in the tables above:
# generate_model's d x 2d Gram products grow as d^3 and fail far beyond it.
MAX_D = 1000

OPTIMIZER_NAMES = ("dmd", "smd", "sgd-tamed", "sgd-classical")


class ConfigError(ValueError):
    """Bad experiment config; the message names the offending key."""


# ---------------------------------------------------------------------------
# Synthetic model generator (stand-in for calibrated equity models)
# ---------------------------------------------------------------------------

def generate_model(d: int, seed: int) -> mm.MixtureModel:
    """Random heavy-tailed two-component mixture of a given dimension.

    Correlations come from a normalized random Gram matrix, daily
    volatilities are log-uniform on [0.005, 0.05], and the second (stress)
    component carries inflated scales and the heavier tail.
    """
    if d < 2:
        raise ConfigError(f"synthetic model dimension must be >= 2, got {d}")
    rng = mm._rng(seed)
    vols1 = np.exp(rng.uniform(math.log(0.005), math.log(0.05), d))

    def corr() -> np.ndarray:
        a = rng.standard_normal((d, 2 * d))
        g = a @ a.T / (2 * d)
        dinv = 1.0 / np.sqrt(np.diag(g))
        return dinv[:, None] * g * dinv

    lam1 = vols1[:, None] * corr() * vols1
    vols2 = vols1 * rng.uniform(1.4, 2.4)
    lam2 = vols2[:, None] * corr() * vols2
    mu1 = rng.normal(0.0, 2e-4, d)
    mu2 = rng.normal(0.0, 5e-4, d)
    return mm.MixtureModel(
        weight=float(rng.uniform(0.6, 0.85)),
        mu1=mu1,
        mu2=mu2,
        lambda1=lam1,
        lambda2=lam2,
        nu1=float(rng.uniform(3.5, 6.0)),
        nu2=float(rng.uniform(2.6, 3.6)),
    )


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

# The config schema, a table in market_models._check's kinds.  A default of
# None leaves the key absent, and the command that reads it resolves it: as
# the comment says, and model.synthetic.seed to the run's seed.
_SCHEMA = {
    "model": ({"file": (str, None), "inline": (mm._MODEL_SCHEMA, None),  # exactly one of the three
               "synthetic": ({"d": (int, mm.REQUIRED), "seed": (int, None)}, None)},
              None),                         # reference and run: required
    "budget": (("uniform", [float]), "uniform"),
    "measure": (dict, {"kind": "es"}),       # its keys depend on its kind: _MEASURES
    "optimizer": ({
        "algorithm": (OPTIMIZER_NAMES, "smd"),
        "schedule": ({"kind": (("constant", "power"), mm.REQUIRED), "gamma0": (float, 1.0),
                      "beta": (float, 0.0)}, None),  # run: required
        "m_cap": (float, None),              # run: 100 for d <= 10, else 100 d
        "iterations": (int, None),           # the sample count
        "epochs": (int, 1),
        "xi0": (float, 0.0),
        "y0": ([float], None),               # rb_solver.default_y0
        "record_every": (int, 100),
        "tail_fraction": (float, 0.2),
        "grad_tol": (float, None),           # no gradient stop
        "tamed_gamma0": (float, None),       # compare: TAMED_GAMMA0
        "classical_gamma0": (float, None),   # compare: CLASSICAL_GAMMA0
        "beta": (float, 0.65),
    }, {}),
    "optimizers": ([OPTIMIZER_NAMES], ["smd", "sgd-tamed", "sgd-classical"]),
    "samples": (int, 100_000),
    "replications": (int, 1),
    "dimensions": ([int], [10]),
    "seed": (int, 0),
    "tolerance": (float, 1e-10),
    "epsilons": ([float], list(DIVERGENCE_EPSILONS)),
    "input": (str, None),                    # figure-data: required
}

# Measure kind -> (its MeasureSpec factory, the factory's keys with defaults)
_MEASURES = {
    "es": (rl.MeasureSpec.expected_shortfall, {"alpha": (float, 0.95)}),
    "deviation": (rl.MeasureSpec.deviation, {"a": (float, 1.0), "b": (float, 1.0),
                                             "p": (int, 2)}),
    "volatility": (rl.MeasureSpec.volatility, {}),
    "mad": (rl.MeasureSpec.mad, {}),
    "variantile": (rl.MeasureSpec.variantile, {"alpha": (float, 0.75)}),
}


def _measure(doc: dict) -> rl.MeasureSpec:
    """The measure section, whose kind picks the keys it takes."""
    factory, keys = _MEASURES[mm._check(doc.get("kind", mm.REQUIRED), tuple(_MEASURES),
                                        "measure.kind", ConfigError)]
    args = mm._check({key: v for key, v in doc.items() if key != "kind"}, keys, "measure",
                     ConfigError)
    try:
        return factory(**args)
    except ValueError as exc:
        raise ConfigError(f"bad measure: {exc}") from exc


def _optimizer_config(gamma0: float, beta: float, **knobs) -> md.OptimizerConfig:
    """OptimizerConfig from config values, whose ValueError is a ConfigError."""
    try:
        return md.OptimizerConfig(schedule=md.StepSchedule(gamma0, beta), **knobs)
    except ValueError as exc:
        raise ConfigError(f"bad optimizer config: {exc}") from exc


@dataclass
class ExperimentConfig:
    """Validated experiment description (see _SCHEMA and the README)."""

    raw: dict
    model_spec: dict | None
    budget_spec: object
    measure: rl.MeasureSpec
    optimizer: dict
    optimizers: list
    samples: int
    replications: int
    dimensions: list
    seed: int
    tolerance: float
    epsilons: list
    input_dir: str | None

    @classmethod
    def parse(cls, doc: dict) -> "ExperimentConfig":
        cfg = mm._check(doc, _SCHEMA, "", ConfigError)
        if "model" in cfg and len(cfg["model"]) != 1:
            raise ConfigError("'model' needs exactly one of file | inline | synthetic")
        budget, opts, dims = cfg["budget"], cfg["optimizers"], cfg["dimensions"]
        synthetic_d = cfg.get("model", {}).get("synthetic", {}).get("d", 2)
        for key, ok, rule in (
                ("budget", budget == "uniform" or budget and all(b > 0.0 for b in budget),
                 "\"uniform\" or a list of positive shares"),
                ("optimizers", opts and len(set(opts)) == len(opts),
                 "a nonempty list without repeats"),
                ("samples", cfg["samples"] >= 1, ">= 1"),
                ("replications", cfg["replications"] >= 1, ">= 1"),
                ("model.synthetic.d", 2 <= synthetic_d <= MAX_D, f"a size from 2 to {MAX_D}"),
                ("dimensions", dims and len(set(dims)) == len(dims)
                 and 2 <= min(dims) <= max(dims) <= MAX_D,
                 f"a nonempty list of sizes from 2 to {MAX_D} without repeats"),
                ("tolerance", cfg["tolerance"] > 0.0, "positive"),
                ("epsilons", all(e > 0.0 for e in cfg["epsilons"]), "a list of positive numbers")):
            if not ok:
                raise ConfigError(f"'{key}' must be {rule}")
        return cls(raw=doc, model_spec=cfg.get("model"), budget_spec=budget,
                   measure=_measure(cfg["measure"]), input_dir=cfg.get("input"),
                   **{key: cfg[key] for key in ("optimizer", "optimizers", "samples",
                                                "replications", "dimensions", "seed",
                                                "tolerance", "epsilons")})

    def build_model(self, seed: int) -> mm.MixtureModel:
        spec = self.model_spec
        if spec is None:
            raise ConfigError("missing key 'model' in config")
        if "synthetic" in spec:
            synth = spec["synthetic"]
            return generate_model(synth["d"], synth["seed"] if "seed" in synth else seed)
        try:
            if "file" in spec:
                return mm.MixtureModel.load(spec["file"])
            return mm.MixtureModel(**spec["inline"])
        except (OSError, ValueError) as exc:  # ModelError, bad JSON or UTF-8, a NUL in the path
            source = f"model file {spec['file']}" if "file" in spec else "inline model"
            raise ConfigError(f"bad {source}: {exc}") from exc

    def build_budget(self, d: int) -> rb.RiskBudget:
        if self.budget_spec == "uniform":
            return rb.RiskBudget.uniform(d)
        if len(self.budget_spec) != d:
            raise ConfigError(f"budget has {len(self.budget_spec)} entries for a {d}-asset model")
        return rb.RiskBudget(self.budget_spec)

    def build_optimizer_config(self, model: mm.MixtureModel) -> md.OptimizerConfig:
        opt = self.optimizer
        d = model.d
        if "schedule" not in opt:
            raise ConfigError("missing key 'optimizer.schedule'")
        m_cap = opt["m_cap"] if "m_cap" in opt else (100.0 if d <= 10 else 100.0 * d)
        y0 = np.array(opt["y0"]) if "y0" in opt else rb.default_y0(model, m_cap)
        if y0.size != d:
            raise ConfigError("optimizer.y0 dimension mismatch")
        schedule = opt["schedule"]  # "constant" is beta = 0, whatever beta it gives
        return _optimizer_config(
            schedule["gamma0"], 0.0 if schedule["kind"] == "constant" else schedule["beta"],
            m_cap=m_cap, y0=y0,
            iterations=opt["iterations"] if "iterations" in opt else self.samples,
            epochs=opt["epochs"], xi0=opt["xi0"], record_every=opt["record_every"],
            tail_fraction=opt["tail_fraction"], grad_tol=opt.get("grad_tol"))


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON or UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.parse(doc)

# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(out_dir: Path, config: ExperimentConfig, seed: int) -> None:
    manifest = {
        "config_hash": _config_hash(config.raw),
        "seed": seed,
        "build": f"rbmd {__version__} / numpy {np.__version__}",
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _jsonable(value):
    """Replace non-finite floats with null so summaries stay strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def write_trace_csv(path: Path, result: md.RunResult, schedule: md.StepSchedule) -> None:
    """One row per gap-trace entry.  Records carry y and xi; a diverged run's
    closing ``(iterations, inf)`` is no record and has nan in those columns."""
    d = result.y_final.size
    header = ["iter", "gamma", "gap", "xi"] + [f"y_{i + 1}" for i in range(d)]
    xis = dict(result.xi_trace)

    def rows():  # each row is written as soon as it is formatted
        for i, (k, gap) in enumerate(result.gap_trace):
            if i < len(result.y_trace):
                xi, y = xis.get(k, math.nan), result.y_trace[i][1]
            else:
                xi, y = math.nan, [math.nan] * d
            gamma = md.step_size(schedule, k) if k else math.nan  # a DMD run that took no step
            yield [k, _fmt(gamma), _fmt(gap), _fmt(xi)] + [_fmt(v) for v in y]

    _write_csv(path, header, rows())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_reference(config: ExperimentConfig, out_dir: Path, seed: int) -> int:
    model = config.build_model(seed)
    budget = config.build_budget(model.d)
    ctx = rb.ObjectiveContext(budget, config.measure, model)
    report = rb.reference_portfolio(ctx, tol=config.tolerance)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "reference.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    write_manifest(out_dir, config, seed)
    print(f"reference written to {out_dir / 'reference.json'}")
    return 0


def _execute_run(name: str, ctx, samples, cfg, gamma_star):
    if name == "dmd":
        return md.dmd_run(ctx, cfg, gamma_star=gamma_star)
    if name == "smd":
        return md.smd_run(ctx, samples, cfg, gamma_star=gamma_star)
    return md.sgd_run(name.removeprefix("sgd-"), ctx, samples, cfg, gamma_star=gamma_star)


def cmd_run(config: ExperimentConfig, out_dir: Path, seed: int) -> int:
    model = config.build_model(seed)
    budget = config.build_budget(model.d)
    ctx = rb.ObjectiveContext(budget, config.measure, model)
    algorithm = config.optimizer["algorithm"]
    cfg = config.build_optimizer_config(model)
    samples = None
    if algorithm != "dmd":
        samples = mm.sample_returns(model, config.samples, seed=seed ^ _SAMPLE_SEED_SALT)
    reference = None
    gamma_star = None
    try:
        reference = rb.reference_portfolio(ctx, tol=config.tolerance)
        gamma_star = rb.gamma_value(ctx, reference.y_raw)
    except (rb.ConvergenceError, mm.NumericsError):
        pass  # summary simply omits the reference comparison
    result = _execute_run(algorithm, ctx, samples, cfg, gamma_star)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / "trace.csv", result, cfg.schedule)
    # a diverged run's iterates overflowed: it reports no weights
    u_final, u_avg, u_tail = (None,) * 3 if result.diverged else (
        rb.normalize(y) for y in (result.y_final, result.y_weighted_avg, result.y_tail_avg))
    summary = {
        "algorithm": algorithm,
        "diverged": result.diverged,
        "iterations": result.iterations,
        "weights_final": u_final,
        "weights_weighted_avg": u_avg,
        "weights_tail_avg": u_tail,
        "min_underbar_y": result.min_underbar_y,
        "gap_final": result.gap_trace[-1][1],
        "n_projections": result.n_projections,
        "gamma_sum": result.gamma_sum,
    }
    if algorithm != "dmd" and ctx.measure.is_es and not result.diverged:
        summary["var_estimate"] = result.xi_final / float(result.y_final.sum())
    if reference is not None and u_final is not None:
        summary["mde_final"] = rb.mde(u_final, reference.u)
        summary["mde_tail_avg"] = rb.mde(u_tail, reference.u)
        summary["reference_weights"] = reference.u
    (out_dir / "summary.json").write_text(json.dumps(_jsonable(summary), indent=2) + "\n")
    write_manifest(out_dir, config, seed)
    print(f"run summary written to {out_dir / 'summary.json'}")
    return 0


def _checkpoint_gaps(gap_trace, total: int):
    """Gap at the last recorded step k <= round(frac * total) for each
    checkpoint fraction (inf before the first record); the trace is in step
    order, so a divergence entry appended at the end wins."""
    out = []
    for frac in CHECKPOINT_FRACTIONS:
        k = int(round(frac * total))
        recorded = [gap for step, gap in gap_trace if step <= k]
        out.append(recorded[-1] if recorded else math.inf)
    return out


def run_replication(config: ExperimentConfig, d: int, index: int):
    """One compare replication: fresh model, reference, one run per optimizer."""
    rep_seed = (config.seed ^ index) & (2 ** 64 - 1)
    model = generate_model(d, rep_seed)
    budget = config.build_budget(d)
    ctx = rb.ObjectiveContext(budget, config.measure, model)
    # Ball radius from the uniform portfolio's risk: the minimizer's l1 norm
    # is 1/r(u*) for g = Id, and r(u*) is within a small factor of r(1/d).
    m_cap = max(100.0, 4.0 / ctx.risk_value(np.full(d, 1.0 / d)))
    reference = rb.reference_portfolio(ctx, tol=config.tolerance)
    gamma_star = rb.gamma_value(ctx, reference.y_raw)
    n = config.samples
    samples = mm.sample_returns(model, n, seed=rep_seed ^ _SAMPLE_SEED_SALT)
    # Inverse-variance direction rescaled onto the r(y) = 1 shell, where the
    # minimizer lives for the identity outer function.
    y0 = rb.default_y0(model, m_cap)
    y0 = y0 / ctx.risk_value(y0)
    if y0.sum() > m_cap:
        y0 = y0 * (m_cap / y0.sum())
    opt = config.optimizer
    total = n * opt["epochs"]
    rows = []
    for name in config.optimizers:
        key, table = (("classical_gamma0", CLASSICAL_GAMMA0) if name == "sgd-classical"
                      else ("tamed_gamma0", TAMED_GAMMA0))
        gamma0 = opt[key] if key in opt else table[min(table, key=lambda k: abs(k - d))]
        cfg = _optimizer_config(gamma0, opt["beta"], m_cap=m_cap, iterations=total, y0=y0,
                                epochs=opt["epochs"], record_every=max(1, total // 10))
        result = _execute_run(name, ctx, samples, cfg, gamma_star)
        gaps = _checkpoint_gaps(result.gap_trace, total)
        final_gap = result.gap_trace[-1][1]
        # a finite gap was evaluated at y_final, so y_final is interior
        mde_val = (rb.mde(rb.normalize(result.y_final), reference.u)
                   if math.isfinite(final_gap) else math.inf)
        rows.append({
            "optimizer": name,
            "d": d,
            "seed": rep_seed,
            "gap_k30": gaps[0],
            "gap_k60": gaps[1],
            "gap_k90": gaps[2],
            "gap_final": final_gap,
            "mde": mde_val,
            "diverged": [rb.divergence_flag(final_gap, e) for e in config.epsilons],
        })
    return rows


def cmd_compare(config: ExperimentConfig, out_dir: Path, seed: int, threads: int = 1) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(d, i) for d in config.dimensions for i in range(config.replications)]
    threads = min(threads, len(tasks))  # a pool forks all its workers at once
    if threads > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            nested = list(pool.map(run_replication, repeat(config), *zip(*tasks)))
    else:
        nested = [run_replication(config, d, i) for d, i in tasks]
    rows = [row for group in nested for row in group]
    rows.sort(key=lambda r: (r["optimizer"], r["d"], r["seed"]))

    eps_cols = [f"diverged_eps{i + 1}" for i in range(len(config.epsilons))]
    header = ["optimizer", "d", "seed", "gap_k30", "gap_k60", "gap_k90",
              "gap_final", "mde"] + eps_cols
    csv_rows = []
    for r in rows:
        csv_rows.append([r["optimizer"], r["d"], r["seed"],
                         _fmt(r["gap_k30"]), _fmt(r["gap_k60"]), _fmt(r["gap_k90"]),
                         _fmt(r["gap_final"]), _fmt(r["mde"])]
                        + [int(flag) for flag in r["diverged"]])
    _write_csv(out_dir / "replications.csv", header, csv_rows)

    def median_mad(values):
        arr = np.asarray(values, dtype=float)
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            return math.inf, math.inf
        med = float(np.median(finite))
        return med, float(np.median(np.abs(finite - med)))

    agg_header = (["optimizer", "d", "replications"]
                  + [f"divergences_eps{i + 1}" for i in range(len(config.epsilons))]
                  + ["gap_k30_median", "gap_k30_mad", "gap_k60_median", "gap_k60_mad",
                     "gap_k90_median", "gap_k90_mad", "mde_median", "mde_mad"])
    agg_rows = []
    for name in sorted(set(r["optimizer"] for r in rows)):
        for d in config.dimensions:
            sub = [r for r in rows if r["optimizer"] == name and r["d"] == d]
            if not sub:
                continue
            div_counts = [sum(r["diverged"][i] for r in sub)
                          for i in range(len(config.epsilons))]
            cells = [name, d, len(sub)] + div_counts
            for key in ("gap_k30", "gap_k60", "gap_k90", "mde"):
                med, mad = median_mad([r[key] for r in sub])
                cells += [_fmt(med), _fmt(mad)]
            agg_rows.append(cells)
    _write_csv(out_dir / "aggregate.csv", agg_header, agg_rows)
    write_manifest(out_dir, config, seed)
    print(f"compare aggregate written to {out_dir / 'aggregate.csv'}")
    return 0


def cmd_figure_data(config: ExperimentConfig, out_dir: Path) -> int:
    if config.input_dir is None:
        raise ConfigError("missing key 'input' in config")
    src = Path(config.input_dir)
    if not src.is_dir():
        raise ConfigError(f"input directory not found: {src}")
    traces = [t for t in sorted(src.glob("*.csv"))
              if t.name not in ("replications.csv", "aggregate.csv")]
    if not traces:
        raise ConfigError(f"no trace CSVs in {src}")
    out_rows = []
    for trace in traces:
        stem = trace.stem
        try:
            with open(trace, newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or "iter" not in reader.fieldnames:
                    raise ValueError("no 'iter' column")
                y_cols = [c for c in reader.fieldnames if c.startswith("y_")]
                n_rows = 0
                for row in reader:
                    n_rows += 1
                    it = row["iter"]
                    y = np.array([float(row[c]) for c in y_cols])
                    if y.size and not np.isnan(y).all():  # all nan: a divergence row
                        total = y.sum()
                        for i, c in enumerate(y_cols):
                            out_rows.append([f"{stem}.{c}", it, _fmt(y[i])])
                            if total > 0:
                                out_rows.append([f"{stem}.u_{i + 1}", it, _fmt(y[i] / total)])
                    for col in ("gap", "xi"):
                        if col in row and row[col] not in ("", "nan"):
                            out_rows.append([f"{stem}.{col}", it, row[col]])
            if n_rows == 0:
                raise ValueError("no rows")
        except (TypeError, ValueError, csv.Error) as exc:  # a short row reads None
            raise ConfigError(f"bad trace CSV {trace}: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "figure_data.csv", ["series", "iter", "value"], out_rows)
    print(f"figure data written to {out_dir / 'figure_data.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would print the usage too and exit 2, the convergence code
        raise ConfigError(f"command line: {message}")


def main(argv=None) -> int:
    parser = _Parser(prog="rbmd", description="Risk-budgeting portfolio benchmarks")
    parser.add_argument("command", choices=["reference", "run", "compare", "figure-data"])
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--threads", type=int, default=1, help="replication workers")
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        seed = config.seed if args.seed is None else args.seed
        out_dir = Path(args.out)
        if args.command == "reference":
            return cmd_reference(config, out_dir, seed)
        if args.command == "run":
            return cmd_run(config, out_dir, seed)
        if args.command == "compare":
            return cmd_compare(config, out_dir, seed, threads=max(1, args.threads))
        return cmd_figure_data(config, out_dir)
    except (ConfigError, mm.ModelError, OSError) as exc:
        code, message = 1, str(exc)
    except (rb.ConvergenceError, mm.NumericsError) as exc:
        code, message = 2, str(exc)
    except Exception as exc:  # a bug, not bad input: say which exception
        code, message = 3, f"internal: {type(exc).__name__}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
