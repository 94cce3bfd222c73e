"""Config-driven benchmarking front end.

Subcommands (all read a JSON config and write into an output directory):

  reference    solve the budget-matching portfolio and dump the report
  run          one optimizer run with trace CSV and a summary
  compare      seeded replication sweep over several optimizers
  figure-data  melt trace CSVs of a finished run into long-format series

Exit codes: 0 success, 1 config/IO error, 2 convergence or numerics failure.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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

OPTIMIZER_NAMES = ("dmd", "smd", "sgd-tamed", "sgd-classical")


class ConfigError(ValueError):
    """Bad experiment config; the message names the offending key."""


def _nearest_gamma0(table: dict, d: int) -> float:
    key = min(table, key=lambda k: abs(k - d))
    return table[key]


def _reject_unknown(doc: dict, allowed, where: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"missing key '{key}' in {where}")
    return doc[key]


def _convert(value, kind, key: str):
    """``kind(value)``, or a ConfigError naming ``key`` when the value has the
    wrong type: null, a string, a list or a boolean for a number, a number for
    a list, or a fraction such as 2.7 for an integer."""
    try:
        if kind in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, float))
                                     or kind is int and value != int(value)):
            raise TypeError(f"not a {kind.__name__}")
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value {value!r} for '{key}'") from exc


def _convert_keys(doc: dict, kinds: dict, where: str) -> dict:
    """Copy of ``doc`` with the value of each key in ``kinds`` converted."""
    return {key: _convert(value, kinds[key], f"{where}.{key}") if key in kinds else value
            for key, value in doc.items()}


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


_OPTIMIZER_NUMBERS = {"m_cap": float, "iterations": int, "epochs": int, "xi0": float,
                      "y0": _float_array, "record_every": int, "tail_fraction": float,
                      "grad_tol": float, "tamed_gamma0": float, "classical_gamma0": float,
                      "beta": float}


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
    rng = np.random.Generator(np.random.Philox(key=seed & (2 ** 64 - 1)))
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

@dataclass
class ExperimentConfig:
    """Validated experiment description (see README for the schema)."""

    raw: dict
    model_spec: dict
    budget_spec: object
    measure: rl.MeasureSpec
    optimizer: dict
    optimizers: list
    samples: int
    replications: int
    dimensions: list
    seed: int
    tolerance: float
    epsilons: tuple
    input_dir: str | None

    @classmethod
    def parse(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        allowed = {"model", "budget", "measure", "optimizer", "optimizers",
                   "samples", "replications", "dimensions", "seed",
                   "tolerance", "epsilons", "input"}
        _reject_unknown(doc, allowed, "config")
        model_spec = doc.get("model")
        if model_spec is not None:
            if not isinstance(model_spec, dict):
                raise ConfigError("'model' must be an object")
            _reject_unknown(model_spec, {"file", "inline", "synthetic"}, "model")
            if len(model_spec) != 1:
                raise ConfigError("'model' needs exactly one of file | inline | synthetic")
            (kind, spec), = model_spec.items()
            if not isinstance(spec, str if kind == "file" else dict):
                raise ConfigError(f"model.{kind} must be a "
                                  + ("path" if kind == "file" else "JSON object"))
            if kind == "synthetic":
                _reject_unknown(spec, {"d", "seed"}, "model.synthetic")
                model_spec = {kind: _convert_keys(spec, {"d": int, "seed": int}, "model.synthetic")}
        budget_spec = doc.get("budget", "uniform")
        if isinstance(budget_spec, str):
            if budget_spec != "uniform":
                raise ConfigError(f"unknown budget preset {budget_spec!r}; "
                                  "use \"uniform\" or a list of positive shares")
        elif isinstance(budget_spec, list):
            budget_spec = _convert(budget_spec, _float_array, "budget")
            if (budget_spec.ndim != 1 or budget_spec.size == 0 or np.any(budget_spec <= 0.0)
                    or not np.all(np.isfinite(budget_spec))):
                raise ConfigError("budget entries must be positive finite numbers")
        else:
            raise ConfigError("budget must be \"uniform\" or a list")
        measure = _parse_measure(doc.get("measure", {"kind": "es", "alpha": 0.95}))
        optimizer = doc.get("optimizer", {})
        if not isinstance(optimizer, dict):
            raise ConfigError("'optimizer' must be an object")
        _reject_unknown(optimizer, {"algorithm", "schedule", *_OPTIMIZER_NUMBERS}, "optimizer")
        optimizer = _convert_keys(optimizer, _OPTIMIZER_NUMBERS, "optimizer")
        sched = optimizer.get("schedule")
        if sched is not None:
            if not isinstance(sched, dict):
                raise ConfigError("optimizer.schedule must be an object")
            _reject_unknown(sched, {"kind", "gamma0", "beta"}, "optimizer.schedule")
            optimizer["schedule"] = _convert_keys(sched, {"gamma0": float, "beta": float},
                                                  "optimizer.schedule")
        optimizers = doc.get("optimizers", ["smd", "sgd-tamed", "sgd-classical"])
        if not isinstance(optimizers, list) or not optimizers:
            raise ConfigError("'optimizers' must be a nonempty list")
        for name in optimizers:
            if name not in OPTIMIZER_NAMES:
                raise ConfigError(f"unknown optimizer {name!r} in 'optimizers'")
        samples = _convert(doc.get("samples", 100_000), int, "samples")
        if samples < 1:
            raise ConfigError("'samples' must be >= 1")
        replications = _convert(doc.get("replications", 1), int, "replications")
        if replications < 1:
            raise ConfigError("'replications' must be >= 1")
        dimensions = doc.get("dimensions", [10])
        if not isinstance(dimensions, list):
            raise ConfigError("'dimensions' must be a list of sizes >= 2")
        dimensions = [_convert(d, int, "dimensions") for d in dimensions]
        if not all(d >= 2 for d in dimensions):
            raise ConfigError("'dimensions' must be a list of sizes >= 2")
        epsilons = doc.get("epsilons", list(DIVERGENCE_EPSILONS))
        if not isinstance(epsilons, list):
            raise ConfigError("'epsilons' must be a list of positive numbers")
        epsilons = tuple(_convert(e, float, "epsilons") for e in epsilons)
        if any(e <= 0 for e in epsilons):
            raise ConfigError("'epsilons' must be positive")
        return cls(
            raw=doc,
            model_spec=model_spec,
            budget_spec=budget_spec,
            measure=measure,
            optimizer=optimizer,
            optimizers=list(optimizers),
            samples=samples,
            replications=replications,
            dimensions=dimensions,
            seed=_convert(doc.get("seed", 0), int, "seed"),
            tolerance=_convert(doc.get("tolerance", 1e-10), float, "tolerance"),
            epsilons=epsilons,
            input_dir=doc.get("input"),
        )

    def build_model(self, seed: int) -> mm.MixtureModel:
        if self.model_spec is None:
            raise ConfigError("missing key 'model' in config")
        if "file" in self.model_spec:
            path = Path(self.model_spec["file"])
            if not path.exists():
                raise ConfigError(f"model file not found: {path}")
            try:
                return mm.MixtureModel.load(path)
            except (mm.ModelError, json.JSONDecodeError) as exc:
                raise ConfigError(f"bad model file {path}: {exc}") from exc
        if "inline" in self.model_spec:
            try:
                return mm.MixtureModel.from_dict(self.model_spec["inline"], "model.inline.")
            except mm.ModelError as exc:
                raise ConfigError(f"bad inline model: {exc}") from exc
        synth = self.model_spec["synthetic"]
        return generate_model(_require(synth, "d", "model.synthetic"), synth.get("seed", seed))

    def build_budget(self, d: int) -> rb.RiskBudget:
        if isinstance(self.budget_spec, str):
            return rb.RiskBudget.uniform(d)
        if self.budget_spec.size != d:
            raise ConfigError(f"budget has {self.budget_spec.size} entries for a {d}-asset model")
        return rb.RiskBudget(self.budget_spec)

    def build_optimizer_config(self, model: mm.MixtureModel, n_iterations: int,
                               default_m: float | None = None) -> md.OptimizerConfig:
        opt = self.optimizer
        d = model.d
        m_cap = opt.get("m_cap", default_m if default_m is not None
                        else (100.0 if d <= 10 else 100.0 * d))
        sched = opt.get("schedule")
        if sched is None:
            raise ConfigError("missing key 'schedule' in optimizer")
        kind = _require(sched, "kind", "optimizer.schedule")
        try:
            schedule = md.StepSchedule(kind, sched.get("gamma0", 1.0), sched.get("beta", 0.0))
        except ValueError as exc:
            raise ConfigError(f"bad optimizer.schedule: {exc}") from exc
        if "y0" in opt:
            y0 = opt["y0"]
            if y0.size != d:
                raise ConfigError("optimizer.y0 dimension mismatch")
        else:
            y0 = md.default_y0(model, m_cap)
        try:
            return md.OptimizerConfig(
                m_cap=m_cap,
                schedule=schedule,
                iterations=opt.get("iterations", n_iterations),
                y0=y0,
                epochs=opt.get("epochs", 1),
                xi0=opt.get("xi0", 0.0),
                record_every=opt.get("record_every", 100),
                tail_fraction=opt.get("tail_fraction", 0.2),
                grad_tol=opt.get("grad_tol"),
            )
        except ValueError as exc:
            raise ConfigError(f"bad optimizer config: {exc}") from exc


def _parse_measure(doc) -> rl.MeasureSpec:
    if not isinstance(doc, dict):
        raise ConfigError("'measure' must be an object")
    kind = _require(doc, "kind", "measure")
    doc = _convert_keys(doc, {"alpha": float, "a": float, "b": float, "p": int}, "measure")
    if kind == "es":
        _reject_unknown(doc, {"kind", "alpha"}, "measure")
        try:
            return rl.MeasureSpec.expected_shortfall(doc.get("alpha", 0.95))
        except ValueError as exc:
            raise ConfigError(f"bad measure: {exc}") from exc
    if kind == "deviation":
        _reject_unknown(doc, {"kind", "a", "b", "p"}, "measure")
        try:
            return rl.MeasureSpec.deviation(doc.get("a", 1.0), doc.get("b", 1.0), doc.get("p", 2))
        except ValueError as exc:
            raise ConfigError(f"bad measure: {exc}") from exc
    if kind == "volatility":
        _reject_unknown(doc, {"kind"}, "measure")
        return rl.MeasureSpec.volatility()
    if kind == "mad":
        _reject_unknown(doc, {"kind"}, "measure")
        return rl.MeasureSpec.mad()
    if kind == "variantile":
        _reject_unknown(doc, {"kind", "alpha"}, "measure")
        try:
            return rl.MeasureSpec.variantile(doc.get("alpha", 0.75))
        except ValueError as exc:
            raise ConfigError(f"bad measure: {exc}") from exc
    raise ConfigError(f"unknown measure kind {kind!r}")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
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
        for row in rows:
            writer.writerow(row)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _jsonable(value):
    """Replace non-finite floats with null so summaries stay strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def write_trace_csv(path: Path, result: md.RunResult, schedule: md.StepSchedule) -> None:
    gaps = dict(result.gap_trace)
    xis = dict(result.xi_trace)
    header = None
    rows = []
    for k, y in result.y_trace:
        if header is None:
            header = ["iter", "gamma", "gap", "xi"] + [f"y_{i + 1}" for i in range(y.size)]
        xi = xis.get(k, math.nan)
        rows.append([k, _fmt(md.step_size(schedule, k)), _fmt(gaps.get(k, math.nan)),
                     _fmt(xi)] + [_fmt(v) for v in y])
    if header is None:
        header = ["iter", "gamma", "gap", "xi"]
    _write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_reference(config: ExperimentConfig, out_dir: Path, seed: int) -> int:
    model = config.build_model(seed)
    budget = config.build_budget(model.d)
    ctx = rb.ObjectiveContext(budget, config.measure, model)
    try:
        report = rb.reference_portfolio(ctx, tol=config.tolerance)
    except rb.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    if name == "sgd-tamed":
        return md.sgd_run("tamed", ctx, samples, cfg, gamma_star=gamma_star)
    if name == "sgd-classical":
        return md.sgd_run("classical", ctx, samples, cfg, gamma_star=gamma_star)
    raise ConfigError(f"unknown optimizer {name!r}")


def cmd_run(config: ExperimentConfig, out_dir: Path, seed: int) -> int:
    model = config.build_model(seed)
    budget = config.build_budget(model.d)
    ctx = rb.ObjectiveContext(budget, config.measure, model)
    algorithm = config.optimizer.get("algorithm", "smd")
    if algorithm not in OPTIMIZER_NAMES:
        raise ConfigError(f"unknown optimizer algorithm {algorithm!r}")
    cfg = config.build_optimizer_config(model, n_iterations=config.samples)
    cfg.record_weights = True
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
    u_final = rb.normalize(result.y_final) if not result.diverged else None
    summary = {
        "algorithm": algorithm,
        "diverged": result.diverged,
        "iterations": result.iterations,
        "weights_final": None if u_final is None else u_final.tolist(),
        "weights_weighted_avg": rb.normalize(result.y_weighted_avg).tolist(),
        "weights_tail_avg": rb.normalize(result.y_tail_avg).tolist(),
        "min_underbar_y": result.min_underbar_y,
        "gap_final": result.gap_trace[-1][1] if result.gap_trace else None,
        "n_projections": result.n_projections,
        "gamma_sum": result.gamma_sum,
    }
    if algorithm != "dmd" and ctx.measure.is_es and not result.diverged:
        summary["var_estimate"] = result.xi_final / float(result.y_final.sum())
    if reference is not None and u_final is not None:
        summary["mde_final"] = rb.mde(u_final, reference.u)
        summary["mde_tail_avg"] = rb.mde(rb.normalize(result.y_tail_avg), reference.u)
        summary["reference_weights"] = reference.u.tolist()
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
    y0 = md.default_y0(model, m_cap)
    y0 = y0 / ctx.risk_value(y0)
    if y0.sum() > m_cap:
        y0 = y0 * (m_cap / y0.sum())
    beta = config.optimizer.get("beta", 0.65)
    epochs = config.optimizer.get("epochs", 1)
    total = n * epochs
    rows = []
    for name in config.optimizers:
        if name == "sgd-classical":
            gamma0 = config.optimizer.get("classical_gamma0",
                                          _nearest_gamma0(CLASSICAL_GAMMA0, d))
        else:
            gamma0 = config.optimizer.get("tamed_gamma0", _nearest_gamma0(TAMED_GAMMA0, d))
        cfg = md.OptimizerConfig(
            m_cap=m_cap,
            schedule=md.StepSchedule.power(gamma0, beta),
            iterations=total,
            y0=y0,
            epochs=epochs,
            record_every=max(1, total // 10),
        )
        result = _execute_run(name, ctx, samples, cfg, gamma_star)
        gaps = _checkpoint_gaps(result.gap_trace, total)
        final_gap = result.gap_trace[-1][1] if result.gap_trace else math.inf
        try:
            u = rb.normalize(np.abs(result.y_final))
            mde_val = rb.mde(u, reference.u)
        except (ValueError, FloatingPointError):
            mde_val = math.inf
        if not math.isfinite(final_gap):
            mde_val = math.inf
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


def _replication_worker(args):
    doc, d, index = args
    return run_replication(ExperimentConfig.parse(doc), d, index)


def cmd_compare(config: ExperimentConfig, out_dir: Path, seed: int, threads: int = 1) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(config.raw, d, i) for d in config.dimensions
             for i in range(config.replications)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            nested = list(pool.map(_replication_worker, tasks))
    else:
        nested = [_replication_worker(t) for t in tasks]
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
        print(f"error: input directory not found: {src}", file=sys.stderr)
        return 1
    traces = sorted(src.glob("*.csv"))
    traces = [t for t in traces if t.name not in ("replications.csv", "aggregate.csv")]
    if not traces:
        print(f"error: no trace CSVs in {src}", file=sys.stderr)
        return 1
    out_rows = []
    for trace in traces:
        with open(trace, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "iter" not in reader.fieldnames:
                print(f"error: {trace} is not a trace CSV", file=sys.stderr)
                return 1
            y_cols = [c for c in reader.fieldnames if c.startswith("y_")]
            n_rows = 0
            for row in reader:
                n_rows += 1
                it = row["iter"]
                stem = trace.stem
                y = np.array([float(row[c]) for c in y_cols])
                if y.size:
                    total = y.sum()
                    for i, c in enumerate(y_cols):
                        out_rows.append([f"{stem}.{c}", it, _fmt(y[i])])
                        if total > 0:
                            out_rows.append([f"{stem}.u_{i + 1}", it, _fmt(y[i] / total)])
                for col in ("gap", "xi"):
                    if col in row and row[col] not in ("", "nan"):
                        out_rows.append([f"{stem}.{col}", it, row[col]])
        if n_rows == 0:
            print(f"error: empty trace {trace}", file=sys.stderr)
            return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "figure_data.csv", ["series", "iter", "value"], out_rows)
    print(f"figure data written to {out_dir / 'figure_data.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rbmd",
                                     description="Risk-budgeting portfolio benchmarks")
    parser.add_argument("command", choices=["reference", "run", "compare", "figure-data"])
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--threads", type=int, default=1, help="replication workers")
    args = parser.parse_args(argv)

    try:
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
    except (mm.ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (rb.ConvergenceError, mm.NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
