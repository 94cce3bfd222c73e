"""Benchmark workloads: the rbmd CLI invocations each one runs, built from
the workload seed, and the checks and accuracy figures read from their
outputs.

The invocations are the four workloads first specified for this benchmark
(reference-es, reference-deviation, run-smd-desk, compare-d10), grouped into
two workloads.  The shared host's speed drifts by up to a fifth in waves of
30 to 60 s, so a run must measure about 40 s of work to hold its spread
across seeds near a tenth, and the benchmark's time budget allows that for
two workloads, not four.  The groups keep the split between the deterministic
reference solves and the stochastic runs, so a change to one side has a
workload that bypasses it."""

import csv
import json
import math
from dataclasses import dataclass

# Three-asset heavy-tailed mixture of the README, with its converged
# ES 95% / uniform-budget solution (acceptance criterion 1 tolerances).
MIXTURE_3 = {
    "weight": 0.7,
    "mu1": [0.0001, 0.0002, -0.0003],
    "mu2": [0.001, 0.0005, 0.0002],
    "lambda1": [[9e-5, 3e-5, 5e-5], [3e-5, 9e-5, 3e-5], [5e-5, 3e-5, 1e-4]],
    "lambda2": [[4e-4, 1e-4, 1e-4], [1e-4, 1e-4, 6e-5], [1e-4, 6e-5, 1e-4]],
    "nu1": 3.4,
    "nu2": 2.6,
}
MIXTURE_3_WEIGHTS = (0.2535, 0.3866, 0.3599)
MIXTURE_3_VAR = 0.0193
MIXTURE_3_ES = 0.0329
WEIGHT_TOL = 5e-4
VAR_TOL = 5e-4
ES_TOL = 1e-3

# The d=50 desk model is a fixed input, like the three-asset mixture: its
# solve is the longest ES solve of the reference workload, and its iteration
# count moves by about a fifth between model seeds, which would swamp any
# speed change.  The d=10 model takes the workload seed.
DESK_MODEL_SEED = 2024

ES95 = {"kind": "es", "alpha": 0.95}
TAMED = ("smd", "sgd-tamed")


@dataclass(frozen=True)
class Invocation:
    """One ``rbmd <command> --config <name>.json`` process."""

    name: str
    command: str
    config: dict

    @property
    def seed(self) -> int:
        return self.config["seed"]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _rc_err(report: dict) -> float:
    """max_i |c_i / r - b_i| for the uniform budget."""
    d = len(report["contributions"])
    return max(abs(c / report["risk"] - 1.0 / d) for c in report["contributions"])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- reference ---------------------------------------------------------------

def _check_reference(inv: Invocation, out, acc: dict) -> list:
    report = json.loads((out / "reference.json").read_text())
    problems = []
    tol = inv.config["tolerance"]
    if not report["gradient_norm"] <= tol:
        problems.append(f"gradient_norm {report['gradient_norm']:.3e} > tol {tol:.0e}")
    if inv.name == "es-d3":
        errs = [abs(w - ref) for w, ref in zip(report["weights"], MIXTURE_3_WEIGHTS)]
        if max(errs) > WEIGHT_TOL:
            problems.append(f"weights {report['weights']} off the README values")
        if abs(report["var"] - MIXTURE_3_VAR) > VAR_TOL:
            problems.append(f"VaR {report['var']} off {MIXTURE_3_VAR}")
        if abs(report["risk"] - MIXTURE_3_ES) > ES_TOL:
            problems.append(f"ES {report['risk']} off {MIXTURE_3_ES}")
    acc["rc_err"] = max(acc.get("rc_err", 0.0), _rc_err(report))
    return problems


def _reference(seed: int) -> list:
    return [
        Invocation("es-d3", "reference", {
            "model": {"inline": MIXTURE_3}, "measure": ES95,
            "tolerance": 1e-10, "seed": seed}),
        Invocation("es-d10", "reference", {
            "model": {"synthetic": {"d": 10}}, "measure": ES95,
            "tolerance": 1e-8, "seed": seed}),
        Invocation("es-d50", "reference", {
            "model": {"synthetic": {"d": 50, "seed": DESK_MODEL_SEED}}, "measure": ES95,
            "tolerance": 1e-8, "seed": seed}),
        Invocation("mad-d3", "reference", {
            "model": {"inline": MIXTURE_3}, "measure": {"kind": "mad"},
            "tolerance": 1e-5, "seed": seed}),
    ]


# -- run and compare ---------------------------------------------------------

SMD_SAMPLES = 100_000
SMD_EPOCHS = 5
SMD_RECORD_EVERY = 100


def _check_run(inv: Invocation, out, acc: dict) -> list:
    summary = json.loads((out / "summary.json").read_text())
    problems = []

    def walk(key, value):
        if isinstance(value, list):
            for v in value:
                walk(key, v)
        elif not isinstance(value, (bool, str)) and not _finite(value):
            problems.append(f"summary {key} is {value!r}")

    for key, value in summary.items():
        walk(key, value)
    if summary.get("diverged") is not False:
        problems.append("run diverged")
    for key in ("mde_final", "mde_tail_avg", "var_estimate", "gap_final"):
        if key not in summary:
            problems.append(f"summary lacks {key}")
    with open(out / "trace.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    expected = SMD_SAMPLES * SMD_EPOCHS // SMD_RECORD_EVERY
    if rows != expected:
        problems.append(f"trace.csv has {rows} rows, expected {expected}")
    if not problems:
        acc["mde_final"] = summary["mde_final"]
        acc["mde_tail_avg"] = summary["mde_tail_avg"]
    return problems


# Criterion 8's d=10 settings with 2 replications of half its sample count.
# sgd-classical is left out: it diverges at a seed-dependent step and stops
# there, so its work (and the workload's wall time) would swing with the seed.
COMPARE_REPLICATIONS = 2


def _check_compare(inv: Invocation, out, acc: dict) -> list:
    rows = _read_csv(out / "replications.csv")
    problems = []
    expected = len(TAMED) * COMPARE_REPLICATIONS
    if len(rows) != expected:
        problems.append(f"replications.csv has {len(rows)} rows, expected {expected}")
    tamed = [r for r in rows if r["optimizer"] in TAMED]
    for r in tamed:
        for key in ("gap_k30", "gap_k60", "gap_k90"):
            if not math.isfinite(float(r[key])):
                problems.append(f"{r['optimizer']} seed {r['seed']} {key} = {r[key]}")
    agg = {r["optimizer"]: r for r in _read_csv(out / "aggregate.csv")}
    for name in TAMED:
        if name not in agg:
            problems.append(f"aggregate.csv lacks {name}")
    if not problems:
        for name in TAMED:
            acc[f"gap_k90_median.{name}"] = float(agg[name]["gap_k90_median"])
        acc["tamed_diverged"] = sum(int(r["diverged_eps1"]) for r in tamed)
    return problems


def _stochastic(seed: int) -> list:
    return [
        Invocation("smd-d3", "run", {
            "model": {"inline": MIXTURE_3}, "measure": ES95,
            "optimizer": {"algorithm": "smd", "m_cap": 100.0,
                          "schedule": {"kind": "power", "gamma0": 1.0, "beta": 0.75},
                          "epochs": SMD_EPOCHS, "record_every": SMD_RECORD_EVERY},
            "samples": SMD_SAMPLES, "seed": seed}),
        Invocation("cmp-d10", "compare", {
            "measure": ES95,
            "optimizers": list(TAMED),
            "optimizer": {"epochs": 2, "tamed_gamma0": 3.0},
            "samples": 50_000, "replications": COMPARE_REPLICATIONS, "dimensions": [10],
            "tolerance": 1e-8, "seed": seed}),
    ]


# (Invocation, out dir, accuracy dict) -> list of problems, by CLI command
CHECKS = {"reference": _check_reference, "run": _check_run, "compare": _check_compare}


def check(inv: Invocation, out, acc: dict) -> list:
    """Problems found in one invocation's outputs; fills ``acc``."""
    return CHECKS[inv.command](inv, out, acc)


@dataclass(frozen=True)
class Workload:
    why: str
    build: object   # seed -> list of Invocation


WORKLOADS = {
    "reference": Workload(
        "reference-es + reference-deviation: ES solves at d=3, 10 and 50 on the "
        "finite-difference outer_gradient and MAD at d=3 on the golden-section path; "
        "no sampling",
        _reference),
    "stochastic": Workload(
        "run-smd-desk + compare-d10: one long SMD run with dense gap recording and the "
        "trace CSV writer, plus smd and sgd-tamed replications at d=10 with sparse "
        "recording",
        _stochastic),
}
