"""Benchmark of the rbmd CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload is a list of ``rbmd``
invocations (see ``workloads.py``), each a separate process running the
checkout's ``src/`` with ``--threads 1`` and BLAS pinned to one thread.

``--trace 0`` times the workload with tracing off: rounds of all its
invocations until ``--seconds`` is used up, and at least ``MIN_ROUNDS``, with
set-up probes before, between and after them; it reports the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced round and
reports the per-layer metrics of ``metrics.PER_LAYER``.  Every round's outputs
are checked.  The last stdout line is the JSON result.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import metrics
from workloads import WORKLOADS, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
# Set-up probes run in groups before, between and after the timed rounds, so
# that their median spans the run rather than one spell of the host's speed.
SETUP_PROBES = 2  # per group
MIN_ROUNDS = 2  # a median of one round is one sample of the machine's noise
MAX_ROUNDS = 50
RUN_LIMIT_S = 170.0  # children still running this long after start are killed
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("PYTHONPATH", None)
    return env


def spawn(argv, log: Path, deadline: float):
    """Run one child to completion: (wall seconds, exit code, peak RSS MB)."""
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), *argv], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=out)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Bench:
    """One workload at one seed, with its configs under a work directory."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.deadline = deadline
        self.invocations = WORKLOADS[name].build(seed)
        self.work = work
        self.log = work / "children.log"
        self.configs = {}
        for inv in self.invocations:
            path = work / f"{inv.name}.json"
            path.write_text(json.dumps(inv.config, indent=2) + "\n")
            self.configs[inv.name] = path
        self.problems = []

    def setup_probe(self):
        """Import, config parse and model build of every invocation, no solve:
        (wall seconds, failed)."""
        wall, code, _ = spawn(["setup", *map(str, self.configs.values())], self.log,
                             self.deadline)
        if code != 0:
            self.problems.append(f"set-up probe exited {code}")
        return wall, code != 0

    def round(self, tag: str, trace: bool = False) -> dict:
        """All invocations once; each is checked.  Returns the round record."""
        walls, rss, failed, accuracy, dumps = [], [], 0, {}, []
        for inv in self.invocations:
            out = self.work / tag / inv.name
            shutil.rmtree(out, ignore_errors=True)
            cli = [inv.command, "--config", str(self.configs[inv.name]), "--out", str(out),
                   "--seed", str(inv.seed), "--threads", "1"]
            spans = self.work / tag / f"{inv.name}.spans.json"
            argv = ["trace", str(spans), *cli] if trace else ["cli", *cli]
            wall, code, peak = spawn(argv, self.log, self.deadline)
            walls.append(wall)
            rss.append(peak)
            problems = [f"exit code {code}"] if code != 0 else []
            if not problems:
                try:
                    problems = check(inv, out, accuracy)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            if trace and not problems:
                dumps.append(json.loads(spans.read_text()))
            if problems:
                failed += 1
                self.problems.extend(f"{tag}/{inv.name}: {p}" for p in problems)
        return {"wall": sum(walls), "walls": walls, "rss": max(rss), "failed": failed,
                "accuracy": accuracy, "dumps": dumps}


def timed(bench: Bench, seconds: float):
    setups, rounds = [], []
    start = time.perf_counter()
    while len(rounds) < MAX_ROUNDS:
        setups.extend(bench.setup_probe() for _ in range(SETUP_PROBES))
        rounds.append(bench.round(f"r{len(rounds)}"))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    setups.extend(bench.setup_probe() for _ in range(SETUP_PROBES))
    good = [r for r in rounds if r["failed"] == 0] or rounds
    values = metrics.end_to_end([r["wall"] for r in good], [wall for wall, _ in setups],
                                [r["rss"] for r in good])
    attempted = len(rounds) * len(bench.invocations) + len(setups)
    failed = sum(r["failed"] for r in rounds) + sum(bad for _, bad in setups)
    return values, attempted, failed, {"round_walls": [r["walls"] for r in rounds],
                                       "setup_walls": [wall for wall, _ in setups]}


def _same_outputs(a: Path, b: Path) -> list:
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return [f"traced outputs {names_b} differ from untraced {names_a}"]
    return [f"traced {n} differs from untraced" for n in names_a
            if (a / n).read_bytes() != (b / n).read_bytes()]


def traced(bench: Bench):
    _, setup_failed = bench.setup_probe()  # warms the byte-code caches
    plain = bench.round("plain")
    spans = bench.round("traced", trace=True)
    failed = setup_failed + plain["failed"] + spans["failed"]
    # Outputs are compared only when both rounds passed, so an invocation
    # counts at most twice as failed, as often as it was attempted.
    if plain["failed"] == spans["failed"] == 0:
        for inv in bench.invocations:
            diff = _same_outputs(bench.work / "plain" / inv.name,
                                 bench.work / "traced" / inv.name)
            if diff:
                bench.problems.extend(diff)
                failed += 1
    attempted = 1 + 2 * len(bench.invocations)
    values = metrics.per_layer(spans["dumps"], spans["wall"], plain["wall"],
                               plain["accuracy"], failed / attempted)
    return values, attempted, failed, {"round_walls": [plain["walls"], spans["walls"]]}


def environment(seed: int) -> dict:
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    commit = lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == ROOT else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": PINNED,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rbmd" / "bench_cli.py").is_file():
        print(f"error: no rbmd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work, deadline)
        if args.trace:
            values, attempted, failed, info = traced(bench)
        else:
            values, attempted, failed, info = timed(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    for problem in bench.problems:
        print(f"check failed: {problem}")
    for name, value in values.items():
        print(f"{name} {value!r} {metrics.UNITS[name]}")
    print("env " + json.dumps({**environment(args.seed), **info, "workload": args.workload}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
