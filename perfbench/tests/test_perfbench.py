"""Tests of the benchmark's own arithmetic and metric names.

    python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402
from tracer import INSPECTORS, LAYERS, Tracer  # noqa: E402
from workloads import CHECKS, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    tracer = Tracer(clock=fake_clock(0, 10, 30, 50, 60, 100))
    mod = types.SimpleNamespace(inner=lambda: None)
    mod.outer = lambda: (mod.inner(), mod.inner())
    tracer.wrap(mod, "inner", "m.inner")
    tracer.wrap(mod, "outer", "m.outer")
    mod.outer()
    # outer spans 0..100; its children take 30 -> self 70
    assert tracer.stats == {
        ("m.inner", "m.outer"): [2, 30, 30],
        ("m.outer", None): [1, 100, 70],
    }
    assert tracer.stack == []


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer(clock=fake_clock(0, 5))

    def boom():
        raise ValueError("x")

    mod = types.SimpleNamespace(boom=boom)
    tracer.wrap(mod, "boom", "m.boom")
    try:
        mod.boom()
    except ValueError:
        pass
    assert tracer.stats == {("m.boom", None): [1, 5, 5]}
    assert tracer.stack == []


def _fake_reference_process():
    """main -> reference_portfolio -> two dmd_run attempts, each with one
    outer_gradient call; returns one tracer dump."""
    tracer = Tracer(clock=fake_clock(0, 100, 200, 210, 260, 300, 320, 330, 380, 400, 900, 1000))
    run = types.SimpleNamespace(iterations=7, n_projections=1, min_underbar_y=0.5,
                                diverged=False)
    report = types.SimpleNamespace(iterations=7, grad_norm=1e-9)
    mod = types.SimpleNamespace()
    mod.outer_gradient = lambda: None
    mod.dmd_run = lambda ctx: (mod.outer_gradient(), run)[1]
    mod.reference_portfolio = lambda: (mod.dmd_run(None), mod.dmd_run(None), report)[2]
    mod.main = lambda: mod.reference_portfolio()
    for attr, name in (("outer_gradient", "rb_solver.outer_gradient"),
                       ("dmd_run", "mirror_descent.dmd_run"),
                       ("reference_portfolio", "rb_solver.reference_portfolio"),
                       ("main", "bench_cli.main")):
        tracer.wrap(mod, attr, name, INSPECTORS.get(name))
    mod.main()
    return json.loads(json.dumps(tracer.to_dict()))


def test_layer_self_times_sum_to_traced_wall():
    dump = _fake_reference_process()
    values = metrics.per_layer([dump, dump], traced_wall=2.5e-6, untraced_wall=2e-6,
                               accuracy={"rc_err": 1e-9}, failed_ops=0.0)
    # per process: main 0..1000 ns, reference 100..900, dmd_run 200..300 and
    # 320..400, outer_gradient 210..260 and 330..380
    layer_self = sum(values[f"{layer}.self.s"] for layer in LAYERS)
    assert abs(layer_self - 2 * 1000e-9) < 1e-18
    assert abs(layer_self + values["trace.outside.s"] - values["trace.wall_s"]) < 1e-18
    assert abs(values["trace.overhead_s"] - 0.5e-6) < 1e-18
    assert values["rb_solver.reference_portfolio.calls"] == 2
    assert values["rb_solver.reference_portfolio.attempts"] == 4
    assert values["rb_solver.reference_portfolio.iterations"] == 14
    assert values["rb_solver.outer_gradient.calls"] == 4
    assert values["rc_err"] == 1e-9
    assert values["mde_final"] == 0


def test_printed_metric_names_match_benchmark_json():
    e2e = metrics.end_to_end([2.0, 1.0, 3.0], [0.5], [70.0])
    assert e2e == {"wall_s": 2.0, "setup_s": 0.5, "peak_rss_mb": 70.0}
    layer = metrics.per_layer([], 1.0, 1.0, {}, 0.0)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [m[0] for m in metrics.PER_LAYER]
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metrics.UNITS[entry["name"]] == entry["unit"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == [m[:3] for m in metrics.PER_LAYER]
    # every layer metric names what it should move and where
    assert all(moves and on for _, _, _, moves, on in metrics.PER_LAYER)


def test_workloads_match_benchmark_json_and_follow_the_seed():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] \
        == [(name, w.why) for name, w in WORKLOADS.items()]
    for name, workload in WORKLOADS.items():
        a, b = workload.build(1), workload.build(2)
        assert a == workload.build(1)
        assert [inv.seed for inv in a] == [1] * len(a)
        assert [inv.seed for inv in b] == [2] * len(b)
        assert {inv.command for inv in a} <= set(CHECKS)
