"""Tests of the benchmark itself: generators, tracer arithmetic, traced outputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import prepare  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, latency_quantiles  # noqa: E402

cli = prepare.import_cli()

SMALL_PLANS = {
    "fleet-1k": lambda seed: workloads.fleet_plan(seed, devices=20),
    "attack-storm": lambda seed: workloads.storm_plan(seed, devices=60),
    "detect-long": lambda seed: workloads.detect_plan(seed, devices=2, baseline=600, length=1200),
}


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# --- generators ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_are_deterministic_per_seed(workload):
    assert workloads.make_plan(workload, 7) == workloads.make_plan(workload, 7)
    assert workloads.make_plan(workload, 7) != workloads.make_plan(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_written_inputs_are_deterministic_per_seed(workload, tmp_path):
    make = SMALL_PLANS[workload]
    workloads.write_inputs(make(3), tmp_path / "a")
    workloads.write_inputs(make(3), tmp_path / "b")
    workloads.write_inputs(make(4), tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


# --- tracer arithmetic -----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _toy_modules(clock: FakeClock) -> dict[str, types.ModuleType]:
    """toy.outer.outer -> toy.inner.inner -> toy.inner.helper (same layer)."""
    package = types.ModuleType("toy")
    inner = types.ModuleType("toy.inner")
    outer = types.ModuleType("toy.outer")
    inner.clock = outer.clock = clock
    exec(
        "def helper():\n"
        "    clock.now += 2.0\n"
        "def inner():\n"
        "    clock.now += 3.0\n"
        "    helper()\n",
        inner.__dict__,
    )
    outer.inner = inner.inner  # as `from toy.inner import inner` would bind it
    exec(
        "def outer():\n"
        "    clock.now += 5.0\n"
        "    inner()\n"
        "    clock.now += 1.0\n",
        outer.__dict__,
    )
    return {"toy": package, "toy.inner": inner, "toy.outer": outer}


def test_tracer_self_time_on_a_toy_nested_call(monkeypatch):
    clock = FakeClock()
    modules = _toy_modules(clock)
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    original_inner = modules["toy.inner"].inner
    tracer = Tracer({"outer": modules["toy.outer"], "inner": modules["toy.inner"]}, "toy", clock=clock)

    with tracer:
        assert modules["toy.outer"].inner is not original_inner  # rebound where imported
        modules["toy.outer"].outer()
    assert modules["toy.outer"].inner is original_inner  # restored

    outer_span, inner_span = tracer.spans  # helper merged into inner's span
    assert (outer_span.layer, outer_span.parent) == ("outer", None)
    assert (inner_span.layer, inner_span.parent) == ("inner", 0)
    assert outer_span.end - outer_span.start == 11.0
    assert inner_span.end - inner_span.start == 5.0
    assert tracer.self_times() == [6.0, 5.0]

    summary = tracer.summary(wall_s=12.0)
    assert summary["layers"]["outer"]["self_s"] == 6.0
    assert summary["layers"]["inner"]["self_s"] == 5.0
    assert summary["layers"]["inner"]["calls"] == 1
    assert summary["unattributed_s"] == 1.0
    total = sum(entry["self_s"] for entry in summary["layers"].values())
    assert total + summary["unattributed_s"] == summary["wall_s"]


def test_latency_tail_has_ten_calls_beyond_it():
    durations = [float(i) for i in range(1, 101)]
    median, (tail, pct) = latency_quantiles(durations)
    assert (median, tail, pct) == (50.0, 90.0, 90.0)
    assert latency_quantiles([1.0, 2.0, 3.0]) == (2.0, (3.0, 100.0))


# --- traced and untraced runs agree --------------------------------------------------


def _call(plan, in_dir: Path, out_dir: Path) -> int:
    out_dir.mkdir(parents=True)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(workloads.cli_args(plan, in_dir, out_dir))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_match_untraced(workload, tmp_path):
    plan = SMALL_PLANS[workload](5)
    workloads.write_inputs(plan, tmp_path / "in")
    plain_code = _call(plan, tmp_path / "in", tmp_path / "plain")
    tracer = Tracer(layers.layer_modules(), "fleetsec", layers.HOOKS)
    with tracer:
        traced_code = _call(plan, tmp_path / "in", tmp_path / "traced")

    assert traced_code == plain_code
    assert _tree(tmp_path / "traced") == _tree(tmp_path / "plain")
    assert all(passed for _, passed in workloads.check_outputs(plan, plain_code, tmp_path / "plain"))
    assert tracer.unmatched_hooks() == []
    assert {s.layer for s in tracer.spans if s.parent is None} == {"cli"}
    if plan.scenario is not None:
        record = workloads.run_record(plan, plain_code, tmp_path / "plain")
        counts = layers.count_metrics(tracer.counters, 0.0)
        assert counts["scenario.telemetry_rows"] == record["telemetry_rows"]
        assert counts["transport.frames_dropped"] == record["frames_dropped"]
        verdicts = {
            k.rsplit(".", 1)[1]: v for k, v in counts.items() if k.startswith("update_protocol.verdicts.") and v
        }
        assert verdicts == record["verdicts"]
