"""fleetsec benchmark: one workload through `fleetsec.cli.main`, in process.

    python3 perfbench/run.py --workload fleet-1k --seed 1 --seconds 30 --trace 0

Run from any directory; fleetsec is imported from this checkout's src/.
The run first times SETUP_REPEATS set-ups in fresh interpreters (see
prepare.py), then calls the CLI on the inputs the last one wrote, once
per call into a fresh output directory, until another call would pass
`--seconds`. Every call's output files are checked, and reduced to a
record of counts and digests that must repeat at one seed.

--trace 0 prints the end-to-end metrics (setup_s, device_ticks_per_s,
peak_rss_mb). --trace 1 alternates untraced and traced calls and prints
the per-layer metrics of the traced ones, with the tracing overhead.
The last line of stdout is one JSON object: correct, attempted and
failed count the output checks, and metrics holds the numbers.
Summaries, and the spans of a traced run, go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import prepare
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
WORK_DIR = prepare.ROOT / ".perfbench-work"
OUT_DIR = prepare.ROOT / ".perfbench-out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

NO_WAIT_NOTE = (
    "no wait metric: fleetsec runs synchronously on one Python thread, "
    "so no layer waits on another"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- machine fingerprint -------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line.lower())
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return int(fn())
    return None


def fingerprint(loadavg: tuple[float, float, float]) -> dict:
    import cryptography
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "loadavg_at_start": list(loadavg),
    }


# --- runs ----------------------------------------------------------------------


def measure_setup(workload: str, seed: int, in_dir: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload, "--seed", str(seed), "--dir", str(in_dir)],
            check=True,
            timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return times


class Run:
    """Calls of one workload, with every call's checks and record."""

    def __init__(self, cli, plan: workloads.Plan, in_dir: Path, work: Path):
        self.cli, self.plan, self.in_dir, self.work = cli, plan, in_dir, work
        self.checks: list[tuple[str, bool]] = []
        self.records: list[dict] = []

    def call(self) -> tuple[float, dict]:
        """One timed CLI call; returns its wall seconds and its record."""
        out_dir = self.work / f"out-{len(self.records)}"
        out_dir.mkdir(parents=True)
        argv = workloads.cli_args(self.plan, self.in_dir, out_dir)
        with contextlib.redirect_stdout(sys.stderr):
            started = time.perf_counter()
            exit_code = self.cli.main(argv)
            wall = time.perf_counter() - started
        self.checks += workloads.check_outputs(self.plan, exit_code, out_dir)
        record = workloads.run_record(self.plan, exit_code, out_dir)
        self.records.append(record)
        shutil.rmtree(out_dir)
        return wall, record

    def check(self, name: str, passed: bool) -> None:
        self.checks.append((name, passed))

    def finish_checks(self) -> None:
        if len(self.records) > 1:
            digests = [r["sha256"] for r in self.records]
            self.check("every call writes the same report files", all(d == digests[0] for d in digests))


def untraced(run: Run, seconds: float) -> dict:
    walls = []
    started = time.perf_counter()
    while True:
        wall, _ = run.call()
        walls.append(wall)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            break
    rates = [run.plan.device_ticks / w for w in walls]
    print(f"calls {len(walls)}: wall s {[round(w, 3) for w in walls]}")
    return {"device_ticks_per_s": statistics.median(rates)}


def traced(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics of the traced calls, and per-function numbers for the summary."""
    tracer = Tracer(layers.layer_modules(), "fleetsec", layers.HOOKS)
    plain_walls, traced_walls, counts = [], [], []
    started = time.perf_counter()
    while True:
        wall, plain_record = run.call()
        plain_walls.append(wall)
        with tracer:
            wall, traced_record = run.call()
        traced_walls.append(wall)
        counts.append(dict(tracer.counters))
        tracer.counters.clear()
        run.check("traced report files are byte-identical to untraced", traced_record["sha256"] == plain_record["sha256"])
        pair = statistics.median(plain_walls) + statistics.median(traced_walls)
        if time.perf_counter() - started + pair > seconds:
            break

    unmatched = tracer.unmatched_hooks()
    if unmatched:
        print(f"warning: counter hooks match no fleetsec callable: {unmatched}", file=sys.stderr)
    n = len(traced_walls)
    summary = tracer.summary(sum(traced_walls))
    self_total = sum(entry["self_s"] for entry in summary["layers"].values())
    run.check(
        "layer self times plus unattributed time equal the traced wall time",
        abs(self_total + summary["unattributed_s"] - summary["wall_s"]) <= 1e-9 * max(1.0, summary["wall_s"]),
    )
    per_call = [layers.count_metrics(c, summary["layers"]["matrix_profile"]["self_s"] / n) for c in counts]
    run.check("traced counts repeat across calls", all(p == per_call[0] for p in per_call))
    if run.plan.scenario is not None:
        verdicts = {k.rsplit(".", 1)[1]: v for k, v in per_call[0].items() if k.startswith("update_protocol.verdicts.") and v}
        run.check("traced verdicts match the event log", verdicts == run.records[-1]["verdicts"])

    metrics = {}
    for layer, entry in summary["layers"].items():
        metrics[f"{layer}.self_s"] = entry["self_s"] / n
        metrics[f"{layer}.calls"] = entry["calls"] / n
        metrics[f"{layer}.call_us_p50"] = entry["call_us_p50"]
        metrics[f"{layer}.call_us_tail"] = entry["call_us_tail"]
        metrics[f"{layer}.call_us_tail_pct"] = entry["call_us_tail_pct"]
    metrics.update(per_call[0])
    metrics["trace.wall_s"] = summary["wall_s"] / n
    metrics["trace.unattributed_s"] = summary["unattributed_s"] / n
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)

    with open(spans_path, "w", encoding="utf-8") as fh:
        for index, (span, own) in enumerate(zip(tracer.spans, tracer.self_times())):
            fh.write(json.dumps({
                "id": index, "parent": span.parent, "layer": span.layer, "name": span.name,
                "start_us": round(span.start * 1e6, 3), "dur_us": round((span.end - span.start) * 1e6, 3),
                "self_us": round(own * 1e6, 3),
            }) + "\n")
    print(f"pairs {n}: untraced wall s {[round(w, 3) for w in plain_walls]}, traced {[round(w, 3) for w in traced_walls]}")
    print(NO_WAIT_NOTE)
    return metrics, tracer.grouped(lambda span: span.name)


UNITS = {"setup_s": "s", "device_ticks_per_s": "device-ticks/s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "pct"
    if "_us_" in name:
        return "us"
    if name.endswith("ns_per_row"):
        return "ns"
    if name.endswith("_share"):
        return "fraction"
    if name == "report.bytes_written":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    try:
        cli = prepare.import_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan = workloads.make_plan(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        in_dir = work / "inputs"
        setup_times = measure_setup(args.workload, args.seed, in_dir)
        run = Run(cli, plan, in_dir, work)
        functions = None
        if args.trace:
            metrics, functions = traced(run, args.seconds, OUT_DIR / f"{tag}-spans.jsonl")
        else:
            metrics = untraced(run, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.finish_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [name for name, passed in run.checks if not passed]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(loadavg),
        "setup_s_samples": setup_times,
        "checks": [{"name": name, "passed": passed} for name, passed in run.checks],
        "record": run.records[0],
        "metrics": metrics,
    }
    if functions is not None:
        summary["functions"] = functions
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    units = UNITS if not args.trace else {name: per_layer_unit(name) for name in metrics}
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"check_fail_share {len(failed) / len(run.checks):.6g} fraction ({len(failed)} of {len(run.checks)} checks failed)")
    for name in failed:
        print(f"FAILED check: {name}")
    print("fingerprint " + json.dumps(summary["fingerprint"], sort_keys=True))
    print("record " + json.dumps(run.records[0], sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(run.checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
