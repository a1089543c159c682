"""The fleetsec layers the traced run times, and the counts taken at their edges.

A layer is one module. `wire` and `errors` are not layers: their time
folds into whichever layer calls them. Hooks run after the call they are
keyed on (a qualified name), or after every call that enters the layer
they are keyed on (a layer name), and add to the tracer's counters.
Hooks read arguments by position, as fleetsec passes them. Counter keys
starting with "_" hold hook state, not metrics.
"""

from __future__ import annotations

import importlib
from pathlib import Path

LAYER_MODULES = {
    "cli": "fleetsec.cli",
    "scenario": "fleetsec.fleet_sim.scenario",
    "report": "fleetsec.fleet_sim.report",
    "telemetry": "fleetsec.telemetry",
    "detector": "fleetsec.detector",
    "matrix_profile": "fleetsec.matrix_profile",
    "update_protocol": "fleetsec.update_protocol",
    "tsa": "fleetsec.tsa",
    "keystore": "fleetsec.keystore",
    "transport": "fleetsec.fleet_sim.transport",
    "identity": "fleetsec.identity",
    "deception": "fleetsec.deception",
}

VERDICTS = ("Accept", "BadPublisherSig", "UntrustedTimestamp", "DigestMismatch", "Rollback", "Expired", "FailState")

COUNT_METRICS = (
    "scenario.events_scheduled",
    "scenario.telemetry_rows",
    "scenario.log_events",
    "report.bytes_written",
    "telemetry.rows_ingested",
    "telemetry.rows_scanned",
    "matrix_profile.rows",
    "detector.anomalies",
    *(f"update_protocol.verdicts.{v}" for v in VERDICTS),
    "keystore.verify_calls",
    "transport.frames_sent",
    "transport.frames_dropped",
    "transport.retries",
    "identity.sessions_created",
    "identity.claims_refused",
    "deception.alerts",
)


def layer_modules() -> dict:
    return {layer: importlib.import_module(name) for layer, name in LAYER_MODULES.items()}


def _add(c: dict, key: str, n: int = 1) -> None:
    c[key] = c.get(key, 0) + n


# - scenario and report -


def _schedule(c, args, kwargs, result, exc):
    sim, when, handler, *handler_args = args
    if when < sim.cfg.duration:
        _add(c, "scenario.events_scheduled")
        # a delivery scheduled with attempt > 1 is a retry
        if getattr(handler, "__name__", "") == "_deliver_update" and handler_args[-1] > 1:
            _add(c, "transport.retries")


def _run(c, args, kwargs, result, exc):
    if exc is None:
        _add(c, "scenario.telemetry_rows", len(result.telemetry))
        _add(c, "scenario.log_events", len(result.events))


def _write_report(c, args, kwargs, result, exc):
    if exc is None:
        _add(c, "report.bytes_written", sum(p.stat().st_size for p in Path(result).iterdir()))


# - telemetry, detector, profile -


def _ingest_csv(c, args, kwargs, result, exc):
    if exc is None:
        _add(c, "telemetry.rows_ingested", len(result))


def _bucketize(c, args, kwargs, result, exc):
    _add(c, "telemetry.rows_scanned", len(args[0]))


def _profiles(result) -> list:
    if isinstance(result, (list, tuple)):
        return [r for r in result if hasattr(r, "distances")]
    return [result] if hasattr(result, "distances") else []


def _matrix_profile_layer(c, args, kwargs, result, exc):
    if exc is None:
        _add(c, "matrix_profile.rows", sum(p.distances.size for p in _profiles(result)))


def _detector_layer(c, args, kwargs, result, exc):
    if exc is None and isinstance(result, list):
        _add(c, "detector.anomalies", sum(hasattr(r, "threshold") for r in result))


# - updates, keys, transport -


def _device_verify(c, args, kwargs, result, exc):
    if exc is None:
        _add(c, f"update_protocol.verdicts.{'Accept' if result.accepted else result.reason.value}")


def _apply_update(c, args, kwargs, result, exc):
    if args[0].mode.value == "FailState":
        _add(c, "update_protocol.verdicts.FailState")
    # frames of the delivery that reached verification were useful
    _add(c, "_useful_frames", c.pop("_pending_frames", 0))


def _interrupt_update(c, args, kwargs, result, exc):
    c.pop("_pending_frames", None)


def _verify(c, args, kwargs, result, exc):
    pub, message, signature = args
    seen = c.setdefault("_verify_seen", set())
    key = (pub.public_bytes, bytes(message), bytes(signature))
    if key in seen:
        _add(c, "_verify_repeats")
    seen.add(key)
    _add(c, "keystore.verify_calls")


def _deliver(c, args, kwargs, result, exc):
    frames = args[1]
    if exc is None:
        _add(c, "transport.frames_sent", len(frames))
        _add(c, "transport.frames_dropped", len(frames) - len(result))
        c["_pending_frames"] = len(frames) if len(result) == len(frames) else 0


# - identity, deception -


def _device_connect(c, args, kwargs, result, exc):
    if exc is None:
        _add(c, "identity.sessions_created")


def _claim(c, args, kwargs, result, exc):
    if exc is not None:
        _add(c, "identity.claims_refused")


def _alert(c, args, kwargs, result, exc):
    if result is not None:
        _add(c, "deception.alerts")


HOOKS = {
    "fleetsec.fleet_sim.scenario.FleetSimulation.schedule": _schedule,
    "fleetsec.fleet_sim.scenario.FleetSimulation.run": _run,
    "fleetsec.fleet_sim.report.write_report": _write_report,
    "fleetsec.telemetry.ingest_csv": _ingest_csv,
    "fleetsec.telemetry.bucketize": _bucketize,
    "matrix_profile": _matrix_profile_layer,
    "detector": _detector_layer,
    "fleetsec.update_protocol.device_verify": _device_verify,
    "fleetsec.update_protocol.apply_update": _apply_update,
    "fleetsec.update_protocol.interrupt_update": _interrupt_update,
    "fleetsec.keystore.verify": _verify,
    "fleetsec.fleet_sim.transport.SimLink.deliver": _deliver,
    "fleetsec.identity.DeviceRegistry.device_connect": _device_connect,
    "fleetsec.identity.DeviceRegistry.claim": _claim,
    "fleetsec.deception.check_access": _alert,
    "fleetsec.deception.PortCanaries.record_connection": _alert,
}


def count_metrics(c: dict, matrix_profile_self_s: float) -> dict:
    """Every count metric of one traced call, zero where the layer did no work."""
    out = {name: c.get(name, 0) for name in COUNT_METRICS}
    rows = out["matrix_profile.rows"]
    out["matrix_profile.ns_per_row"] = matrix_profile_self_s * 1e9 / rows if rows else 0.0
    calls = out["keystore.verify_calls"]
    out["keystore.verify_repeat_share"] = c.get("_verify_repeats", 0) / calls if calls else 0.0
    sent = out["transport.frames_sent"]
    out["transport.useful_frame_share"] = c.get("_useful_frames", 0) / sent if sent else 0.0
    return out
