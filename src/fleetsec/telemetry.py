"""Network event ingestion and per-device telemetry series construction.

Raw connection events (packets, session opens/closes) are reduced to
uniformly sampled per-device time series, the input the anomaly detector
expects. Time is integer ticks throughout, never wall clock, so simulator
runs and tests stay deterministic.

Sampling semantics, fixed by the series format:

* counting metrics (packets_in/out, sessions_in/out) sum matching events
  per bucket over [start, end);
* open_connections is sampled at each bucket start boundary as the number
  of session opens minus closes up to and including that tick, so opens
  and closes before `start` contribute to the initial count.
"""

from __future__ import annotations

import bisect
import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, TextIO

import numpy as np

from .errors import FleetsecError


class Direction(str, Enum):
    INBOUND = "inbound"
    OUTBOUND = "outbound"


class EventKind(str, Enum):
    SESSION_OPEN = "session_open"
    SESSION_CLOSE = "session_close"
    PACKET = "packet"


class Metric(str, Enum):
    PACKETS_IN = "packets_in"
    PACKETS_OUT = "packets_out"
    OPEN_CONNECTIONS = "open_connections"
    SESSIONS_IN = "sessions_in"
    SESSIONS_OUT = "sessions_out"


CSV_HEADER = ["time", "device_id", "direction", "kind", "size"]

# (kind, direction) selector for each counting metric.
_COUNTING = {
    Metric.PACKETS_IN: (EventKind.PACKET, Direction.INBOUND),
    Metric.PACKETS_OUT: (EventKind.PACKET, Direction.OUTBOUND),
    Metric.SESSIONS_IN: (EventKind.SESSION_OPEN, Direction.INBOUND),
    Metric.SESSIONS_OUT: (EventKind.SESSION_OPEN, Direction.OUTBOUND),
}

# TelemetryCounts column behind each metric. The others read zero: the
# simulator sends nothing outbound, and no session outlives its tick.
_COLUMNS = {Metric.PACKETS_IN: "packets", Metric.SESSIONS_IN: "sessions"}
PACKET_SIZE = 64


class EmptyRangeError(FleetsecError):
    """start >= end leaves no buckets to fill."""


class NegativeIntervalError(FleetsecError):
    """Bucket interval must be a positive number of ticks."""


class ParseError(FleetsecError):
    """A CSV row could not be turned into a ConnectionEvent."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class UnknownEnumError(ParseError):
    """A direction or kind column holds an unknown value."""


@dataclass(frozen=True)
class ConnectionEvent:
    """One observed network event attributed to a device."""

    device_id: str
    time: int
    direction: Direction
    kind: EventKind
    size: int = 0

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")
        if self.size < 0:
            raise ValueError(f"event size must be non-negative, got {self.size}")
        if self.kind is not EventKind.PACKET and self.size != 0:
            raise ValueError("size must be 0 for session events")


@dataclass(frozen=True)
class TelemetrySeries:
    """Uniformly sampled per-device, per-metric time series."""

    device_id: str
    metric: Metric
    interval: int
    values: tuple[float, ...]
    start_time: int

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError("interval must be positive")

    def prefix(self, n_buckets: int) -> "TelemetrySeries":
        """First n_buckets of the series, e.g. a calibration window."""
        return TelemetrySeries(
            device_id=self.device_id,
            metric=self.metric,
            interval=self.interval,
            values=self.values[:n_buckets],
            start_time=self.start_time,
        )


def bucketize(
    events: Iterable[ConnectionEvent],
    device_id: str,
    metric: Metric | str,
    interval: int,
    start: int,
    end: int,
) -> TelemetrySeries:
    """Reduce events to one value per bucket over [start, end).

    Events need not be sorted. Counting metrics sum matching events per
    bucket; open_connections reports the open-session count at each bucket
    start boundary. Events outside the range are ignored, except that
    opens/closes at or before a boundary feed the open count.
    """
    metric = Metric(metric)
    if interval <= 0:
        raise NegativeIntervalError(f"interval must be > 0, got {interval}")
    if start >= end:
        raise EmptyRangeError(f"empty range [{start}, {end})")

    n_buckets = (end - start + interval - 1) // interval
    mine = [e for e in events if e.device_id == device_id]

    if metric is Metric.OPEN_CONNECTIONS:
        deltas = sorted(
            (e.time, 1 if e.kind is EventKind.SESSION_OPEN else -1)
            for e in mine
            if e.kind in (EventKind.SESSION_OPEN, EventKind.SESSION_CLOSE)
        )
        times = [t for t, _ in deltas]
        running = 0
        prefix = []
        for _, d in deltas:
            running += d
            prefix.append(running)
        values = []
        for k in range(n_buckets):
            boundary = start + k * interval
            idx = bisect.bisect_right(times, boundary)
            values.append(float(prefix[idx - 1]) if idx else 0.0)
        return TelemetrySeries(device_id, metric, interval, tuple(values), start)

    kind, direction = _COUNTING[metric]
    counts = [0.0] * n_buckets
    for e in mine:
        if e.kind is kind and e.direction is direction and start <= e.time < end:
            counts[(e.time - start) // interval] += 1.0
    return TelemetrySeries(device_id, metric, interval, tuple(counts), start)


def ingest_csv(stream: TextIO) -> list[ConnectionEvent]:
    """Parse a `time,device_id,direction,kind,size` CSV into events.

    Rows are preserved in file order. Data rows are numbered from 1 for
    error reporting; `size` may be empty or absent on session rows.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(0, "missing header") from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(0, f"bad header {header!r}, expected {CSV_HEADER!r}")

    events = []
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) not in (4, 5):
            raise ParseError(row_no, f"expected 4 or 5 columns, got {len(row)}")
        time_s, device_id, direction_s, kind_s = (c.strip() for c in row[:4])
        size_s = row[4].strip() if len(row) == 5 else ""

        try:
            direction = Direction(direction_s)
        except ValueError:
            raise UnknownEnumError(row_no, f"unknown direction {direction_s!r}") from None
        try:
            kind = EventKind(kind_s)
        except ValueError:
            raise UnknownEnumError(row_no, f"unknown kind {kind_s!r}") from None

        try:
            time = int(time_s)
            size = int(size_s) if size_s else 0
            event = ConnectionEvent(device_id, time, direction, kind, size)
        except ValueError as exc:
            raise ParseError(row_no, str(exc)) from None
        events.append(event)
    return events


def events_to_csv(events: Iterable[ConnectionEvent], stream: TextIO) -> None:
    """Write events in the ingest_csv format, one row per event."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for e in events:
        writer.writerow([e.time, e.device_id, e.direction.value, e.kind.value, e.size])


@dataclass(eq=False)
class TelemetryCounts:
    """The simulator's telemetry: inbound packets and sessions per device and tick.

    Row i of each (devices, ticks) array is device_ids[i]. A packet is one
    CSV row; a session is an open and a close row in the same tick.
    """

    device_ids: tuple[str, ...]
    packets: np.ndarray
    sessions: np.ndarray

    def __len__(self) -> int:
        return int(self.packets.sum() + 2 * self.sessions.sum())

    def counts(self, metric: Metric) -> np.ndarray:
        """Per-tick counts behind a metric, as `bucketize` counts the CSV's events."""
        column = _COLUMNS.get(metric)
        return np.zeros_like(self.packets) if column is None else getattr(self, column)

    def to_csv(self, stream: TextIO) -> None:
        """The ingest_csv format by tick, then row; a device's packets before its sessions."""
        stream.write(",".join(CSV_HEADER) + "\n")
        kinds = (EventKind.PACKET, EventKind.SESSION_OPEN, EventKind.SESSION_CLOSE)
        tails = [[_row_tail(d, kind) for kind in kinds] for d in self.device_ids]
        for t, (packets, sessions) in enumerate(zip(self.packets.T.tolist(), self.sessions.T.tolist())):
            stream.write("".join(
                f"{t}{packet}" * n_packets + f"{t}{opened}{t}{closed}" * n_sessions
                for (packet, opened, closed), n_packets, n_sessions in zip(tails, packets, sessions)
            ))


def _row_tail(device_id: str, kind: EventKind) -> str:
    """An inbound CSV row after its time column, quoted as events_to_csv quotes it."""
    size = PACKET_SIZE if kind is EventKind.PACKET else 0
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", device_id, "inbound", kind.value, size])
    return buf.getvalue()
