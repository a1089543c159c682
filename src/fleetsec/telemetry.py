"""Network event ingestion and per-device telemetry series construction.

Telemetry is held as `TelemetryCounts`, event counts per device and tick
for each (kind, direction), kept only for the (device, tick) cells that
hold events; the simulator fills one with a cell for every device and
tick, and `ingest_csv` reads one from CSV in memory that grows with the
file's rows. `bucketize` reduces a device's counts to the
uniformly sampled series the anomaly detector expects. Time is integer
ticks throughout, never wall clock, so simulator runs and tests stay
deterministic.

Sampling semantics, fixed by the series format:

* counting metrics (packets_in/out, sessions_in/out) sum matching events
  per bucket over [start, end);
* open_connections is sampled at each bucket start boundary as the number
  of session opens minus closes up to and including that tick, so opens
  and closes before `start` contribute to the initial count.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, TextIO

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


Column = tuple[EventKind, Direction]

CSV_HEADER = ["time", "device_id", "direction", "kind", "size"]
PACKET_SIZE = 64  # the size column of every packet row written
_CSV_CELLS = 1024  # cells to_csv formats at a time
_CSV_WINDOWS = 16  # tick windows to_csv sorts one at a time
_BLOCK_ROWS = 8192  # CSV rows ingest_csv holds at a time

# Every column, in the order a device's rows in one tick are written.
CSV_ORDER: tuple[Column, ...] = tuple(
    (kind, direction)
    for kind in (EventKind.PACKET, EventKind.SESSION_OPEN, EventKind.SESSION_CLOSE)
    for direction in Direction
)

# The signed columns whose running total each metric reads: a counting
# metric is the total's rise over a bucket, open_connections its value at
# each bucket start.
_TERMS: dict[Metric, dict[Column, int]] = {
    Metric.PACKETS_IN: {(EventKind.PACKET, Direction.INBOUND): 1},
    Metric.PACKETS_OUT: {(EventKind.PACKET, Direction.OUTBOUND): 1},
    Metric.SESSIONS_IN: {(EventKind.SESSION_OPEN, Direction.INBOUND): 1},
    Metric.SESSIONS_OUT: {(EventKind.SESSION_OPEN, Direction.OUTBOUND): 1},
    Metric.OPEN_CONNECTIONS: {
        (kind, direction): sign
        for kind, sign in ((EventKind.SESSION_OPEN, 1), (EventKind.SESSION_CLOSE, -1))
        for direction in Direction
    },
}


class EmptyRangeError(FleetsecError):
    """start >= end leaves no buckets to fill."""


class NegativeIntervalError(FleetsecError):
    """Bucket interval must be a positive number of ticks."""


class ParseError(FleetsecError):
    """A telemetry CSV row could not be parsed."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class UnknownEnumError(ParseError):
    """A direction or kind column holds an unknown value."""


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


@dataclass(eq=False)
class TelemetryCounts:
    """Event counts per device and tick, one cell per (device, tick) that has events.

    `ticks` is sorted and distinct. Device i's cells are positions
    starts[i]:starts[i + 1]; cells[p] is the index into `ticks` of cell p,
    ascending within a device, and columns[c][p] its count for column c.
    A column missing from `columns` reads zero. Memory grows with the
    cells, not with devices x ticks. len() is the number of events, one
    CSV row each.
    """

    device_ids: tuple[str, ...]
    ticks: np.ndarray
    starts: np.ndarray
    cells: np.ndarray
    columns: dict[Column, np.ndarray]

    @classmethod
    def dense(
        cls, device_ids: tuple[str, ...], ticks: np.ndarray, columns: dict[Column, np.ndarray]
    ) -> "TelemetryCounts":
        """A cell for every device and tick.

        Each column is a C-contiguous (devices, ticks) array, kept as a
        view, so writes to it show in the counts.
        """
        n, width = len(device_ids), len(ticks)
        return cls(
            device_ids,
            ticks,
            np.arange(0, n * width + 1, width) if width else np.zeros(n + 1, np.int64),
            np.tile(np.arange(width, dtype=np.min_scalar_type(width)), n),
            {column: counts.reshape(-1) for column, counts in columns.items()},
        )

    def __len__(self) -> int:
        return sum(int(counts.sum()) for counts in self.columns.values())

    def bucket(
        self, rows: list[int], metric: Metric, interval: int, start: int, end: int
    ) -> np.ndarray:
        """The metric per bucket over [start, end) for the given device rows, as (rows, buckets)."""
        if interval <= 0:
            raise NegativeIntervalError(f"interval must be > 0, got {interval}")
        if start >= end:
            raise EmptyRangeError(f"empty range [{start}, {end})")
        edges = np.arange(start, end, interval)
        gauge = metric is Metric.OPEN_CONNECTIONS
        # each boundary as the number of ticks before it: a bucket's count
        # ends before the next edge, an open count takes in its edge's tick
        if gauge:
            bounds = np.searchsorted(self.ticks, edges, side="right")
        else:
            bounds = np.searchsorted(self.ticks, np.append(edges, end), side="left")
        terms = [
            (self.columns[column], sign)
            for column, sign in _TERMS[metric].items()
            if column in self.columns
        ]
        values = np.zeros((len(rows), len(bounds)), np.int64)
        for i, row in enumerate(rows):
            lo, hi = self.starts[row], self.starts[row + 1]
            # total[k] sums the signed columns over the device's first k cells
            total = np.zeros(hi - lo + 1, np.int64)
            for counts, sign in terms:
                total[1:] += sign * counts[lo:hi]
            np.cumsum(total, out=total)
            values[i] = total[np.searchsorted(self.cells[lo:hi], bounds)]
        return (values if gauge else np.diff(values, axis=1)).astype(np.float64)

    def to_csv(self, stream: TextIO) -> None:
        """The ingest_csv format by tick, then device in row order, then column."""
        stream.write(",".join(CSV_HEADER) + "\n")
        order = [column for column in CSV_ORDER if column in self.columns]
        if not order:
            return
        tails = [_row_tail(device_id, *column) for device_id in self.device_ids for column in order]
        for cells in self._by_tick():
            counts = np.stack([self.columns[column][cells] for column in order], axis=1)
            nonzero = np.flatnonzero(counts)  # into counts, cell-major like tails
            cell, column = np.divmod(nonzero, len(order))
            row = np.searchsorted(self.starts, cells[cell], side="right") - 1
            tail = row * len(order) + column
            times = self.ticks[self.cells[cells[cell]]]
            rows = zip(times.tolist(), tail.tolist(), counts.ravel()[nonzero].tolist())
            stream.write("".join([f"{t}{tails[i]}" * n for t, i, n in rows]))

    def _by_tick(self) -> Iterator[np.ndarray]:
        """Cell positions by tick, then device, _CSV_CELLS at a time.

        The ticks are taken in _CSV_WINDOWS windows, so no one sort holds
        every cell; a stable sort keeps each tick's cells in device order.
        """
        edges = np.linspace(0, len(self.ticks), _CSV_WINDOWS + 1).astype(np.int64)
        for low, high in zip(edges[:-1].tolist(), edges[1:].tolist()):
            picked = np.flatnonzero((self.cells >= low) & (self.cells < high))
            picked = picked[np.argsort(self.cells[picked], kind="stable")]
            for first in range(0, len(picked), _CSV_CELLS):
                yield picked[first : first + _CSV_CELLS]


def _row_tail(device_id: str, kind: EventKind, direction: Direction) -> str:
    """A CSV row after its time column, quoted as csv.writer quotes it."""
    size = PACKET_SIZE if kind is EventKind.PACKET else 0
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", device_id, direction.value, kind.value, size])
    return buf.getvalue()


def bucketize(
    telemetry: TelemetryCounts,
    device_id: str,
    metric: Metric | str,
    interval: int,
    start: int,
    end: int,
) -> TelemetrySeries:
    """Reduce one device's counts to one value per bucket over [start, end).

    Counting metrics sum matching events per bucket; open_connections
    reports the open-session count at each bucket start boundary. Events
    outside the range are ignored, except that opens/closes at or before a
    boundary feed the open count. A device without events reads zero.
    """
    metric = Metric(metric)
    rows = [i for i, known in enumerate(telemetry.device_ids) if known == device_id]
    values = telemetry.bucket(rows, metric, interval, start, end).sum(axis=0)  # of 0 or 1 rows
    return TelemetrySeries(device_id, metric, interval, tuple(values.tolist()), start)


def ingest_csv(stream: TextIO) -> TelemetryCounts:
    """Parse a `time,device_id,direction,kind,size` CSV into counts.

    Each distinct row in a block of rows is parsed once, and memory grows
    with the distinct (column, device, time) cells, not with the rows.
    Data rows are numbered from 1, and an error names the first bad row in
    file order. `size` may be empty or absent on session rows; it is
    checked, then dropped, as no metric reads it. Devices keep the order
    of their first row; `ticks` holds the file's distinct times.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(0, "missing header") from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(0, f"bad header {header!r}, expected {CSV_HEADER!r}")

    # rows repeat in runs (one per event in a tick), so each block's
    # distinct rows are parsed once, in order of their first row number
    cell_counts: Counter[tuple[Column, str, int]] = Counter()
    row_numbers = itertools.count(1)
    for block in iter(lambda: list(itertools.islice(reader, _BLOCK_ROWS)), []):
        first_row: dict[tuple[str, ...], int] = {}
        repeats = Counter(map(first_row.setdefault, map(tuple, block), row_numbers))
        for row, row_no in first_row.items():
            if any(c.strip() for c in row):  # blank rows are skipped
                cell_counts[_parse_row(row, row_no)] += repeats[row_no]
    events = [(*cell, n) for cell, n in cell_counts.items()]
    device_row = {device_id: i for i, device_id in enumerate(dict.fromkeys(e[1] for e in events))}
    column_code = {column: k for k, column in enumerate(CSV_ORDER)}
    device = np.array([device_row[e[1]] for e in events], np.int64)
    kind = np.array([column_code[e[0]] for e in events], np.int64)
    n = np.array([e[3] for e in events], np.int64)
    ticks, tick = np.unique(np.array([e[2] for e in events], np.int64), return_inverse=True)
    # one cell per distinct (device, tick), ordered by device, then tick
    _, first, cell = np.unique(device * len(ticks) + tick, return_index=True, return_inverse=True)
    columns: dict[Column, np.ndarray] = {}
    for column, code in column_code.items():
        if (mask := kind == code).any():
            columns[column] = np.zeros(len(first), np.int64)
            columns[column][cell[mask]] = n[mask]  # a column meets each cell once
    return TelemetryCounts(
        tuple(device_row),
        ticks,
        np.searchsorted(device[first], np.arange(len(device_row) + 1)),
        tick[first].astype(np.min_scalar_type(len(ticks))),
        columns,
    )


def _parse_row(row: tuple[str, ...], row_no: int) -> tuple[Column, str, int]:
    """One non-blank CSV row as (column, device_id, time)."""
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
    except ValueError as exc:
        raise ParseError(row_no, str(exc)) from None
    if time < 0:
        raise ParseError(row_no, f"event time must be non-negative, got {time}")
    if time >= 2**63:  # ticks are int64
        raise ParseError(row_no, f"event time must be below 2**63, got {time}")
    if size < 0:
        raise ParseError(row_no, f"event size must be non-negative, got {size}")
    if kind is not EventKind.PACKET and size != 0:
        raise ParseError(row_no, "size must be 0 for session events")
    return (kind, direction), device_id, time
