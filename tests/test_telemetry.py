import io
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fleetsec.telemetry as telemetry_module
from fleetsec.telemetry import (
    CSV_HEADER,
    CSV_ORDER,
    PACKET_SIZE,
    Direction,
    EmptyRangeError,
    EventKind,
    Metric,
    NegativeIntervalError,
    ParseError,
    TelemetryCounts,
    TelemetrySeries,
    UnknownEnumError,
    bucketize,
    ingest_csv,
)

from helpers import ConnectionEvent, bucketize_events, events_to_csv, ingest_events


def ev(time, kind, direction=Direction.INBOUND, device="d", size=0):
    return ConnectionEvent(device, time, direction, kind, size)


def csv_text(events) -> str:
    out = io.StringIO()
    events_to_csv(events, out)
    return out.getvalue()


def telemetry(events) -> TelemetryCounts:
    """Events as the library holds them: written as CSV, then ingested."""
    return ingest_csv(io.StringIO(csv_text(events)))


def cells(counts: TelemetryCounts) -> Counter:
    """Nonzero counts keyed by (device, column, tick)."""
    out = Counter()
    for row, device in enumerate(counts.device_ids):
        for p in range(counts.starts[row], counts.starts[row + 1]):
            for column, array in counts.columns.items():
                if array[p]:
                    out[device, column, int(counts.ticks[counts.cells[p]])] += int(array[p])
    return out


def event_cells(events) -> Counter:
    return Counter((e.device_id, (e.kind, e.direction), e.time) for e in events)


class TestBucketize:
    def test_no_events_gives_zero_buckets(self):
        series = bucketize(telemetry([]), "d", Metric.PACKETS_IN, 1, 0, 5)
        assert list(series.values) == [0.0, 0.0, 0.0, 0.0, 0.0]

    def test_open_connections_sampled_at_bucket_boundaries(self):
        events = [
            ev(0, EventKind.SESSION_OPEN),
            ev(3, EventKind.SESSION_OPEN),
            ev(7, EventKind.SESSION_CLOSE),
        ]
        series = bucketize(telemetry(events), "d", Metric.OPEN_CONNECTIONS, 5, 0, 10)
        # 1 open at t=0; both open at t=5, the close at t=7 lands after
        assert list(series.values) == [1.0, 2.0]

    def test_packet_counts_per_bucket(self):
        events = [ev(t, EventKind.PACKET, size=64) for t in (1, 2, 9)]
        series = bucketize(telemetry(events), "d", Metric.PACKETS_IN, 5, 0, 10)
        assert list(series.values) == [2.0, 1.0]

    def test_direction_filter(self):
        events = [
            ev(0, EventKind.PACKET, Direction.INBOUND, size=1),
            ev(0, EventKind.PACKET, Direction.OUTBOUND, size=1),
        ]
        inbound = bucketize(telemetry(events), "d", Metric.PACKETS_IN, 1, 0, 1)
        outbound = bucketize(telemetry(events), "d", Metric.PACKETS_OUT, 1, 0, 1)
        assert list(inbound.values) == [1.0]
        assert list(outbound.values) == [1.0]

    def test_other_devices_ignored(self):
        events = [ev(0, EventKind.PACKET, size=9, device="other")]
        series = bucketize(telemetry(events), "d", Metric.PACKETS_IN, 1, 0, 2)
        assert list(series.values) == [0.0, 0.0]

    def test_opens_before_start_prime_the_open_count(self):
        events = [ev(0, EventKind.SESSION_OPEN), ev(1, EventKind.SESSION_OPEN)]
        series = bucketize(telemetry(events), "d", Metric.OPEN_CONNECTIONS, 2, 4, 8)
        assert list(series.values) == [2.0, 2.0]

    def test_events_outside_range_do_not_count(self):
        events = [ev(99, EventKind.PACKET, size=1)]
        series = bucketize(telemetry(events), "d", Metric.PACKETS_IN, 1, 0, 3)
        assert sum(series.values) == 0.0

    def test_empty_range_rejected(self):
        with pytest.raises(EmptyRangeError):
            bucketize(telemetry([]), "d", Metric.PACKETS_IN, 1, 5, 5)

    def test_bad_interval_rejected(self):
        with pytest.raises(NegativeIntervalError):
            bucketize(telemetry([]), "d", Metric.PACKETS_IN, 0, 0, 5)

    def test_series_metadata(self):
        series = bucketize(telemetry([]), "dev-7", Metric.SESSIONS_OUT, 3, 6, 12)
        assert series.device_id == "dev-7"
        assert series.metric is Metric.SESSIONS_OUT
        assert series.interval == 3
        assert series.start_time == 6


@given(
    times=st.lists(st.integers(min_value=0, max_value=99), min_size=0, max_size=60),
    interval=st.integers(min_value=1, max_value=10),
)
def test_counting_metrics_conserve_event_totals(times, interval):
    events = [ev(t, EventKind.PACKET, size=1) for t in times]
    series = bucketize(telemetry(events), "d", Metric.PACKETS_IN, interval, 0, 100)
    assert sum(series.values) == sum(1 for t in times if t < 100)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
def test_bucketize_is_permutation_invariant(times):
    events = [ev(t, EventKind.PACKET, size=1) for t in times]
    shuffled = list(events)
    random.Random(11).shuffle(shuffled)
    a = bucketize(telemetry(events), "d", Metric.PACKETS_IN, 5, 0, 55)
    b = bucketize(telemetry(shuffled), "d", Metric.PACKETS_IN, 5, 0, 55)
    assert a == b


def test_open_connections_never_negative_with_wellformed_sessions():
    rng = random.Random(3)
    events = []
    for t in range(0, 200, 2):
        events.append(ev(t, EventKind.SESSION_OPEN))
        events.append(ev(t + rng.randrange(1, 40), EventKind.SESSION_CLOSE))
    series = bucketize(telemetry(events), "d", Metric.OPEN_CONNECTIONS, 7, 0, 250)
    assert all(v >= 0 for v in series.values)


class TestIngestCsv:
    def test_header_only_gives_empty_list(self):
        counts = ingest_csv(io.StringIO(",".join(CSV_HEADER) + "\n"))
        assert len(counts) == 0
        assert cells(counts) == Counter()

    def test_row_maps_to_event_fields(self):
        rows = ingest_csv(
            io.StringIO("time,device_id,direction,kind,size\n5,dev1,inbound,packet,64\n")
        )
        assert cells(rows) == event_cells(
            [ConnectionEvent("dev1", 5, Direction.INBOUND, EventKind.PACKET, 64)]
        )

    def test_malformed_time_names_the_row(self):
        stream = io.StringIO("time,device_id,direction,kind,size\nx,dev1,inbound,packet,64\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(stream)
        assert exc.value.row == 1

    def test_unknown_kind_rejected(self):
        stream = io.StringIO("time,device_id,direction,kind,size\n1,dev1,inbound,nope,0\n")
        with pytest.raises(UnknownEnumError):
            ingest_csv(stream)

    def test_session_rows_default_size_zero(self):
        rows = ingest_csv(
            io.StringIO("time,device_id,direction,kind,size\n2,dev1,inbound,session_open,\n")
        )
        assert cells(rows) == event_cells([ev(2, EventKind.SESSION_OPEN, device="dev1")])

    def test_round_trip_through_writer(self):
        events = [
            ev(1, EventKind.PACKET, size=10),
            ev(2, EventKind.SESSION_OPEN, Direction.OUTBOUND),
            ev(3, EventKind.SESSION_CLOSE),
        ]
        assert cells(telemetry(events)) == event_cells(events)


@pytest.mark.parametrize("block", [1, 3, 8192])
def test_row_blocks_change_neither_counts_nor_row_numbers(monkeypatch, block):
    monkeypatch.setattr(telemetry_module, "_BLOCK_ROWS", block)
    good = ",".join(CSV_HEADER) + "\n" + "5,d,inbound,packet,64\n" * 4 + "\n"
    good += "6,e,outbound,session_open,\n" * 3
    assert cells(ingest_csv(io.StringIO(good))) == Counter({
        ("d", (EventKind.PACKET, Direction.INBOUND), 5): 4,
        ("e", (EventKind.SESSION_OPEN, Direction.OUTBOUND), 6): 3,
    })
    with pytest.raises(ParseError, match=r"^row 9: unknown kind 'nope'"):
        ingest_csv(io.StringIO(good + "7,d,inbound,nope,\nx,d,inbound,packet,64\n"))


def test_event_validation():
    with pytest.raises(ValueError):
        ConnectionEvent("d", -1, Direction.INBOUND, EventKind.PACKET)
    with pytest.raises(ValueError):
        ConnectionEvent("d", 0, Direction.INBOUND, EventKind.SESSION_OPEN, size=4)


def test_series_prefix():
    series = TelemetrySeries("d", Metric.PACKETS_IN, 1, (1.0, 2.0, 3.0, 4.0), 0)
    assert list(series.prefix(2).values) == [1.0, 2.0]
    assert series.prefix(2).device_id == "d"




class TestTelemetryCounts:
    # awkward ids: the CSV must quote them as events_to_csv does
    IDS = ("plain", 'co,mma "quoted"')
    PACKETS_IN = (EventKind.PACKET, Direction.INBOUND)

    def counts(self):
        """Simulator-shaped counts: a session opens and closes in its tick."""
        rng = np.random.default_rng(5)
        sessions = rng.integers(0, 3, size=(2, 11))
        return TelemetryCounts.dense(self.IDS, np.arange(11), {
            self.PACKETS_IN: rng.integers(0, 4, size=(2, 11)),
            (EventKind.SESSION_OPEN, Direction.INBOUND): sessions,
            (EventKind.SESSION_CLOSE, Direction.INBOUND): sessions,
        })

    def events(self, counts):
        """The same dense telemetry as events, in the canonical row order."""
        width = len(counts.ticks)
        events = []
        for j, t in enumerate(counts.ticks.tolist()):
            for row, device in enumerate(counts.device_ids):
                for (kind, direction), array in counts.columns.items():
                    size = PACKET_SIZE if kind is EventKind.PACKET else 0
                    events += [ev(t, kind, direction, device, size)] * int(array[row * width + j])
        return events

    def test_csv_is_the_event_writers_output(self):
        counts = self.counts()
        events = self.events(counts)
        got, want = io.StringIO(), io.StringIO()
        counts.to_csv(got)
        events_to_csv(events, want)
        assert got.getvalue() == want.getvalue()
        assert cells(ingest_csv(io.StringIO(got.getvalue()))) == event_cells(events)
        assert len(counts) == len(events)

    @pytest.mark.parametrize("interval", [1, 3, 11])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_counts_bucket_as_bucketize_does(self, metric, interval):
        counts = self.counts()
        events = self.events(counts)
        got = counts.bucket([0, 1], metric, interval, 0, 11)
        for row, device in enumerate(self.IDS):
            want = bucketize_events(events, device, metric, interval, 0, 11).values
            assert got[row].tolist() == list(want)

    def test_csv_round_trips_every_column_over_sparse_ticks(self):
        rng = np.random.default_rng(9)
        ticks = np.array([0, 3, 4, 17, 1000])
        counts = TelemetryCounts.dense(
            ("a", 'b "q"', "c,d", "e\nf"),
            ticks,
            {column: rng.integers(0, 3, size=(4, len(ticks))) for column in CSV_ORDER},
        )
        out = io.StringIO()
        counts.to_csv(out)
        again = ingest_csv(io.StringIO(out.getvalue()))
        assert cells(again) == cells(counts)
        assert len(again) == len(counts)
        assert sum(1 for _ in ingest_events(io.StringIO(out.getvalue()))) == len(counts)

    def test_one_row_far_out_is_one_tick(self):
        t = 10**12
        counts = ingest_csv(io.StringIO(f"time,device_id,direction,kind,size\n{t},d,inbound,packet,64\n"))
        assert counts.ticks.tolist() == [t]
        assert counts.cells.tolist() == [0]
        series = bucketize(counts, "d", Metric.PACKETS_IN, 2, t - 3, t + 3)
        assert series.values == (0.0, 1.0, 0.0)
        series = bucketize(counts, "d", Metric.PACKETS_IN, 1, 0, 5)
        assert series.values == (0.0,) * 5

    def test_sparse_csv_round_trips(self):
        rows = [ev(t, kind, direction, device, PACKET_SIZE if kind is EventKind.PACKET else 0)
                for device, t, kind, direction in [
                    ("b", 7, EventKind.PACKET, Direction.OUTBOUND),
                    ("a", 7, EventKind.SESSION_CLOSE, Direction.INBOUND),
                    ("a", 2, EventKind.SESSION_OPEN, Direction.INBOUND),
                    ("c", 10**12, EventKind.PACKET, Direction.INBOUND),
                    ("b", 2, EventKind.PACKET, Direction.OUTBOUND),
                ]] * 2
        counts = telemetry(rows)
        out = io.StringIO()
        counts.to_csv(out)
        assert cells(ingest_csv(io.StringIO(out.getvalue()))) == cells(counts) == event_cells(rows)
        # tick 2: devices in first-row order, b before a
        assert out.getvalue().splitlines()[1:5] == [
            "2,b,outbound,packet,64", "2,b,outbound,packet,64",
            "2,a,inbound,session_open,0", "2,a,inbound,session_open,0",
        ]

    def test_memory_grows_with_rows_not_devices_times_ticks(self):
        # 4,000 devices, each at two ticks of its own: 8,000 distinct ticks
        devices = 4000
        text = "".join(
            f"{t},dev-{d},inbound,packet,64\n" for d in range(devices) for t in (2 * d, 2 * d + 1)
        )
        text = ",".join(CSV_HEADER) + "\n" + text
        tracemalloc.start()
        try:
            counts = ingest_csv(io.StringIO(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = 2 * devices
        held = sum(a.nbytes for a in (counts.ticks, counts.starts, counts.cells, *counts.columns.values()))
        assert held <= 32 * rows
        assert peak <= 2000 * rows  # one devices x ticks column would take 16 times that
        series = bucketize(counts, "dev-3999", Metric.PACKETS_IN, 1, 7996, 8000)
        assert series.values == (0.0, 0.0, 1.0, 1.0)

    def test_absent_device_reads_zero(self):
        counts = telemetry([ev(1, EventKind.PACKET, size=1)])
        assert bucketize(counts, "other", Metric.PACKETS_IN, 1, 0, 3).values == (0.0,) * 3


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,d,inbound,packet,64", None),
        (f"{2**63 - 1},d,inbound,packet,64", None),
        (f"{2**63},d,inbound,packet,64", "row 2: event time must be below 2**63"),
        (f"{10**30},d,outbound,session_close,", "row 2: event time must be below 2**63"),
        ("-1,d,inbound,packet,64", "row 2: event time must be non-negative, got -1"),
        ("1,d,inbound,packet,-4", "row 2: event size must be non-negative, got -4"),
        ("1,d,inbound,session_open,4", "row 2: size must be 0 for session events"),
        ("1,d,sideways,packet,64", "row 2: unknown direction 'sideways'"),
        ("x,d,inbound,packet,64", "row 2: invalid literal for int() with base 10: 'x'"),
        ("1,d,inbound", "row 2: expected 4 or 5 columns, got 3"),
    ],
)
def test_ingest_names_the_first_bad_row(row, message):
    # the bad row sits between good ones and repeats later, as a second bad row does
    text = f"time,device_id,direction,kind,size\n5,d,inbound,packet,64\n{row}\n5,d,inbound,packet,64\n"
    text += f"0,d,inbound,nope,\n{row}\n"
    with pytest.raises(ParseError) as exc:
        ingest_csv(io.StringIO(text))
    want = message or "row 4: unknown kind 'nope'"
    assert str(exc.value).startswith(want)
    if not str(exc.value).startswith("row 2: event time must be below"):
        # the per-event reference knows no 2**63 limit
        with pytest.raises(ParseError) as ref:
            ingest_events(io.StringIO(text))
        assert str(ref.value) == str(exc.value)


# Device ids that need CSV quoting, and a time grid with room on both sides.
_IDS = ("d0", "co,mma", 'qu"ote', "new\nline")
_event = st.tuples(
    st.sampled_from(_IDS),
    st.integers(min_value=0, max_value=60),
    st.sampled_from(list(EventKind)),
    st.sampled_from(list(Direction)),
)
_session = st.tuples(
    st.sampled_from(_IDS),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=25),
    st.sampled_from(list(Direction)),
)


@settings(derandomize=True, max_examples=225, deadline=None)
@given(
    events=st.lists(_event, max_size=40),
    sessions=st.lists(_session, max_size=15),
    repeat=st.integers(min_value=1, max_value=3),
    start=st.integers(min_value=-10, max_value=50),
    length=st.integers(min_value=1, max_value=90),
)
def test_columnar_bucketize_matches_the_per_event_reference(events, sessions, repeat, start, length):
    rows = [
        ev(t, kind, direction, device, PACKET_SIZE if kind is EventKind.PACKET else 0)
        for device, t, kind, direction in events
    ]
    for device, t, lasts, direction in sessions:
        rows.append(ev(t, EventKind.SESSION_OPEN, direction, device))
        rows.append(ev(t + lasts, EventKind.SESSION_CLOSE, direction, device))
    text = csv_text(rows * repeat)
    counts = ingest_csv(io.StringIO(text))
    reference = ingest_events(io.StringIO(text))
    assert len(counts) == len(reference)
    for interval in (1, 2, 7, 25):
        for device in _IDS:
            for metric in Metric:
                got = bucketize(counts, device, metric, interval, start, start + length)
                want = bucketize_events(reference, device, metric, interval, start, start + length)
                assert got == want
