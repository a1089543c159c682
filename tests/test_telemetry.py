import io
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fleetsec.telemetry import (
    CSV_HEADER,
    PACKET_SIZE,
    ConnectionEvent,
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
    events_to_csv,
    ingest_csv,
)


def ev(time, kind, direction=Direction.INBOUND, device="d", size=0):
    return ConnectionEvent(device, time, direction, kind, size)


class TestBucketize:
    def test_no_events_gives_zero_buckets(self):
        series = bucketize([], "d", Metric.PACKETS_IN, 1, 0, 5)
        assert list(series.values) == [0.0, 0.0, 0.0, 0.0, 0.0]

    def test_open_connections_sampled_at_bucket_boundaries(self):
        events = [
            ev(0, EventKind.SESSION_OPEN),
            ev(3, EventKind.SESSION_OPEN),
            ev(7, EventKind.SESSION_CLOSE),
        ]
        series = bucketize(events, "d", Metric.OPEN_CONNECTIONS, 5, 0, 10)
        # 1 open at t=0; both open at t=5, the close at t=7 lands after
        assert list(series.values) == [1.0, 2.0]

    def test_packet_counts_per_bucket(self):
        events = [ev(t, EventKind.PACKET, size=64) for t in (1, 2, 9)]
        series = bucketize(events, "d", Metric.PACKETS_IN, 5, 0, 10)
        assert list(series.values) == [2.0, 1.0]

    def test_direction_filter(self):
        events = [
            ev(0, EventKind.PACKET, Direction.INBOUND, size=1),
            ev(0, EventKind.PACKET, Direction.OUTBOUND, size=1),
        ]
        inbound = bucketize(events, "d", Metric.PACKETS_IN, 1, 0, 1)
        outbound = bucketize(events, "d", Metric.PACKETS_OUT, 1, 0, 1)
        assert list(inbound.values) == [1.0]
        assert list(outbound.values) == [1.0]

    def test_other_devices_ignored(self):
        events = [ev(0, EventKind.PACKET, size=9, device="other")]
        series = bucketize(events, "d", Metric.PACKETS_IN, 1, 0, 2)
        assert list(series.values) == [0.0, 0.0]

    def test_opens_before_start_prime_the_open_count(self):
        events = [ev(0, EventKind.SESSION_OPEN), ev(1, EventKind.SESSION_OPEN)]
        series = bucketize(events, "d", Metric.OPEN_CONNECTIONS, 2, 4, 8)
        assert list(series.values) == [2.0, 2.0]

    def test_events_outside_range_do_not_count(self):
        events = [ev(99, EventKind.PACKET, size=1)]
        series = bucketize(events, "d", Metric.PACKETS_IN, 1, 0, 3)
        assert sum(series.values) == 0.0

    def test_empty_range_rejected(self):
        with pytest.raises(EmptyRangeError):
            bucketize([], "d", Metric.PACKETS_IN, 1, 5, 5)

    def test_bad_interval_rejected(self):
        with pytest.raises(NegativeIntervalError):
            bucketize([], "d", Metric.PACKETS_IN, 0, 0, 5)

    def test_series_metadata(self):
        series = bucketize([], "dev-7", Metric.SESSIONS_OUT, 3, 6, 12)
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
    series = bucketize(events, "d", Metric.PACKETS_IN, interval, 0, 100)
    assert sum(series.values) == sum(1 for t in times if t < 100)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
def test_bucketize_is_permutation_invariant(times):
    events = [ev(t, EventKind.PACKET, size=1) for t in times]
    shuffled = list(events)
    random.Random(11).shuffle(shuffled)
    a = bucketize(events, "d", Metric.PACKETS_IN, 5, 0, 55)
    b = bucketize(shuffled, "d", Metric.PACKETS_IN, 5, 0, 55)
    assert a == b


def test_open_connections_never_negative_with_wellformed_sessions():
    rng = random.Random(3)
    events = []
    for t in range(0, 200, 2):
        events.append(ev(t, EventKind.SESSION_OPEN))
        events.append(ev(t + rng.randrange(1, 40), EventKind.SESSION_CLOSE))
    series = bucketize(events, "d", Metric.OPEN_CONNECTIONS, 7, 0, 250)
    assert all(v >= 0 for v in series.values)


class TestIngestCsv:
    def test_header_only_gives_empty_list(self):
        assert ingest_csv(io.StringIO(",".join(CSV_HEADER) + "\n")) == []

    def test_row_maps_to_event_fields(self):
        rows = ingest_csv(
            io.StringIO("time,device_id,direction,kind,size\n5,dev1,inbound,packet,64\n")
        )
        assert rows == [ConnectionEvent("dev1", 5, Direction.INBOUND, EventKind.PACKET, 64)]

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
        assert rows[0].size == 0

    def test_round_trip_through_writer(self):
        events = [
            ev(1, EventKind.PACKET, size=10),
            ev(2, EventKind.SESSION_OPEN, Direction.OUTBOUND),
            ev(3, EventKind.SESSION_CLOSE),
        ]
        out = io.StringIO()
        events_to_csv(events, out)
        assert ingest_csv(io.StringIO(out.getvalue())) == events


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

    def counts(self):
        rng = np.random.default_rng(5)
        return TelemetryCounts(
            self.IDS, rng.integers(0, 4, size=(2, 11)), rng.integers(0, 2, size=(2, 11))
        )

    def events(self, counts):
        """The same telemetry as events, in the canonical row order."""
        events = []
        for t in range(counts.packets.shape[1]):
            for row, device in enumerate(counts.device_ids):
                events += [ev(t, EventKind.PACKET, device=device, size=PACKET_SIZE)] * int(
                    counts.packets[row, t]
                )
                events += [
                    ev(t, EventKind.SESSION_OPEN, device=device),
                    ev(t, EventKind.SESSION_CLOSE, device=device),
                ] * int(counts.sessions[row, t])
        return events

    def test_csv_is_the_event_writers_output(self):
        counts = self.counts()
        events = self.events(counts)
        got, want = io.StringIO(), io.StringIO()
        counts.to_csv(got)
        events_to_csv(events, want)
        assert got.getvalue() == want.getvalue()
        assert ingest_csv(io.StringIO(got.getvalue())) == events
        assert len(counts) == len(events)

    @pytest.mark.parametrize("interval", [1, 3, 11])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_counts_bucket_as_bucketize_does(self, metric, interval):
        counts = self.counts()
        events = self.events(counts)
        starts = np.arange(0, 11, interval)
        got = np.add.reduceat(counts.counts(metric), starts, axis=1)
        for row, device in enumerate(self.IDS):
            want = bucketize(events, device, metric, interval, 0, 11).values
            assert got[row].tolist() == list(want)
