import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsec.fleet_sim.transport import (
    HEADER_LEN,
    MAX_FRAGMENTS,
    MissingFragmentError,
    MtuTooSmallError,
    PayloadTooLargeError,
    ReassemblyError,
    SimLink,
    fragment,
    reassemble,
)


def test_empty_payload_is_one_frame():
    frames = fragment(b"", mtu=12)
    assert len(frames) == 1
    assert len(frames[0]) == HEADER_LEN
    assert reassemble(frames) == b""


def test_hundred_bytes_at_mtu_12():
    payload = bytes(range(100))
    frames = fragment(payload, mtu=12, message_id=7)
    # 8 payload bytes per frame
    assert len(frames) == 13
    assert all(len(f) <= 12 for f in frames)
    assert frames[0][:2] == (7).to_bytes(2, "big")
    assert reassemble(frames) == payload


def test_every_single_dropped_frame_is_named():
    payload = bytes(range(100))
    frames = fragment(payload, mtu=12, message_id=3)
    for drop in range(len(frames)):
        survivors = frames[:drop] + frames[drop + 1 :]
        with pytest.raises(MissingFragmentError) as exc:
            reassemble(survivors)
        assert exc.value.missing == [drop]
        assert exc.value.message_id == 3


def test_out_of_order_frames_reassemble():
    payload = bytes(range(100))
    frames = fragment(payload, mtu=12)
    rng = random.Random(4)
    for _ in range(10):
        rng.shuffle(frames)
        assert reassemble(frames) == payload


def test_duplicate_frames_are_harmless():
    payload = bytes(range(40))
    frames = fragment(payload, mtu=12)
    assert reassemble(frames + frames[:3]) == payload


@settings(max_examples=200, deadline=None)
@given(
    payload=st.binary(max_size=600),
    mtu=st.integers(min_value=5, max_value=64),
    message_id=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_round_trip_any_payload(payload, mtu, message_id):
    chunk = mtu - HEADER_LEN
    needed = max(1, -(-len(payload) // chunk))
    if needed > MAX_FRAGMENTS:
        with pytest.raises(PayloadTooLargeError):
            fragment(payload, mtu, message_id)
        return
    frames = fragment(payload, mtu, message_id)
    assert len(frames) == needed
    assert reassemble(frames) == payload


def test_payload_cap_is_exact():
    chunk = 12 - HEADER_LEN
    fits = fragment(bytes(MAX_FRAGMENTS * chunk), mtu=12)
    assert len(fits) == MAX_FRAGMENTS
    assert reassemble(fits) == bytes(MAX_FRAGMENTS * chunk)
    with pytest.raises(PayloadTooLargeError):
        fragment(bytes(MAX_FRAGMENTS * chunk + 1), mtu=12)


def test_mtu_must_exceed_header():
    for mtu in (0, 1, HEADER_LEN):
        with pytest.raises(MtuTooSmallError):
            fragment(b"data", mtu=mtu)
    assert fragment(b"data", mtu=HEADER_LEN + 1)  # 1 payload byte per frame


def test_message_id_range():
    with pytest.raises(ValueError):
        fragment(b"x", 12, message_id=-1)
    with pytest.raises(ValueError):
        fragment(b"x", 12, message_id=2**16)


def test_reassembly_rejects_mixed_messages():
    a = fragment(bytes(20), mtu=12, message_id=1)
    b = fragment(bytes(20), mtu=12, message_id=2)
    with pytest.raises(ReassemblyError, match="mixed"):
        reassemble([a[0], b[1]])


def test_reassembly_rejects_conflicting_totals():
    a = fragment(bytes(20), mtu=12, message_id=1)
    b = fragment(bytes(60), mtu=12, message_id=1)
    with pytest.raises(ReassemblyError, match="totals"):
        reassemble([a[0], b[2]])


def test_reassembly_rejects_conflicting_duplicate_payloads():
    frames = fragment(bytes(range(20)), mtu=12, message_id=1)
    forged = frames[1][:HEADER_LEN] + b"\xff" * len(frames[1][HEADER_LEN:])
    with pytest.raises(ReassemblyError, match="duplicates"):
        reassemble([frames[0], frames[1], forged, frames[2]])


@pytest.mark.parametrize("index", [3, 5])
def test_reassembly_rejects_index_beyond_total(index):
    frames = fragment(bytes(20), mtu=12, message_id=1)
    assert len(frames) == 3
    rogue = frames[0][:2] + bytes([index, frames[0][3]]) + frames[0][HEADER_LEN:]
    with pytest.raises(ReassemblyError, match="beyond"):
        reassemble(frames + [rogue])


def test_reassembly_rejects_empty_and_short_input():
    with pytest.raises(ReassemblyError, match="no frames"):
        reassemble([])
    with pytest.raises(ReassemblyError, match="shorter"):
        reassemble([b"\x00\x01"])


# --- lossy link ---------------------------------------------------------------


def test_lossless_link_passes_everything():
    link = SimLink(mtu=12, latency=2, drop_rate=0.0, rng=random.Random(1))
    frames = fragment(bytes(100), mtu=12)
    assert link.deliver(frames) == frames


def test_lossy_link_drops_at_roughly_the_configured_rate():
    link = SimLink(mtu=12, latency=2, drop_rate=0.3, rng=random.Random(1))
    frames = [bytes([i % 256]) * 12 for i in range(10_000)]
    survivors = link.deliver(frames)
    assert 0.65 < len(survivors) / len(frames) < 0.75
    # survivors keep their relative order
    it = iter(frames)
    assert all(any(s == f for f in it) for s in survivors)


def test_link_drops_are_seed_deterministic():
    frames = fragment(bytes(200), mtu=12)
    runs = [
        SimLink(12, 0, 0.4, random.Random(77)).deliver(frames) for _ in range(2)
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("drop_rate", [5e-324, 2.225073858507e-311, math.nextafter(1, 0)])
def test_extreme_drop_rates_draw_without_raising(drop_rate):
    frames = fragment(bytes(MAX_FRAGMENTS * 8), mtu=12)
    assert len(frames) == MAX_FRAGMENTS
    link = SimLink(12, 0, drop_rate, random.Random(5))
    for _ in range(200):
        kept = link.deliver(frames)
        if drop_rate < 1e-300:  # the gap overflows to inf: nothing drops
            assert kept == frames
        else:  # every frame drops unless its draw is the largest float below 1
            assert len(kept) <= 1


def _gaps_and_kept(masks):
    """Kept frames before each drop, over all deliveries, and the total kept."""
    gaps, kept = [], 0
    for mask in masks:
        run = 0
        for survived in mask:
            if survived:
                run += 1
            else:
                gaps.append(run)
                run = 0
        kept += sum(mask)
    return gaps, kept


def _ks_distance(a, b):
    a, b = sorted(a), sorted(b)
    return max(
        abs(bisect_right(a, x) / len(a) - bisect_right(b, x) / len(b)) for x in set(a) | set(b)
    )


@pytest.mark.parametrize("drop_rate, deliveries", [(0.002, 4000), (0.1, 400), (0.5, 100)])
def test_gap_draws_match_the_per_frame_draw(drop_rate, deliveries):
    frames = fragment(bytes(MAX_FRAGMENTS * 8), mtu=12)
    link = SimLink(12, 0, drop_rate, random.Random(11))
    got = [set(f[2] for f in link.deliver(frames)) for _ in range(deliveries)]
    masks = [[i in kept for i in range(len(frames))] for kept in got]
    oracle = random.Random(12)  # one independent draw per frame
    oracle_masks = [[oracle.random() >= drop_rate for _ in frames] for _ in range(deliveries)]

    gaps, kept = _gaps_and_kept(masks)
    oracle_gaps, _ = _gaps_and_kept(oracle_masks)
    n = deliveries * len(frames)
    assert abs(kept / n - (1 - drop_rate)) < 4 * math.sqrt(drop_rate * (1 - drop_rate) / n)
    # the kept runs before each drop: same law as the per-frame draw's (two-sample KS, alpha 0.001)
    assert len(gaps) > 400 and len(oracle_gaps) > 400
    bound = 1.95 * math.sqrt((len(gaps) + len(oracle_gaps)) / (len(gaps) * len(oracle_gaps)))
    assert _ks_distance(gaps, oracle_gaps) < bound


def test_link_validation():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        SimLink(0, 0, 0.0, rng)
    with pytest.raises(ValueError):
        SimLink(12, -1, 0.0, rng)
    with pytest.raises(ValueError):
        SimLink(12, 0, 1.0, rng)
