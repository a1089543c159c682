import random

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


def test_link_validation():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        SimLink(0, 0, 0.0, rng)
    with pytest.raises(ValueError):
        SimLink(12, -1, 0.0, rng)
    with pytest.raises(ValueError):
        SimLink(12, 0, 1.0, rng)
