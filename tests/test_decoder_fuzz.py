"""Edited wire bytes and telemetry text end in a fleetsec error, never a crash.

Each decoder gets a valid input with one to three single-position edits
(set, insert or delete one byte or character, or cut the rest off); only
a FleetsecError may escape it.
"""

import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from fleetsec.errors import FleetsecError
from fleetsec.fleet_sim.transport import fragment, reassemble
from fleetsec.telemetry import ingest_csv
from fleetsec.tsa import decode_token, token_signed_body
from fleetsec.update_protocol import build_manifest, decode_manifest, manifest_signed_body
from fleetsec.wire import ConfigError, lp, u64

from helpers import CSV_CHARS, apply_edits, firmware_image, make_pki, seq_edits

_STORE, _TSA = make_pki()
MANIFEST = build_manifest(
    firmware_image(2), "fw-2", 2, 500, _STORE.handle("publisher"), _TSA, now=10
).encode()
TOKEN = _TSA.issue_token(hashlib.sha256(b"image").digest(), 7).encode()
FRAMES = fragment(MANIFEST[:100], 12, 3)  # 13 frames at mtu 12
CSV = (
    "time,device_id,direction,kind,size\n"
    "0,dev-1,inbound,packet,64\n"
    "0,dev-1,inbound,packet,64\n"
    "1,dev-2,outbound,session_open,\n"
    "2,dev-2,outbound,session_close,0\n"
    "3,dev-1,inbound,packet,1500\n"
)

_BYTES = st.integers(0, 255)


def _refused_or_decoded(decode, data) -> None:
    try:
        decode(data)
    except FleetsecError:
        pass


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edits=seq_edits(len(MANIFEST), _BYTES))
def test_edited_manifest_bytes_raise_only_fleetsec_or_value_errors(edits):
    _refused_or_decoded(decode_manifest, bytes(apply_edits(MANIFEST, edits)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edits=seq_edits(len(TOKEN), _BYTES))
def test_edited_token_bytes_raise_only_fleetsec_or_value_errors(edits):
    _refused_or_decoded(decode_token, bytes(apply_edits(TOKEN, edits)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    edits=st.lists(st.tuples(st.integers(0, len(FRAMES) - 1), seq_edits(12, _BYTES)), max_size=3),
    frame_edits=seq_edits(len(FRAMES), st.sampled_from(FRAMES)),
)
def test_edited_frames_raise_only_fleetsec_or_value_errors(edits, frame_edits):
    # byte edits inside frames, then whole frames set, inserted, dropped or cut
    frames = list(FRAMES)
    for index, byte_edits in edits:
        frames[index] = bytes(apply_edits(frames[index], byte_edits))
    _refused_or_decoded(reassemble, apply_edits(frames, frame_edits))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edits=seq_edits(len(CSV), CSV_CHARS))
def test_edited_telemetry_text_raises_only_fleetsec_or_value_errors(edits):
    _refused_or_decoded(ingest_csv, io.StringIO("".join(apply_edits(CSV, edits))))


def test_a_manifest_with_a_short_digest_names_the_field():
    token = decode_token(TOKEN)
    data = manifest_signed_body("fw-2", 2, bytes(31), 500, token) + lp(b"sig")
    with pytest.raises(ConfigError, match=r"^manifest\.digest: must be 32 bytes$"):
        decode_manifest(data)


def test_a_token_with_serial_zero_names_the_field():
    data = token_signed_body(hashlib.sha256(b"image").digest(), 7, 0) + lp(b"tsa-root") + lp(b"sig")
    with pytest.raises(ConfigError, match=r"^token\.serial: must be positive$"):
        decode_token(data)
    # inside a manifest, the token is named under the manifest
    body = lp(b"fw-2") + u64(2) + lp(bytes(32)) + u64(500) + lp(data)
    with pytest.raises(ConfigError, match=r"^manifest\.token\.serial: must be positive$"):
        decode_manifest(body + lp(b"sig"))
