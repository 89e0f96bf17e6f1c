"""Frame codec contract + Hypothesis fuzz over untrusted byte streams.

The robustness claim under test: *no byte stream crashes the decoder* —
every input either yields whole well-formed messages or raises
:class:`ProtocolError` (after which the decoder is permanently dead for
that stream), and a live server answers a broken stream with a clean
``error`` frame or a connection close, never by dying.
"""

from __future__ import annotations

import hashlib
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    check_hello,
    check_hello_ack,
    encode_frame,
    error_frame,
    functional_run_digest,
    hello,
    make_request,
    parse_request,
)


# --------------------------------------------------------------------- #
# Round-trip
# --------------------------------------------------------------------- #
class TestRoundTrip:
    def test_encode_then_feed_yields_the_message(self):
        message = {"type": "request", "id": "r1", "model": "M", "image": 3}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(message)) == [message]

    def test_byte_at_a_time_reassembly(self):
        message = hello("dribble")
        frame = encode_frame(message)
        decoder = FrameDecoder()
        collected = []
        for offset in range(len(frame)):
            collected.extend(decoder.feed(frame[offset:offset + 1]))
        assert collected == [message]
        assert not decoder.mid_frame

    def test_several_frames_glued_together(self):
        messages = [hello(f"c{n}") for n in range(5)]
        blob = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(blob) == messages

    def test_encode_rejects_non_dict_and_missing_type(self):
        with pytest.raises(ProtocolError):
            encode_frame(["not", "a", "dict"])
        with pytest.raises(ProtocolError):
            encode_frame({"no_type": 1})
        with pytest.raises(ProtocolError):
            encode_frame({"type": 7})

    def test_encode_rejects_unserializable_and_oversized(self):
        with pytest.raises(ProtocolError):
            encode_frame({"type": "x", "payload": object()})
        with pytest.raises(ProtocolError):
            encode_frame({"type": "x", "payload": "a" * (MAX_FRAME_BYTES + 1)})


# --------------------------------------------------------------------- #
# Malformed streams die cleanly and permanently
# --------------------------------------------------------------------- #
class TestMalformedStreams:
    def test_zero_length_frame_is_fatal(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 0))

    def test_oversized_length_prefix_is_fatal(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_garbage_json_is_fatal(self):
        payload = b"\xde\xad\xbe\xef"
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", len(payload)) + payload)

    def test_non_object_payload_is_fatal(self):
        payload = json.dumps([1, 2, 3]).encode()
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", len(payload)) + payload)

    def test_death_is_permanent(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 0))
        # A perfectly valid frame afterwards still raises: the stream's
        # framing is unrecoverable once it has lied about a length.
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame(hello()))
        assert decoder.buffered == 0

    def test_valid_frames_before_the_poison_are_delivered(self):
        good = encode_frame(hello("ok"))
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(good + struct.pack(">I", 0) + b"junk")


# --------------------------------------------------------------------- #
# Hypothesis fuzz: the decoder never crashes, whatever the bytes
# --------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=512))
def test_fuzz_arbitrary_bytes_never_crash(data):
    """Arbitrary bytes: whole messages out, or ProtocolError — nothing else."""
    decoder = FrameDecoder(max_frame_bytes=256)
    try:
        messages = decoder.feed(data)
    except ProtocolError:
        # Dead forever afterwards; still no crash.
        with pytest.raises(ProtocolError):
            decoder.feed(b"")
        return
    for message in messages:
        assert isinstance(message, dict)
        assert isinstance(message["type"], str)


@settings(max_examples=100, deadline=None)
@given(
    chunks=st.lists(st.binary(max_size=64), max_size=16),
)
def test_fuzz_chunked_delivery_equals_single_shot(chunks):
    """Chunking never changes the outcome: same messages or same death."""
    blob = b"".join(chunks)
    one_shot = FrameDecoder(max_frame_bytes=256)
    chunked = FrameDecoder(max_frame_bytes=256)
    try:
        expected = one_shot.feed(blob)
        expected_error = None
    except ProtocolError as error:
        expected, expected_error = None, str(error)
    collected = []
    got_error = None
    for chunk in chunks:
        try:
            collected.extend(chunked.feed(chunk))
        except ProtocolError as error:
            got_error = str(error)
            break
    if expected_error is None:
        assert got_error is None
        assert collected == expected
    else:
        assert got_error == expected_error


@settings(max_examples=100, deadline=None)
@given(
    messages=st.lists(
        st.fixed_dictionaries(
            {
                "type": st.sampled_from(["request", "health", "hello"]),
                "id": st.text(max_size=8),
            }
        ),
        max_size=8,
    ),
    junk=st.binary(min_size=1, max_size=32),
    cut=st.integers(min_value=0, max_value=3),
)
def test_fuzz_interleaved_valid_then_truncated_then_junk(messages, junk, cut):
    """Valid frames round-trip even when a truncated tail follows them."""
    frames = [encode_frame(m) for m in messages]
    blob = b"".join(frames)
    tail = encode_frame(hello())[: max(0, len(encode_frame(hello())) - 1 - cut)]
    decoder = FrameDecoder()
    got = decoder.feed(blob)
    assert got == messages
    # A truncated frame parks in the buffer (mid_frame) without error...
    more = decoder.feed(tail)
    assert more == []
    assert decoder.mid_frame == bool(tail)
    # ...and junk afterwards either completes into garbage (fatal) or
    # keeps waiting — both acceptable, crashing is not.
    try:
        for message in decoder.feed(junk):
            assert isinstance(message, dict)
    except ProtocolError:
        pass


# --------------------------------------------------------------------- #
# Handshake + request validation
# --------------------------------------------------------------------- #
class TestHandshake:
    def test_hello_roundtrip(self):
        assert check_hello(hello("me")) == "me"

    def test_version_mismatch_rejected(self):
        bad = hello()
        bad["protocol"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version mismatch"):
            check_hello(bad)

    def test_first_frame_must_be_hello(self):
        with pytest.raises(ProtocolError, match="expected a 'hello'"):
            check_hello({"type": "request"})

    def test_hello_ack_validation(self):
        ack = {"type": "hello_ack", "protocol": PROTOCOL_VERSION}
        assert check_hello_ack(ack) is ack
        with pytest.raises(ProtocolError):
            check_hello_ack({"type": "hello_ack", "protocol": 0})
        with pytest.raises(ProtocolError):
            check_hello_ack(error_frame("nope"))


class TestRequestValidation:
    def test_roundtrip(self):
        frame = make_request("r1", "M", 2, deadline_ms=12.5)
        assert parse_request(frame) == ("r1", "M", 2, 12.5)

    def test_no_deadline_passes_none(self):
        assert parse_request(make_request("r1", "M", 0))[3] is None

    @pytest.mark.parametrize(
        "patch",
        [
            {"id": ""},
            {"id": 7},
            {"model": ""},
            {"model": None},
            {"image": -1},
            {"image": True},
            {"image": "3"},
            {"deadline_ms": 0},
            {"deadline_ms": -5},
            {"deadline_ms": float("nan")},
            {"deadline_ms": True},
        ],
    )
    def test_bad_fields_rejected(self, patch):
        frame = make_request("r1", "M", 1, deadline_ms=10)
        frame.update(patch)
        with pytest.raises(ProtocolError):
            parse_request(frame)


class TestDigest:
    def test_digest_matches_iff_runs_bit_identical(self, oracle):
        a = functional_run_digest(oracle("Tiny-CNN", 0))
        b = functional_run_digest(oracle("Tiny-CNN", 0))
        c = functional_run_digest(oracle("Tiny-CNN", 1))
        d = functional_run_digest(oracle("Tiny-GEMM", 0))
        assert a == b
        assert a != c
        assert a != d

    @staticmethod
    def _tobytes_digest(run):
        """The digest as first specified: one ``tobytes`` copy per layer."""
        digest = hashlib.sha256()
        digest.update(run.model.encode())
        for layer in run.layers:
            output = np.ascontiguousarray(layer.output)
            digest.update(b"\0")
            digest.update(layer.layer.encode())
            digest.update(str(output.dtype).encode())
            digest.update(str(output.shape).encode())
            digest.update(output.tobytes())
            digest.update(repr(layer.stats).encode())
        return digest.hexdigest()

    def test_digest_pinned_to_tobytes_formula(self, oracle):
        for model in ("Tiny-CNN", "Tiny-GEMM"):
            run = oracle(model, 0)
            assert functional_run_digest(run) == self._tobytes_digest(run)

    def test_non_contiguous_output_hashes_its_logical_bytes(self):
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        transposed = base.T
        assert not transposed.flags.c_contiguous
        run = SimpleNamespace(
            model="M",
            layers=[
                SimpleNamespace(layer="t", output=transposed, stats="s"),
                SimpleNamespace(layer="u", output=base[:, ::2], stats="s"),
            ],
        )
        assert functional_run_digest(run) == self._tobytes_digest(run)

    def test_digest_requires_kept_outputs(self, definitions):
        from repro.nn.functional import run_model_functional

        run = run_model_functional(
            definitions["Tiny-CNN"], seed=2021, image=0, keep_outputs=False
        )
        with pytest.raises(ProtocolError, match="keep_outputs"):
            functional_run_digest(run)

    def test_error_frame_shape(self):
        frame = error_frame("protocol-error", "why")
        assert frame["type"] == "error"
        assert frame["reason"] == "protocol-error"


def test_custom_decoder_bound_is_enforced():
    small = FrameDecoder(max_frame_bytes=8)
    frame = encode_frame({"type": "request", "padding": "x" * 32})
    with pytest.raises(ProtocolError, match="exceeds"):
        small.feed(frame)
