"""Frame codec: layout, round-trip bijection, and malformed-input
rejection classes."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtahs.wire import (
    BadFieldError,
    BadLengthError,
    BadMagicError,
    BadVersionError,
    Frame,
    FrameEncodeError,
    Handshake,
    MsgType,
    TruncatedFrameError,
    decode_frame,
    encode_frame,
)

finite = st.floats(allow_nan=False, allow_infinity=True, width=64)


def data_frames():
    """Strategy over valid MEASUREMENT/COMMAND frames."""

    @st.composite
    def build(draw):
        msg_type = draw(st.sampled_from([MsgType.MEASUREMENT, MsgType.COMMAND]))
        dof = draw(st.integers(1, 3))
        blocks = draw(st.sampled_from(["f", "d", "fd", ""]))
        forces = (
            tuple(draw(st.lists(finite, min_size=dof, max_size=dof)))
            if "f" in blocks
            else None
        )
        disps = (
            tuple(draw(st.lists(finite, min_size=dof, max_size=dof)))
            if "d" in blocks
            else None
        )
        return Frame(
            msg_type=msg_type,
            dof_count=dof,
            seq=draw(st.integers(0, 2**32 - 1)),
            sim_time=draw(finite),
            forces=forces,
            displacements=disps,
        )

    return build()


def handshake_frames():
    @st.composite
    def build(draw):
        return Frame(
            msg_type=MsgType.HANDSHAKE,
            dof_count=draw(st.integers(1, 3)),
            seq=draw(st.integers(0, 2**32 - 1)),
            sim_time=draw(finite),
            handshake=Handshake(
                dt=draw(finite),
                t_end=draw(finite),
                dof_mask=draw(st.integers(1, 7)),
                estimator_id=draw(st.integers(1, 3)),
            ),
        )

    return build()


def shutdown_frames():
    @st.composite
    def build(draw):
        return Frame(
            msg_type=MsgType.SHUTDOWN,
            dof_count=draw(st.integers(1, 3)),
            seq=draw(st.integers(0, 2**32 - 1)),
            sim_time=draw(finite),
        )

    return build()


def reference_bytes(f: Frame) -> bytes:
    """The documented layout packed field by field, without the codec."""
    flags = (f.forces is not None) | (f.displacements is not None) << 1
    out = b"RTAH" + bytes([1, int(f.msg_type), f.dof_count, flags])
    out += f.seq.to_bytes(4, "little") + struct.pack("<d", f.sim_time)
    for block in (f.forces, f.displacements):
        for value in block or ():
            out += struct.pack("<d", value)
    if f.handshake is not None:
        hs = f.handshake
        out += struct.pack("<d", hs.dt) + struct.pack("<d", hs.t_end)
        out += bytes([hs.dof_mask, hs.estimator_id])
    return out


class TestLayout:
    def test_reference_measurement_layout(self):
        f = Frame(
            msg_type=MsgType.MEASUREMENT,
            dof_count=1,
            seq=0,
            sim_time=0.0,
            forces=(0.0,),
            displacements=(0.0,),
        )
        data = encode_frame(f)
        assert len(data) == 36
        assert data[0:4] == b"RTAH"
        assert data[4] == 1  # version
        assert data[5] == 1  # MEASUREMENT
        assert data[6] == 1  # dof_count
        assert data[7] == 0b11  # both blocks
        assert data[8:12] == b"\x00\x00\x00\x00"
        assert data[12:36] == b"\x00" * 24

    def test_three_dof_length(self):
        f = Frame(
            msg_type=MsgType.MEASUREMENT,
            dof_count=3,
            seq=7,
            sim_time=1.5,
            forces=(1.0, 2.0, 3.0),
            displacements=(4.0, 5.0, 6.0),
        )
        assert len(encode_frame(f)) == 68

    def test_little_endian_fields(self):
        f = Frame(
            msg_type=MsgType.COMMAND,
            dof_count=1,
            seq=0x01020304,
            sim_time=2.0,
            displacements=(8.25,),
        )
        data = encode_frame(f)
        assert data[8:12] == bytes([0x04, 0x03, 0x02, 0x01])
        assert struct.unpack("<d", data[12:20])[0] == 2.0
        assert struct.unpack("<d", data[20:28])[0] == 8.25

    def test_handshake_length(self):
        f = Frame(
            msg_type=MsgType.HANDSHAKE,
            dof_count=2,
            seq=0,
            sim_time=0.0,
            handshake=Handshake(dt=1e-3, t_end=20.0, dof_mask=5, estimator_id=3),
        )
        assert len(encode_frame(f)) == 38

    def test_shutdown_length(self):
        f = Frame(msg_type=MsgType.SHUTDOWN, dof_count=1, seq=3, sim_time=1.0)
        assert len(encode_frame(f)) == 20


class TestGoldenBytes:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(data_frames(), handshake_frames(), shutdown_frames()))
    def test_codec_matches_independent_packing(self, frame):
        data = reference_bytes(frame)
        assert encode_frame(frame) == data
        assert decode_frame(data) == frame

    def test_frame_is_immutable_and_hashable(self):
        a = Frame(MsgType.MEASUREMENT, 2, 9, 0.5, forces=(1.0, 2.0), displacements=(3.0, 4.0))
        b = decode_frame(encode_frame(a))
        with pytest.raises(AttributeError):
            a.seq = 10
        assert a == b and hash(a) == hash(b) and encode_frame(a)[7] == 0b11


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(data_frames())
    def test_data_frames(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    @settings(max_examples=100, deadline=None)
    @given(handshake_frames())
    def test_handshake_frames(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    def test_shutdown(self):
        f = Frame(msg_type=MsgType.SHUTDOWN, dof_count=2, seq=11, sim_time=3.25)
        assert decode_frame(encode_frame(f)) == f


class TestDecodeRejections:
    def good(self) -> bytes:
        return encode_frame(
            Frame(
                msg_type=MsgType.MEASUREMENT,
                dof_count=1,
                seq=5,
                sim_time=0.25,
                forces=(1.5,),
                displacements=(-2.0,),
            )
        )

    def test_empty_datagram(self):
        with pytest.raises(TruncatedFrameError):
            decode_frame(b"")

    def test_short_header(self):
        with pytest.raises(TruncatedFrameError):
            decode_frame(self.good()[:19])

    def test_bad_magic(self):
        data = bytearray(self.good())
        data[0] ^= 0xFF
        with pytest.raises(BadMagicError):
            decode_frame(bytes(data))

    def test_bad_version(self):
        data = bytearray(self.good())
        data[4] = 99
        with pytest.raises(BadVersionError):
            decode_frame(bytes(data))

    def test_unknown_message_type(self):
        data = bytearray(self.good())
        data[5] = 9
        with pytest.raises(BadFieldError):
            decode_frame(bytes(data))

    def test_bad_dof_count(self):
        for bad in (0, 4, 255):
            data = bytearray(self.good())
            data[6] = bad
            with pytest.raises(BadFieldError):
                decode_frame(bytes(data))

    def test_unknown_flag_bits(self):
        data = bytearray(self.good())
        data[7] = 0b101
        with pytest.raises(BadFieldError):
            decode_frame(bytes(data))

    def test_truncated_payload(self):
        with pytest.raises(BadLengthError):
            decode_frame(self.good()[:-1])

    def test_trailing_garbage(self):
        with pytest.raises(BadLengthError):
            decode_frame(self.good() + b"\x00")

    def test_handshake_bad_estimator(self):
        f = Frame(
            msg_type=MsgType.HANDSHAKE,
            dof_count=1,
            seq=0,
            sim_time=0.0,
            handshake=Handshake(dt=1e-3, t_end=1.0, dof_mask=1, estimator_id=1),
        )
        data = bytearray(encode_frame(f))
        data[-1] = 77
        with pytest.raises(BadFieldError):
            decode_frame(bytes(data))

    def test_shutdown_with_payload(self):
        f = Frame(msg_type=MsgType.SHUTDOWN, dof_count=1, seq=0, sim_time=0.0)
        with pytest.raises(BadLengthError):
            decode_frame(encode_frame(f) + b"\x00" * 8)


class TestEncodeRejections:
    @pytest.mark.parametrize(
        "frame, cause",
        [
            pytest.param(
                Frame(MsgType.COMMAND, 1, seq=1.0, sim_time=0.0, displacements=(0.0,)),
                struct.error,
                id="float-seq",
            ),
            pytest.param(
                Frame(MsgType.COMMAND, 1, seq=1, sim_time="x", displacements=(0.0,)),
                struct.error,
                id="string-sim-time",
            ),
            pytest.param(
                Frame(MsgType.COMMAND, 1, seq=1, sim_time=0.0, displacements=("a",)),
                struct.error,
                id="string-block-value",
            ),
            pytest.param(
                Frame(
                    MsgType.HANDSHAKE, 1, seq=0, sim_time=0.0,
                    handshake=Handshake(dt="a", t_end=1.0, dof_mask=1, estimator_id=1),
                ),
                struct.error,
                id="string-handshake-dt",
            ),
            pytest.param(
                Frame(MsgType.COMMAND, 1, seq="1", sim_time=0.0, displacements=(0.0,)),
                TypeError,
                id="string-seq",
            ),
        ],
    )
    def test_field_that_does_not_fit_its_slot(self, frame, cause):
        with pytest.raises(FrameEncodeError) as err:
            encode_frame(frame)
        assert isinstance(err.value.__cause__, cause)

    def test_bad_dof_count(self):
        with pytest.raises(FrameEncodeError):
            encode_frame(
                Frame(msg_type=MsgType.MEASUREMENT, dof_count=4, seq=0, sim_time=0.0)
            )

    def test_block_length_mismatch(self):
        with pytest.raises(FrameEncodeError):
            encode_frame(
                Frame(
                    msg_type=MsgType.MEASUREMENT,
                    dof_count=2,
                    seq=0,
                    sim_time=0.0,
                    forces=(1.0,),
                )
            )

    def test_seq_out_of_range(self):
        with pytest.raises(FrameEncodeError):
            encode_frame(
                Frame(msg_type=MsgType.COMMAND, dof_count=1, seq=2**32, sim_time=0.0,
                      displacements=(0.0,))
            )

    def test_handshake_requires_payload(self):
        with pytest.raises(FrameEncodeError):
            encode_frame(
                Frame(msg_type=MsgType.HANDSHAKE, dof_count=1, seq=0, sim_time=0.0)
            )

    def test_data_blocks_on_shutdown(self):
        with pytest.raises(FrameEncodeError):
            encode_frame(
                Frame(
                    msg_type=MsgType.SHUTDOWN,
                    dof_count=1,
                    seq=0,
                    sim_time=0.0,
                    forces=(1.0,),
                )
            )

    def test_handshake_payload_on_data_frame(self):
        with pytest.raises(FrameEncodeError):
            encode_frame(
                Frame(
                    msg_type=MsgType.COMMAND,
                    dof_count=1,
                    seq=0,
                    sim_time=0.0,
                    displacements=(0.0,),
                    handshake=Handshake(dt=1e-3, t_end=1.0, dof_mask=1, estimator_id=1),
                )
            )
