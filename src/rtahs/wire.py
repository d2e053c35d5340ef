"""Binary frame codec for the lockstep co-simulation protocol.

Little-endian layout, one frame per UDP datagram:

====== ======= =========================================================
offset size    field
====== ======= =========================================================
0      4       magic ``RTAH``
4      1       version (currently 1)
5      1       message type: 1 MEASUREMENT, 2 COMMAND, 3 HANDSHAKE,
               4 SHUTDOWN
6      1       dof_count (1..3)
7      1       flags: bit0 forces block present, bit1 displacements
               block present
8      4       sequence number (uint32)
12     8       simulation time, seconds (binary64)
20     ...     payload
====== ======= =========================================================

MEASUREMENT/COMMAND payload: forces block (dof_count binary64) if flags
bit0, then displacements block (dof_count binary64) if flags bit1, so
the total datagram length is ``20 + 8 * dof_count * popcount(flags)``.
HANDSHAKE payload (flags = 0): dt (binary64), t_end (binary64), dof mask
(1 byte), estimator id (1 byte).  SHUTDOWN carries no payload.
Anything else is rejected with a distinct, reportable error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional

MAGIC = b"RTAH"
VERSION = 1
HEADER_LEN = 20
HEADER_STRUCT = struct.Struct("<4sBBBBId")
HANDSHAKE_STRUCT = struct.Struct("<ddBB")

FLAG_FORCES = 0x01
FLAG_DISPLACEMENTS = 0x02

# Estimator identifiers carried in the handshake.
ESTIMATOR_IDS = {"kf": 1, "ekf": 2, "aekf": 3}
ESTIMATOR_NAMES = {v: k for k, v in ESTIMATOR_IDS.items()}


class MsgType(IntEnum):
    MEASUREMENT = 1
    COMMAND = 2
    HANDSHAKE = 3
    SHUTDOWN = 4


_MSG_TYPES = {int(t): t for t in MsgType}
# The types without data blocks, looked up once (a global read costs a
# quarter of an enum member lookup).
_HANDSHAKE, _SHUTDOWN = _CONTROL = (MsgType.HANDSHAKE, MsgType.SHUTDOWN)

# One layout per (dof_count, flags) of a MEASUREMENT/COMMAND frame: the
# header and the blocks the flags name, packed or unpacked in one call.
_DATA_LAYOUTS = {
    (dof, flags): struct.Struct(f"{HEADER_STRUCT.format}{dof * bin(flags).count('1')}d")
    for dof in (1, 2, 3)
    for flags in range(4)
}
# The longest frame: three dofs with both blocks, 68 bytes (a HANDSHAKE is 38).
MAX_FRAME_LEN = max(layout.size for layout in _DATA_LAYOUTS.values())


class FrameError(Exception):
    """Base class for frame encoding/decoding failures."""


class FrameEncodeError(FrameError):
    """Frame violates an invariant and cannot be encoded."""


class FrameDecodeError(FrameError):
    """Base class for the distinct decode rejection kinds."""


class TruncatedFrameError(FrameDecodeError):
    """Datagram shorter than the fixed header."""


class BadMagicError(FrameDecodeError):
    """Leading magic bytes are not ``RTAH``."""


class BadVersionError(FrameDecodeError):
    """Unsupported protocol version."""


class BadLengthError(FrameDecodeError):
    """Datagram length inconsistent with header fields."""


class BadFieldError(FrameDecodeError):
    """Header field outside its legal range."""


@dataclass(frozen=True)
class Handshake:
    dt: float
    t_end: float
    dof_mask: int
    estimator_id: int


class Frame(NamedTuple):
    """One protocol message, immutable.

    ``forces``/``displacements`` are per-DOF tuples present according to
    the message role; ``handshake`` is populated only for HANDSHAKE
    frames.
    """

    msg_type: MsgType
    dof_count: int
    seq: int
    sim_time: float
    forces: Optional[tuple[float, ...]] = None
    displacements: Optional[tuple[float, ...]] = None
    handshake: Optional[Handshake] = None


def encode_frame(f: Frame) -> bytes:
    """Serialize a frame; raises :class:`FrameEncodeError` if any
    invariant is violated or a field does not fit its slot in the
    layout (a float sequence number, a string where a number goes)."""
    try:
        return _encode(*f)
    except (struct.error, TypeError) as exc:
        raise FrameEncodeError(f"frame does not fit the layout: {exc}") from exc


def _encode(msg_type, dof_count, seq, sim_time, forces, displacements, hs) -> bytes:
    if not isinstance(msg_type, MsgType):
        raise FrameEncodeError(f"unknown message type {msg_type!r}")
    if not 1 <= dof_count <= 3:
        raise FrameEncodeError(f"dof_count must be 1..3, got {dof_count}")
    if not 0 <= seq < 2**32:
        raise FrameEncodeError(f"seq out of uint32 range: {seq}")
    flags, payload = 0, ()
    if forces is not None:
        if len(forces) != dof_count:
            raise FrameEncodeError(
                f"forces block length {len(forces)} != dof_count {dof_count}"
            )
        flags, payload = FLAG_FORCES, forces
    if displacements is not None:
        if len(displacements) != dof_count:
            raise FrameEncodeError(
                f"displacements block length {len(displacements)} != dof_count {dof_count}"
            )
        flags |= FLAG_DISPLACEMENTS
        payload = (*payload, *displacements)
    if flags and msg_type in _CONTROL:
        raise FrameEncodeError(f"{msg_type.name} carries no data blocks")
    if msg_type is _HANDSHAKE:
        if hs is None:
            raise FrameEncodeError("HANDSHAKE requires a handshake payload")
        if not 1 <= hs.dof_mask <= 7:
            raise FrameEncodeError(f"bad dof mask {hs.dof_mask}")
        if hs.estimator_id not in ESTIMATOR_NAMES:
            raise FrameEncodeError(f"bad estimator id {hs.estimator_id}")
        return HEADER_STRUCT.pack(
            MAGIC, VERSION, msg_type, dof_count, flags, seq, sim_time
        ) + HANDSHAKE_STRUCT.pack(hs.dt, hs.t_end, hs.dof_mask, hs.estimator_id)
    if hs is not None:
        raise FrameEncodeError("handshake payload only valid on HANDSHAKE frames")
    return _DATA_LAYOUTS[dof_count, flags].pack(
        MAGIC, VERSION, msg_type, dof_count, flags, seq, sim_time, *payload
    )


def decode_frame(data: bytes) -> Frame:
    """Parse one datagram into a frame, rejecting malformed input with a
    distinct error per failure kind; never reads past the datagram."""
    n = len(data)
    if n < HEADER_LEN:
        raise TruncatedFrameError(
            f"datagram of {n} bytes is shorter than the {HEADER_LEN}-byte header"
        )
    # Bytes 6 and 7 (dof_count, flags) name the layout that reads a data
    # frame whole; a datagram of any other length reads the header alone
    # and fails one of the checks below.
    layout = _DATA_LAYOUTS.get((data[6], data[7]), HEADER_STRUCT)
    if layout.size != n:
        layout = HEADER_STRUCT
    fields = layout.unpack_from(data)
    magic, version, msg_type, dof_count, flags, seq, sim_time = fields[:7]
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    mtype = _MSG_TYPES.get(msg_type)
    if mtype is None:
        raise BadFieldError(f"unknown message type {msg_type}")
    if not 1 <= dof_count <= 3:
        raise BadFieldError(f"dof_count must be 1..3, got {dof_count}")
    if flags & ~(FLAG_FORCES | FLAG_DISPLACEMENTS):
        raise BadFieldError(f"unknown flag bits 0x{flags:02x}")
    if flags and mtype in _CONTROL:
        raise BadFieldError(f"{mtype.name} must carry flags = 0")

    if mtype is _HANDSHAKE:
        expected = HEADER_LEN + HANDSHAKE_STRUCT.size
        if n != expected:
            raise BadLengthError(f"HANDSHAKE length {n} != expected {expected}")
        hs = Handshake(*HANDSHAKE_STRUCT.unpack_from(data, HEADER_LEN))
        if not 1 <= hs.dof_mask <= 7:
            raise BadFieldError(f"bad dof mask {hs.dof_mask}")
        if hs.estimator_id not in ESTIMATOR_NAMES:
            raise BadFieldError(f"bad estimator id {hs.estimator_id}")
        return Frame(mtype, dof_count, seq, sim_time, handshake=hs)

    if mtype is _SHUTDOWN:
        if n != HEADER_LEN:
            raise BadLengthError(f"SHUTDOWN length {n} != {HEADER_LEN}")
        return Frame(mtype, dof_count, seq, sim_time)

    if layout is HEADER_STRUCT:
        expected = _DATA_LAYOUTS[dof_count, flags].size
        raise BadLengthError(
            f"{mtype.name} length {n} != expected {expected} "
            f"for dof_count={dof_count}, flags=0x{flags:02x}"
        )
    forces = fields[7 : 7 + dof_count] if flags & FLAG_FORCES else None
    displacements = fields[-dof_count:] if flags & FLAG_DISPLACEMENTS else None
    return Frame(mtype, dof_count, seq, sim_time, forces, displacements)
