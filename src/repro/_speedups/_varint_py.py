"""Varint / atom wire kernels: buffer-writing encoders, buffer-protocol decoders.

The byte-level inner loops of :mod:`repro.wire.primitives`, in the
mypyc-compilable style of :mod:`repro._speedups`:

* every encoder has an ``*_into`` form that **appends to a caller-supplied
  bytearray** — the whole encode path of a batch shares one preallocated
  buffer instead of concatenating per-field ``bytes`` objects;
* every decoder indexes the buffer in place and accepts anything supporting
  the buffer protocol's integer indexing (``bytes``, ``bytearray``,
  ``memoryview``) — so the framing layer can hand out zero-copy
  ``memoryview`` slices and the codecs decode them without an intermediate
  copy.  Only a *string* atom materialises bytes (UTF-8 decoding needs
  them); integer fields never copy.

Encodings are unchanged from the original primitives: LEB128 unsigned
varints, zigzag-signed varints, tagged int-or-string atoms, length-prefixed
byte strings.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Any, List, Tuple, Union

from ..core.errors import WireFormatError

Atom = Union[int, str]


# ----------------------------------------------------------------------
# Unsigned varints (LEB128)
# ----------------------------------------------------------------------

def encode_uvarint_into(out: bytearray, value: int) -> None:
    """Append the LEB128 encoding of a non-negative integer to ``out``."""
    if value < 0:
        raise WireFormatError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    out = bytearray()
    encode_uvarint_into(out, value)
    return bytes(out)


def decode_uvarint(data: Any, offset: int = 0) -> Tuple[int, int]:
    """Decode a LEB128 varint at ``offset``; returns ``(value, new_offset)``.

    No length cap: Python ints are arbitrary precision and the encoder
    happily emits more than 10 bytes for huge counters/values, so the
    decoder must accept whatever the encoder produced (``decode ∘ encode =
    id``).  Termination is bounded by the buffer length regardless.
    """
    value = 0
    shift = 0
    size = len(data)
    while True:
        if offset >= size:
            raise WireFormatError("truncated uvarint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def uvarint_size(value: int) -> int:
    """Encoded size in bytes of ``value`` as an unsigned varint."""
    if value < 0:
        raise WireFormatError(f"uvarint cannot encode negative value {value}")
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


# ----------------------------------------------------------------------
# Signed varints (zigzag)
# ----------------------------------------------------------------------

def zigzag(value: int) -> int:
    """Map a signed integer onto the unsigned line: 0, -1, 1, -2, 2, …"""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) ^ -(value & 1)


def encode_svarint_into(out: bytearray, value: int) -> None:
    """Append the zigzag-varint encoding of a signed integer to ``out``."""
    encode_uvarint_into(out, zigzag(value))


def encode_svarint(value: int) -> bytes:
    """Encode a signed integer as a zigzag varint."""
    return encode_uvarint(zigzag(value))


def decode_svarint(data: Any, offset: int = 0) -> Tuple[int, int]:
    """Decode a zigzag varint; returns ``(value, new_offset)``."""
    raw, offset = decode_uvarint(data, offset)
    return unzigzag(raw), offset


# ----------------------------------------------------------------------
# Atoms: tagged int-or-string scalars
# ----------------------------------------------------------------------
# key = zigzag(n) << 1       for an int n
# key = (len(utf8) << 1) | 1 for a string, followed by the UTF-8 bytes

def encode_atom_into(out: bytearray, value: Atom) -> None:
    """Append the encoding of a replica id or register name to ``out``."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise WireFormatError(
            f"atom must be int or str, got {type(value).__name__}"
        )
    if isinstance(value, int):
        encode_uvarint_into(out, zigzag(value) << 1)
        return
    raw = value.encode("utf-8")
    encode_uvarint_into(out, (len(raw) << 1) | 1)
    out += raw


def encode_atom(value: Atom) -> bytes:
    """Encode a replica id or register name (int or str)."""
    out = bytearray()
    encode_atom_into(out, value)
    return bytes(out)


def decode_atom(data: Any, offset: int = 0) -> Tuple[Atom, int]:
    """Decode an atom; returns ``(value, new_offset)``."""
    key, offset = decode_uvarint(data, offset)
    if not key & 1:
        return unzigzag(key >> 1), offset
    length = key >> 1
    end = offset + length
    if end > len(data):
        raise WireFormatError("truncated string atom")
    raw = data[offset:end]
    if not isinstance(raw, bytes):
        raw = bytes(raw)
    try:
        return raw.decode("utf-8"), end
    except UnicodeDecodeError:
        raise WireFormatError("string atom is not UTF-8") from None


# ----------------------------------------------------------------------
# Counter bodies of the timestamp codecs
# ----------------------------------------------------------------------
# A timestamp's counters are a list aligned to its index set's canonical
# (wire) order; ``atoms`` are a codec layout's pre-encoded bytes written
# before each counter.  Counters are non-negative, so a value below 0x80 is
# its own one-byte varint.

def encode_counters_into(out: bytearray, atoms: Tuple[bytes, ...],
                         values: List[int]) -> None:
    """Append ``atom, uvarint(counter)`` for every position."""
    for k in range(len(values)):
        out += atoms[k]
        value = values[k]
        if value < 0x80:
            out.append(value)
        else:
            encode_uvarint_into(out, value)


def counter_bytes(values: List[int]) -> int:
    """Total varint size of the counters."""
    total = len(values)
    for value in values:
        if value > 0x7F:
            total += uvarint_size(value) - 1
    return total


def encode_counter_delta_into(out: bytearray, values: List[int],
                              previous: List[int]) -> int:
    """Append the delta body of ``values`` against ``previous``.

    Both lists are aligned to one index set.  The body is the number of
    raised positions, then ``(position gap, value delta)`` per raised
    position in order.  Returns how many bytes the raised counters' varints
    grew by, or ``-1`` — with nothing appended — when no delta applies: the
    lengths differ or a counter decreased.
    """
    if len(values) != len(previous):
        return -1
    raised = list(compress(range(len(values)), map(ne, values, previous)))
    grown = 0
    for position in raised:
        old = previous[position]
        new = values[position]
        if new < old:
            return -1
        # A varint can only grow when the bit length does, and
        # ``new ^ old >= old`` exactly when ``new`` has a higher bit.
        if new > 0x7F and new ^ old >= old:
            grown += uvarint_size(new) - uvarint_size(old)
    encode_uvarint_into(out, len(raised))
    last = -1
    for position in raised:
        gap = position - last - 1
        step = values[position] - previous[position]
        if gap < 0x80 and step < 0x80:
            out.append(gap)
            out.append(step)
        else:
            encode_uvarint_into(out, gap)
            encode_uvarint_into(out, step)
        last = position
    return grown


def apply_counter_delta(data: Any, offset: int, values: List[int]) -> int:
    """Apply the delta body at ``offset`` to ``values`` in place; returns
    the offset past it.

    ``values`` is the caller's copy of the previous timestamp's counters.
    Each raised position takes at least two bytes, so a count the body
    cannot hold, or beyond the number of counters, is rejected before any
    work, as is a gap that runs past the last position.
    """
    count, offset = decode_uvarint(data, offset)
    size = len(values)
    if count > size or 2 * count > len(data) - offset:
        raise WireFormatError(
            f"delta frame raises {count} counters; the timestamp has {size}"
        )
    position = -1
    for _ in range(count):
        gap, offset = decode_uvarint(data, offset)
        step, offset = decode_uvarint(data, offset)
        position += gap + 1
        if position >= size:
            raise WireFormatError("delta frame indexes past the previous timestamp")
        values[position] += step
    return offset


# ----------------------------------------------------------------------
# Length-prefixed byte strings
# ----------------------------------------------------------------------

def encode_bytes_into(out: bytearray, value: bytes) -> None:
    """Append a length-prefixed byte string to ``out``."""
    encode_uvarint_into(out, len(value))
    out += value


def encode_bytes(value: bytes) -> bytes:
    """Length-prefixed byte string."""
    out = bytearray()
    encode_bytes_into(out, value)
    return bytes(out)


def decode_bytes(data: Any, offset: int = 0) -> Tuple[bytes, int]:
    """Decode a length-prefixed byte string; returns ``(value, new_offset)``.

    Always returns ``bytes`` (consumers hand the value to ``pickle`` /
    ``str.decode``), converting from a ``memoryview`` slice when needed —
    the one place the zero-copy decode path materialises payload bytes.
    """
    length, offset = decode_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise WireFormatError("truncated byte string")
    raw = data[offset:end]
    if not isinstance(raw, bytes):
        raw = bytes(raw)
    return raw, end
