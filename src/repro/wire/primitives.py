"""Binary wire primitives: varints, zigzag, atoms and length-prefixed bytes.

Everything the timestamp codecs and the batch envelope serialize bottoms out
in three primitives:

* **unsigned varints** (LEB128): 7 payload bits per byte, continuation bit
  on top — small counters cost one byte, and the encoding is monotone in
  the value (``a <= b  =>  len(enc(a)) <= len(enc(b))``), which is what
  makes the byte measure comparable to the paper's counter measure;
* **zigzag-signed varints** for values that may be negative (replica ids
  are positive by convention but nothing in the library requires it);
* **atoms**: a tagged int-or-string scalar used for replica ids and
  register names, encoded as a single varint key — even for ints (one byte
  for small ids), length + UTF-8 for strings.

Decoders take ``(data, offset)`` and return ``(value, new_offset)`` so
frames compose without intermediate slicing; they accept any buffer that
supports integer indexing (``bytes``, ``bytearray``, ``memoryview``), so
the framing layer's zero-copy ``memoryview`` slices decode without a copy.
Every encoder also has an ``*_into`` variant appending to a caller-supplied
``bytearray``, letting a whole frame share one output buffer.

This module is the stable import surface; the implementations live in
:mod:`repro._speedups` (``_varint_py``, optionally mypyc-compiled as
``_varint_c``) and are selected at import time.
"""

from __future__ import annotations

from typing import Union

# WireFormatError predates the kernel split and is re-exported here for
# every existing ``from repro.wire.primitives import WireFormatError`` site.
from ..core.errors import WireFormatError
from .._speedups import varint as _varint

Atom = Union[int, str]

encode_uvarint_into = _varint.encode_uvarint_into
encode_uvarint = _varint.encode_uvarint
decode_uvarint = _varint.decode_uvarint
uvarint_size = _varint.uvarint_size

zigzag = _varint.zigzag
unzigzag = _varint.unzigzag
encode_svarint_into = _varint.encode_svarint_into
encode_svarint = _varint.encode_svarint
decode_svarint = _varint.decode_svarint

encode_atom_into = _varint.encode_atom_into
encode_atom = _varint.encode_atom
decode_atom = _varint.decode_atom

encode_counters_into = _varint.encode_counters_into
encode_counter_delta_into = _varint.encode_counter_delta_into
apply_counter_delta = _varint.apply_counter_delta
counter_bytes = _varint.counter_bytes

encode_bytes_into = _varint.encode_bytes_into
encode_bytes = _varint.encode_bytes
decode_bytes = _varint.decode_bytes

__all__ = [
    "Atom",
    "WireFormatError",
    "apply_counter_delta",
    "counter_bytes",
    "decode_atom",
    "decode_bytes",
    "decode_svarint",
    "decode_uvarint",
    "encode_atom",
    "encode_atom_into",
    "encode_bytes",
    "encode_bytes_into",
    "encode_counter_delta_into",
    "encode_counters_into",
    "encode_svarint",
    "encode_svarint_into",
    "encode_uvarint",
    "encode_uvarint_into",
    "uvarint_size",
    "zigzag",
    "unzigzag",
]
