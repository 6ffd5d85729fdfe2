"""Per-timestamp-family binary codecs and the value (payload) codec.

Every protocol family in the library serializes its timestamps through one
of four codecs, each identified by a one-byte family tag on the wire:

===========  ===============================================  ==========
family       timestamp shape                                  wire body
===========  ===============================================  ==========
``edge``     sparse edge-indexed vector (the paper's ``τ_i``)  count, then (atom a, atom b, uvarint counter) per sorted edge
``vector``   replica-indexed vector (full replication)         count, then (atom rid, uvarint counter) per sorted replica
``matrix``   dense ``R × (R−1)`` matrix (Full-Track)           R, the sorted replica ids, then the counters in pair order
``hoop``     sparse edge-indexed vector over hoop edge sets    same body as ``edge``, distinct tag
===========  ===============================================  ==========

The matrix codec exploits the one structural fact Full-Track guarantees —
the index set is *every* ordered replica pair — to avoid shipping edge ids
at all; the sparse codecs ship explicit ``(tail, head)`` atoms because the
whole point of the paper's algorithm is that the index set is an arbitrary
subgraph.

Every codec also implements **delta frames** against a previous timestamp
with the same index set: counters are monotone non-decreasing over a
replica's lifetime (``advance`` increments, ``merge`` takes maxima), so a
delta frame lists only the raised entries as ``(index gap, value delta)``
varint pairs.  :func:`encode_timestamp_frame` picks whichever of the two
encodings is smaller, so a delta frame never loses to the full frame it
replaces.

Frame layout (both modes)::

    [family tag: 1 byte][mode: 1 byte = 0 full | 1 delta][body]

Decoding a delta frame requires the previous timestamp on the channel —
that per-channel state lives in :mod:`repro.wire.channel`.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

from ..core.errors import ProtocolError
from ..core.protocol import BootstrapMetadata
from ..core.timestamps import EdgeTimestamp, VectorTimestamp, known_index_set
from .primitives import (
    WireFormatError,
    apply_counter_delta,
    counter_bytes,
    decode_atom,
    decode_bytes,
    decode_svarint,
    decode_uvarint,
    encode_atom,
    encode_bytes_into,
    encode_counter_delta_into,
    encode_counters_into,
    encode_svarint_into,
    encode_uvarint,
    encode_uvarint_into,
    uvarint_size,
)

MODE_FULL = 0
MODE_DELTA = 1


class Layout(NamedTuple):
    """One family's wire form of an index set, whatever its counter values.

    The index set (:class:`~repro.core.timestamps.IndexSet`) is the
    timestamp's schema: its canonical entry order is the wire order, and
    every timestamp over it — a replica's ``τ_i`` across its writes and
    merges, each copy sent on a channel, each timestamp decoded from one —
    shares the one object.  A family's layout is built once per index set
    (:meth:`TimestampCodec.layout_of`) and kept on it, so the sort and the
    atom encoding are paid per index set, not per message.
    """

    #: Pre-encoded bytes written before each entry's counter.
    atoms: Tuple[bytes, ...]
    #: Pre-encoded bytes of the body before the first entry.
    prefix: bytes
    #: ``len(prefix) + sum(len(atom))``: the full body minus its counters.
    size: int


def _counter_bytes(ts: Any) -> int:
    """``ts``'s counters' varint size, computed once per timestamp."""
    size = ts.counter_bytes
    if size < 0:
        size = ts.counter_bytes = counter_bytes(ts.values)
    return size


class TimestampCodec:
    """One timestamp family's binary encoding.

    Subclasses provide the family identity (:attr:`name`, :attr:`tag`), the
    timestamp type they decode to, the :class:`Layout` of an index set and
    :meth:`decode_full`; the full encoding and the delta logic are shared.
    All codecs are stateless singletons: per-channel delta state lives in
    :class:`~repro.wire.channel.ChannelDeltaEncoder`, per-index-set facts
    (the layout) on the index set, and the one per-timestamp fact — the
    counters' varint size, which with the layout gives the full frame size
    — in the timestamp's ``counter_bytes`` slot.
    """

    #: Human-readable family name (``edge`` / ``vector`` / ``matrix`` / ``hoop``).
    name: str = ""
    #: One-byte wire tag.
    tag: int = 0
    #: The key of this family's layout on an index set: the edge and hoop
    #: bodies are identical, so they share one.
    shape: str = ""
    #: What a frame of this family decodes to.
    timestamp_type: Type = EdgeTimestamp

    # -- hooks ---------------------------------------------------------
    def layout_of(self, ts: Any) -> Layout:
        """The :class:`Layout` of ``ts``'s index set, built once per set."""
        layouts = ts.index.layouts
        layout = layouts.get(self.shape)
        if layout is None:
            layout = layouts[self.shape] = self._build_layout(ts.index.entries)
        return layout

    def _build_layout(self, entries: Tuple[Any, ...]) -> Layout:
        """Compute the layout of an index set's canonical ``entries``."""
        raise NotImplementedError

    def full_frame_size(self, ts: Any) -> int:
        """Size in bytes of the *full* frame for ``ts``, without building it.

        Used both to charge the no-delta counterfactual in the statistics
        and to guarantee a delta frame is only used when it actually wins:
        the layout's size plus the counters' varint size, which a
        delta-encoded timestamp gets from its predecessor's
        (:meth:`encode_delta_into`).
        """
        return 2 + self.layout_of(ts).size + _counter_bytes(ts)

    def encode_full_into(self, out: bytearray, ts: Any) -> None:
        """Append the self-describing full body to ``out`` (no channel state).

        The layout holds every byte that does not depend on the counter
        values, so the body is one ``+=`` and one varint per entry.
        """
        layout = self.layout_of(ts)
        out += layout.prefix
        encode_counters_into(out, layout.atoms, ts.values)

    def encode_full(self, ts: Any) -> bytes:
        """The self-describing full body, as standalone bytes."""
        out = bytearray()
        self.encode_full_into(out, ts)
        return bytes(out)

    def decode_full(self, data: bytes, offset: int) -> Tuple[Any, int]:
        """Inverse of :meth:`encode_full`."""
        raise NotImplementedError

    def _decoded(self, entries: Tuple[Any, ...], values: List[int]) -> Any:
        """The timestamp a full frame listed, entry by entry.

        Entries in canonical order over a live index set — every frame a
        library encoder wrote for a running replica — take that set as
        they are; anything else is canonicalised (and validated) through
        the family's constructor.
        """
        index = known_index_set(entries)
        if index is not None:
            return self.timestamp_type._of(index, values)
        try:
            return self.timestamp_type(dict(zip(entries, values)))
        except (TypeError, ValueError, ProtocolError) as exc:
            raise WireFormatError(f"undecodable {self.name} timestamp index: {exc}") from None

    # -- shared delta logic --------------------------------------------
    def encode_delta_into(self, out: bytearray, ts: Any, prev: Any) -> bool:
        """Append the delta body against ``prev``; ``False`` if no delta applies.

        A delta frame exists iff ``ts`` and ``prev`` share the index set and
        no counter decreased (both always hold for successive timestamps of
        one live replica; restarts and index-set changes fall back to full).
        When this returns ``False`` nothing was appended to ``out``.

        The raised positions are found by comparing the two counter lists;
        ``ts``'s full frame size is ``prev``'s plus the varint growth of the
        raised counters.  No entry is hashed, sorted or sized beyond that.
        """
        if type(prev) is not type(ts) or prev.index is not ts.index:
            return False
        grown = encode_counter_delta_into(out, ts.values, prev.values)
        if grown < 0:
            return False
        if ts.counter_bytes < 0:
            ts.counter_bytes = _counter_bytes(prev) + grown
        return True

    def decode_delta(self, data: bytes, offset: int, prev: Any) -> Tuple[Any, int]:
        """Apply a delta body to ``prev``; returns ``(timestamp, new_offset)``.

        The position gaps go onto a copy of ``prev``'s counter list; the
        result shares ``prev``'s index set.
        """
        if type(prev) is not self.timestamp_type:
            raise WireFormatError(
                f"{self.name} delta frame against a {type(prev).__name__}"
            )
        values = prev.values.copy()
        offset = apply_counter_delta(data, offset, values)
        return prev._of(prev.index, values), offset


def _body_holds(data: Any, offset: int, count: int, entry_bytes: int) -> None:
    """Reject a count of entries the rest of the frame cannot hold."""
    if count * entry_bytes > len(data) - offset:
        raise WireFormatError(
            f"timestamp frame lists {count} entries; its body cannot hold them"
        )


class EdgeTimestampCodec(TimestampCodec):
    """Sparse codec for the paper's edge-indexed timestamps."""

    name = "edge"
    tag = 1
    shape = "pairs"

    def _build_layout(self, entries: Tuple[Any, ...]) -> Layout:
        atoms = tuple(encode_atom(tail) + encode_atom(head) for tail, head in entries)
        prefix = encode_uvarint(len(entries))
        return Layout(atoms, prefix, len(prefix) + sum(map(len, atoms)))

    def decode_full(self, data: bytes, offset: int) -> Tuple[EdgeTimestamp, int]:
        count, offset = decode_uvarint(data, offset)
        _body_holds(data, offset, count, 3)
        entries: List[Tuple[Any, Any]] = []
        values: List[int] = []
        for _ in range(count):
            tail, offset = decode_atom(data, offset)
            head, offset = decode_atom(data, offset)
            value, offset = decode_uvarint(data, offset)
            entries.append((tail, head))
            values.append(value)
        return self._decoded(tuple(entries), values), offset


class HoopTimestampCodec(EdgeTimestampCodec):
    """The hoop-tracking family: edge-shaped timestamps, distinct wire tag.

    Hoop-derived edge sets are sparse like the paper's, so the body is the
    edge codec's; the separate tag keeps per-family byte accounting honest.
    """

    name = "hoop"
    tag = 4


class VectorTimestampCodec(TimestampCodec):
    """Codec for classical replica-indexed vector timestamps."""

    name = "vector"
    tag = 2
    shape = "atoms"
    timestamp_type = VectorTimestamp

    def _build_layout(self, entries: Tuple[Any, ...]) -> Layout:
        atoms = tuple(map(encode_atom, entries))
        prefix = encode_uvarint(len(entries))
        return Layout(atoms, prefix, len(prefix) + sum(map(len, atoms)))

    def decode_full(self, data: bytes, offset: int) -> Tuple[VectorTimestamp, int]:
        count, offset = decode_uvarint(data, offset)
        _body_holds(data, offset, count, 2)
        entries: List[Any] = []
        values: List[int] = []
        for _ in range(count):
            rid, offset = decode_atom(data, offset)
            value, offset = decode_uvarint(data, offset)
            entries.append(rid)
            values.append(value)
        # An atom can legally decode as ``str``; the constructor behind
        # ``_decoded`` coerces vector keys to ``int``.
        return self._decoded(tuple(entries), values), offset


class MatrixTimestampCodec(TimestampCodec):
    """Dense codec for Full-Track's complete ``R × (R−1)`` matrix clocks.

    The index set of a Full-Track timestamp is *every* ordered pair over the
    replica set, so the wire body ships the replica ids once and the
    counters positionally — 2 atoms per replica instead of 2 atoms per pair.
    Over sorted ids the pairs in that order are the canonical order.
    """

    name = "matrix"
    tag = 3
    shape = "matrix"

    @staticmethod
    def _all_pairs(ids: Sequence[Any]) -> Tuple[Tuple[Any, Any], ...]:
        return tuple((a, b) for a in ids for b in ids if a != b)

    def _build_layout(self, entries: Tuple[Any, ...]) -> Layout:
        ids = sorted({rid for edge in entries for rid in edge})
        pairs = self._all_pairs(ids)
        if pairs != entries:
            raise WireFormatError(
                "matrix codec requires a complete ordered-pair index set; "
                f"got {len(entries)} of {len(pairs)} pairs"
            )
        prefix = encode_uvarint(len(ids)) + b"".join(map(encode_atom, ids))
        return Layout((b"",) * len(pairs), prefix, len(prefix))

    def decode_full(self, data: bytes, offset: int) -> Tuple[EdgeTimestamp, int]:
        count, offset = decode_uvarint(data, offset)
        _body_holds(data, offset, count, 1)
        ids: List[Any] = []
        for _ in range(count):
            rid, offset = decode_atom(data, offset)
            ids.append(rid)
        _body_holds(data, offset, count * (count - 1), 1)
        pairs = self._all_pairs(ids)
        values: List[int] = []
        for _ in pairs:
            value, offset = decode_uvarint(data, offset)
            values.append(value)
        return self._decoded(pairs, values), offset


class ReconfigCodec(TimestampCodec):
    """The membership/state-transfer family: bootstrap stream positions.

    State-transfer messages (:class:`~repro.core.protocol.BootstrapMetadata`)
    carry no counters at all — just the configuration epoch and the stream
    position — so their frame is three varints.  Delta frames never apply
    (there is nothing to delta against), and the distinct family tag keeps
    reconfiguration traffic separable in per-family byte accounting.
    """

    name = "reconfig"
    tag = 5

    def full_frame_size(self, ts: BootstrapMetadata) -> int:
        return 2 + (
            uvarint_size(ts.epoch) + uvarint_size(ts.index) + uvarint_size(ts.total)
        )

    def encode_full_into(self, out: bytearray, ts: BootstrapMetadata) -> None:
        encode_uvarint_into(out, ts.epoch)
        encode_uvarint_into(out, ts.index)
        encode_uvarint_into(out, ts.total)

    def decode_full(self, data: bytes, offset: int) -> Tuple[BootstrapMetadata, int]:
        epoch, offset = decode_uvarint(data, offset)
        index, offset = decode_uvarint(data, offset)
        total, offset = decode_uvarint(data, offset)
        return BootstrapMetadata(index=index, total=total, epoch=epoch), offset

    def encode_delta_into(self, out: bytearray, ts: BootstrapMetadata,
                          prev: Any) -> bool:
        return False

    def decode_delta(self, data: bytes, offset: int,
                     prev: Any) -> Tuple[BootstrapMetadata, int]:
        raise WireFormatError("reconfig timestamp frames have no delta mode")


#: The family singletons, and the wire-tag dispatch table.
EDGE_CODEC = EdgeTimestampCodec()
VECTOR_CODEC = VectorTimestampCodec()
MATRIX_CODEC = MatrixTimestampCodec()
HOOP_CODEC = HoopTimestampCodec()
RECONFIG_CODEC = ReconfigCodec()

CODEC_BY_TAG: Dict[int, TimestampCodec] = {
    codec.tag: codec
    for codec in (EDGE_CODEC, VECTOR_CODEC, MATRIX_CODEC, HOOP_CODEC, RECONFIG_CODEC)
}

#: Fallback type-based dispatch for metadata whose replica family is unknown
#: (e.g. a message inspected outside any cluster).
_CODEC_BY_TYPE: Dict[Type, TimestampCodec] = {
    EdgeTimestamp: EDGE_CODEC,
    VectorTimestamp: VECTOR_CODEC,
    BootstrapMetadata: RECONFIG_CODEC,
}


def register_codec_type(metadata_type: Type, codec: TimestampCodec) -> None:
    """Register a fallback codec for a metadata type (extension hook)."""
    _CODEC_BY_TYPE[metadata_type] = codec
    CODEC_BY_TAG[codec.tag] = codec


def codec_for(metadata: Any) -> TimestampCodec:
    """The fallback codec for a metadata object, dispatched on its type."""
    codec = _CODEC_BY_TYPE.get(type(metadata))
    if codec is None:
        raise WireFormatError(
            f"no timestamp codec registered for {type(metadata).__name__}"
        )
    return codec


class TimestampFrame(NamedTuple):
    """One encoded timestamp frame plus its accounting facts."""

    data: bytes
    used_delta: bool
    #: What the full (non-delta) frame would have cost, in bytes — equal to
    #: ``len(data)`` when ``used_delta`` is false.  Feeds the delta-savings
    #: accounting in :class:`~repro.sim.engine.NetworkStats`.
    full_size: int


def encode_timestamp_frame_into(
    out: bytearray,
    ts: Any,
    codec: Optional[TimestampCodec] = None,
    prev: Optional[Any] = None,
) -> Tuple[bool, int]:
    """Append one tagged timestamp frame to ``out``.

    Returns ``(used_delta, full_size)`` — the accounting facts of
    :class:`TimestampFrame` without materialising a separate byte string.
    With ``prev`` given (the previous timestamp shipped on the channel) a
    delta body is attempted and used whenever it is both valid and strictly
    smaller than the full body — a delta frame therefore never loses to the
    full frame it replaces.
    """
    if isinstance(ts, BootstrapMetadata):
        # State-transfer metadata always ships through its own family,
        # regardless of which timestamp codec the sending replica's normal
        # traffic uses (bootstrap frames share channels with that traffic).
        codec = RECONFIG_CODEC
    codec = codec or codec_for(ts)
    mark = len(out)
    if prev is not None:
        out.append(codec.tag)
        out.append(MODE_DELTA)
        if codec.encode_delta_into(out, ts, prev):
            # The full frame is only *sized* here, never built: the delta
            # encoder derived the size from the previous timestamp's plus
            # the raised counters' varint growth, so this is a cache hit.
            full_size = codec.full_frame_size(ts)
            if len(out) - mark < full_size:
                return True, full_size
        del out[mark:]
    out.append(codec.tag)
    out.append(MODE_FULL)
    codec.encode_full_into(out, ts)
    return False, len(out) - mark


def encode_timestamp_frame(
    ts: Any,
    codec: Optional[TimestampCodec] = None,
    prev: Optional[Any] = None,
) -> TimestampFrame:
    """Encode one timestamp as a tagged frame (standalone-bytes form)."""
    out = bytearray()
    used_delta, full_size = encode_timestamp_frame_into(
        out, ts, codec=codec, prev=prev
    )
    return TimestampFrame(bytes(out), used_delta, full_size)


def decode_timestamp_frame(
    data: bytes, offset: int = 0, prev: Optional[Any] = None
) -> Tuple[Any, int]:
    """Decode a tagged timestamp frame (``prev`` required for delta mode)."""
    if offset + 2 > len(data):
        raise WireFormatError("truncated timestamp frame header")
    tag, mode = data[offset], data[offset + 1]
    offset += 2
    codec = CODEC_BY_TAG.get(tag)
    if codec is None:
        raise WireFormatError(f"unknown timestamp family tag {tag}")
    if mode == MODE_FULL:
        return codec.decode_full(data, offset)
    if mode == MODE_DELTA:
        if prev is None:
            raise WireFormatError(
                "delta timestamp frame without channel state (previous timestamp)"
            )
        return codec.decode_delta(data, offset, prev)
    raise WireFormatError(f"unknown timestamp frame mode {mode}")


# ----------------------------------------------------------------------
# Payload values
# ----------------------------------------------------------------------
# Register values are opaque to the protocol; the workloads write short
# strings.  The value codec covers the common scalar types with one tag
# byte each and falls back to pickle for anything else, so every payload
# round-trips exactly.

_VALUE_NONE = 0
_VALUE_FALSE = 1
_VALUE_TRUE = 2
_VALUE_INT = 3
_VALUE_FLOAT = 4
_VALUE_STR = 5
_VALUE_BYTES = 6
_VALUE_PICKLE = 7


def encode_value_into(out: bytearray, value: Any) -> None:
    """Append one encoded register value (tag byte + body) to ``out``."""
    if value is None:
        out.append(_VALUE_NONE)
    elif value is False:
        out.append(_VALUE_FALSE)
    elif value is True:
        out.append(_VALUE_TRUE)
    elif isinstance(value, int):
        out.append(_VALUE_INT)
        encode_svarint_into(out, value)
    elif isinstance(value, float):
        out.append(_VALUE_FLOAT)
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        out.append(_VALUE_STR)
        encode_bytes_into(out, value.encode("utf-8"))
    elif isinstance(value, bytes):
        out.append(_VALUE_BYTES)
        encode_bytes_into(out, value)
    else:
        out.append(_VALUE_PICKLE)
        encode_bytes_into(
            out, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )


def encode_value(value: Any) -> bytes:
    """Encode one register value (tag byte + body)."""
    out = bytearray()
    encode_value_into(out, value)
    return bytes(out)


def decode_value(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode one register value; returns ``(value, new_offset)``."""
    if offset >= len(data):
        raise WireFormatError("truncated value frame")
    tag = data[offset]
    offset += 1
    if tag == _VALUE_NONE:
        return None, offset
    if tag == _VALUE_FALSE:
        return False, offset
    if tag == _VALUE_TRUE:
        return True, offset
    if tag == _VALUE_INT:
        return decode_svarint(data, offset)
    if tag == _VALUE_FLOAT:
        if offset + 8 > len(data):
            raise WireFormatError("truncated float value")
        return struct.unpack_from("<d", data, offset)[0], offset + 8
    if tag == _VALUE_STR:
        raw, offset = decode_bytes(data, offset)
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError:
            raise WireFormatError("string value is not UTF-8") from None
    if tag == _VALUE_BYTES:
        return decode_bytes(data, offset)
    if tag == _VALUE_PICKLE:
        raw, offset = decode_bytes(data, offset)
        try:
            return pickle.loads(raw), offset
        except Exception as exc:
            # Corrupt bytes make pickle raise almost anything.
            raise WireFormatError(f"undecodable pickled value: {exc!r}") from None
    raise WireFormatError(f"unknown value tag {tag}")
