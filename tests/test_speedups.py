"""The kernel layer: runtime selector contract and kernel semantics.

:mod:`repro._speedups` is the seam between the library and its optional
mypyc-compiled core.  These tests pin (a) the selector contract — pure
fallback always importable, ``REPRO_PURE_PYTHON=1`` honoured, the active
core honestly reported — and (b) the kernel semantics against independent
reference implementations, so a compiled build that drifts from the pure
source fails loudly rather than corrupting timestamps quietly.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._speedups import (
    _tsops_py,
    _varint_py,
    active_core,
    compiled_active,
    tsops,
    varint,
)
from repro.core.errors import WireFormatError

SRC = str(Path(__file__).resolve().parent.parent / "src")

# ----------------------------------------------------------------------
# The runtime selector
# ----------------------------------------------------------------------


def test_selector_reports_a_coherent_core():
    assert active_core() in ("pure", "compiled")
    assert compiled_active() == (active_core() == "compiled")
    if not compiled_active():
        # Without the compiled extension the selector must be serving the
        # pure-Python reference modules, not some stray ``*_c`` copy.
        assert tsops is _tsops_py
        assert varint is _varint_py


def test_selector_honours_repro_pure_python():
    """REPRO_PURE_PYTHON=1 must pin the pure kernels in a fresh interpreter."""
    code = (
        "from repro._speedups import active_core, tsops, _tsops_py\n"
        "assert active_core() == 'pure', active_core()\n"
        "assert tsops is _tsops_py\n"
        "print('ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "REPRO_PURE_PYTHON": "1", "PATH": "/usr/bin"},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_facades_serve_the_selected_kernels():
    """The public wire primitives are bindings of the selected kernel."""
    from repro.wire import primitives

    assert primitives.encode_uvarint is varint.encode_uvarint
    assert primitives.decode_atom is varint.decode_atom
    assert primitives.encode_bytes_into is varint.encode_bytes_into


# ----------------------------------------------------------------------
# Timestamp kernels vs reference semantics
# ----------------------------------------------------------------------

counter_dicts = st.dictionaries(
    st.integers(1, 6), st.integers(0, 4), max_size=6
)


@given(local=counter_dicts, remote=counter_dicts)
def test_merge_union_reference(local, remote):
    merged, changed = tsops.merge_union(local, remote)
    keys = set(local) | set(remote)
    assert merged == {
        k: max(local.get(k, 0), remote.get(k, 0)) for k in keys
    }
    assert changed == [
        (k, v)
        for k, v in remote.items()
        if v > local.get(k, 0)
    ]
    # Inputs are never mutated; the result is a fresh dict.
    assert merged is not local and merged is not remote


@given(local=counter_dicts, remote=counter_dicts, me=st.integers(1, 6))
def test_merge_intersection_reference(local, remote, me):
    # Edge keys are (tail, head) tuples; reuse int dicts as (k, me)-keyed.
    local_e = {(k, k % 2 + 1): v for k, v in local.items()}
    remote_e = {(k, k % 2 + 1): v for k, v in remote.items()}
    merged, changed = tsops.merge_intersection(local_e, remote_e, me)
    assert merged.keys() == local_e.keys(), "index set τ_i never grows"
    assert merged == {
        k: max(v, remote_e.get(k, v)) for k, v in local_e.items()
    }
    assert changed == sorted(
        (k, v)
        for k, v in remote_e.items()
        if k in local_e and v > local_e[k] and k[1] == me
    )


def _naive_vector_blocking(local, remote, sender):
    if remote.get(sender, 0) != local.get(sender, 0) + 1:
        return ("seq", sender, remote.get(sender, 0))
    for key, value in remote.items():
        if key != sender and value > local.get(key, 0):
            return ("ge", key)
    return None


@given(local=counter_dicts, remote=counter_dicts, sender=st.integers(1, 6))
def test_vector_blocking_key_reference(local, remote, sender):
    assert tsops.vector_blocking_key(local, remote, sender) == (
        _naive_vector_blocking(local, remote, sender)
    )


@given(local=counter_dicts, remote=counter_dicts, sender=st.integers(1, 6))
def test_vector_try_apply_is_check_plus_merge(local, remote, sender):
    """The fused kernel ≡ blocking check, then union merge, in one scan."""
    key, merged, changed = tsops.vector_try_apply(local, remote, sender)
    assert key == _naive_vector_blocking(local, remote, sender)
    if key is not None:
        assert merged is None and changed is None
        return
    ref_merged, ref_changed = tsops.merge_union(local, remote)
    assert merged == ref_merged
    assert changed == ref_changed == [(sender, remote.get(sender, 0))]


@given(local=counter_dicts, sender=st.integers(1, 6), bump=st.integers(1, 3))
def test_vector_try_apply_no_scan_accept(local, sender, bump):
    """The cached-total fast path agrees with the scanning path exactly."""
    remote = {k: 0 for k in local}
    remote[sender] = local.get(sender, 0) + 1
    total = sum(remote.values())
    fast = tsops.vector_try_apply(local, remote, sender, total)
    slow = tsops.vector_try_apply(local, remote, sender)
    assert fast == slow
    assert fast[0] is None


def _naive_edge_blocking(local, remote, sender, me, incoming):
    ki = (sender, me)
    if local.get(ki, 0) != remote.get(ki, 0) - 1:
        return ("seq", ki, remote.get(ki, 0))
    for e in incoming:
        if e[0] != sender and e in remote and local.get(e, 0) < remote[e]:
            return ("ge", e)
    return None


@given(data=st.data())
def test_edge_blocking_key_reference(data):
    me = 1
    tails = data.draw(st.sets(st.integers(2, 6), min_size=1, max_size=5))
    incoming = tuple(sorted((t, me) for t in tails))
    sender = data.draw(st.sampled_from(sorted(tails)))
    values = st.integers(0, 3)
    local = {e: data.draw(values) for e in incoming}
    remote = {
        e: data.draw(values)
        for e in incoming
        if data.draw(st.booleans())
    }
    assert tsops.edge_blocking_key(local, remote, sender, me, incoming) == (
        _naive_edge_blocking(local, remote, sender, me, incoming)
    )


# ----------------------------------------------------------------------
# Varint kernels: roundtrips, sizes, zero-copy inputs, malformed input
# ----------------------------------------------------------------------

atoms = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=24),
)


@given(value=st.integers(min_value=0, max_value=2**70))
def test_uvarint_roundtrip_and_size(value):
    encoded = varint.encode_uvarint(value)
    assert len(encoded) == varint.uvarint_size(value)
    assert varint.decode_uvarint(encoded) == (value, len(encoded))
    # Zero-copy decode: a memoryview over a larger buffer, at an offset.
    framed = memoryview(b"\xff" + encoded)
    assert varint.decode_uvarint(framed, 1) == (value, 1 + len(encoded))


@given(value=st.integers(min_value=-(2**60), max_value=2**60))
def test_svarint_roundtrip(value):
    encoded = varint.encode_svarint(value)
    assert varint.decode_svarint(encoded) == (value, len(encoded))
    assert varint.unzigzag(varint.zigzag(value)) == value


@given(value=atoms)
def test_atom_roundtrip_and_size(value):
    encoded = varint.encode_atom(value)
    if isinstance(value, int):
        assert len(encoded) == varint.uvarint_size(varint.zigzag(value) << 1)
    else:
        raw = value.encode("utf-8")
        assert len(encoded) == varint.uvarint_size((len(raw) << 1) | 1) + len(raw)
    decoded, end = varint.decode_atom(memoryview(encoded))
    assert decoded == value and type(decoded) is type(value)
    assert end == len(encoded)


@given(value=st.binary(max_size=64))
def test_bytes_roundtrip_returns_real_bytes(value):
    encoded = varint.encode_bytes(value)
    decoded, end = varint.decode_bytes(memoryview(encoded))
    assert decoded == value and isinstance(decoded, bytes)
    assert end == len(encoded)


def test_into_encoders_append_to_shared_buffer():
    out = bytearray(b"prefix")
    varint.encode_uvarint_into(out, 300)
    varint.encode_atom_into(out, "reg")
    varint.encode_bytes_into(out, b"\x00\x01")
    assert out[:6] == b"prefix"
    value, offset = varint.decode_uvarint(out, 6)
    assert value == 300
    atom, offset = varint.decode_atom(out, offset)
    assert atom == "reg"
    payload, offset = varint.decode_bytes(out, offset)
    assert payload == b"\x00\x01" and offset == len(out)


@pytest.mark.parametrize(
    "blob",
    [b"", b"\x80", b"\x80\x80"],
    ids=["empty", "continuation-then-eof", "two-continuations"],
)
def test_truncated_uvarint_raises(blob):
    with pytest.raises(WireFormatError):
        varint.decode_uvarint(blob)


def test_truncated_atom_and_bytes_raise():
    with pytest.raises(WireFormatError):
        varint.decode_atom(varint.encode_atom("hello")[:-2])
    with pytest.raises(WireFormatError):
        varint.decode_bytes(varint.encode_bytes(b"hello")[:-2])
    with pytest.raises(WireFormatError):
        varint.encode_uvarint(-1)
    with pytest.raises(WireFormatError):
        varint.encode_atom(True)


# ----------------------------------------------------------------------
# Counter-body kernels of the timestamp codecs vs reference semantics
# ----------------------------------------------------------------------

counter_bodies = st.dictionaries(
    st.integers(0, 20), st.integers(0, 2**20), min_size=0, max_size=12
)


@given(counters=counter_bodies)
def test_encode_counters_reference(counters):
    index = tuple(sorted(counters))
    atoms = tuple(varint.encode_atom(key) for key in index)
    out = bytearray(b"prefix")
    varint.encode_counters_into(out, atoms, index, counters)
    expected = b"".join(
        atom + varint.encode_uvarint(counters[key]) for atom, key in zip(atoms, index)
    )
    assert bytes(out) == b"prefix" + expected


@given(previous=counter_bodies, data=st.data())
def test_encode_counter_delta_reference(previous, data):
    steps = st.sampled_from([0, 0, 0, 1, 100, 200, 2**14, -1])
    counters = {key: max(0, value + data.draw(steps)) for key, value in previous.items()}
    if data.draw(st.booleans()) and previous:
        # Same size, different key sets: no delta applies.
        del counters[data.draw(st.sampled_from(sorted(previous)))]
        counters[99] = 0
    index = tuple(sorted(previous))
    out = bytearray(b"prefix")
    grown = varint.encode_counter_delta_into(out, index, counters, previous)
    if set(counters) != set(previous) or any(counters[k] < previous[k] for k in index):
        assert grown == -1 and bytes(out) == b"prefix"
        return
    raised = [(p, counters[k] - previous[k]) for p, k in enumerate(index)
              if counters[k] != previous[k]]
    expected = varint.encode_uvarint(len(raised))
    last = -1
    for position, step in raised:
        expected += varint.encode_uvarint(position - last - 1) + varint.encode_uvarint(step)
        last = position
    assert bytes(out) == b"prefix" + expected
    assert grown == sum(
        varint.uvarint_size(counters[k]) - varint.uvarint_size(previous[k]) for k in index
    )
