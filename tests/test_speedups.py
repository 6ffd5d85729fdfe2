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
from repro.core.timestamps import incoming_mask, index_set, predicate_plan

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
# Timestamp kernels vs the dict semantics they replaced
# ----------------------------------------------------------------------
# The kernels work on counter lists aligned to an interned index set, at
# positions precomputed from it.  Each test states the operation over plain
# ``{key: counter}`` dicts — the representation timestamps had before they
# became positional — and checks the list kernel against it.

counter_dicts = st.dictionaries(
    st.integers(1, 6), st.integers(0, 4), max_size=6
)


def _positional(counters, index=None):
    """``(index set, counter list)`` of a dict, over ``index`` if given."""
    index = index if index is not None else index_set(counters)
    return index, [counters.get(key, 0) for key in index.entries]


def _edges(counters):
    """Reuse an int-keyed dict as a ``(tail, head)``-keyed one."""
    return {(k, k % 2 + 1): v for k, v in counters.items()}


@given(values=st.lists(st.integers(0, 4), max_size=8), data=st.data())
def test_advance_reference(values, data):
    positions = tuple(data.draw(st.lists(
        st.integers(0, max(len(values) - 1, 0)), max_size=4
    ))) if values else ()
    bumped = tsops.advance(values, positions)
    assert bumped == [v + positions.count(p) for p, v in enumerate(values)]
    assert bumped is not values


@given(local=counter_dicts, remote=counter_dicts)
def test_merge_union_reference(local, remote):
    """Vector clocks merge over the union: both sides aligned to it, then
    the identity gather."""
    union = index_set(set(local) | set(remote))
    _, mine = _positional(local, union)
    _, theirs = _positional(remote, union)
    merged, raised = tsops.merge_pairs(mine, theirs, union.gather(union))
    assert dict(zip(union.entries, merged)) == {
        k: max(local.get(k, 0), remote.get(k, 0)) for k in union.entries
    }
    assert [(union.entries[p], merged[p]) for p in raised] == sorted(
        (k, v) for k, v in remote.items() if v > local.get(k, 0)
    )
    # Inputs are never mutated; nothing raised returns the local list.
    assert mine == [local.get(k, 0) for k in union.entries]
    assert (merged is mine) == (not raised)


@given(local=counter_dicts, remote=counter_dicts, me=st.integers(1, 6))
def test_merge_intersection_reference(local, remote, me):
    local_e, remote_e = _edges(local), _edges(remote)
    mine_index, mine = _positional(local_e)
    theirs_index, theirs = _positional(remote_e)
    merged, raised = tsops.merge_pairs(mine, theirs, mine_index.gather(theirs_index))
    assert dict(zip(mine_index.entries, merged)) == {
        k: max(v, remote_e.get(k, v)) for k, v in local_e.items()
    }, "index set τ_i never grows"
    incoming = incoming_mask(mine_index, me)
    changed = [(mine_index.entries[p], merged[p]) for p in raised if incoming[p]]
    assert changed == sorted(
        (k, v)
        for k, v in remote_e.items()
        if k in local_e and v > local_e[k] and k[1] == me
    )


def _naive_vector_blocking(local, remote, sender):
    if remote.get(sender, 0) != local.get(sender, 0) + 1:
        return ("seq", sender, remote.get(sender, 0))
    for key, value in sorted(remote.items()):
        if key != sender and value > local.get(key, 0):
            return ("ge", key)
    return None


def _vector_kernel(local, remote, sender, total=-1):
    union = index_set(set(local) | set(remote) | {sender})
    _, mine = _positional(local, union)
    _, theirs = _positional(remote, union)
    return union, tsops.vector_try_apply(
        mine, theirs, union.entries, union.position[sender], total
    )


@given(local=counter_dicts, remote=counter_dicts, sender=st.integers(1, 6))
def test_vector_blocking_key_reference(local, remote, sender):
    _, (key, _, _) = _vector_kernel(local, remote, sender)
    assert key == _naive_vector_blocking(local, remote, sender)


@given(local=counter_dicts, remote=counter_dicts, sender=st.integers(1, 6))
def test_vector_try_apply_is_check_plus_merge(local, remote, sender):
    """The fused kernel ≡ blocking check, then union merge, in one scan."""
    union, (key, merged, changed) = _vector_kernel(local, remote, sender)
    assert key == _naive_vector_blocking(local, remote, sender)
    if key is not None:
        assert merged is None and changed is None
        return
    assert dict(zip(union.entries, merged)) == {
        k: max(local.get(k, 0), remote.get(k, 0)) for k in union.entries
    }
    assert changed == [(sender, remote.get(sender, 0))]


@given(local=counter_dicts, sender=st.integers(1, 6), bump=st.integers(1, 3))
def test_vector_try_apply_no_scan_accept(local, sender, bump):
    """The cached-total fast path agrees with the scanning path exactly."""
    remote = {k: 0 for k in local}
    remote[sender] = local.get(sender, 0) + 1
    total = sum(remote.values())
    _, fast = _vector_kernel(local, remote, sender, total)
    _, slow = _vector_kernel(local, remote, sender)
    assert fast == slow
    assert fast[0] is None


def _naive_edge_blocking(local, remote, sender, me):
    ki = (sender, me)
    if local.get(ki, 0) != remote.get(ki, 0) - 1:
        return ("seq", ki, remote.get(ki, 0))
    for e in sorted(local):
        if e[1] == me and e[0] != sender and e in remote and local[e] < remote[e]:
            return ("ge", e)
    return None


@given(data=st.data())
def test_edge_blocking_key_reference(data):
    me = 1
    values = st.integers(0, 3)
    edges = st.tuples(st.integers(1, 6), st.integers(1, 3)).filter(lambda e: e[0] != e[1])
    local = data.draw(st.dictionaries(edges, values, max_size=8))
    remote = data.draw(st.dictionaries(edges, values, max_size=8))
    sender = data.draw(st.integers(2, 6))
    mine_index, mine = _positional(local)
    theirs_index, theirs = _positional(remote)
    fifo, monotone = predicate_plan(mine_index, theirs_index, me)
    assert tsops.edge_blocking_key(mine, theirs, sender, me, fifo, monotone) == (
        _naive_edge_blocking(local, remote, sender, me)
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

counter_lists = st.lists(st.integers(0, 2**20), max_size=12)


@given(values=counter_lists)
def test_encode_counters_reference(values):
    atoms = tuple(varint.encode_atom(position) for position in range(len(values)))
    out = bytearray(b"prefix")
    varint.encode_counters_into(out, atoms, values)
    expected = b"".join(
        atom + varint.encode_uvarint(value) for atom, value in zip(atoms, values)
    )
    assert bytes(out) == b"prefix" + expected
    assert varint.counter_bytes(values) == sum(map(varint.uvarint_size, values))


@given(previous=counter_lists, data=st.data())
def test_encode_counter_delta_reference(previous, data):
    steps = st.sampled_from([0, 0, 0, 1, 100, 200, 2**14, -1])
    values = [max(0, value + data.draw(steps)) for value in previous]
    if data.draw(st.booleans()):
        # A different length: no delta applies.
        values.append(0)
    out = bytearray(b"prefix")
    grown = varint.encode_counter_delta_into(out, values, previous)
    if len(values) != len(previous) or any(
        new < old for new, old in zip(values, previous)
    ):
        assert grown == -1 and bytes(out) == b"prefix"
        return
    raised = [(p, new - old) for p, (new, old) in enumerate(zip(values, previous))
              if new != old]
    expected = varint.encode_uvarint(len(raised))
    last = -1
    for position, step in raised:
        expected += varint.encode_uvarint(position - last - 1) + varint.encode_uvarint(step)
        last = position
    assert bytes(out) == b"prefix" + expected
    assert grown == varint.counter_bytes(values) - varint.counter_bytes(previous)
    # Applying the body to a copy of ``previous`` gives ``values`` back.
    restored = previous.copy()
    assert varint.apply_counter_delta(memoryview(bytes(out)), 6, restored) == len(out)
    assert restored == values


@pytest.mark.parametrize(
    "body",
    [b"\x05\x00\x01", b"\x01\x07\x01", b"\x02\x00\x01\x01"],
    ids=["count-past-the-body", "gap-past-the-index", "gap-runs-off-the-end"],
)
def test_apply_counter_delta_rejects_hostile_bodies(body):
    with pytest.raises(WireFormatError):
        varint.apply_counter_delta(body, 0, [0, 0, 0])
