"""The channel sending half as a state machine: no kernel, no socket.

Every test feeds :class:`~repro.wire.channel.ChannelSender` messages,
settled uids and times by hand and checks what it hands back — the
contract both the simulator's transport and the live node's peer streams
drive.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import BootstrapMetadata, Known, Update, UpdateMessage
from repro.core.timestamps import EdgeTimestamp
from repro.wire.batch import decode_batch
from repro.wire.channel import BatchingConfig, ChannelDeltaDecoder, ChannelSender
from repro.wire.frames import WireSizes

A, B = (1, 2), (1, 3)


def _message(seq: int, channel=A, counter: int = 0) -> UpdateMessage:
    sender, destination = channel
    ts = EdgeTimestamp({(sender, destination): counter or seq, (destination, sender): 1})
    return UpdateMessage(
        update=Update(issuer=sender, seq=seq, register="x", value=f"v{seq}"),
        sender=sender, destination=destination,
        metadata=ts, metadata_size=ts.size_counters(), payload=True,
    )


def _sender(max_messages=3, max_delay=5.0) -> ChannelSender:
    return ChannelSender(BatchingConfig(max_messages=max_messages, max_delay=max_delay))


def _send(sender: ChannelSender, message: UpdateMessage, now: float):
    """What a driver does with a new copy: log it, then join its window."""
    sender.log(message)
    return sender.add(message, now)


def _flush(sender: ChannelSender, channel=A, now: float = 0.0):
    return sender.flush(channel, None, now)


def _window(sender: ChannelSender, channel=A):
    return [m.update.seq for m in sender.windows[channel].messages]


class TestWindows:
    def test_closes_at_max_messages_and_only_the_first_message_opens(self):
        sender = _sender(max_messages=3, max_delay=5.0)
        full, opened = sender.add(_message(1), now=10.0)
        assert not full and opened.deadline == 15.0
        assert sender.add(_message(2), now=11.0) == (False, None)
        assert sender.add(_message(3), now=12.0) == (True, None)
        flushed = _flush(sender, now=12.0)
        assert [m.update.seq for m in flushed.batch.messages] == [1, 2, 3]
        assert flushed.times == (10.0, 11.0, 12.0)
        assert A not in sender.windows and _flush(sender) is None
        # The next message opens a fresh window with a deadline of its own.
        assert sender.add(_message(4), now=20.0)[1].deadline == 25.0

    def test_a_window_past_max_messages_flushes_in_batches_of_max_messages(self):
        sender = _sender(max_messages=3, max_delay=5.0)
        for n in range(1, 9):                       # not flushed on ``full``
            sender.add(_message(n), now=float(n))
        window = sender.windows[A]
        batches = []
        while A in sender.windows:
            # The surplus stays in the same window, with the same deadline.
            assert sender.windows[A] is window and window.deadline == 6.0
            batches.append(_flush(sender, now=9.0))
        assert [len(f.batch.messages) for f in batches] == [3, 3, 2]
        assert [f.batch.seq for f in batches] == [0, 1, 2]
        assert [m.update.seq for f in batches for m in f.batch.messages] == list(range(1, 9))
        assert [t for f in batches for t in f.times] == [float(n) for n in range(1, 9)]
        assert _flush(sender) is None

    def test_windows_are_per_channel(self):
        sender = _sender(max_messages=2)
        sender.add(_message(1, A), now=0.0)
        full, opened = sender.add(_message(1, B), now=1.0)
        assert not full and opened is sender.windows[B]
        assert list(sender.windows) == [A, B]

    def test_sequence_numbers_are_gap_free_and_restart_on_sever(self):
        sender = _sender(max_messages=1)
        seqs = []
        for n in range(1, 4):
            sender.add(_message(n), now=0.0)
            seqs.append(_flush(sender).batch.seq)
        sender.add(_message(1, B), now=0.0)
        assert _flush(sender, B).batch.seq == 0
        assert seqs == [0, 1, 2]
        assert sender.epoch(A) == 0
        sender.sever(A)
        sender.add(_message(4), now=0.0)
        flushed = _flush(sender)
        assert (flushed.batch.seq, flushed.epoch, sender.epoch(B)) == (0, 1, 0)
        sender.add(_message(2, B), now=0.0)
        assert _flush(sender, B).batch.seq == 1

    def test_sever_forces_a_full_frame_on_that_channel_only(self):
        sender = _sender(max_messages=1)
        for channel in (A, B):
            sender.add(_message(1, channel), now=0.0)
            assert _flush(sender, channel).sizes.full_frames == 1
        sender.sever(A)
        for channel, (delta, full) in ((A, (0, 1)), (B, (1, 0))):
            sender.add(_message(2, channel), now=0.0)
            sizes = _flush(sender, channel).sizes
            assert (sizes.delta_frames, sizes.full_frames) == (delta, full)

    def test_sever_all_keeps_open_windows_and_outstanding_copies(self):
        sender = _sender(max_messages=2)
        _send(sender, _message(1, A), now=0.0)
        _send(sender, _message(2, A), now=0.0)
        _flush(sender, A)
        _send(sender, _message(1, B), now=0.5)
        sender.sever()
        assert list(sender.windows) == [B] and sender.unacked == 2
        assert (sender.epoch(A), sender.epoch(B)) == (1, 1)
        assert _flush(sender, B).batch.seq == 0

    def test_book_is_the_sum_of_the_flushed_sizes(self):
        sender = _sender(max_messages=2)
        total = WireSizes()
        for n in range(1, 7):
            if sender.add(_message(n), now=float(n))[0]:
                flushed = _flush(sender)
                assert len(flushed.data) == flushed.sizes.total_bytes
                total = total + flushed.sizes
        book = sender.book[A]
        assert (book.messages, book.batches) == (6, 3)
        assert (book.header_bytes, book.timestamp_bytes, book.payload_bytes) == (
            total.header_bytes, total.timestamp_bytes, total.payload_bytes)
        assert book.total_bytes == total.total_bytes

    def test_forget_drops_every_trace_of_a_replica(self):
        sender = _sender(max_messages=1)
        for channel in (A, B):
            _send(sender, _message(1, channel), now=0.0)
            _flush(sender, channel)
        sender.sever(B)
        sender.forget(3)
        assert list(sender.sent_log) == [2] and list(sender.stamped()) == [((1, 1), 2)]
        assert sender.unacked == 1
        assert sender.channels() == {A} and sender.epoch(B) == 0


class TestReliability:
    def test_flush_tracks_and_ack_clears_outstanding_and_inflight(self):
        sender = _sender(max_messages=2)
        _send(sender, _message(1), now=0.0)
        _send(sender, _message(2), now=1.0)
        _send(sender, _message(3), now=2.0)         # past max_messages: waits its turn
        flushed = _flush(sender, now=2.0)
        assert flushed.tracked == (((1, 1), 2), ((1, 2), 2))
        assert _window(sender) == [3]
        assert sender.inflight() == {((1, 1), 2), ((1, 2), 2), ((1, 3), 2)}
        assert sender.settle(2, [(1, 1), (1, 3), (9, 9)]) == [(1, 1), (1, 3)]
        assert list(sender.stamped()) == [((1, 2), 2)] and sender.unacked == 1
        # (1, 3) is settled but still sits in the open window: still in flight.
        assert sender.inflight() == {((1, 2), 2), ((1, 3), 2)}
        assert sender.stamped()[((1, 2), 2)].sent_at == 1.0
        # … and flushing it later stamps nothing: its destination holds it.
        assert _flush(sender, now=3.0).tracked == () and sender.unacked == 1

    def test_rewind_puts_outstanding_copies_back_ahead_of_the_window(self):
        sender = _sender(max_messages=2, max_delay=5.0)
        for n in (1, 2, 3):
            _send(sender, _message(n), now=float(n))
        _flush(sender, now=3.0)                     # 1, 2 outstanding; 3 waits
        _send(sender, _message(1, B), now=4.0)
        _flush(sender, B, now=4.0)                  # B: 1 outstanding, no window
        sender.settle(2, [(1, 1)])
        sender.sever()
        for _ in range(2):                          # a second rewind is a no-op
            sender.rewind(now=6.0)
            assert _window(sender) == [2, 3]
            assert sender.windows[A].times == [2.0, 3.0]
            assert _window(sender, B) == [1]
        # A keeps the deadline of the window 3 waits in; B's opens at the rewind.
        assert sender.windows[A].deadline == 6.0 and sender.windows[B].deadline == 11.0
        flushed = _flush(sender, now=6.0)
        assert flushed.batch.seq == 0 and flushed.tracked == (((1, 3), 2),)
        assert sender.on_wire(((1, 2), 2)).stamped == 6.0

    def test_rewind_requeues_in_sent_log_order(self):
        """Copies logged first go first, even when a newer one was flushed
        ahead of them (a resync re-send behind a newer copy)."""
        sender = _sender(max_messages=3)
        c1, c2, c3 = _message(1), _message(2), _message(3)
        sender.log(c1)
        sender.log(c2)
        _send(sender, c3, now=0.0)
        _flush(sender, now=0.0)
        sender.add(c1, now=1.0)
        sender.add(c2, now=1.0)
        _flush(sender, now=1.0)
        sender.sever()
        sender.rewind(now=2.0)
        assert _window(sender) == [1, 2, 3]

    def test_a_copy_flushed_twice_is_tracked_once_and_restamped(self):
        sender = _sender(max_messages=1)
        message = _message(1)
        _send(sender, message, now=0.0)
        assert _flush(sender, now=0.0).tracked == (((1, 1), 2),)
        sender.add(message, now=8.0)
        assert _flush(sender, now=8.0).tracked == ()
        copy = sender.on_wire(((1, 1), 2))
        assert (copy.sent_at, copy.stamped, copy.retries) == (0.0, 8.0, 0)

    def test_retry_spends_the_budget_marks_the_final_attempt_then_gives_up(self):
        """The sender counts the retries; the driver that runs the resend
        timers decides which is the last, then abandons the copy."""
        sender = _sender(max_messages=1)
        message = _message(1)
        _send(sender, message, now=0.0)
        key, = _flush(sender, now=0.0).tracked
        spent = []
        for attempt in range(3):
            now = 10.0 * (attempt + 1)
            spent.append(sender.retry(key, now))
            assert sender.on_wire(key).stamped == now   # restamped by the retry
        assert spent == [1, 2, 3]
        sender.abandon(key)
        assert not sender.stamped() and not sender.inflight() and sender.unacked == 0
        # Abandoned, not settled: the sent-log can still recover it.
        assert sender.missing(2, Known({})) == [message]

    def test_a_copy_resent_after_abandon_gets_a_fresh_budget(self):
        sender = _sender(max_messages=1)
        message = _message(1)
        _send(sender, message, now=0.0)
        key, = _flush(sender, now=0.0).tracked
        sender.retry(key, 10.0)
        sender.retry(key, 20.0)
        sender.abandon(key)
        sender.add(message, now=30.0)
        assert _flush(sender, now=31.0).tracked == (key,)
        copy = sender.on_wire(key)
        assert (copy.sent_at, copy.stamped, copy.retries) == (30.0, 31.0, 0)
        assert sender.retry(key, 40.0) == 1


class TestSentLog:
    def test_missing_is_log_minus_known_minus_inflight(self):
        sender = _sender(max_messages=2)
        messages = {n: _message(n) for n in range(1, 7)}
        other = _message(1, B)
        for message in (*messages.values(), other):
            sender.log(message)
        sender.add(messages[2], now=0.0)
        sender.add(messages[3], now=0.0)
        _flush(sender)                              # 2, 3 outstanding
        sender.add(messages[4], now=1.0)            # 4 and 5 in an open window
        sender.add(messages[5], now=1.0)
        known = Known({1: 1})
        assert sender.missing(2, known) == [messages[n] for n in (2, 3, 4, 5, 6)]
        assert sender.missing(2, known, skip_inflight=True) == [messages[6]]
        assert sender.missing(3, known, skip_inflight=True) == []   # (1, 1) to 3
        assert sender.missing(3, Known({})) == [other]
        assert sender.missing(7, Known({})) == []

    def test_logging_a_copy_again_replaces_its_message_not_its_place(self):
        """A state transfer re-sends a uid whose live copy was lost under a
        new sender and epoch: the resync and the flush send the transfer
        copy, which keeps the live copy's place in the log."""
        sender = _sender(max_messages=1)
        live, later = _message(1), _message(2)
        _send(sender, live, now=0.0)
        key, = _flush(sender, now=0.0).tracked
        sender.log(later)
        sender.abandon(key)                         # lost, then given up on
        transfer = UpdateMessage(
            update=live.update, sender=4, destination=2,
            metadata=BootstrapMetadata(index=0, total=1, epoch=1),
            metadata_size=0, payload=True, epoch=1,
        )
        sender.log(transfer)
        assert sender.missing(2, Known({})) == [transfer, later]
        sender.add(transfer, now=5.0)
        assert _flush(sender, (4, 2), now=5.0).tracked == (key,)
        assert sender.on_wire(key).message is transfer
        sender.log(live)                            # on the wire: replaced too
        assert sender.on_wire(key).message is live and sender.unacked == 1

    def test_settle_drops_only_what_was_logged(self):
        sender = _sender()
        sender.log(_message(1))
        sender.log(_message(2))
        assert sender.settle(2, [(1, 2), (1, 9)]) == [(1, 2)]
        assert sender.settle(5, [(1, 1)]) == []
        assert sender.missing(2, Known({})) == [_message(1)]


# One random interleaving of the sender's inputs on two channels of one
# stream: add a message unlogged, or log it and add it (flushed when full,
# or left to pile up past max_messages as on a stream that is down), flush
# a channel, sever a channel, sever all, settle what a channel delivered,
# reconnect (sever all, then rewind).
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from((A, B)), st.integers(1, 2**30)),
        st.tuples(st.just("log"), st.sampled_from((A, B)), st.integers(1, 2**30)),
        st.tuples(st.just("pile"), st.sampled_from((A, B)), st.integers(1, 2**30)),
        st.tuples(st.just("flush"), st.sampled_from((A, B))),
        st.tuples(st.just("sever"), st.sampled_from((A, B, None))),
        st.tuples(st.just("settle"), st.sampled_from((A, B))),
        st.tuples(st.just("rewind")),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(steps=_steps, delta=st.booleans())
def test_every_emitted_frame_stays_decodable(steps, delta):
    """Feeding every emitted batch to a decoder that is reset at each sever
    reproduces the original messages, per channel, in order (a rewind
    re-sends copies already received, never reorders first receipts).
    Without a rewind every message arrives exactly once.  Settled copies
    leave the sent-log, ``missing`` and the outstanding copies, and a
    rewind never puts them back in a window; ``unacked`` counts the
    stamped copies."""
    sender = ChannelSender(BatchingConfig(max_messages=3, max_delay=1.0, delta_encoding=delta))
    decoder = ChannelDeltaDecoder() if delta else None
    sent = {A: [], B: []}
    received = {A: [], B: []}
    expected_seq = {A: 0, B: 0}
    settled = set()
    rewound = False
    clock = 0.0

    def flush(channel):
        flushed = sender.flush(channel, None, clock)
        if flushed is None:
            return
        assert flushed.batch.seq == expected_seq[channel]
        assert 1 <= len(flushed.batch.messages) <= 3
        expected_seq[channel] += 1
        batch, end = decode_batch(flushed.data, decoder=decoder)
        assert end == len(flushed.data) and batch == flushed.batch
        received[channel].extend(batch.messages)

    def severed(channels):
        for channel in channels:
            expected_seq[channel] = 0
            if decoder is not None:
                decoder.reset(channel)

    for step in steps:
        clock += 1.0
        if step[0] in ("add", "log", "pile"):
            kind, channel, counter = step
            message = _message(len(sent[channel]) + 1, channel, counter)
            sent[channel].append(message)
            if kind == "log":
                sender.log(message)
            if sender.add(message, clock)[0] and kind != "pile":
                flush(channel)
        elif step[0] == "flush":
            flush(step[1])
        elif step[0] == "sever":
            sender.sever(step[1])
            severed((A, B) if step[1] is None else (step[1],))
        elif step[0] == "settle":
            destination = step[1][1]
            uids = [m.update.uid for m in received[step[1]]]
            sender.settle(destination, uids)
            settled.update((uid, destination) for uid in uids)
            # Every copy it stamped, the channel received: none is left.
            assert not any(to == destination for _, to in sender.stamped())
        else:
            def waiting():
                return {(m.update.uid, to) for (_, to), window in sender.windows.items()
                        for m in window.messages}
            before = waiting()
            sender.sever()
            severed((A, B))
            sender.rewind(clock)
            rewound = True
            assert not (waiting() - before) & settled
        assert sender.unacked == len(sender.stamped())
        assert not settled & set(sender.stamped())
        # Only what a flush emitted is stamped.
        assert set(sender.stamped()) <= {(m.update.uid, channel[1])
                                         for channel in (A, B) for m in received[channel]}
        for uid, destination in settled:
            assert uid not in sender.sent_log.get(destination, {})
            assert uid not in {m.update.uid for m in sender.missing(destination, Known({}))}
    for channel in (A, B):
        while channel in sender.windows:
            flush(channel)
        if not rewound:
            assert received[channel] == sent[channel]
        first = {}
        for message in received[channel]:
            first.setdefault(message.update.uid, message)
        assert list(first.values()) == sent[channel]
    assert not sender.windows
