"""Unit tests for the transport over its event kernel, and repro.sim.delays."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import SimulationError
from repro.core.protocol import Update, UpdateMessage
from repro.sim.delays import (
    AdversarialDelay,
    DuplicatingDelay,
    FixedDelay,
    LossyDelay,
    PerChannelDelay,
    SlowChannelDelay,
    UniformDelay,
)
from repro.sim.engine import DeliveryEvent, EventKernel, Transport


def transport(delay_model=None, seed=0):
    return Transport(EventKernel(), delay_model=delay_model, seed=seed)


def scheduled(network):
    """Deliveries on their way: scheduled on the kernel, not parked."""
    return network.kernel.pending_of(DeliveryEvent)


def deliver_next(network):
    """Fire the next delivery as a host would; ``None`` when idle."""
    firing = network.kernel.next_event()
    if firing is None:
        return None
    network.record_delivery(firing.event, firing.time)
    (message,) = firing.event.messages
    return message


def drain(network):
    return list(iter(lambda: deliver_next(network), None))


def msg(sender=1, dest=2, seq=1, size=4, payload=True):
    update = Update(issuer=sender, seq=seq, register="x", value=seq)
    return UpdateMessage(
        update=update,
        sender=sender,
        destination=dest,
        metadata=None,
        metadata_size=size,
        payload=payload,
    )


class TestDelayModels:
    def test_fixed_delay(self):
        assert FixedDelay(3.5).delay(msg(), random.Random(0)) == 3.5

    def test_uniform_delay_within_bounds(self):
        model = UniformDelay(2.0, 5.0)
        rng = random.Random(1)
        for _ in range(100):
            d = model.delay(msg(), rng)
            assert 2.0 <= d <= 5.0

    def test_per_channel_delay(self):
        model = PerChannelDelay(base={(1, 2): 10.0}, default=1.0)
        rng = random.Random(0)
        assert model.delay(msg(1, 2), rng) == 10.0
        assert model.delay(msg(2, 1), rng) == 1.0

    def test_per_channel_jitter(self):
        model = PerChannelDelay(default=1.0, jitter=0.5)
        rng = random.Random(0)
        d = model.delay(msg(), rng)
        assert 1.0 <= d <= 1.5

    def test_adversarial_delay_uses_chooser(self):
        model = AdversarialDelay(chooser=lambda m: 42.0 if m.destination == 3 else 1.0)
        rng = random.Random(0)
        assert model.delay(msg(1, 3), rng) == 42.0
        assert model.delay(msg(1, 2), rng) == 1.0

    def test_slow_channel_delay(self):
        model = SlowChannelDelay(slow_channels=frozenset({(1, 3)}), low=1, high=1, slow_factor=50)
        rng = random.Random(0)
        assert model.delay(msg(1, 3), rng) == pytest.approx(50.0)
        assert model.delay(msg(1, 2), rng) == pytest.approx(1.0)


class TestDelayModelDeterminism:
    """Every delay model is a pure function of (message sequence, seeded rng)."""

    MODELS = [
        FixedDelay(3.0),
        UniformDelay(1.0, 10.0),
        PerChannelDelay(base={(1, 2): 5.0}, default=2.0, jitter=1.5),
        SlowChannelDelay(slow_channels=frozenset({(1, 3)}), low=1, high=4),
        AdversarialDelay(chooser=lambda m: float(m.update.seq)),
        LossyDelay(inner=UniformDelay(1, 10), drop_probability=0.3),
        DuplicatingDelay(inner=UniformDelay(1, 10), duplicate_probability=0.3),
        DuplicatingDelay(
            inner=LossyDelay(inner=PerChannelDelay(default=2.0, jitter=2.0),
                             drop_probability=0.2),
            duplicate_probability=0.2,
        ),
    ]

    @staticmethod
    def trace(model, seed):
        """The full (fate, delay) sequence over a fixed message stream."""
        rng = random.Random(seed)
        out = []
        for seq in range(1, 50):
            message = msg(sender=1 + seq % 3, dest=2 + seq % 2, seq=seq)
            out.append((model.fate(message, rng), model.delay(message, rng)))
        return out

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_same_seed_same_sequence(self, model):
        assert self.trace(model, 42) == self.trace(model, 42)

    def test_different_seed_differs_for_random_models(self):
        model = LossyDelay(inner=UniformDelay(1, 10), drop_probability=0.3)
        assert self.trace(model, 1) != self.trace(model, 2)

    def test_default_fate_is_exactly_once_and_draws_nothing(self):
        rng = random.Random(0)
        before = rng.getstate()
        assert FixedDelay(1.0).fate(msg(), rng) == 1
        assert rng.getstate() == before

    def test_lossy_fate_values(self):
        model = LossyDelay(inner=FixedDelay(1.0), drop_probability=1.0)
        assert model.fate(msg(), random.Random(0)) == 0
        keep = LossyDelay(inner=FixedDelay(1.0), drop_probability=0.0)
        assert keep.fate(msg(), random.Random(0)) == 1

    def test_duplicating_fate_values(self):
        model = DuplicatingDelay(inner=FixedDelay(1.0), duplicate_probability=1.0)
        assert model.fate(msg(), random.Random(0)) == 2
        # A dropped message has no copies to duplicate.
        stacked = DuplicatingDelay(
            inner=LossyDelay(inner=FixedDelay(1.0), drop_probability=1.0),
            duplicate_probability=1.0,
        )
        assert stacked.fate(msg(), random.Random(0)) == 0

    def test_channel_scoped_wrappers_leave_other_channels_alone(self):
        model = LossyDelay(inner=FixedDelay(1.0), drop_probability=1.0,
                           channels=frozenset({(1, 3)}))
        rng = random.Random(0)
        assert model.fate(msg(1, 3), rng) == 0
        assert model.fate(msg(1, 2), rng) == 1


class TestHoldPartitionInteraction:
    """Held channels and partitions are independent blocking reasons."""

    def test_partition_parks_cross_traffic_and_heal_delivers_once(self):
        network = transport(FixedDelay(1.0))
        network.partition({1, 2}, {3, 4})
        assert network.partitioned
        network.send(msg(1, 3))          # crosses the cut: parked
        network.send(msg(1, 2, seq=2))   # intra-island: flies
        assert network.held_count == 1
        assert scheduled(network) == 1
        network.heal()
        assert not network.partitioned
        assert network.held_count == 0
        assert sorted(m.destination for m in drain(network)) == [2, 3]

    def test_held_message_survives_partition_heal(self):
        # Satellite acceptance: a hold placed before/under a partition keeps
        # its messages parked through the heal; release delivers exactly once.
        network = transport(FixedDelay(1.0))
        network.hold(1, 3)
        network.partition({1, 2}, {3, 4})
        network.send(msg(1, 3))
        assert network.held_count == 1
        network.heal()
        # Still held: the explicit hold is not dissolved by the heal.
        assert network.held_count == 1
        assert deliver_next(network) is None
        network.release(1, 3)
        assert [m.destination for m in drain(network)] == [3]

    def test_release_does_not_pierce_active_partition(self):
        network = transport(FixedDelay(1.0))
        network.hold(1, 3)
        network.partition({1, 2}, {3, 4})
        network.send(msg(1, 3))
        network.release(1, 3)
        # Released, but the partition still blocks the channel.
        assert network.held_count == 1
        assert deliver_next(network) is None
        network.heal()
        assert [m.destination for m in drain(network)] == [3]

    def test_release_all_does_not_pierce_active_partition(self):
        network = transport(FixedDelay(1.0))
        network.hold(1, 3)
        network.hold(2, 4)
        network.partition({1, 2}, {3, 4})
        network.send(msg(1, 3))
        network.send(msg(2, 4, seq=2))
        network.send(msg(2, 1, seq=3))   # intra-island, unheld: flies
        network.release_all()
        assert network.held_count == 2
        network.heal()
        assert network.held_count == 0
        delivered = drain(network)
        assert len(delivered) == 3
        # Exactly once each, despite hold + partition + release_all + heal.
        uids = [(m.update.uid, m.destination) for m in delivered]
        assert len(uids) == len(set(uids))

    def test_repartition_replaces_previous_groups(self):
        network = transport(FixedDelay(1.0))
        network.partition({1}, {2, 3, 4})
        network.send(msg(1, 2))
        assert network.held_count == 1
        # The new partition reunites 1 and 2: the parked message flies
        # immediately; traffic across the new cut parks instead.
        network.partition({1, 2}, {3, 4})
        assert network.held_count == 0
        assert scheduled(network) == 1
        network.send(msg(1, 3, seq=2))
        assert network.held_count == 1
        network.heal()
        delivered = drain(network)
        assert len(delivered) == 2
        uids = [(m.update.uid, m.destination) for m in delivered]
        assert len(uids) == len(set(uids))


class TestSimNetwork:
    def test_send_and_deliver(self):
        network = transport(FixedDelay(2.0))
        network.send(msg())
        assert scheduled(network) == 1
        assert deliver_next(network) is not None
        assert network.kernel.now == pytest.approx(2.0)
        assert deliver_next(network) is None

    def test_delivery_order_follows_delays_not_send_order(self):
        network = transport(AdversarialDelay(
            chooser=lambda m: 10.0 if m.update.seq == 1 else 1.0
        ))
        network.send(msg(seq=1))
        network.send(msg(seq=2))
        assert [m.update.seq for m in drain(network)] == [2, 1]

    def test_explicit_delay_override(self):
        network = transport(FixedDelay(100.0))
        network.send(msg(), delay=0.5)
        deliver_next(network)
        assert network.kernel.now == pytest.approx(0.5)

    def test_negative_delay_rejected(self):
        network = transport()
        with pytest.raises(SimulationError):
            network.send(msg(), delay=-1.0)

    def test_stats_accumulate(self):
        network = transport(FixedDelay(1.0))
        network.send(msg(size=5))
        network.send(msg(seq=2, size=7, payload=False))
        assert network.stats.messages_sent == 2
        assert network.stats.metadata_counters_sent == 12
        assert network.stats.payload_messages_sent == 1
        assert network.stats.metadata_only_messages_sent == 1
        drain(network)
        assert network.stats.messages_delivered == 2
        assert network.stats.mean_latency == pytest.approx(1.0)

    def test_hold_and_release(self):
        network = transport(FixedDelay(1.0))
        network.hold(1, 2)
        network.send(msg(1, 2))
        network.send(msg(1, 3, seq=2))
        assert scheduled(network) == 1
        assert network.held_count == 1
        # Only the unheld message is deliverable.
        assert deliver_next(network).destination == 3
        assert deliver_next(network) is None
        network.release(1, 2)
        assert network.held_count == 0
        assert deliver_next(network).destination == 2

    def test_release_all(self):
        network = transport(FixedDelay(1.0))
        network.hold(1, 2)
        network.hold(1, 3)
        network.send(msg(1, 2))
        network.send(msg(1, 3, seq=2))
        network.release_all()
        assert network.held_count == 0
        assert scheduled(network) == 2

    def test_determinism_with_same_seed(self):
        def run(seed):
            network = transport(UniformDelay(1, 10), seed=seed)
            for seq in range(10):
                network.send(msg(seq=seq + 1))
            return [m.update.seq for m in drain(network)]

        assert run(7) == run(7)
