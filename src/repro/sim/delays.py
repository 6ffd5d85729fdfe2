"""Message-delay models for the discrete-event network simulator.

The paper assumes an asynchronous system: messages are reliable but may be
delayed arbitrarily and delivered out of order (channels are explicitly *not*
FIFO).  A delay model decides, per message, how long the network holds it.
Because the simulator delivers strictly in timestamp order, choosing delays
is equivalent to choosing an adversarial delivery schedule — which is exactly
what the necessity proofs of Theorem 8 and the lower-bound constructions of
Appendix C require.

All models are deterministic functions of their parameters and the seeded
random generator handed to them, so every simulation is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..core.protocol import UpdateMessage
from ..core.registers import ReplicaId

#: A channel is identified by the ordered pair (sender, destination).
Channel = Tuple[ReplicaId, ReplicaId]


class DelayModel:
    """Base class: assigns a latency (and a channel fate) to each message."""

    def delay(self, message: UpdateMessage, rng: random.Random) -> float:
        """Latency (in simulated time units) for ``message``."""
        raise NotImplementedError

    def fate(self, message: UpdateMessage, rng: random.Random) -> int:
        """Number of copies of ``message`` the channel puts on the wire.

        The default channel is reliable and exactly-once: one copy, no
        randomness consumed.  The fault-injection wrappers
        (:class:`LossyDelay`, :class:`DuplicatingDelay`) override this to
        drop (0 copies) or duplicate (2+) with seeded probability; each copy
        then samples its own delay.  A transport facing a lossy fate must
        run the resend timers
        (:meth:`~repro.sim.engine.Transport.enable_reliability`) or dropped
        messages are lost for good.
        """
        return 1

    def channel_base(self, channel: Channel) -> float:
        """The jitter-free base latency this model assigns to ``channel``.

        Heterogeneous models (:class:`PerChannelDelay`,
        :class:`~repro.topo.delays.LatencyDelayModel`) answer per channel;
        scalar models answer their constant (or mean).  Wrappers such as
        :class:`LossyDelay` / :class:`DuplicatingDelay` forward to the
        model they wrap, so per-channel structure survives composition —
        callers (placement scoring, experiment tables) can interrogate a
        fully stacked model without unwrapping it by hand.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a per-channel base latency"
        )


@dataclass
class FixedDelay(DelayModel):
    """Every message takes exactly ``latency`` time units."""

    latency: float = 1.0

    def delay(self, message: UpdateMessage, rng: random.Random) -> float:
        return self.latency

    def channel_base(self, channel: Channel) -> float:
        return self.latency


@dataclass
class UniformDelay(DelayModel):
    """Latency drawn uniformly from ``[low, high]`` — the default model.

    With a wide interval this generates heavy reordering between channels and
    within a channel (non-FIFO), which is the regime partial-replication
    causality tracking must survive.
    """

    low: float = 1.0
    high: float = 10.0

    def delay(self, message: UpdateMessage, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def channel_base(self, channel: Channel) -> float:
        return (self.low + self.high) / 2.0


@dataclass
class PerChannelDelay(DelayModel):
    """A distinct base latency per channel plus bounded jitter.

    Useful for geo-replication-style scenarios where some replica pairs are
    "close" and others "far", and for constructing the loosely synchronous
    regime of Appendix D (long paths slower than single hops).
    """

    base: Mapping[Channel, float] = field(default_factory=dict)
    default: float = 1.0
    jitter: float = 0.0

    def delay(self, message: UpdateMessage, rng: random.Random) -> float:
        channel = (message.sender, message.destination)
        latency = self.base.get(channel, self.default)
        if self.jitter:
            latency += rng.uniform(0.0, self.jitter)
        return latency

    def channel_base(self, channel: Channel) -> float:
        return self.base.get(channel, self.default)


@dataclass
class AdversarialDelay(DelayModel):
    """Arbitrary per-message delays chosen by a user-supplied function.

    The callable receives the message and must return its latency.  This is
    the hook the necessity experiments use to realise the executions of the
    Theorem 8 proof (e.g. "hold the direct update from r1 to ls until after
    the long dependency chain has arrived").
    """

    chooser: Callable[[UpdateMessage], float] = lambda message: 1.0

    def delay(self, message: UpdateMessage, rng: random.Random) -> float:
        return float(self.chooser(message))


@dataclass
class ChannelFateWrapper(DelayModel):
    """Base for wrappers perturbing the channel fate of selected channels.

    Delays delegate to the wrapped model unchanged; the fate decision draws
    from the same seeded generator, so a wrapped run is exactly as
    reproducible as its inner model (same seed → same delay *and* fate
    sequence).  ``channels`` restricts the perturbation to specific
    directed channels (``None`` = every channel); subclasses implement just
    :meth:`_transform`.
    """

    inner: DelayModel = field(default_factory=UniformDelay)
    channels: Optional[frozenset] = None

    def delay(self, message: UpdateMessage, rng: random.Random) -> float:
        return self.inner.delay(message, rng)

    def channel_base(self, channel: Channel) -> float:
        # Forward rather than assume a scalar: the wrapped model may be
        # per-channel heterogeneous (PerChannelDelay, LatencyDelayModel).
        return self.inner.channel_base(channel)

    def fate(self, message: UpdateMessage, rng: random.Random) -> int:
        copies = self.inner.fate(message, rng)
        if self.channels is not None:
            if (message.sender, message.destination) not in self.channels:
                return copies
        return self._transform(copies, rng)

    def _transform(self, copies: int, rng: random.Random) -> int:
        """Perturb the inner fate (number of copies) for an in-scope message."""
        raise NotImplementedError


@dataclass
class LossyDelay(ChannelFateWrapper):
    """Wrapper dropping each message with seeded probability."""

    drop_probability: float = 0.1

    def _transform(self, copies: int, rng: random.Random) -> int:
        return 0 if rng.random() < self.drop_probability else copies


@dataclass
class DuplicatingDelay(ChannelFateWrapper):
    """Wrapper injecting a duplicate copy with seeded probability.

    Stacks with :class:`LossyDelay` in either order (a dropped message has
    no copies to duplicate; a duplicated message may lose one copy).  Each
    copy samples its own delay, so duplicates reorder freely — the regime
    the protocol layer's duplicate suppression must survive.
    """

    duplicate_probability: float = 0.1

    def _transform(self, copies: int, rng: random.Random) -> int:
        if copies > 0 and rng.random() < self.duplicate_probability:
            return copies + 1
        return copies


@dataclass
class SlowChannelDelay(DelayModel):
    """Uniform delays, except selected channels are slowed by a large factor.

    A compact way to build "the message on this edge arrives last" schedules
    without writing a custom chooser.
    """

    slow_channels: frozenset = frozenset()
    low: float = 1.0
    high: float = 2.0
    slow_factor: float = 100.0

    def delay(self, message: UpdateMessage, rng: random.Random) -> float:
        latency = rng.uniform(self.low, self.high)
        if (message.sender, message.destination) in self.slow_channels:
            latency *= self.slow_factor
        return latency
