"""Messages, update records and the abstract replica protocol.

This module defines the vocabulary shared by every protocol implementation
in the library (the paper's edge-indexed algorithm and all the baselines):

* :class:`Update` — a uniquely identified write issued by some replica.
* :class:`UpdateMessage` — the ``update(i, τ_i, x, v)`` message of the
  algorithm prototype: an update plus the metadata (timestamp) attached by
  the issuing protocol.
* :class:`ReplicaEvent` / :class:`EventKind` — the issue/apply trace entries
  consumed by the consistency checker (:mod:`repro.core.consistency`), and
  :class:`ReplicaTrace`, the columnar sequence a replica keeps them in.
* :class:`Known` — what a replica holds, as its per-issuer frontier: the one
  duplicate rule that receive, resync and the sent-log pruning all ask.
* :class:`CausalReplica` — the abstract base class every replica
  implementation (paper algorithm, full replication, track-all-edges,
  incident-only, hoop tracking, …) conforms to, so the simulator, checker
  and metrics treat them uniformly.
"""

from __future__ import annotations

import abc
import copy
import enum
from array import array
from collections import deque
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Any,
    ClassVar,
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import ProtocolError, ReconfigurationError, RegisterNotStoredError
from .registers import Register, ReplicaId

class _AnyKey:
    """Sentinel type for :data:`ANY_KEY`.

    Copy/deepcopy/pickle all resolve back to the module-level singleton, so
    a cloned replica's ``ANY_KEY`` buckets stay poppable by the original
    key.
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<ANY_KEY>"

    def __copy__(self) -> "_AnyKey":
        return self

    def __deepcopy__(self, memo: Dict) -> "_AnyKey":
        return self

    def __reduce__(self) -> str:
        return "ANY_KEY"


#: Index key for pending messages whose blocking reason is unknown: they are
#: re-examined after *every* local apply (the conservative fallback that
#: reproduces the behaviour of a full pending-buffer rescan).
ANY_KEY = _AnyKey()

#: A globally unique update identifier: ``(issuing replica, per-replica sequence number)``.
UpdateId = Tuple[ReplicaId, int]

#: Pending-index key gating *all* normal traffic at a replica that is still
#: receiving a state-transfer stream: pre-transfer history must finish
#: applying before any post-reconfiguration update does, because the new
#: epoch's timestamps cannot express dependencies on pre-epoch updates.
BOOTSTRAP_GATE = ("bootstrap-gate",)


@dataclass(frozen=True, slots=True)
class BootstrapMetadata:
    """Metadata of a state-transfer (bootstrap) message.

    When a replica joins — or an existing replica gains registers through a
    share-graph edge change — the reconfiguration coordinator replays the
    gained registers' update history to it as ordinary
    :class:`UpdateMessage`\\ s through the transport (so delays, batching,
    the sent-log and the crash-recovery resync all apply).  These messages
    bypass the protocol's delivery predicate: the coordinator has already
    topologically sorted them along ``↪``, and the receiver applies them
    strictly in ``index`` order (0-based, ``total`` messages in the stream).

    Attributes
    ----------
    index:
        Position of this message in the transfer stream.
    total:
        Stream length; applying message ``total - 1`` completes the
        transfer and lifts the replica's :data:`BOOTSTRAP_GATE`.
    epoch:
        The configuration epoch the transfer belongs to.
    """

    index: int
    total: int
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class Update:
    """A single write operation issued by a replica.

    Slotted: updates are the highest-volume objects in a run (one per write,
    referenced by every message copy), so dropping the per-instance
    ``__dict__`` measurably shrinks large backlogs.

    Attributes
    ----------
    issuer:
        The replica that issued (and locally applied) the update.
    seq:
        The issuer-local sequence number, starting at 1.  ``(issuer, seq)``
        is globally unique and is exposed as :attr:`uid`.
    register:
        The register written.
    value:
        The value written.  Values are opaque to the protocol.
    """

    issuer: ReplicaId
    seq: int
    register: Register
    value: Any

    @property
    def uid(self) -> UpdateId:
        """The globally unique identifier ``(issuer, seq)``."""
        return (self.issuer, self.seq)

    def __reduce__(self) -> Tuple[Any, tuple]:
        # Pickled and copied as one constructor call.  The slotted-dataclass
        # default goes through copyreg and a per-field state list, ~5x
        # slower, and a checkpoint record pickles thousands of updates.
        return (type(self), (self.issuer, self.seq, self.register, self.value))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"u({self.issuer}:{self.seq} {self.register}={self.value!r})"


@dataclass(frozen=True, slots=True)
class UpdateMessage:
    """The ``update(i, τ_i, x, v)`` message sent from the issuer to peers.

    Slotted like :class:`Update`: one instance per (update, destination)
    pair makes these the dominant allocation of every broadcast-heavy run.

    Attributes
    ----------
    update:
        The update being propagated.
    sender:
        The issuing replica ``i`` (always equal to ``update.issuer`` in the
        peer-to-peer architecture; kept separate so routed/piggybacked
        variants can forward messages through intermediaries).
    destination:
        The replica this copy of the message is addressed to.
    metadata:
        The protocol-specific timestamp attached to the update (an
        :class:`~repro.core.timestamps.EdgeTimestamp`, a
        :class:`~repro.core.timestamps.VectorTimestamp`, or whatever the
        protocol uses).
    metadata_size:
        Number of integer counters carried by ``metadata``; recorded here so
        metrics do not need to understand every metadata type.
    payload:
        ``True`` when the message carries the written value (a real update),
        ``False`` for metadata-only messages such as the dummy-register
        optimization's notifications.
    """

    update: Update
    sender: ReplicaId
    destination: ReplicaId
    metadata: Any
    metadata_size: int
    payload: bool = True
    #: The configuration epoch the message was issued in.  Stamped by the
    #: sending replica, carried in the wire frame header, and checked at
    #: delivery: a frame from a stale epoch is rejected cleanly (its content
    #: is recovered by the retransmission/resync layers, never by decoding
    #: metadata whose index structure no longer matches the configuration).
    epoch: int = 0

    def __reduce__(self) -> Tuple[Any, tuple]:
        # One constructor call, like Update's.
        return (type(self), (self.update, self.sender, self.destination,
                             self.metadata, self.metadata_size, self.payload,
                             self.epoch))

    # -- wire-format hooks ---------------------------------------------
    # The binary encoding itself lives in :mod:`repro.wire` (which imports
    # this module); these convenience hooks lazily bridge the two layers so
    # callers holding a message can ask for its bytes without knowing the
    # codec machinery.

    def encoded_size(self, codec: Any = None) -> Any:
        """Byte breakdown of this message as a standalone, fully-encoded
        wire envelope (a :class:`~repro.wire.frames.WireSizes`).

        ``codec`` optionally forces a timestamp-family codec (e.g. the dense
        matrix codec); by default the family is dispatched from the metadata
        type.  Delta encoding is per-channel transport state and therefore
        not reflected here — this is the context-free size of the message.
        """
        from ..wire.frames import message_wire_sizes

        return message_wire_sizes(self, codec=codec)

    def to_wire(self, codec: Any = None) -> bytes:
        """Serialize to a standalone wire envelope (full timestamp frame)."""
        from ..wire.frames import encode_message

        data, _ = encode_message(self, codec=codec)
        return data

    @classmethod
    def from_wire(cls, data: bytes) -> "UpdateMessage":
        """Decode a standalone wire envelope back into a message.

        Inverse of :meth:`to_wire` for payload messages; a metadata-only
        message (``payload=False``) ships no value, so its decoded update
        carries ``value=None`` — exactly what arrived on the wire.
        """
        from ..wire.frames import decode_message

        message, _ = decode_message(data)
        return message

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = "update" if self.payload else "meta"
        return (
            f"{tag}({self.update}) {self.sender}->{self.destination} "
            f"[{self.metadata_size} counters]"
        )


class Known(NamedTuple):
    """What a replica holds, by counting: the one duplicate rule.

    Every family applies an issuer's updates in the issuer's order (the
    FIFO conjunct ``τ_i[e_ki] = T[e_ki] − 1`` of Section 3.3, shared by the
    baselines), so "``i`` holds ``(k, s)``" is ``s ≤ frontier[k]`` or
    ``(k, s)`` is pending: O(writers + pending), not O(history).
    ``pending`` is a live view of the replica's buffered uids (the keys of
    :attr:`CausalReplica.pending`), so a copy buffered after the view was
    taken is covered too.
    State-transfer messages replay history below the frontier, so they are
    matched by stream position ``(epoch, next index)`` instead
    (``docs/GLOSSARY.md``, "Known frontier", has a worked example).
    """

    frontier: Mapping[ReplicaId, int]
    pending: AbstractSet[UpdateId] = frozenset()
    bootstrap: Tuple[int, int] = (0, 0)

    def covers(self, message: UpdateMessage) -> bool:
        """``True`` iff a further copy of ``message`` would be a duplicate."""
        update = message.update
        metadata = message.metadata
        if metadata.__class__ is BootstrapMetadata:
            if (metadata.epoch, metadata.index) < self.bootstrap:
                return True
        elif update.seq <= self.frontier.get(update.issuer, 0):
            return True
        return (update.issuer, update.seq) in self.pending


class EventKind(enum.Enum):
    """The kinds of events a replica records in its local trace."""

    #: The replica issued an update (and applied it locally, step 2).
    ISSUE = "issue"
    #: The replica applied a remote update from its pending buffer (step 4).
    APPLY = "apply"
    #: The replica served a client read (recorded for client-session analyses).
    READ = "read"


@dataclass(frozen=True)
class ReplicaSnapshot:
    """A replica's durable state: every non-volatile attribute by name — the
    timestamp, register store, pending map (one entry per buffered copy)
    with its wake-key index, frontier, sequence counter and event trace.

    The live write-ahead log serialises :meth:`CausalReplica.durable_view`
    at once (its pickle *is* the copy) and recovers with
    :meth:`CausalReplica.adopt`.  The simulator takes none: its crash keeps
    the replica object, since nothing reaches a replica while it is down
    (:mod:`repro.sim.faults`).  :meth:`CausalReplica.snapshot` is the deep
    copy for a caller that holds the state while the replica runs on.
    """

    replica_id: ReplicaId
    state: Dict[str, Any]
    #: Names of the ``state`` entries that only ever grow by appending
    #: (:attr:`CausalReplica._HISTORY_STATE`): a log-structured store
    #: persists their new tail, not the whole list.
    history: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ReplicaEvent:
    """One entry of a replica's local trace, as its readers see it.

    A replica stores its trace as columns (:class:`ReplicaTrace`) and
    builds these on read, so a long trace costs no object per event.

    Attributes
    ----------
    replica_id:
        The replica at which the event occurred.
    kind:
        Issue, apply or read.
    update:
        The update issued/applied; for reads, ``None``.
    register:
        The register involved (for reads, the register read).
    local_index:
        Position of this event in the replica's local order (0-based).
    sim_time:
        Simulation time at which the event happened (0.0 outside the
        simulator).
    """

    replica_id: ReplicaId
    kind: EventKind
    update: Optional[Update]
    register: Optional[Register]
    local_index: int
    sim_time: float = 0.0

    def __reduce__(self) -> Tuple[Any, tuple]:
        # One constructor call, like Update's.
        return (type(self), (self.replica_id, self.kind, self.update,
                             self.register, self.local_index, self.sim_time))


#: The event kinds by their code in a :class:`ReplicaTrace`'s kind column.
_KINDS: Tuple[EventKind, ...] = (EventKind.ISSUE, EventKind.APPLY, EventKind.READ)
_KIND_CODES: Dict[EventKind, int] = {kind: code for code, kind in enumerate(_KINDS)}
#: Hoisted codes: the apply path records one event per applied update.
_APPLY_CODE = _KIND_CODES[EventKind.APPLY]
_READ_CODE = _KIND_CODES[EventKind.READ]
_READ = EventKind.READ


class ReplicaTrace(SequenceABC):
    """One replica's local issue/apply/read trace, stored as columns.

    A run records an event per operation at every replica that stores its
    register, so the trace keeps three columns at machine width instead
    of an object per event: a ``bytearray`` of kind codes, a list of
    items — the :class:`Update` issued or applied, or the register read —
    and an ``array('d')`` of times.  That is ~17 bytes per event beside
    the update, which the replica shares with its messages anyway.

    It is a ``Sequence[ReplicaEvent]``: indexing builds the
    :class:`ReplicaEvent` on read, with ``local_index`` its position.  A
    slice is a trace (its positions count from 0 again); :meth:`extend`
    appends another trace's columns, which is how a write-ahead log folds
    its history tails back together.  A trace equals any sequence of
    equal events, and pickles as its columns.
    """

    __slots__ = ("replica_id", "kinds", "items", "times")

    def __init__(self, replica_id: ReplicaId, kinds: Optional[bytearray] = None,
                 items: Optional[List[Any]] = None,
                 times: Optional["array[float]"] = None) -> None:
        self.replica_id = replica_id
        #: One :data:`_KINDS` code per event.
        self.kinds: bytearray = bytearray() if kinds is None else kinds
        #: The update issued or applied, or (for a read) the register read.
        self.items: List[Any] = [] if items is None else items
        #: The host time of each event.
        self.times: "array[float]" = array("d") if times is None else times

    def record(self, kind: EventKind, item: Any, time: float) -> None:
        """Append one event: ``item`` is the update, or a read's register."""
        self.kinds.append(_KIND_CODES[kind])
        self.items.append(item)
        self.times.append(time)

    def extend(self, events: Iterable[ReplicaEvent]) -> None:
        """Append ``events`` (another trace's columns, or any events)."""
        if isinstance(events, ReplicaTrace):
            self.kinds += events.kinds
            self.items += events.items
            self.times += events.times
            return
        for event in events:
            self.record(event.kind,
                        event.register if event.update is None else event.update,
                        event.sim_time)

    def updates(self) -> Iterator[Update]:
        """The updates issued or applied, in local order (no events built)."""
        return (item for code, item in zip(self.kinds, self.items)
                if code != _READ_CODE)

    def issue_times(self) -> Dict[UpdateId, float]:
        """The ISSUE events' projection: each update this replica issued
        → its issue time (no events built)."""
        issue = _KIND_CODES[EventKind.ISSUE]
        return {item.uid: time for code, item, time
                in zip(self.kinds, self.items, self.times) if code == issue}

    def _event(self, index: int, code: int, item: Any, time: float) -> ReplicaEvent:
        if code == _READ_CODE:
            return ReplicaEvent(self.replica_id, _READ, None, item, index, time)
        return ReplicaEvent(self.replica_id, _KINDS[code], item, item.register,
                            index, time)

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return ReplicaTrace(self.replica_id, self.kinds[index],
                                self.items[index], self.times[index])
        index = range(len(self.kinds))[index]
        return self._event(index, self.kinds[index], self.items[index],
                           self.times[index])

    def __iter__(self) -> Iterator[ReplicaEvent]:
        event = self._event
        for index, (code, item, time) in enumerate(
                zip(self.kinds, self.items, self.times)):
            yield event(index, code, item, time)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReplicaTrace):
            return (self.kinds == other.kinds and self.times == other.times
                    and self.items == other.items
                    and (not self.kinds or self.replica_id == other.replica_id))
        if isinstance(other, SequenceABC) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> Tuple[Any, tuple]:
        # The columns themselves: an unpickled trace takes them over.
        return (type(self), (self.replica_id, self.kinds, self.items, self.times))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ReplicaTrace replica={self.replica_id!r} events={len(self)}>"


class CausalReplica(abc.ABC):
    """Abstract base class for every replica-protocol implementation.

    The algorithm prototype of Section 2.1 fixes the *shape* of a protocol —
    local reads answered immediately, local writes applied + timestamped +
    multicast, remote updates buffered until a delivery predicate holds —
    and leaves the timestamp structure, ``advance``/``merge`` and the
    predicate open.  Concrete subclasses fill those in.

    Subclasses must implement the five abstract methods; the base class
    provides the register storage, the pending buffer (a uid-keyed map in
    arrival order, the only record of a buffered copy) with its wake-key
    index, the local event trace, and the indexed apply loop realising
    step 4 of the prototype (:meth:`apply_ready`; the original full-rescan
    semantics survive as the :meth:`apply_ready_rescan` reference).
    """

    def __init__(self, replica_id: ReplicaId, registers: Iterable[Register]) -> None:
        self.replica_id = replica_id
        self.registers: FrozenSet[Register] = frozenset(registers)
        #: The configuration epoch this replica currently runs in; bumped by
        #: :meth:`migrate` and stamped onto every outgoing message.
        self.epoch: int = 0
        #: State-transfer stream length, or ``None`` when no transfer is in
        #: progress.  While a transfer is active the replica applies only
        #: bootstrap messages (in index order) and parks all normal traffic
        #: under :data:`BOOTSTRAP_GATE`.
        self._bootstrap_total: Optional[int] = None
        #: The stream's epoch (a commit can open the next stream in the
        #: middle of a delivery that completed the last) and next index.
        self._bootstrap_epoch: int = 0
        self._bootstrap_next: int = 0
        #: Current value of every locally stored register (None = never written).
        self.store: Dict[Register, Any] = {r: None for r in self.registers}
        #: Remote updates received but not yet applied, by update uid in
        #: arrival order: the only record of a buffered copy (receive
        #: inserts, apply pops).  :meth:`known` never lets a second copy of
        #: a buffered uid in, so the keys are unique.
        self.pending: Dict[UpdateId, UpdateMessage] = {}
        #: The known frontier, the highest seq applied per issuer.  With
        #: the pending keys it is the replica's :meth:`known`, the
        #: protocol-layer half of the exactly-once guarantee over lossy or
        #: duplicating channels (the transport's resend timers are the
        #: at-least-once half).
        self.frontier: Dict[ReplicaId, int] = {}
        #: Duplicate deliveries suppressed by :meth:`receive_many`.
        self.duplicates_ignored: int = 0
        #: Local issue/apply/read trace, consumed by the consistency checker:
        #: the replica's only per-update record (:attr:`applied` projects
        #: it), stored as columns and read as :class:`ReplicaEvent` s.
        self.events: ReplicaTrace = ReplicaTrace(replica_id)
        #: Number of updates issued locally (used for sequence numbers).
        self.issued_count: int = 0
        #: Uids the latest drain replayed from a state-transfer stream: the
        #: host samples no apply latency for them (that is history's age).
        self.replayed: Set[UpdateId] = set()
        # -- pending-buffer index ------------------------------------------
        # Every buffered message lives in exactly one of two places: the
        # recheck queue (its predicate will be evaluated on the next
        # :meth:`apply_ready`) or one bucket of ``_blocked``, keyed by the
        # protocol-reported reason it last failed (:meth:`blocking_key`).
        # Applying a message notifies the keys it plausibly unblocked
        # (:meth:`applied_keys`), moving just those buckets back to the
        # queue — so an apply re-checks plausible candidates instead of
        # rescanning the whole buffer.
        self._recheck: Deque[UpdateMessage] = deque()
        self._blocked: Dict[Hashable, List[UpdateMessage]] = {}

    # ------------------------------------------------------------------
    # Hooks each protocol must provide
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def destinations(self, register: Register) -> Sequence[ReplicaId]:
        """Replicas (other than this one) that must receive updates to ``register``."""

    @abc.abstractmethod
    def make_metadata(self, register: Register) -> Tuple[Any, int]:
        """Advance the local timestamp for a write of ``register``.

        Returns the metadata to attach to the outgoing update message and its
        size in counters.  Called exactly once per local write, *after* the
        local store has been updated.
        """

    @abc.abstractmethod
    def can_apply(self, message: UpdateMessage) -> bool:
        """The protocol's delivery predicate ``J`` for a pending message."""

    @abc.abstractmethod
    def absorb_metadata(self, message: UpdateMessage) -> None:
        """The protocol's ``merge``: fold an applied message's metadata into the local timestamp."""

    @abc.abstractmethod
    def metadata_size(self) -> int:
        """Current number of integer counters held locally (the metadata overhead)."""

    def payload_for(self, register: Register, destination: ReplicaId) -> bool:
        """Whether the update message to ``destination`` carries the written value.

        The default is ``True``; the dummy-register optimization overrides
        this to send metadata-only messages to replicas that hold a register
        only as a dummy copy (Appendix D).
        """
        return True

    def wire_codec(self) -> Any:
        """The timestamp codec for this replica family's metadata, or ``None``.

        Each protocol family registers its codec by overriding this (the
        paper's replicas return the sparse edge codec, Full-Track the dense
        matrix codec, …); the transport's byte accounting resolves a
        message's codec through its sending replica.  ``None`` falls back to
        type-based dispatch (:func:`repro.wire.codecs.codec_for`).
        """
        return None

    # ------------------------------------------------------------------
    # Pending-index hooks (optional, for fast apply scheduling)
    # ------------------------------------------------------------------
    def blocking_key(self, message: UpdateMessage) -> Optional[Hashable]:
        """Evaluate the delivery predicate, reporting what blocks ``message``.

        Returns ``None`` when the predicate holds (the message is
        applicable now).  Otherwise returns a hashable key (an edge, a
        replica id, …) such that the predicate cannot start holding before
        the local state indexed by that key changes; the message is then
        parked until some applied message's :meth:`applied_keys` mentions
        the same key.  Combining the check and the blocking reason in one
        hook lets keyed protocols evaluate their conjuncts a single time
        per recheck.  Implementations must agree with :meth:`can_apply`.

        The default defers to :meth:`can_apply` and parks under
        :data:`ANY_KEY` — a bucket re-examined after every apply, which
        reproduces the semantics of the original full rescan for protocols
        that do not implement the hook.
        """
        return None if self.can_apply(message) else ANY_KEY

    def applied_keys(self, message: UpdateMessage) -> Optional[Iterable[Hashable]]:
        """Keys whose local state plausibly changed by applying ``message``.

        Returning ``None`` (the default) re-examines every parked message —
        always safe.  Protocols with keyed indexes return just the
        counters/edges their ``merge`` touched (see :meth:`wake_keys`).
        """
        return None

    @staticmethod
    def wake_keys(changed: Iterable[Tuple[Hashable, int]]) -> List[Hashable]:
        """Standard wake keys for raised counters, paired with :meth:`blocking_key`.

        For every ``(counter key, new value)`` raised by a merge, emits
        ``("seq", key, value + 1)`` — waking the exact-value bucket of a
        FIFO conjunct now expecting ``value + 1`` next — and ``("ge", key)``
        — waking every message parked on a monotone conjunct over that
        counter.  Shared by all keyed protocols so the key scheme stays a
        single contract.
        """
        keys: List[Hashable] = []
        for key, value in changed:
            keys.append(("seq", key, value + 1))
            keys.append(("ge", key))
        return keys

    def notify_pending(self, keys: Optional[Iterable[Hashable]] = None) -> None:
        """Re-examine parked messages after an out-of-band state change.

        Protocols that mutate delivery-relevant local state outside
        :meth:`absorb_metadata` (e.g. the client–server ``advance`` merging a
        client timestamp) must call this with the touched keys, or with
        ``None`` to re-examine everything.  The messages are re-checked on
        the next :meth:`apply_ready` call.
        """
        if keys is None:
            for bucket in self._blocked.values():
                self._recheck.extend(bucket)
            self._blocked.clear()
            return
        for key in keys:
            bucket = self._blocked.pop(key, None)
            if bucket:
                self._recheck.extend(bucket)
        bucket = self._blocked.pop(ANY_KEY, None)
        if bucket:
            self._recheck.extend(bucket)

    # ------------------------------------------------------------------
    # The algorithm prototype (Section 2.1), common to all protocols
    # ------------------------------------------------------------------
    def read(self, register: Register, sim_time: float = 0.0) -> Any:
        """Step 1: answer a client read from the local copy."""
        if register not in self.registers:
            raise RegisterNotStoredError(register, self.replica_id)
        self.events.record(_READ, register, sim_time)
        return self.store[register]

    def write(self, register: Register, value: Any,
              sim_time: float = 0.0) -> List[UpdateMessage]:
        """Step 2: apply a client write locally and produce the update messages.

        Returns one :class:`UpdateMessage` per destination replica; the caller
        (simulator or application) is responsible for transporting them.
        """
        if register not in self.registers:
            raise RegisterNotStoredError(register, self.replica_id)
        self.issued_count += 1
        update = Update(self.replica_id, self.issued_count, register, value)
        self.store[register] = value
        metadata, size = self.make_metadata(register)
        self.frontier[self.replica_id] = self.issued_count
        self.events.record(EventKind.ISSUE, update, sim_time)
        return [
            UpdateMessage(
                update=update,
                sender=self.replica_id,
                destination=dest,
                metadata=metadata,
                metadata_size=size,
                payload=self.payload_for(register, dest),
                epoch=self.epoch,
            )
            for dest in self.destinations(register)
        ]

    def receive(self, message: UpdateMessage) -> None:
        """Step 3: buffer a received update message.

        Deliveries :meth:`known` covers are suppressed, so retransmissions
        and duplicating channels cannot violate the exactly-once delivery
        assumption of the algorithm prototype.
        """
        self.receive_many((message,))

    def apply_ready(self, sim_time: float = 0.0, force: bool = False) -> List[Update]:
        """Step 4: apply pending updates whose predicate holds.

        Instead of rescanning the whole pending buffer to a fixpoint, this
        drains the recheck queue: newly received messages, plus messages
        whose blocking key was touched by an earlier apply.  ``force=True``
        re-enqueues every parked message first (used by the simulator's
        quiescence fixpoint as a safety net against protocols with
        imprecise :meth:`blocking_key` implementations).

        Returns the updates applied during this call, in application order.
        """
        if force and self._blocked:
            self.notify_pending(None)
        return self._drain_recheck(sim_time)

    def _drain_recheck(self, sim_time: float) -> List[Update]:
        """The indexed drain loop shared by :meth:`apply_ready` and
        :meth:`apply_batch` (one code path, so the two entry points cannot
        diverge semantically).  Attribute lookups are hoisted out of the
        loop: this is the hottest loop in the library — every delivered
        message passes through it at least once."""
        recheck = self._recheck
        if not recheck:
            return []
        applied_now: List[Update] = []
        self.replayed.clear()
        blocked = self._blocked
        effective_key = self._effective_blocking_key
        protocol_key = self.blocking_key
        apply_one = self._apply
        bootstrap_cls = BootstrapMetadata
        while recheck:
            message = recheck.popleft()
            # Fast path for normal traffic outside a state transfer: go
            # straight to the protocol predicate.  Bootstrap messages and
            # gated traffic take the full decision in
            # :meth:`_effective_blocking_key` (same semantics, hoisted
            # checks).
            is_bootstrap = message.metadata.__class__ is bootstrap_cls
            if is_bootstrap or self._bootstrap_total is not None:
                key = effective_key(message)
            else:
                key = protocol_key(message)
            if key is None:
                applied_now.append(message.update)
                apply_one(message, sim_time)
                if is_bootstrap:
                    keys = self._effective_applied_keys(message)
                else:
                    keys = self.applied_keys(message)
                if keys is None:
                    self.notify_pending(None)
                else:
                    # Inlined notify_pending(keys): pop the woken buckets
                    # (plus the ANY_KEY fallback) straight into the queue.
                    for wake in keys:
                        bucket = blocked.pop(wake, None)
                        if bucket:
                            recheck.extend(bucket)
                    bucket = blocked.pop(ANY_KEY, None)
                    if bucket:
                        recheck.extend(bucket)
            else:
                bucket = blocked.get(key)
                if bucket is None:
                    blocked[key] = [message]
                else:
                    bucket.append(message)
        return applied_now

    def receive_many(self, messages: Iterable[UpdateMessage]) -> int:
        """Step 3, vectorized: buffer a batch of received messages.

        What :meth:`receive` runs, for many messages in one loop.  Returns
        the number of messages actually buffered (duplicates excluded).
        """
        # The view shares the pending keys, so a copy buffered earlier in
        # this batch covers its own duplicates.
        covers = self.known().covers
        pending = self.pending
        recheck = self._recheck
        count = 0
        for message in messages:
            if covers(message):
                self.duplicates_ignored += 1
                continue
            pending[message.update.uid] = message
            recheck.append(message)
            count += 1
        return count

    def apply_batch(self, batch: Any, sim_time: float = 0.0) -> List[Update]:
        """Steps 3+4 for a whole delivered batch: buffer it, then drain once.

        ``batch`` is a :class:`~repro.wire.batch.MessageBatch` or any
        iterable of :class:`UpdateMessage` (duck-typed on ``.messages`` so
        this module does not import the wire layer).  The messages are
        buffered in one :meth:`receive_many` pass and the recheck queue is
        drained by a single sweep of the shared indexed loop — the same
        code path :meth:`apply_ready` runs, so ``apply_batch(batch)`` is
        *by construction* equivalent to ``receive()`` of each message
        followed by one ``apply_ready()``, while replacing the per-message
        receive/event churn with two tight loops over the batch.

        Returns the updates applied during this call, in application order.
        """
        self.receive_many(getattr(batch, "messages", batch))
        return self._drain_recheck(sim_time)

    # ------------------------------------------------------------------
    # State transfer (bootstrap streams) and the gate over normal traffic
    # ------------------------------------------------------------------
    def _effective_blocking_key(self, message: UpdateMessage) -> Optional[Hashable]:
        """The full delivery decision: bootstrap stream order, then the gate,
        then the protocol predicate.

        Bootstrap messages apply strictly in stream-index order (the
        coordinator pre-sorted them along ``↪``); while a stream is open,
        every normal message parks under :data:`BOOTSTRAP_GATE` so no
        post-reconfiguration update can overtake pre-epoch history.
        """
        metadata = message.metadata
        if isinstance(metadata, BootstrapMetadata):
            if metadata.index == self._bootstrap_next:
                return None
            return ("bootstrap", metadata.index)
        if self._bootstrap_total is not None:
            return BOOTSTRAP_GATE
        return self.blocking_key(message)

    def _effective_applied_keys(
        self, message: UpdateMessage
    ) -> Optional[Iterable[Hashable]]:
        """Wake keys for an applied message, bootstrap streams included."""
        if isinstance(message.metadata, BootstrapMetadata):
            keys: List[Hashable] = [("bootstrap", self._bootstrap_next)]
            if self._bootstrap_total is None:
                # The stream just completed: lift the gate.
                keys.append(BOOTSTRAP_GATE)
            return keys
        return self.applied_keys(message)

    def begin_bootstrap(self, total: int) -> None:
        """Open a state-transfer stream of ``total`` messages.

        Called by the reconfiguration coordinator immediately before it
        sends the stream.  Until the stream completes, the replica applies
        only bootstrap messages (in order) and gates everything else.
        """
        if total <= 0:
            raise ProtocolError(f"bootstrap stream length must be positive: {total}")
        if self._bootstrap_total is not None:
            raise ProtocolError(
                f"replica {self.replica_id!r} already has a state transfer open"
            )
        self._bootstrap_total = total
        self._bootstrap_epoch = self.epoch
        self._bootstrap_next = 0

    @property
    def bootstrapping(self) -> bool:
        """``True`` while a state-transfer stream is still being applied."""
        return self._bootstrap_total is not None

    def apply_ready_rescan(self, sim_time: float = 0.0) -> List[Update]:
        """Reference implementation of step 4: fixpoint rescan of the buffer.

        Kept for differential testing and benchmarking against the indexed
        path (:meth:`apply_ready`); semantically equivalent but O(P²) in the
        pending-buffer size ``P`` per call.
        """
        applied_now: List[Update] = []
        progress = True
        while progress:
            progress = False
            for message in list(self.pending.values()):
                if self._effective_blocking_key(message) is not None:
                    continue
                self._apply(message, sim_time)
                applied_now.append(message.update)
                progress = True
        # Resynchronise the index with the buffer so the two entry points
        # can be mixed on one replica.
        self._recheck = deque(self.pending.values())
        self._blocked.clear()
        return applied_now

    def _apply(self, message: UpdateMessage, sim_time: float) -> None:
        """Apply a buffered message and pop it from :attr:`pending`."""
        update = message.update
        if message.payload and update.register in self.registers:
            self.store[update.register] = update.value
        issuer, seq = uid = (update.issuer, update.seq)
        if isinstance(message.metadata, BootstrapMetadata):
            # Bootstrap messages carry stream-position metadata, not a
            # timestamp: advance the stream instead of merging.  Replayed
            # history is known by stream position, never by the frontier.
            self.replayed.add(uid)
            self._bootstrap_next += 1
            if (
                self._bootstrap_total is not None
                and self._bootstrap_next >= self._bootstrap_total
            ):
                self._bootstrap_total = None
        else:
            self.absorb_metadata(message)
            if seq > self.frontier.get(issuer, 0):
                self.frontier[issuer] = seq
        del self.pending[uid]
        # Inlined self.events.record(...): no per-apply method call or
        # kind lookup.
        trace = self.events
        trace.kinds.append(_APPLY_CODE)
        trace.items.append(update)
        trace.times.append(sim_time)

    # ------------------------------------------------------------------
    # Epoch migration (dynamic membership support)
    # ------------------------------------------------------------------
    def migrate(self, new_graph: Any, epoch: int) -> None:
        """Adopt a new configuration: recompute the timestamp structure for
        the new share graph and carry the local state across the epoch.

        Protocol families that support dynamic membership override this
        (the paper's edge-indexed family does); the default refuses, so a
        reconfiguration against an unsupported baseline fails loudly
        instead of silently corrupting its metadata.
        """
        raise ReconfigurationError(
            f"protocol family {type(self).__name__} does not implement "
            "epoch migration"
        )

    def _migrate_common(self, new_registers: Iterable[Register], epoch: int) -> None:
        """The family-independent half of :meth:`migrate`.

        Adjusts the register store (a lost register keeps its value,
        unreadable, so a re-gain starts from it; the bootstrap stream
        brings the rest), garbage-collects pending messages whose register
        is no longer stored here, bumps the epoch, and re-keys the whole
        pending index against the new timestamp structure (every surviving
        message is re-examined on the next :meth:`apply_ready`).
        """
        new_registers = frozenset(new_registers)
        for register in new_registers - self.registers:
            self.store.setdefault(register, None)
        self.registers = new_registers
        # In place, not rebound: a :meth:`known` view holds the map's keys.
        pending = self.pending
        for uid in [uid for uid, message in pending.items()
                    if message.update.register not in new_registers]:
            del pending[uid]
        self.epoch = epoch
        self._recheck = deque(pending.values())
        self._blocked = {}

    def _remove_from_index(self, uid: UpdateId) -> None:
        """Scrub one uid from the recheck queue and every blocked bucket."""
        self._recheck = deque(m for m in self._recheck if m.update.uid != uid)
        for key in list(self._blocked):
            bucket = [m for m in self._blocked[key] if m.update.uid != uid]
            if bucket:
                self._blocked[key] = bucket
            else:
                del self._blocked[key]

    def force_apply(self, message: UpdateMessage, sim_time: float = 0.0) -> None:
        """Apply a buffered message unconditionally (coordinator override).

        The reconfiguration flush uses this for messages still blocked after
        the old epoch's traffic has fully arrived: the coordinator applies
        them in a globally valid causal order, which the per-edge predicate
        can no longer certify once the edges that carried the dependency are
        about to disappear.
        """
        uid = message.update.uid
        if uid not in self.pending:
            if self.has_applied(uid):
                return
            raise ProtocolError(
                f"force_apply of a message not buffered at replica "
                f"{self.replica_id!r}: {message}"
            )
        self._apply(message, sim_time)
        self._remove_from_index(uid)

    # ------------------------------------------------------------------
    # Durable state (crash/restart support)
    # ------------------------------------------------------------------
    #: Attributes excluded from durable snapshots — architecture-specific
    #: in-memory state (e.g. buffered client requests) that a crash loses;
    #: subclasses extend the tuple and reinitialise the attributes in
    #: :meth:`_reset_volatile`.
    _VOLATILE_STATE: ClassVar[Tuple[str, ...]] = ()
    #: Durable attributes that only ever grow by appending — the replica's
    #: history, as opposed to its replaceable state.  Subclasses that add
    #: such a list extend the tuple.
    _HISTORY_STATE: ClassVar[Tuple[str, ...]] = ("events",)

    def durable_view(self) -> ReplicaSnapshot:
        """The durable state *by reference*: the live attributes, uncopied.

        For a caller that serialises it before the replica runs on (the
        live write-ahead log pickles it at once, and the pickle is the
        copy).  Anything that holds on to the result must take
        :meth:`snapshot` instead.
        """
        state = {
            name: value
            for name, value in self.__dict__.items()
            if name not in self._VOLATILE_STATE
        }
        return ReplicaSnapshot(self.replica_id, state, self._HISTORY_STATE)

    def snapshot(self) -> ReplicaSnapshot:
        """Capture the replica's durable state as a deep copy.

        For a caller that holds the state while the replica runs on: the
        benchmark's WAL ladder (``bench/ladder.py``) checkpoints one, and
        the fault tests compare one against the replica at restart.  The
        simulator's crash takes no snapshot — the replica object is its
        durable state.
        """
        view = self.durable_view()
        return ReplicaSnapshot(view.replica_id, copy.deepcopy(view.state), view.history)

    def adopt(self, snapshot: ReplicaSnapshot) -> None:
        """Become ``snapshot``'s state, taking its objects over uncopied.

        For a snapshot nobody else holds — one freshly unpickled from disk.
        Volatile attributes are re-initialised empty.
        """
        if snapshot.replica_id != self.replica_id:
            raise ProtocolError(
                f"snapshot of replica {snapshot.replica_id!r} cannot restore "
                f"replica {self.replica_id!r}"
            )
        self.__dict__.update(snapshot.state)
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        """Drop the non-durable attributes: what a crash loses."""

    def known(self) -> Known:
        """What this replica holds durably: a :class:`Known` view of its live
        frontier and pending keys (receive, resync and pruning ask it)."""
        return Known(self.frontier, self.pending.keys(),
                     (self._bootstrap_epoch, self._bootstrap_next))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def applied(self) -> List[Update]:
        """Updates issued or applied here, in local order: the ISSUE and
        APPLY items of :attr:`events`, projected afresh on every read
        (O(history); for tests and reports, not the hot path)."""
        return list(self.events.updates())

    def has_applied(self, uid: UpdateId) -> bool:
        """``True`` iff the update with this id, sent here as live traffic,
        has been applied here (its seq is within its issuer's frontier)."""
        return uid[1] <= self.frontier.get(uid[0], 0)

    def pending_count(self) -> int:
        """Number of buffered, not-yet-applied update messages."""
        return len(self.pending)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} id={self.replica_id} "
            f"registers={sorted(self.registers)} events={len(self.events)}>"
        )
