"""The closed-loop adaptive reconfiguration controller (sense → plan → act).

:class:`AdaptiveController` closes the loop the offline placement layer
left open: a periodic timer samples the running host's signals through a
:class:`~repro.adapt.sensor.Sensor` into a sliding
:class:`~repro.adapt.signals.SignalWindow`, a
:class:`~repro.adapt.planner.Planner` turns persistent shifts into
bounded placement diffs, and accepted diffs are installed as ordinary
:class:`~repro.sim.reconfig.ReconfigSchedule` actions against the
running host's :class:`~repro.sim.reconfig.ReconfigManager`.

Stability discipline (the part that makes it safe to leave on):

* **hysteresis** — planning only arms after the hot-region write share
  stays above ``dominance_rise`` for ``arm`` consecutive windows, so a
  steady workload triggers *zero* reconfigurations;
* **deferral** — no plan is installed while a partition is open, a
  member is down, a migration window is active or a state transfer is
  still warming (the manager additionally defers commits on the same
  conditions, so an in-flight fault can never race a plan);
* **rate limiting** — at most one installed diff per ``cooldown`` of
  simulated time, each diff bounded to ``max_moves`` register moves, so
  migration-window downtime stays a bounded fraction of the run;
* **margin** — a diff must beat the current placement's predicted cost
  by ``margin`` before it is worth a migration window.

The one non-placement lever is compression: sustained timestamp bytes
per message above ``compress_bytes_per_msg`` switches the transport onto
batched delta encoding (the Section-5 wire optimisation), once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from ..core.registers import Register, ReplicaId
from ..placement.base import PlacementResult
from ..sim.engine import BatchingConfig, SimulationHost
from ..sim.reconfig import ReconfigManager
from .planner import PlanDiff, Planner
from .sensor import Sensor, SignalSnapshot
from .signals import Hysteresis, SignalWindow

__all__ = ["AdaptiveController", "ControllerConfig", "Decision"]


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs of the sense → plan → act loop."""

    #: Simulated time between sensor samples.
    interval: float = 5.0
    #: Sliding-window length, in samples.
    window: int = 3
    #: Minimum simulated time between two installed diffs.
    cooldown: float = 20.0
    #: Required relative predicted improvement before acting.
    margin: float = 0.05
    #: Maximum register moves per installed diff.
    max_moves: int = 2
    #: Window writes below which a register/writer is not hot.
    min_writes: int = 4
    #: Hot-region write share that arms / disarms planning.
    dominance_rise: float = 0.45
    dominance_fall: float = 0.30
    #: Consecutive armed windows required before planning.
    arm: int = 2
    #: Sustained timestamp bytes/msg that enables delta encoding
    #: (``None`` disables the compression lever).
    compress_bytes_per_msg: Optional[float] = None
    #: Batching shape of the compression lever.  The default batches only
    #: briefly: delta encoding does the heavy byte lifting, and a long
    #: batch window would show up directly in apply latency.
    compress_max_messages: int = 4
    compress_max_delay: float = 0.05
    #: Migration window of an auto-created :class:`ReconfigManager`.
    reconfig_window: float = 0.5
    #: Objective mix handed to the planner.
    latency_weight: float = 1.0
    counter_weight: float = 1.0
    #: Spacing between the compiled actions of one diff.
    action_spacing: float = 0.001


@dataclass(frozen=True)
class Decision:
    """One audit-trail entry: what the controller did and why."""

    time: float
    kind: str  # "reconfig" | "compress"
    reason: str
    moves: Tuple[str, ...] = ()
    predicted_before: float = 0.0
    predicted_after: float = 0.0

    def describe(self) -> str:
        if self.kind == "compress":
            return f"t={self.time:.1f} compress: {self.reason}"
        return (
            f"t={self.time:.1f} reconfig ({self.reason}): "
            + "; ".join(self.moves)
            + f" [predicted {self.predicted_before:.0f} -> "
            f"{self.predicted_after:.0f}]"
        )


class AdaptiveController:
    """Close the obs → placement → reconfig loop on a running host.

    Parameters
    ----------
    host:
        The running :class:`SimulationHost` (either architecture).
    result:
        The :class:`PlacementResult` the deployment started from — the
        spec, assignment and topology the planner replans against.
    pinned:
        Register → home replica copies the planner must never move
        (defaults to each register's lowest-id initial holder).
    config:
        A :class:`ControllerConfig`; defaults are conservative.

    Call :meth:`attach` once before running the workload; the controller
    samples on the host's own timer wheel and stops by itself when the
    run drains.
    """

    def __init__(
        self,
        host: SimulationHost,
        result: PlacementResult,
        pinned: Optional[Mapping[Register, ReplicaId]] = None,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        self.host = host
        self.result = result
        self.config = config or ControllerConfig()
        manager = host.reconfig_manager
        if manager is None:
            manager = ReconfigManager(host, window=self.config.reconfig_window)
        self.manager = manager
        self.region_of = {
            rid: result.region_of(rid) for rid in sorted(result.assignment)
        }
        self.sensor = Sensor(host, region_of=self.region_of)
        self.window: SignalWindow[SignalSnapshot] = SignalWindow(
            self.config.window
        )
        self.planner = Planner(
            result,
            pinned=pinned,
            max_moves=self.config.max_moves,
            margin=self.config.margin,
            min_writes=self.config.min_writes,
            latency_weight=self.config.latency_weight,
            counter_weight=self.config.counter_weight,
        )
        self.dominance = Hysteresis(
            self.config.dominance_rise, self.config.dominance_fall,
            arm=self.config.arm,
        )
        self.decisions: List[Decision] = []
        self.plans_installed = 0
        self._last_install: Optional[float] = None
        self._compressed = False
        self._attached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> "AdaptiveController":
        """Start the periodic sense → plan → act timer."""
        if not self._attached:
            self._attached = True
            self.host.schedule_timer(
                self.config.interval, self._tick, tag="adaptive-controller"
            )
        return self

    @property
    def compressed(self) -> bool:
        """Whether the compression lever has been pulled this run."""
        return self._compressed

    def _tick(self, host: SimulationHost, now: float) -> None:
        snapshot = self.sensor.sample()
        self.window.append(snapshot)
        self._decide(now)
        if host.busy():
            host.schedule_timer(
                self.config.interval, self._tick, tag="adaptive-controller"
            )

    # ------------------------------------------------------------------
    # Sense-side aggregates
    # ------------------------------------------------------------------
    def hot_region_share(self) -> Tuple[float, str]:
        """Share of window writes issued from the hottest region."""
        writes = self.window.merge_counts(lambda s: s.writes_by_replica)
        by_region: dict = {}
        for rid, count in sorted(writes.items()):
            region = self.region_of.get(rid)
            if region is not None:
                by_region[region] = by_region.get(region, 0) + count
        total = sum(by_region.values())
        if not total:
            return 0.0, ""
        region = max(sorted(by_region.items()), key=lambda item: item[1])[0]
        return by_region[region] / total, region

    def deferred(self) -> Optional[str]:
        """Why acting is unsafe right now (``None`` = clear to act)."""
        if self.host.network.partitioned:
            return "partition open"
        injector = self.host.fault_injector
        if injector is not None and injector.down_replicas:
            return "members down"
        if self.manager.migrating:
            return "migration window active"
        if self.manager.warming_replicas():
            return "state transfer running"
        return None

    # ------------------------------------------------------------------
    # Plan / act
    # ------------------------------------------------------------------
    def _decide(self, now: float) -> None:
        self._maybe_compress(now)

        share, region = self.hot_region_share()
        armed = self.dominance.update(share)
        if not armed or not self.window.full:
            return
        if (
            self._last_install is not None
            and now - self._last_install < self.config.cooldown
        ):
            return
        if self.deferred() is not None:
            return

        diff = self.propose()
        if diff is None:
            return
        self.act(diff, now, reason=f"hot region {region} ({share:.0%} of writes)")

    def propose(self) -> Optional[PlanDiff]:
        """Run the planner on the current window (no side effects)."""
        return self.planner.propose(
            self.host.share_graph.placement,
            self.window.merge_counts(lambda s: s.writes_by_register),
            self.window.merge_counts(lambda s: s.writes_by_replica),
            self._merged_writer_of(),
        )

    def _merged_writer_of(self) -> Mapping[Register, ReplicaId]:
        merged: dict = {}
        for snapshot in self.window:
            merged.update(snapshot.writer_of)
        return merged

    def act(self, diff: PlanDiff, now: float, reason: str = "planned") -> None:
        """Install one validated diff against the running host."""
        schedule = diff.schedule(
            now + self.config.action_spacing,
            spacing=self.config.action_spacing,
            name=f"adaptive@{now:.1f}",
        )
        self.manager.install(schedule)
        self.plans_installed += 1
        self._last_install = now
        self.dominance.reset()
        self.decisions.append(
            Decision(
                time=now,
                kind="reconfig",
                reason=reason,
                moves=tuple(move.describe() for move in diff.moves),
                predicted_before=diff.predicted_before,
                predicted_after=diff.predicted_after,
            )
        )

    def _maybe_compress(self, now: float) -> None:
        threshold = self.config.compress_bytes_per_msg
        if threshold is None or self._compressed or not self.window.full:
            return
        busy = [s for s in self.window if s.messages > 0]
        if len(busy) < self.window.capacity:
            return
        mean_bytes = sum(s.ts_bytes_per_msg for s in busy) / len(busy)
        if mean_bytes <= threshold:
            return
        self.host.network.enable_batching(
            BatchingConfig(
                max_messages=self.config.compress_max_messages,
                max_delay=self.config.compress_max_delay,
                delta_encoding=True,
            )
        )
        self._compressed = True
        self.decisions.append(
            Decision(
                time=now,
                kind="compress",
                reason=(
                    f"timestamp bytes/msg {mean_bytes:.1f} > {threshold:.1f}; "
                    "delta encoding enabled"
                ),
            )
        )
