"""The measured-topology model and its text importer.

A :class:`Topology` is an undirected graph of network sites with one
measured latency (in milliseconds, one-way) per link, plus an optional
region label per node — the shape of the public ISP/NREN datasets
(GEANT, RocketFuel) the realistic-world experiments import.

Everything is validated at construction time and import failures raise a
typed :class:`~repro.core.errors.TopologyError` naming the offending row:
a latency matrix that is silently wrong is strictly worse than no matrix,
because every placement decision downstream would inherit the garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

import networkx as nx

from ..core.errors import TopologyError

__all__ = ["Link", "NodeId", "Topology", "TopologyError"]

#: Topology nodes are named sites ("london", "r0_n2"), not replica ids —
#: the placement layer owns the replica → node assignment.
NodeId = str

#: Region label for nodes with no explicit region.
DEFAULT_REGION = "default"


@dataclass(frozen=True)
class Link:
    """One undirected measured link between two sites."""

    u: NodeId
    v: NodeId
    #: Measured one-way latency in milliseconds; strictly positive.
    latency_ms: float

    @property
    def endpoints(self) -> FrozenSet[NodeId]:
        """The unordered endpoint pair."""
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class Topology:
    """An immutable measured network topology.

    Parameters
    ----------
    name:
        Dataset name ("geant-like", "geo-3x4", …) used in tables.
    nodes:
        All site names.  May include sites mentioned by no link only if
        the topology has a single node (a degenerate but legal case);
        otherwise isolated nodes make the graph disconnected, which is
        rejected.
    links:
        The measured links.  Self-loops, duplicate links (in either
        orientation) and non-positive/non-finite latencies are rejected.
    regions:
        Optional node → region label map; unlabelled nodes fall into
        ``"default"``.  Regions drive the availability-aware placement
        partitions and the region-kill fault cells.
    """

    name: str
    nodes: Tuple[NodeId, ...]
    links: Tuple[Link, ...]
    regions: Mapping[NodeId, str] = field(default_factory=dict)
    _latency: Mapping[FrozenSet[NodeId], float] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        nodes = tuple(dict.fromkeys(str(n) for n in self.nodes))
        if not nodes:
            raise TopologyError(f"topology {self.name!r} has no nodes")
        if len(nodes) != len(self.nodes):
            raise TopologyError(f"topology {self.name!r} declares duplicate nodes")
        known = set(nodes)
        latency: Dict[FrozenSet[NodeId], float] = {}
        for link in self.links:
            if link.u == link.v:
                raise TopologyError(
                    f"topology {self.name!r}: self-loop at node {link.u!r}"
                )
            for endpoint in (link.u, link.v):
                if endpoint not in known:
                    raise TopologyError(
                        f"topology {self.name!r}: link {link.u!r}-{link.v!r} "
                        f"references undeclared node {endpoint!r}"
                    )
            if not (float(link.latency_ms) > 0.0) or link.latency_ms != link.latency_ms \
                    or link.latency_ms == float("inf"):
                raise TopologyError(
                    f"topology {self.name!r}: link {link.u!r}-{link.v!r} has "
                    f"non-positive or non-finite latency {link.latency_ms!r}"
                )
            key = link.endpoints
            if key in latency:
                raise TopologyError(
                    f"topology {self.name!r}: duplicate link {link.u!r}-{link.v!r}"
                )
            latency[key] = float(link.latency_ms)
        regions = {
            str(n): str(self.regions.get(n, DEFAULT_REGION)) for n in nodes
        }
        unknown_regions = set(self.regions) - known
        if unknown_regions:
            raise TopologyError(
                f"topology {self.name!r}: region labels for undeclared nodes "
                f"{sorted(unknown_regions)}"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "_latency", latency)
        if not self.is_connected():
            raise TopologyError(
                f"topology {self.name!r} is disconnected "
                f"({len(self.connected_components())} components); every "
                "measured dataset must describe one reachable network"
            )

    # ------------------------------------------------------------------
    # Import
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, name: str = "imported") -> "Topology":
        """Parse the edge-list text format used by the bundled datasets.

        One record per line; ``#`` starts a comment; blank lines are
        skipped.  Two record kinds::

            node <id> <region>          # declare a node with a region label
            <u> <v> <latency_ms>        # an undirected measured link

        Nodes appearing only in link rows are declared implicitly with the
        default region.  Any malformed row — wrong field count, a
        non-numeric latency — raises :class:`TopologyError` with the line
        number, as do self-loops, duplicate links, non-positive latencies
        and a disconnected result (via the constructor).
        """
        nodes: List[NodeId] = []
        regions: Dict[NodeId, str] = {}
        links: List[Link] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if fields[0] == "node":
                if len(fields) != 3:
                    raise TopologyError(
                        f"{name}:{lineno}: node rows are 'node <id> <region>', "
                        f"got {raw.strip()!r}"
                    )
                _, node, region = fields
                if node not in regions:
                    nodes.append(node)
                regions[node] = region
                continue
            if len(fields) != 3:
                raise TopologyError(
                    f"{name}:{lineno}: link rows are '<u> <v> <latency_ms>', "
                    f"got {raw.strip()!r}"
                )
            u, v, latency_text = fields
            try:
                latency = float(latency_text)
            except ValueError:
                raise TopologyError(
                    f"{name}:{lineno}: latency {latency_text!r} is not a number"
                ) from None
            for endpoint in (u, v):
                if endpoint not in regions:
                    nodes.append(endpoint)
                    regions[endpoint] = DEFAULT_REGION
            links.append(Link(u, v, latency))
        return cls(name=name, nodes=tuple(nodes), links=tuple(links),
                   regions=regions)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of sites."""
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        """Number of undirected measured links."""
        return len(self._latency)

    def has_node(self, node: NodeId) -> bool:
        """``True`` iff ``node`` is a declared site."""
        return node in self.regions

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Sites directly linked to ``node``, sorted."""
        self._require(node)
        out = set()
        for pair in self._latency:
            if node in pair:
                out |= pair - {node}
        return tuple(sorted(out))

    def link_latency(self, u: NodeId, v: NodeId) -> float:
        """The measured latency of the direct link ``u``–``v``."""
        self._require(u)
        self._require(v)
        try:
            return self._latency[frozenset((u, v))]
        except KeyError:
            raise TopologyError(
                f"topology {self.name!r} has no direct link {u!r}-{v!r}"
            ) from None

    def _require(self, node: NodeId) -> None:
        if node not in self.regions:
            raise TopologyError(
                f"topology {self.name!r} has no node {node!r}"
            )

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def region_of(self, node: NodeId) -> str:
        """The region label of ``node``."""
        self._require(node)
        return self.regions[node]

    @property
    def region_names(self) -> Tuple[str, ...]:
        """All region labels, sorted."""
        return tuple(sorted(set(self.regions.values())))

    # ------------------------------------------------------------------
    # Latency structure
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """Export as a weighted :mod:`networkx` graph (``latency_ms`` weights)."""
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for pair, latency in self._latency.items():
            u, v = sorted(pair)
            graph.add_edge(u, v, latency_ms=latency)
        return graph

    def is_connected(self) -> bool:
        """``True`` iff every site can reach every other site."""
        if self.num_nodes <= 1:
            return True
        return nx.is_connected(self.to_networkx())

    def connected_components(self) -> List[FrozenSet[NodeId]]:
        """Connected components (used only by error reporting)."""
        return [frozenset(c) for c in nx.connected_components(self.to_networkx())]

    def all_pairs_latency(self) -> Dict[NodeId, Dict[NodeId, float]]:
        """Shortest-path latency between every pair of sites, cached.

        Dijkstra over the measured link latencies: the latency a packet
        actually experiences between two sites routed along the cheapest
        path.  The result is cached on first use (topologies are
        immutable).
        """
        cached = self.__dict__.get("_all_pairs")
        if cached is None:
            cached = {
                source: dict(lengths)
                for source, lengths in nx.all_pairs_dijkstra_path_length(
                    self.to_networkx(), weight="latency_ms"
                )
            }
            self.__dict__["_all_pairs"] = cached
        return cached

    def path_latency(self, u: NodeId, v: NodeId) -> float:
        """Shortest-path latency (ms) between two sites (0 for ``u == v``)."""
        self._require(u)
        self._require(v)
        return self.all_pairs_latency()[u][v]

    def diameter_ms(self) -> float:
        """The largest shortest-path latency between any site pair."""
        pairs = self.all_pairs_latency()
        return max((max(row.values()) for row in pairs.values()), default=0.0)

    def restricted_to(self, nodes: Iterable[NodeId]) -> "Topology":
        """The sub-topology induced on a node subset (must stay connected)."""
        keep = set(nodes)
        for node in keep:
            self._require(node)
        return Topology(
            name=f"{self.name}|{len(keep)}",
            nodes=tuple(n for n in self.nodes if n in keep),
            links=tuple(
                link for link in self.links if link.u in keep and link.v in keep
            ),
            regions={n: r for n, r in self.regions.items() if n in keep},
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-paragraph summary."""
        latencies = sorted(self._latency.values())
        lo = latencies[0] if latencies else 0.0
        hi = latencies[-1] if latencies else 0.0
        return (
            f"Topology {self.name!r}: {self.num_nodes} nodes, "
            f"{self.num_links} links ({lo:g}-{hi:g} ms), "
            f"{len(self.region_names)} regions, "
            f"diameter {self.diameter_ms():g} ms"
        )

    def __contains__(self, node: object) -> bool:
        return node in self.regions

    def __len__(self) -> int:
        return self.num_nodes
