"""Topology generation: node placement and link pairing.

The paper evaluates three network configurations (Section VI-B4, Figs.
22-24):

- **Case I** — all networks in one interfering region: every node close to
  every other, strong mutual interference
  (:func:`one_region_topology`).
- **Case II** — networks separated into per-channel clusters (office rooms):
  weak inter-channel interference (:func:`separated_clusters_topology`).
- **Case III** — all nodes randomly deployed over a large region: links of
  very different quality, including weak co-channel links — the
  configuration that exposes DCN's conservative-threshold weakness
  (:func:`random_topology`).

Each generator returns a list of :class:`NetworkSpec` — pure data that the
deployment layer turns into simulated nodes.  A "network" follows the
paper's definition: the group of nodes sharing one channel.  Networks have
4 nodes by default ("each network consists of 4 MicaZ nodes"), organised as
2 unidirectional links (2 senders + 2 receivers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..phy.propagation import Position
from ..phy.spectrum import ChannelPlan

__all__ = [
    "NodeSpec",
    "LinkSpec",
    "NetworkSpec",
    "PowerAssignment",
    "fixed_power",
    "random_power",
    "one_region_topology",
    "separated_clusters_topology",
    "random_topology",
    "scale_topology",
    "grid_topology",
    "sink_name",
]


@dataclass(frozen=True)
class NodeSpec:
    """Placement and power for one node-to-be."""

    name: str
    position: Position
    tx_power_dbm: float


@dataclass(frozen=True)
class LinkSpec:
    """A unidirectional traffic flow between two nodes of a network."""

    sender: str
    receiver: str


@dataclass(frozen=True)
class NetworkSpec:
    """One channel-sharing group: the paper's N_i."""

    label: str
    channel_mhz: float
    nodes: Tuple[NodeSpec, ...] = field(default_factory=tuple)
    links: Tuple[LinkSpec, ...] = field(default_factory=tuple)

    @property
    def senders(self) -> List[str]:
        return [link.sender for link in self.links]

    @property
    def receivers(self) -> List[str]:
        return [link.receiver for link in self.links]


# ---------------------------------------------------------------------------
# Power assignment policies
# ---------------------------------------------------------------------------
PowerAssignment = Callable[[np.random.Generator], float]


def fixed_power(power_dbm: float) -> PowerAssignment:
    """Every node transmits at the same power."""

    def _assign(_: np.random.Generator) -> float:
        return power_dbm

    return _assign


def random_power(low_dbm: float = -22.0, high_dbm: float = 0.0) -> PowerAssignment:
    """Per-node uniform power — the paper's "[-22dBm, 0dBm] at random"."""
    if high_dbm < low_dbm:
        raise ValueError("need high_dbm >= low_dbm")

    def _assign(rng: np.random.Generator) -> float:
        return float(rng.uniform(low_dbm, high_dbm))

    return _assign


# ---------------------------------------------------------------------------
# Placement helpers
# ---------------------------------------------------------------------------
def _place_link(
    rng: np.random.Generator,
    center: Position,
    spread_m: float,
    link_distance_m: float,
) -> Tuple[Position, Position]:
    """Sender at a jittered point near ``center``, receiver
    ``link_distance_m`` away in a random direction."""
    sx = center[0] + float(rng.uniform(-spread_m, spread_m))
    sy = center[1] + float(rng.uniform(-spread_m, spread_m))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    rx = sx + link_distance_m * math.cos(theta)
    ry = sy + link_distance_m * math.sin(theta)
    return (sx, sy), (rx, ry)


def _build_network(
    index: int,
    channel_mhz: float,
    link_positions: Sequence[Tuple[Position, Position]],
    rng: np.random.Generator,
    power: PowerAssignment,
) -> NetworkSpec:
    label = f"N{index}"
    nodes: List[NodeSpec] = []
    links: List[LinkSpec] = []
    for li, (sender_pos, receiver_pos) in enumerate(link_positions):
        sender = f"{label}.s{li}"
        receiver = f"{label}.r{li}"
        nodes.append(NodeSpec(sender, sender_pos, power(rng)))
        nodes.append(NodeSpec(receiver, receiver_pos, power(rng)))
        links.append(LinkSpec(sender, receiver))
    return NetworkSpec(label, channel_mhz, tuple(nodes), tuple(links))


# ---------------------------------------------------------------------------
# The three paper configurations
# ---------------------------------------------------------------------------
def one_region_topology(
    plan: ChannelPlan,
    rng: np.random.Generator,
    links_per_network: int = 2,
    region_radius_m: float = 2.0,
    link_distance_m: float = 1.5,
    power: Optional[PowerAssignment] = None,
) -> List[NetworkSpec]:
    """Case I: every network inside one small interfering region."""
    power = power if power is not None else fixed_power(0.0)
    networks = []
    for index, channel in enumerate(plan.centers_mhz):
        positions = [
            _place_link(rng, (0.0, 0.0), region_radius_m, link_distance_m)
            for _ in range(links_per_network)
        ]
        networks.append(_build_network(index, channel, positions, rng, power))
    return networks


def clustered_region_topology(
    plan: ChannelPlan,
    rng: np.random.Generator,
    links_per_network: int = 2,
    region_radius_m: float = 5.0,
    cluster_radius_m: float = 1.0,
    link_distance_m: float = 1.2,
    power: Optional[PowerAssignment] = None,
) -> List[NetworkSpec]:
    """Networks co-located per channel inside one shared interfering region.

    Each network's links sit together in a small cluster (a network is one
    application's nodes, deployed as a group), while the clusters themselves
    are scattered across a single room — so every network hears every other,
    but a node's *co-channel* neighbours are always nearby.  This is the
    regime of the paper's main testbed (Figs. 13-21): DCN's threshold,
    bounded by the weakest co-channel RSSI, stays well above the
    inter-channel leakage arriving from other clusters.
    """
    power = power if power is not None else fixed_power(0.0)
    networks = []
    for index, channel in enumerate(plan.centers_mhz):
        radius = float(rng.uniform(0.0, region_radius_m))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        center = (radius * math.cos(angle), radius * math.sin(angle))
        positions = [
            _place_link(rng, center, cluster_radius_m, link_distance_m)
            for _ in range(links_per_network)
        ]
        networks.append(_build_network(index, channel, positions, rng, power))
    return networks


def separated_clusters_topology(
    plan: ChannelPlan,
    rng: np.random.Generator,
    links_per_network: int = 2,
    cluster_spacing_m: float = 3.0,
    cluster_radius_m: float = 0.8,
    link_distance_m: float = 1.0,
    power: Optional[PowerAssignment] = None,
) -> List[NetworkSpec]:
    """Case II: one tight cluster per network ("one office room each").

    Clusters sit on a circle of radius chosen so neighbouring clusters are
    ``cluster_spacing_m`` apart.
    """
    power = power if power is not None else fixed_power(0.0)
    count = plan.num_channels
    if count == 1:
        centers = [(0.0, 0.0)]
    else:
        ring_radius = cluster_spacing_m / (2.0 * math.sin(math.pi / count))
        centers = [
            (
                ring_radius * math.cos(2.0 * math.pi * i / count),
                ring_radius * math.sin(2.0 * math.pi * i / count),
            )
            for i in range(count)
        ]
    networks = []
    for index, channel in enumerate(plan.centers_mhz):
        positions = [
            _place_link(rng, centers[index], cluster_radius_m, link_distance_m)
            for _ in range(links_per_network)
        ]
        networks.append(_build_network(index, channel, positions, rng, power))
    return networks


def random_topology(
    plan: ChannelPlan,
    rng: np.random.Generator,
    links_per_network: int = 2,
    region_size_m: float = 8.0,
    power: Optional[PowerAssignment] = None,
    pair_nearest: bool = True,
) -> List[NetworkSpec]:
    """Case III: all nodes uniform over a large square region.

    With ``pair_nearest`` (the realistic default — WSN protocols route to
    nearby neighbours) each network's nodes are dropped at random and then
    greedily paired closest-first, so *links* stay usable while the
    network's nodes as a group are spread across the region.  The network's
    two links can land far apart, which makes overheard co-channel RSSI
    small — exactly the property the paper identifies as DCN's Case III
    weakness (a weak co-channel record pins the CCA threshold low).

    With ``pair_nearest=False`` senders and receivers are paired at random,
    so link distances range up to the region diagonal.
    """
    power = power if power is not None else fixed_power(0.0)

    def _uniform_point() -> Position:
        return (
            float(rng.uniform(0.0, region_size_m)),
            float(rng.uniform(0.0, region_size_m)),
        )

    networks = []
    for index, channel in enumerate(plan.centers_mhz):
        points = [_uniform_point() for _ in range(2 * links_per_network)]
        if pair_nearest:
            positions = _pair_closest_first(points)
        else:
            positions = [
                (points[2 * i], points[2 * i + 1])
                for i in range(links_per_network)
            ]
        networks.append(_build_network(index, channel, positions, rng, power))
    return networks


def scale_topology(
    plan: ChannelPlan,
    rng: np.random.Generator,
    n_motes: int,
    active_links_per_network: int = 1,
    link_distance_m: float = 1.5,
    area_m2_per_mote: float = 20.0,
    power: Optional[PowerAssignment] = None,
) -> List[NetworkSpec]:
    """Synthetic dense scene for kernel benchmarking and profiling.

    ``n_motes`` motes are split evenly over the plan's channels and paired
    into links scattered uniformly over a square whose area grows with the
    mote count (constant spatial density, ``area_m2_per_mote`` each), so a
    10x bigger scene stresses the fan-out path 10x harder instead of just
    packing the same room tighter.  Only the first
    ``active_links_per_network`` pairs per network carry traffic; the rest
    are idle listeners that still populate every transmitter's audible set
    — exactly the population the link cache batch-evaluates.

    This is *not* a paper configuration: it exists so ``perf profile
    --scene N`` and the ``fanout_1k``/``mini_run_5k`` benches can build an
    arbitrarily large world in one call.
    """
    if n_motes < 2 * len(plan.centers_mhz):
        raise ValueError(
            f"need at least {2 * len(plan.centers_mhz)} motes "
            f"(2 per channel), got {n_motes}"
        )
    power = power if power is not None else fixed_power(0.0)
    channels = plan.centers_mhz
    pairs_per_network = n_motes // (2 * len(channels))
    side_m = math.sqrt(n_motes * area_m2_per_mote)
    networks: List[NetworkSpec] = []
    for index, channel in enumerate(channels):
        label = f"N{index}"
        nodes: List[NodeSpec] = []
        links: List[LinkSpec] = []
        for li in range(pairs_per_network):
            center = (
                float(rng.uniform(0.0, side_m)),
                float(rng.uniform(0.0, side_m)),
            )
            sender_pos, receiver_pos = _place_link(
                rng, center, 0.5, link_distance_m
            )
            sender = f"{label}.s{li}"
            receiver = f"{label}.r{li}"
            nodes.append(NodeSpec(sender, sender_pos, power(rng)))
            nodes.append(NodeSpec(receiver, receiver_pos, power(rng)))
            if li < active_links_per_network:
                links.append(LinkSpec(sender, receiver))
        networks.append(NetworkSpec(label, channel, tuple(nodes), tuple(links)))
    return networks


def sink_name(label: str) -> str:
    """Canonical name of a grid network's sink node."""
    return f"{label}.sink"


def grid_topology(
    rows: int,
    cols: int,
    pitch_m: float,
    channel_mhz: float,
    label: str = "N0",
    origin: Position = (0.0, 0.0),
    tx_power_dbm: float = 0.0,
    jitter_m: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> NetworkSpec:
    """A reproducible multi-hop scene: ``rows x cols`` motes on a grid.

    The sink sits at the ``origin`` corner (grid index ``(0, 0)``) and is
    named :func:`sink_name` (``"{label}.sink"``); every other mote is
    ``"{label}.g{r}_{c}"`` at ``origin + (c * pitch_m, r * pitch_m)``.
    With the default calibration (log-distance, exponent 3, 0 dBm) a
    pitch of ~30 m makes only grid neighbours reliable links, so the far
    corner of a 4x4 grid is several radio hops from the sink — the
    multi-hop regime the routing layer is evaluated in.

    ``jitter_m`` perturbs every non-sink position uniformly in
    ``[-jitter_m, +jitter_m]`` per axis (deterministic under ``rng``),
    modelling imperfect hand placement.  The minimum pairwise distance is
    then bounded below by ``pitch_m - 2 * sqrt(2) * jitter_m``.

    No :class:`LinkSpec` entries are generated: traffic on a grid is
    routed hop-by-hop by :mod:`repro.net.routing`, not delivered over
    fixed single-hop links.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs rows, cols >= 1; got {rows}x{cols}")
    if pitch_m <= 0:
        raise ValueError(f"pitch_m must be > 0, got {pitch_m}")
    if jitter_m < 0:
        raise ValueError(f"jitter_m must be >= 0, got {jitter_m}")
    if jitter_m > 0 and rng is None:
        raise ValueError("jitter_m > 0 requires an rng")
    nodes: List[NodeSpec] = []
    for r in range(rows):
        for c in range(cols):
            x = origin[0] + c * pitch_m
            y = origin[1] + r * pitch_m
            if r == 0 and c == 0:
                nodes.append(NodeSpec(sink_name(label), (x, y), tx_power_dbm))
                continue
            if jitter_m > 0:
                assert rng is not None
                x += float(rng.uniform(-jitter_m, jitter_m))
                y += float(rng.uniform(-jitter_m, jitter_m))
            nodes.append(
                NodeSpec(f"{label}.g{r}_{c}", (x, y), tx_power_dbm)
            )
    return NetworkSpec(label, channel_mhz, tuple(nodes), ())


def _pair_closest_first(
    points: List[Position],
) -> List[Tuple[Position, Position]]:
    """Greedy matching: repeatedly pair the two closest remaining points."""
    remaining = list(points)
    pairs: List[Tuple[Position, Position]] = []
    while len(remaining) >= 2:
        best = None
        for i in range(len(remaining)):
            for j in range(i + 1, len(remaining)):
                d = math.dist(remaining[i], remaining[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        assert best is not None
        _, i, j = best
        pairs.append((remaining[i], remaining[j]))
        for index in sorted((i, j), reverse=True):
            remaining.pop(index)
    return pairs
