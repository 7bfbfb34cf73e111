"""Peer-graph topologies.

A topology is just ``node_id -> tuple of peer ids``.  Gossip dissemination
walks these edges.  Generators below produce the shapes blockchain networks
are usually modelled with: random regular graphs (Bitcoin-like outbound
peering) and fully connected groups (intra-cluster meshes).
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.errors import ConfigurationError

Topology = Mapping[int, tuple[int, ...]]


def full_mesh(node_ids: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Every node peers with every other node (small clusters)."""
    id_set = list(node_ids)
    return {
        node: tuple(peer for peer in id_set if peer != node)
        for node in id_set
    }


def ring(node_ids: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """A bidirectional ring (worst-case diameter, used in tests)."""
    ids = list(node_ids)
    if len(ids) < 2:
        return {node: () for node in ids}
    topology: dict[int, tuple[int, ...]] = {}
    for index, node in enumerate(ids):
        left = ids[(index - 1) % len(ids)]
        right = ids[(index + 1) % len(ids)]
        topology[node] = (left, right) if left != right else (left,)
    return topology


def random_regular(
    node_ids: Sequence[int], degree: int = 8, seed: int = 0
) -> dict[int, tuple[int, ...]]:
    """Bitcoin-style peering: each node opens ``degree`` outbound links.

    Links are symmetrized, so realized degree is between ``degree`` and
    roughly ``2 * degree``.  The graph is then patched to be connected by
    chaining any disconnected components.
    """
    ids = list(node_ids)
    if degree < 1:
        raise ConfigurationError("degree must be >= 1")
    if len(ids) <= degree:
        return full_mesh(ids)
    rng = random.Random(seed)
    adjacency: dict[int, set[int]] = {node: set() for node in ids}
    for node in ids:
        candidates = [peer for peer in ids if peer != node]
        for peer in rng.sample(candidates, degree):
            adjacency[node].add(peer)
            adjacency[peer].add(node)
    _ensure_connected(adjacency, ids, rng)
    return {node: tuple(sorted(peers)) for node, peers in adjacency.items()}


def clustered_topology(
    clusters: Sequence[Sequence[int]],
    inter_cluster_links: int = 2,
    seed: int = 0,
) -> dict[int, tuple[int, ...]]:
    """Full mesh inside each cluster plus sparse inter-cluster bridges.

    This is the overlay ICIStrategy operates: cheap dense communication
    within a cluster, a few representative links between clusters.

    Args:
        clusters: disjoint groups of node ids.
        inter_cluster_links: bridges created between each cluster pair.
    """
    rng = random.Random(seed)
    adjacency: dict[int, set[int]] = {}
    for members in clusters:
        mesh = set(members)
        for node in members:
            adjacency.setdefault(node, set()).update(mesh)
    for node, peers in adjacency.items():
        peers.discard(node)
    links = max(inter_cluster_links, 1)
    for i, cluster_a in enumerate(clusters):
        if not cluster_a:
            continue
        for cluster_b in clusters[i + 1 :]:
            if not cluster_b:
                continue
            for _ in range(links):
                a = rng.choice(cluster_a)
                b = rng.choice(cluster_b)
                adjacency[a].add(b)
                adjacency[b].add(a)
    return {node: tuple(sorted(peers)) for node, peers in adjacency.items()}


def _ensure_connected(
    adjacency: dict[int, set[int]], ids: list[int], rng: random.Random
) -> None:
    """Patch a graph in place so it has a single connected component."""
    if not ids:
        return
    components = _components(adjacency, ids)
    while len(components) > 1:
        a = rng.choice(sorted(components[0]))
        b = rng.choice(sorted(components[1]))
        adjacency[a].add(b)
        adjacency[b].add(a)
        components = _components(adjacency, ids)


def _components(
    adjacency: dict[int, set[int]], ids: list[int]
) -> list[set[int]]:
    seen: set[int] = set()
    components: list[set[int]] = []
    for start in ids:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for peer in adjacency[node]:
                if peer not in component:
                    component.add(peer)
                    frontier.append(peer)
        seen.update(component)
        components.append(component)
    return components


def is_connected(topology: Topology) -> bool:
    """True when the peer graph has a single connected component."""
    ids = list(topology)
    if not ids:
        return True
    adjacency = {node: set(peers) for node, peers in topology.items()}
    return len(_components(adjacency, ids)) == 1
