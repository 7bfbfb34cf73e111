"""Peer-graph topologies.

A topology is just ``node_id -> tuple of peer ids``.  Gossip dissemination
walks these edges.  Generators below produce the shapes blockchain networks
are usually modelled with: random regular graphs (Bitcoin-like outbound
peering) and fully connected groups (intra-cluster meshes).
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from collections.abc import Iterator, Mapping
from functools import lru_cache
from itertools import accumulate, chain
from typing import NamedTuple, Sequence

from repro.errors import ConfigurationError

Topology = Mapping[int, tuple[int, ...]]


def full_mesh(node_ids: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Every node peers with every other node (small clusters)."""
    id_set = list(node_ids)
    return {
        node: tuple(peer for peer in id_set if peer != node)
        for node in id_set
    }


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
) -> "ClusteredOverlay":
    """Full mesh inside each cluster plus sparse inter-cluster bridges.

    This is the overlay ICIStrategy operates: cheap dense communication
    within a cluster, a few representative links between clusters.  The
    result is derived on read (:class:`ClusteredOverlay`): building it
    costs one pass over the cluster list, and a node's peer tuple is
    built the first time something asks for it.

    Args:
        clusters: disjoint groups of node ids.
        inter_cluster_links: bridges created between each cluster pair.

    Raises:
        ConfigurationError: when ``inter_cluster_links`` is below 1.
    """
    if inter_cluster_links < 1:
        raise ConfigurationError("inter_cluster_links must be >= 1")
    return ClusteredOverlay(clusters, inter_cluster_links, seed)


class ClusteredOverlay(Mapping[int, tuple[int, ...]]):
    """``node -> sorted peer tuple`` of a clustered overlay, derived on read.

    A node's peers are its cluster-mates plus the far ends of the
    bridges drawn at its position.  The draws are ``rng.choice(cluster)``
    over one ``random.Random(seed)``, two per bridge, cluster pairs in
    order, and ``choice`` draws an *index* — ``seq[_randbelow(len(seq))]``
    — so which positions the bridges join depends only on the cluster
    sizes, the link count and the seed (:func:`_bridge_plan`).  The
    mapping, its key order (first appearance in ``clusters``) and every
    tuple are those of the eager construction; only the work moves to
    the first read, which a membership change nobody reads never pays.
    """

    __slots__ = ("_clusters", "_links", "_seed", "_nodes", "_plan", "_peers")

    def __init__(
        self, clusters: Sequence[Sequence[int]], links: int, seed: int
    ) -> None:
        # A snapshot: a tuple member list is kept as is, anything else
        # is copied, so a later edit of the caller's lists cannot leak in.
        # A list, not ``tuple(map(...))``: a tuple grown from an iterator
        # is resized past the tuple free list, so freeing one per install
        # would fill that free list for good.
        self._clusters = [tuple(members) for members in clusters]
        self._links = links
        self._seed = seed
        #: The flat member order, built on first read.
        self._nodes: list[int] = []
        self._plan: _BridgePlan | None = None
        #: node -> its peer tuple once read, its flat position until then;
        #: in key order, built on first read.
        self._peers: dict[int, tuple[int, ...] | int] | None = None

    def __getitem__(self, node: int) -> tuple[int, ...]:
        table = self._peers
        if table is None:
            table = self._table()
        peers = table[node]
        if peers.__class__ is int:
            peers = table[node] = self._derive(node, peers)
        return peers

    def __iter__(self) -> Iterator[int]:
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())

    def __contains__(self, node: object) -> bool:
        return node in self._table()

    def _table(self) -> dict[int, tuple[int, ...] | int]:
        table = self._peers
        if table is None:
            nodes = list(chain.from_iterable(self._clusters))
            table = dict(zip(nodes, range(len(nodes))))
            if len(table) != len(nodes):
                raise ConfigurationError("clusters must be disjoint")
            self._nodes, self._peers = nodes, table
        return table

    def _derive(self, node: int, position: int) -> tuple[int, ...]:
        """The peer tuple of ``node``, at ``position`` in the flat order."""
        plan = self._plan
        if plan is None:
            plan = self._plan = _bridge_plan(
                tuple(map(len, self._clusters)), self._links, self._seed
            )
        peers = set(self._clusters[plan.owner[position]])
        peers.discard(node)
        ends = plan.ends[plan.offsets[position] : plan.offsets[position + 1]]
        nodes = self._nodes
        peers.update([nodes[end] for end in ends])
        return tuple(sorted(peers))


class _BridgePlan(NamedTuple):
    """Where the bridges of one ``(sizes, links, seed)`` land, by position.

    Positions number the members of every cluster in order.
    ``ends[offsets[p]:offsets[p + 1]]`` are the far ends of the bridges
    at position ``p`` and ``owner[p]`` is its cluster's index.
    """

    owner: array
    offsets: array
    ends: array


@lru_cache(maxsize=8)
def _bridge_plan(sizes: tuple[int, ...], links: int, seed: int) -> _BridgePlan:
    """Replay the bridge draws of :func:`clustered_topology` once.

    ``choice`` over a ``range`` of positions draws exactly what
    ``choice`` over the member tuple would, and returns the position.
    """
    choice = random.Random(seed).choice
    spans = []
    start = 0
    owner = array("I")
    for cluster, size in enumerate(sizes):
        spans.append(range(start, start + size))
        owner.extend([cluster] * size)
        start += size
    draws = []
    for i, span_a in enumerate(spans):
        if not span_a:
            continue
        for span_b in spans[i + 1 :]:
            if not span_b:
                continue
            for _ in range(links):
                draws.append(choice(span_a))
                draws.append(choice(span_b))
    # Each draw pair is a bridge both ways: entry 2i runs a -> b and
    # entry 2i + 1 runs b -> a.  Group the entries by their near end.
    far = draws[:]
    far[::2], far[1::2] = draws[1::2], draws[::2]
    by_near = sorted(range(len(draws)), key=draws.__getitem__)
    ends = array("I", map(far.__getitem__, by_near))
    degree = Counter(draws)
    offsets = array("I", [0])
    offsets.extend(accumulate(map(degree.__getitem__, range(start))))
    return _BridgePlan(owner, offsets, ends)


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
