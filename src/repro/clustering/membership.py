"""Cluster membership tables.

:class:`ClusterTable` is the authoritative "who is in which cluster" map the
rest of the system consults: placement policies ask for a cluster's member
list, the bootstrap protocol asks which cluster a joiner lands in, and churn
handling moves nodes between clusters while keeping sizes balanced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import ClusteringError


@dataclass(frozen=True)
class ClusterView:
    """An immutable snapshot of one cluster."""

    cluster_id: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of members in this cluster."""
        return len(self.members)


@dataclass
class ClusterTable:
    """Mutable membership map with integrity checks.

    Invariants (enforced on every mutation):
      * a node belongs to exactly one cluster;
      * cluster ids are dense ``0..k-1``;
      * no cluster is empty (empty clusters are dissolved).
    """

    _members: dict[int, list[int]] = field(default_factory=dict)
    _cluster_of: dict[int, int] = field(default_factory=dict)
    # members_of's answers, one tuple per cluster; a mutation drops the
    # clusters it touched.
    _member_tuples: dict[int, tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_assignment(
        cls, clusters: Sequence[Sequence[int]]
    ) -> "ClusterTable":
        """Build a table from explicit member lists.

        Raises:
            ClusteringError: on duplicate membership or an empty cluster.
        """
        table = cls()
        for cluster_id, members in enumerate(clusters):
            if not members:
                raise ClusteringError(f"cluster {cluster_id} is empty")
            table._members[cluster_id] = []
            for node in members:
                if node in table._cluster_of:
                    raise ClusteringError(
                        f"node {node} assigned to two clusters"
                    )
                table._members[cluster_id].append(node)
                table._cluster_of[node] = cluster_id
        return table

    # -------------------------------------------------------------- queries
    @property
    def cluster_count(self) -> int:
        """Number of clusters in the table."""
        return len(self._members)

    def cluster_of(self, node_id: int) -> int:
        """The cluster id a node belongs to.

        Raises:
            ClusteringError: for unknown nodes.
        """
        try:
            return self._cluster_of[node_id]
        except KeyError:
            raise ClusteringError(f"node {node_id} is unclustered") from None

    def members_of(self, cluster_id: int) -> tuple[int, ...]:
        """Members of a cluster, in stable insertion order."""
        members = self._member_tuples.get(cluster_id)
        if members is None:
            try:
                members = tuple(self._members[cluster_id])
            except KeyError:
                raise ClusteringError(f"no cluster {cluster_id}") from None
            self._member_tuples[cluster_id] = members
        return members

    def views(self) -> Iterator[ClusterView]:
        """Snapshot every cluster."""
        for cluster_id in sorted(self._members):
            yield ClusterView(
                cluster_id=cluster_id,
                members=tuple(self._members[cluster_id]),
            )

    def sizes(self) -> list[int]:
        """Cluster sizes in cluster-id order."""
        return [len(self._members[cid]) for cid in sorted(self._members)]

    def smallest_cluster(self) -> int:
        """Id of the cluster with the fewest members (ties → lowest id)."""
        if not self._members:
            raise ClusteringError("table has no clusters")
        return min(
            sorted(self._members), key=lambda cid: len(self._members[cid])
        )

    def all_nodes(self) -> list[int]:
        """Every clustered node id, sorted."""
        return sorted(self._cluster_of)

    # ------------------------------------------------------------- mutation
    def add_node(self, node_id: int, cluster_id: int | None = None) -> int:
        """Add a node, defaulting to the smallest cluster (load balance).

        Returns:
            The cluster id the node joined.

        Raises:
            ClusteringError: when already a member or the cluster is unknown.
        """
        if node_id in self._cluster_of:
            raise ClusteringError(f"node {node_id} is already clustered")
        if cluster_id is None:
            cluster_id = self.smallest_cluster()
        if cluster_id not in self._members:
            raise ClusteringError(f"no cluster {cluster_id}")
        self._members[cluster_id].append(node_id)
        self._cluster_of[node_id] = cluster_id
        self._member_tuples.pop(cluster_id, None)
        return cluster_id

    def remove_node(self, node_id: int) -> int:
        """Remove a departing node; dissolving a cluster is an error.

        Returns:
            The cluster id the node left.

        Raises:
            ClusteringError: for unknown nodes or when removal would empty
                the cluster (callers must migrate/merge first).
        """
        cluster_id = self.cluster_of(node_id)
        members = self._members[cluster_id]
        if len(members) == 1:
            raise ClusteringError(
                f"removing node {node_id} would empty cluster {cluster_id}"
            )
        members.remove(node_id)
        del self._cluster_of[node_id]
        self._member_tuples.pop(cluster_id, None)
        return cluster_id

    def move_node(self, node_id: int, new_cluster: int) -> None:
        """Relocate a node between clusters (rebalancing)."""
        old_cluster = self.cluster_of(node_id)
        if old_cluster == new_cluster:
            return
        if new_cluster not in self._members:
            raise ClusteringError(f"no cluster {new_cluster}")
        if len(self._members[old_cluster]) == 1:
            raise ClusteringError(
                f"moving node {node_id} would empty cluster {old_cluster}"
            )
        self._members[old_cluster].remove(node_id)
        self._members[new_cluster].append(node_id)
        self._cluster_of[node_id] = new_cluster
        self._member_tuples.pop(old_cluster, None)
        self._member_tuples.pop(new_cluster, None)

    # ----------------------------------------------------------- validation
    def check_invariants(self) -> None:
        """Raise :class:`ClusteringError` if internal maps disagree."""
        seen: set[int] = set()
        for cluster_id, members in self._members.items():
            if not members:
                raise ClusteringError(f"cluster {cluster_id} is empty")
            for node in members:
                if node in seen:
                    raise ClusteringError(f"node {node} in two clusters")
                seen.add(node)
                if self._cluster_of.get(node) != cluster_id:
                    raise ClusteringError(
                        f"node {node} reverse-map mismatch"
                    )
        if seen != set(self._cluster_of):
            raise ClusteringError("membership maps are out of sync")
        for cluster_id, cached in self._member_tuples.items():
            if cached != tuple(self._members.get(cluster_id, ())):
                raise ClusteringError(
                    f"cluster {cluster_id} cached members are stale"
                )
