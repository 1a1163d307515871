"""Helm graphs and their distance matrices.

The helm graph on 2n-1 vertices is a wheel (hub plus an (n-1)-cycle rim)
with one pendant vertex hanging off each rim vertex.  Vertices are
ordered hub first, then the rim v_1..v_{n-1}, then the pendants
u_1..u_{n-1}, the order of circulant.Bordered.dense().

Two independent routes to the distance matrix are provided: plain BFS
from every vertex, and the 3x3 block formula built from the rim distance
circulant.  The report's distance_block_vs_bfs check compares them.
BFS takes any graph as an adjacency tuple, not only a helm.
"""

from __future__ import annotations

from collections import deque

from .exact_core import RatMatrix
from .circulant import bordered_circulant, rim_distance_spec


def build_helm(n: int) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency lists of the helm graph: hub 0, rim 1..n-1 in a
    cycle, pendant n-1+i below rim i (2n-1 vertices, 3(n-1) edges)."""
    if n < 4:
        raise ValueError(f"helm graphs need n >= 4, got {n}")
    size = 2 * n - 1
    nbrs: list[list[int]] = [[] for _ in range(size)]

    def link(a: int, b: int) -> None:
        nbrs[a].append(b)
        nbrs[b].append(a)

    for i in range(1, n):
        link(0, i)
    for i in range(1, n - 1):
        link(i, i + 1)
    link(n - 1, 1)
    for i in range(1, n):
        link(i, n - 1 + i)
    return tuple([tuple(sorted(a)) for a in nbrs])


def bfs_distance_matrix(adjacency: tuple[tuple[int, ...], ...]) -> RatMatrix:
    """All-pairs shortest path lengths of a connected graph, by BFS from every vertex.

    Raises ValueError for a neighbour outside 0..size-1, an asymmetric
    adjacency (u lists v but v does not list u) or an unreachable pair.
    """
    size = len(adjacency)
    arcs = {(v, u) for v in range(size) for u in adjacency[v]}
    for v, u in arcs:
        if not 0 <= u < size:
            raise ValueError(f"vertex {v} has neighbour {u} outside 0..{size - 1}")
        if (u, v) not in arcs:
            raise ValueError(f"adjacency is not symmetric: {v} lists {u} but {u} does not list {v}")
    rows: list[list[int]] = []
    for src in range(size):
        dist = [-1] * size
        dist[src] = 0
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in adjacency[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        if -1 in dist:
            raise ValueError(f"graph is not connected: no path from {src} to {dist.index(-1)}")
        rows.append(dist)
    return RatMatrix.from_rows(rows)


def helm_distance_block(n: int) -> RatMatrix:
    """Distance matrix of the helm graph from its 3x3 block closed form.

    With Dr the rim distance circulant of order n-1, J the all-ones and
    I the identity:

        [ 0    e'      2e'          ]
        [ e    Dr      Dr + J       ]
        [ 2e   Dr + J  Dr + 2(J - I)]

    A pure formula: it runs no check.  The report compares the result
    with BFS, and the test suite with the equivalent split in which the
    rim distance block is 2J - S, S the rim cycle's signless Laplacian.
    """
    if n < 4:
        raise ValueError(f"helm graphs need n >= 4, got {n}")
    d_rim = rim_distance_spec(n - 1)
    d_far = [x + 2 for x in d_rim]
    d_far[0] -= 2
    return bordered_circulant(0, (1, 2), (d_rim, [x + 1 for x in d_rim], d_far))
