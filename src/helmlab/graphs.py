"""Helm graphs and their distance matrices.

The helm graph on 2n-1 vertices is a wheel (hub plus an (n-1)-cycle rim)
with one pendant vertex hanging off each rim vertex.  Vertices are
ordered hub first, then the rim v_1..v_{n-1}, then the pendants
u_1..u_{n-1}, the order of circulant.Bordered.dense().

Two independent routes to the distance matrix are provided: BFS from
every vertex at once, one level of all the searches per sweep over
packed rows, and the 3x3 block formula built from the rim distance
circulant.  The report's distance_block_vs_bfs check compares them.
BFS takes any graph as an adjacency tuple, not only a helm.
"""

from __future__ import annotations

from .exact_core import RatMatrix, _kronecker
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
    """All-pairs shortest path lengths of a connected graph, by one
    level-synchronous BFS from every vertex at once.

    Row v is one packed int reach[v] with one slot per vertex
    (exact_core._kronecker, slots wide enough for any distance): slot t
    is 1 once t lies within the current radius of v.  Each level sets
    reach[v] to the OR of reach over v and its neighbours, and stops when
    no row changes.  acc[v] adds ones - reach[v] at every radius, 1 in
    each slot not yet reached, so slot t of acc[v] ends as the number of
    radii 0, 1, ... at which t was out of reach of v: its distance.  One
    unpack of the acc rows gives the matrix.

    It assumes nothing of the graph.  Its cost is O(diameter |E| |V|/word),
    against O(|V| |E|) queue steps for a BFS from each vertex in turn: on
    the helm graphs (diameter 4) and small trees it is the faster, on a
    long path the slower (3 to 6 times on a path of 300 vertices).

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
    if not size:
        return RatMatrix.from_rows([])
    pack, unpack = _kronecker(size)
    ones, step = pack([1] * size, size)[0], pack([0, 1], 2)[0]  # step: 2 to the slot width
    reach = [step**v for v in range(size)]
    acc = [ones - r for r in reach]
    while True:
        grown = []
        for v, nbrs in enumerate(adjacency):
            x = reach[v]
            for u in nbrs:
                x |= reach[u]
            grown.append(x)
        if grown == reach:
            break
        reach = grown
        acc = [a + ones - r for a, r in zip(acc, reach)]
    for src, r in enumerate(reach):
        if r != ones:
            missing = unpack([r], size).index(0)
            raise ValueError(f"graph is not connected: no path from {src} to {missing}")
    return RatMatrix._from_ints(size, size, 1, unpack(acc, size))


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
