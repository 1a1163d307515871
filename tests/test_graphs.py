"""Helm graph construction and the two distance matrix routes."""

from __future__ import annotations

import pytest

from helmlab import (
    RatMatrix,
    bfs_distance_matrix,
    build_helm,
    cycle_signless_laplacian_spec,
    helm_distance_block,
    materialize,
)
from support import deque_bfs_rows, from_blocks, random_graph


def test_build_helm_h7_counts():
    g = build_helm(7)
    assert len(g) == 13
    assert sum(map(len, g)) // 2 == 18


def test_build_helm_smallest_case():
    g = build_helm(4)
    assert len(g) == 7
    assert sum(map(len, g)) // 2 == 9


def test_build_helm_rejects_small_n():
    with pytest.raises(ValueError, match="need n >= 4, got 3"):
        build_helm(3)
    with pytest.raises(ValueError, match="need n >= 4, got 3"):
        helm_distance_block(3)


@pytest.mark.parametrize("n", range(4, 14))
def test_degree_sequence(n):
    g = build_helm(n)
    degrees = [len(nbrs) for nbrs in g]
    assert degrees[0] == n - 1
    assert all(degrees[i] == 4 for i in range(1, n))
    assert all(degrees[i] == 1 for i in range(n, 2 * n - 1))


def test_bfs_hub_to_pendants_is_two():
    n = 7
    d = bfs_distance_matrix(build_helm(n))
    for i in range(n, 2 * n - 1):
        assert d[0, i] == 2


def test_bfs_pendant_to_pendant():
    # u_1 .. v_1 .. v_0 .. v_3 .. u_3 is a shortest path
    d = bfs_distance_matrix(build_helm(7))
    assert d[7, 9] == 4


def test_bfs_diagonal_is_zero():
    d = bfs_distance_matrix(build_helm(5))
    assert all(d[i, i] == 0 for i in range(9))


@pytest.mark.parametrize("m", (1, 2, 5, 9, 300))
def test_bfs_on_a_path(m):
    # vertices 0..m-1 in a line: d(i, j) = |i - j|; distances up to 299
    # need slots wider than a byte
    path = tuple(tuple(j for j in (i - 1, i + 1) if 0 <= j < m) for i in range(m))
    expected = RatMatrix.from_rows([[abs(i - j) for j in range(m)] for i in range(m)])
    assert bfs_distance_matrix(path) == expected


def test_bfs_of_no_vertex_is_the_empty_matrix():
    assert bfs_distance_matrix(()) == RatMatrix.from_rows([])


def test_bfs_matches_the_deque_reference_on_random_connected_graphs(rng):
    # random trees, sparse and dense graphs from 1 to 60 vertices, and one
    # tree of 280 vertices, whose distances may pass 255
    graphs = [random_graph(rng, rng.randint(1, 60), rng.choice((0, 2, 10, 80))) for _ in range(60)]
    graphs.append(random_graph(rng, 280, 0))
    for g in graphs:
        assert bfs_distance_matrix(g) == RatMatrix.from_rows(deque_bfs_rows(g)), g


def test_bfs_refuses_random_disconnected_graphs_like_the_deque_reference(rng):
    # the message names the first source with an unreachable vertex and
    # the first vertex it cannot reach
    for _ in range(30):
        size = rng.randint(2, 40)
        g = random_graph(rng, size, rng.choice((0, 3, 20)), parts=rng.randint(2, min(size, 4)))
        rows = deque_bfs_rows(g)
        src = next(s for s, row in enumerate(rows) if -1 in row)
        message = f"not connected: no path from {src} to {rows[src].index(-1)}"
        with pytest.raises(ValueError, match=message + "$"):
            bfs_distance_matrix(g)


@pytest.mark.parametrize("leaves", (1, 3, 6))
def test_bfs_on_a_star(leaves):
    # centre 0 joined to leaves 1..leaves: centre-leaf 1, leaf-leaf 2
    star = (tuple(range(1, leaves + 1)),) + ((0,),) * leaves
    size = leaves + 1
    expected = RatMatrix.from_rows(
        [[0 if i == j else (1 if 0 in (i, j) else 2) for j in range(size)] for i in range(size)]
    )
    assert bfs_distance_matrix(star) == expected


@pytest.mark.parametrize("n", range(4, 131))
def test_block_formula_matches_bfs(n):
    assert helm_distance_block(n) == bfs_distance_matrix(build_helm(n))


@pytest.mark.parametrize("n", range(4, 14))
def test_rim_distance_block_is_2j_minus_s(n):
    # D splits into a rank-structured part plus a correction from the rim
    # cycle's signless Laplacian S: the rim distance block is 2J - S
    k = n - 1
    s = materialize(cycle_signless_laplacian_spec(k))
    j = RatMatrix.from_rows([[1] * k] * k)
    i = RatMatrix.identity(k)
    e_row = RatMatrix.from_rows([[1] * k])
    e_col = RatMatrix.from_rows([[1]] * k)
    zeros_row = RatMatrix.zeros(1, k)
    zeros_col = RatMatrix.zeros(k, 1)
    d_flat = from_blocks(
        [
            [0, e_row, 2 * e_row],
            [e_col, 2 * j, 3 * j],
            [2 * e_col, 3 * j, 4 * j],
        ]
    )
    d_corr = from_blocks(
        [
            [0, zeros_row, zeros_row],
            [zeros_col, -s, -s],
            [zeros_col, -s, -(s + 2 * i)],
        ]
    )
    assert helm_distance_block(n) == d_flat + d_corr


def test_block_corner_entries():
    d = helm_distance_block(9)
    assert d[0, 0] == 0
    # pendant-pendant diagonal block has zero diagonal
    for i in range(9, 17):
        assert d[i, i] == 0


@pytest.mark.parametrize("n", range(4, 14))
def test_distance_matrix_is_metric(n):
    d = helm_distance_block(n)
    size = d.rows
    assert d.is_symmetric()
    values = {int(d[i, j]) for i in range(size) for j in range(size)}
    assert values <= {0, 1, 2, 3, 4}
    for i in range(size):
        assert d[i, i] == 0
        for j in range(size):
            if i != j:
                assert d[i, j] >= 1
            for k in range(size):
                assert d[i, j] <= d[i, k] + d[k, j]


@pytest.mark.parametrize("n", range(4, 14))
def test_rim_signless_laplacian_row_sums(n):
    s = materialize(cycle_signless_laplacian_spec(n - 1))
    assert s.mul_vector((1,) * (n - 1)) == tuple([4] * (n - 1))


def test_bfs_rejects_an_unreachable_pair():
    with pytest.raises(ValueError, match="not connected: no path from 0 to 1"):
        bfs_distance_matrix(((), ()))
    with pytest.raises(ValueError, match="not connected: no path from 0 to 2"):
        bfs_distance_matrix(((1,), (0,), (3,), (2,)))
    with pytest.raises(ValueError, match="not connected: no path from 0 to 3"):
        bfs_distance_matrix(((1,), (0, 2), (1,), ()))


def test_bfs_rejects_an_asymmetric_adjacency():
    with pytest.raises(ValueError, match="not symmetric: 0 lists 1 but 1 does not list 0"):
        bfs_distance_matrix(((1,), ()))


def test_bfs_rejects_a_neighbour_out_of_range():
    for bad in (2, -1):
        with pytest.raises(ValueError, match=f"vertex 1 has neighbour {bad} outside 0..1"):
            bfs_distance_matrix(((1,), (0, bad)))
