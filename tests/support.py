"""Shared random generators for the test suite.

All randomness flows through a single seeded random.Random so runs are
reproducible; set HELMLAB_SEED to change the stream.
"""

from __future__ import annotations

import os
import random
from collections import deque
from fractions import Fraction

from helmlab import RatMatrix

DEFAULT_SEED = 20250801


def env_seed() -> int:
    return int(os.environ.get("HELMLAB_SEED", DEFAULT_SEED))


def make_rng() -> random.Random:
    return random.Random(env_seed())


def random_fraction(rng: random.Random, span: int = 9, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_matrix(
    rng: random.Random, rows: int, cols: int, span: int = 9, max_den: int = 6
) -> RatMatrix:
    return RatMatrix(rows, cols, (random_fraction(rng, span, max_den) for _ in range(rows * cols)))


def random_symmetric(rng: random.Random, order: int) -> RatMatrix:
    vals = [[Fraction(0)] * order for _ in range(order)]
    for i in range(order):
        for j in range(i, order):
            vals[i][j] = vals[j][i] = random_fraction(rng)
    return RatMatrix.from_rows(vals)


def random_invertible(rng: random.Random, order: int) -> RatMatrix:
    from helmlab import determinant

    while True:
        m = random_matrix(rng, order, order)
        if determinant(m) != 0:
            return m


def random_delta_vector(rng: random.Random, length: int) -> tuple[Fraction, ...]:
    """Random vector with the palindromic-tail symmetry."""
    coords = [random_fraction(rng) for _ in range(length)]
    for i in range(1, length):
        coords[length - i] = coords[i]
    return tuple(coords)


def helm_decomposition(n: int):
    """The helm triple (L, w, alpha) for n as a Decomposition."""
    from helmlab import Decomposition, make_even_case, make_odd_case, make_w_alpha

    case = make_even_case(n) if n % 2 == 0 else make_odd_case(n)
    vectors = make_w_alpha(n)
    return Decomposition(case.laplacian_like, vectors.w, vectors.alpha)


def bump_l(lap: RatMatrix) -> RatMatrix:
    """lap plus (e_1 - e_2)(e_1 - e_2)'/3, on two adjacent rim vertices.

    The result stays symmetric with zero row sums, so a Decomposition
    still accepts it.
    """
    u = (Fraction(0), Fraction(1), Fraction(-1)) + (Fraction(0),) * (lap.rows - 3)
    return lap + Fraction(1, 3) * outer(u, u)


def fraction_schur_chain(lap, case) -> bool:
    """characterization.schur_psd_check's chain on Fractions and
    Fraction-scaled Circulants, the reference for its integer chain:
    symmetric blocks and a corner c > 0, the first complement's blocks
    T_ij - (b_i b_j/c) J equal to [[A - J/(2k), B], [B, I]], B B = -B, and
    no negative inertia of A + B - J/(2k).  None fails it."""
    from helmlab.circulant import Circulant
    from helmlab.cyclotomic import circulant_inertia, symmetric_blocks

    if lap is None:
        return False
    corner, a, b = lap.hub, case.rim_block, case.coupling_block
    if not symmetric_blocks(lap) or corner <= 0:
        return False
    k = case.n - 1
    ones = Circulant((1,) * k)
    rim = a - Fraction(1, 2 * k) * ones
    complement_1 = [
        [block - (ci * rj / corner) * ones for block, rj in zip(row, lap.rows)]
        for row, ci in zip(lap.blocks, lap.cols)
    ]
    if complement_1 != [[rim, b], [b, Circulant((1,) + (0,) * (k - 1))]]:
        return False
    if b @ b != -b:
        return False
    return circulant_inertia(rim + b).i_minus == 0


def outer(u, v) -> RatMatrix:
    """The matrix u v' of two vectors of scalars."""
    return RatMatrix.from_rows([[x * y for y in v] for x in u])


def from_blocks(grid) -> RatMatrix:
    """The block matrix of a grid of RatMatrix blocks and scalars (1x1
    blocks), laid out row by row in plain Fractions: a layout that shares
    no code with the package's integer store."""
    rows = []
    for band in grid:
        blocks = [b.to_lists() if isinstance(b, RatMatrix) else [[Fraction(b)]] for b in band]
        assert len({len(b) for b in blocks}) == 1, "blocks of one band differ in height"
        rows += [sum(parts, []) for parts in zip(*blocks)]
    return RatMatrix.from_rows(rows)


def deque_bfs_rows(adjacency) -> list[list[int]]:
    """Distances from each vertex in turn by a plain deque BFS, -1 for an
    unreachable vertex: the reference for bfs_distance_matrix."""
    rows = []
    for src in range(len(adjacency)):
        dist = [-1] * len(adjacency)
        dist[src] = 0
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in adjacency[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        rows.append(dist)
    return rows


def random_graph(rng: random.Random, size: int, extra: int, parts: int = 1):
    """An adjacency tuple on size vertices with parts connected components
    (1 <= parts <= size): each a random tree plus up to extra random edges
    inside it, the vertices labelled at random and each neighbour list in
    random order."""
    label = list(range(size))
    rng.shuffle(label)
    cuts = [0, *sorted(rng.sample(range(1, size), parts - 1)), size]
    edges = set()
    for lo, hi in zip(cuts, cuts[1:]):
        part = label[lo:hi]
        edges |= {(part[i], part[rng.randrange(i)]) for i in range(1, len(part))}
        if len(part) > 1:
            edges |= {tuple(rng.sample(part, 2)) for _ in range(extra)}
    nbrs = [set() for _ in range(size)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    adjacency = [list(x) for x in nbrs]
    for x in adjacency:
        rng.shuffle(x)
    return tuple([tuple(x) for x in adjacency])
