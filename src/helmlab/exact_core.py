"""Exact linear algebra over the rationals.

Dense matrices with ``fractions.Fraction`` entries, plus the generic
oracles (rank, inverse, Moore-Penrose pseudoinverse, inertia, kernel
bases) against which every closed-form identity in this package is
verified.  There is no floating point and no tolerance anywhere in this
module: equality of matrices means entrywise equality of reduced
fractions.

``RatMatrix`` stores ``Fraction`` entries, but the kernels below do not
compute with them.  Each one clears denominators first (one common
denominator per matrix, or per row for elimination) and then works in
Python integers:

* matmul takes integer dot products and divides by the product of the
  two denominators once per entry;
* Gauss-Jordan elimination is fraction-free: a row update is
  ``a*row - b*lead`` followed by division by the row's content;
* the determinant is Bareiss's fraction-free elimination (Bareiss 1968,
  Math. Comp. 22), whose divisions by the previous pivot are exact;
* the inertia is a Sylvester congruence reduction in integers, scaled by
  positive factors only, so signs and hence the inertia are preserved.

Results are converted back to reduced fractions, so every result equals
the one plain ``Fraction`` arithmetic gives.

The pseudoinverse is computed by full-rank factorization (pivot columns
times reduced-echelon rows), the inertia with 2x2 hyperbolic pivots
where the diagonal vanishes, so both stay purely rational and
independent of any closed-form expression they are used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Rational = Fraction
Scalar = Union[Fraction, int]
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NonSquareError(ValueError):
    """Operation requires a square matrix."""


class SingularMatrixError(ValueError):
    """Matrix has determinant zero where an inverse was requested."""


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible."""


class NotSymmetricError(ValueError):
    """Operation requires a symmetric matrix."""


class InvalidDecompositionError(ValueError):
    """Candidate (L, w, alpha) triple violates a structural invariant."""


class VerificationError(RuntimeError):
    """An identity that must hold by construction failed exactly."""


def frac(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction (floats are rejected)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def vec(values: Iterable[Scalar]) -> Vector:
    return tuple(frac(v) for v in values)


def ones_vector(length: int) -> Vector:
    return (_ONE,) * length


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ShapeMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def scale_vector(c: Scalar, v: Sequence[Fraction]) -> Vector:
    cf = frac(c)
    return tuple(cf * x for x in v)


def add_vectors(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise ShapeMismatchError(f"sum of lengths {len(u)} and {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


# -- integer kernel ---------------------------------------------------------


def _common_denominator(values: Iterable[Scalar]) -> tuple[int, list[int]]:
    """(d, ints) with d the lcm of the denominators and ints[i] = d * values[i]."""
    vals = list(values)
    d = math.lcm(*{x.denominator for x in vals})
    return d, [x.numerator * (d // x.denominator) for x in vals]


def _product(a: Sequence[Scalar], n: int, k: int, b: Sequence[Scalar], m: int) -> list[Fraction]:
    """Row-major entries of the (n x k) by (k x m) product, exactly."""
    da, ai = _common_denominator(a)
    db, bi = _common_denominator(b)
    den = da * db
    cols = [bi[j::m] for j in range(m)]
    return [
        Fraction(sum(map(mul, ai[i * k : (i + 1) * k], col)), den)
        for i in range(n)
        for col in cols
    ]


class RatMatrix:
    """Immutable dense matrix of Fractions, stored row-major."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        data = tuple(frac(x) for x in entries)
        if len(data) != rows * cols:
            raise ShapeMismatchError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._entries = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RatMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatchError("ragged rows")
        return cls(nrows, ncols, (x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, (_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, (_ONE,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "RatMatrix":
        n = len(values)
        vals = vec(values)
        return cls(n, n, (vals[i] if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def outer(cls, u: Sequence[Scalar], v: Sequence[Scalar]) -> "RatMatrix":
        uf, vf = vec(u), vec(v)
        return cls(len(uf), len(vf), (a * b for a in uf for b in vf))

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence[Union["RatMatrix", Scalar]]]) -> "RatMatrix":
        """Assemble a block matrix; scalar grid cells act as 1x1 blocks."""
        norm = [[b if isinstance(b, RatMatrix) else cls(1, 1, [b]) for b in row] for row in grid]
        row_heights = [row[0].rows for row in norm]
        col_widths = [b.cols for b in norm[0]]
        for i, row in enumerate(norm):
            if len(row) != len(col_widths):
                raise ShapeMismatchError("ragged block grid")
            for j, b in enumerate(row):
                if b.rows != row_heights[i] or b.cols != col_widths[j]:
                    raise ShapeMismatchError(f"block ({i},{j}) is {b.rows}x{b.cols}")
        out: list[Fraction] = []
        for i, row in enumerate(norm):
            for r in range(row_heights[i]):
                for b in row:
                    out.extend(b._entries[r * b.cols : (r + 1) * b.cols])
        return cls(sum(row_heights), sum(col_widths), out)

    # -- access ----------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self._entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        return RatMatrix(
            len(row_idx),
            len(col_idx),
            (self._entries[i * self.cols + j] for i in row_idx for j in col_idx),
        )

    # -- algebra ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix(self.rows, self.cols, (a + b for a, b in zip(self._entries, other._entries)))

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix(self.rows, self.cols, (a - b for a, b in zip(self._entries, other._entries)))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, (-a for a in self._entries))

    def __mul__(self, c: Scalar) -> "RatMatrix":
        cf = frac(c)
        return RatMatrix(self.rows, self.cols, (cf * a for a in self._entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        entries = _product(self._entries, self.rows, self.cols, other._entries, other.cols)
        return RatMatrix(self.rows, other.cols, entries)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            (self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def mul_vector(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ShapeMismatchError(f"matrix has {self.cols} columns, vector length {len(v)}")
        return tuple(_product(self._entries, self.rows, self.cols, v, 1))

    def row_sums(self) -> Vector:
        return tuple(sum(self.row(i), _ZERO) for i in range(self.rows))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        e, n = self._entries, self.rows
        return all(e[i * n + j] == e[j * n + i] for i in range(n) for j in range(i + 1, n))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(min(self.rows, 6)))
        tail = " ..." if self.rows > 6 else ""
        return f"RatMatrix({self.rows}x{self.cols}: {body}{tail})"

    def _require_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatchError(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


class InertiaTriple(NamedTuple):
    """Counts of positive, negative and zero eigenvalues of a symmetric matrix."""

    i_plus: int
    i_minus: int
    i_zero: int


@dataclass(frozen=True)
class Decomposition:
    """Candidate triple (L, w, alpha) for an inverse of the form -L/2 + alpha*w*w'.

    L must be symmetric with all row sums zero (Laplacian-like), w must
    satisfy e'w = 1, and alpha must be nonzero.  Violations raise
    InvalidDecompositionError at construction time.
    """

    laplacian_like: RatMatrix
    w: Vector
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", vec(self.w))
        object.__setattr__(self, "alpha", frac(self.alpha))
        lap = self.laplacian_like
        if not lap.is_square() or lap.rows != len(self.w):
            raise InvalidDecompositionError("L must be square of the same order as w")
        if not lap.is_symmetric():
            raise InvalidDecompositionError("L must be symmetric")
        if any(s != 0 for s in lap.row_sums()):
            raise InvalidDecompositionError("L must have zero row sums")
        if sum(self.w, _ZERO) != 1:
            raise InvalidDecompositionError("w must satisfy e'w = 1")
        if self.alpha == 0:
            raise InvalidDecompositionError("alpha must be nonzero")

    def candidate(self) -> RatMatrix:
        """The matrix -L/2 + alpha * w w' encoded by this triple."""
        return Fraction(-1, 2) * self.laplacian_like + self.alpha * RatMatrix.outer(self.w, self.w)


# -- elimination helpers --------------------------------------------------


def _echelon_ints(rows: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; returns pivot columns.

    Pivoting is by first nonzero entry.  A row update is
    ``a*row - b*lead`` with ``a, b = pivot/g, f/g`` for ``g = gcd(pivot, f)``,
    then division by the row's content, so every row stays a nonzero
    multiple of the row plain rational Gauss-Jordan would hold and the
    entries stay small.  On return each pivot row is its reduced-echelon
    row times its pivot entry.
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r]
        pv = lead[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                g = math.gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(rows[i], lead)]
                content = math.gcd(*row)
                rows[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reduced_echelon(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """In-place reduced row echelon form; returns pivot column indices.

    Only the first ``ncols`` columns are searched for pivots; row
    operations act on whole rows.  Rows past the rank are zero when
    ``ncols`` covers every column; otherwise they hold some multiple of
    what rational elimination would leave there.
    """
    work = [_common_denominator(row)[1] for row in rows]
    pivots = _echelon_ints(work, ncols)
    for r, row in enumerate(work):
        pv = row[pivots[r]] if r < len(pivots) else 1
        rows[r] = [Fraction(x, pv) for x in row]
    return pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, exactly."""
    work = m.to_lists()
    pivots = _reduced_echelon(work, m.cols)
    return RatMatrix.from_rows(work) if work else RatMatrix.zeros(0, m.cols), tuple(pivots)


def rank(m: RatMatrix) -> int:
    """Dimension of the row space, by exact elimination."""
    work = [_common_denominator(m.row(i))[1] for i in range(m.rows)]
    return len(_echelon_ints(work, m.cols))


def determinant(m: RatMatrix) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination.

    Each row is scaled to integers by its own common denominator; the
    last Bareiss pivot is then the determinant of the scaled matrix.
    """
    if not m.is_square():
        raise NonSquareError(f"determinant of {m.rows}x{m.cols} matrix")
    scale = 1
    work: list[list[int]] = []
    for i in range(m.rows):
        d, row = _common_denominator(m.row(i))
        scale *= d
        work.append(row)
    sign, prev = 1, 1
    while work:
        p = next((i for i, row in enumerate(work) if row[0]), None)
        if p is None:
            return _ZERO
        if p:
            work[0], work[p] = work[p], work[0]
            sign = -sign
        pv, *tail = work[0]
        work = [
            [(pv * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
            for row in work[1:]
        ]
        prev = pv
    return Fraction(sign * prev, scale)


def inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse via Gauss-Jordan; raises SingularMatrixError if det = 0."""
    if not m.is_square():
        raise NonSquareError(f"inverse of {m.rows}x{m.cols} matrix")
    n = m.rows
    work = [list(m.row(i)) + [_ONE if j == i else _ZERO for j in range(n)] for i in range(n)]
    pivots = _reduced_echelon(work, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return RatMatrix.from_rows([row[n:] for row in work])


def solve(m: RatMatrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of m x = b, or None if the system is inconsistent.

    Free variables are set to zero.  Used both as a solver and as the
    membership test "b in the column space of m".
    """
    if len(b) != m.rows:
        raise ShapeMismatchError(f"matrix has {m.rows} rows, rhs length {len(b)}")
    work = [list(m.row(i)) + [frac(b[i])] for i in range(m.rows)]
    pivots = _reduced_echelon(work, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = work[r][m.cols]
    return tuple(x)


def null_space_basis(m: RatMatrix) -> list[Vector]:
    """Exact basis of the kernel, read off the reduced echelon form."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    basis: list[Vector] = []
    for j in free_cols:
        v = [_ZERO] * m.cols
        v[j] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r, j]
        basis.append(tuple(v))
    return basis


def pseudoinverse(m: RatMatrix) -> RatMatrix:
    """Moore-Penrose inverse by full-rank factorization, exactly.

    Factor m = F G with F the pivot columns of m (full column rank r) and
    G the first r rows of the reduced echelon form (full row rank), then

        pinv(m) = G' (G G')^(-1) (F' F)^(-1) F'.

    The zero matrix maps to the zero matrix of transposed shape.
    """
    reduced, pivots = rref(m)
    r = len(pivots)
    if r == 0:
        return RatMatrix.zeros(m.cols, m.rows)
    f_mat = m.submatrix(range(m.rows), pivots)
    g_mat = reduced.submatrix(range(r), range(m.cols))
    gt = g_mat.transpose()
    ft = f_mat.transpose()
    return gt @ inverse(g_mat @ gt) @ inverse(ft @ f_mat) @ ft


def penrose_check(m: RatMatrix, x: RatMatrix) -> bool:
    """True iff x satisfies all four Penrose conditions for m, exactly.

    MXM = M, XMX = X, and both MX and XM symmetric.
    """
    if x.rows != m.cols or x.cols != m.rows:
        raise ShapeMismatchError(
            f"candidate must be {m.cols}x{m.rows}, got {x.rows}x{x.cols}"
        )
    mx = m @ x
    xm = x @ m
    return (
        mx @ m == m
        and x @ mx == x
        and mx.is_symmetric()
        and xm.is_symmetric()
    )


def _sym_swap(w: list[list[int]], i: int, j: int) -> None:
    if i == j:
        return
    w[i], w[j] = w[j], w[i]
    for row in w:
        row[i], row[j] = row[j], row[i]


def _divide_content(block: list[list[int]]) -> list[list[int]]:
    content = math.gcd(*(math.gcd(*row) for row in block))
    if content > 1:
        return [[x // content for x in row] for row in block]
    return block


def inertia(m: RatMatrix) -> InertiaTriple:
    """Exact inertia (i_plus, i_minus, i_zero) of a symmetric matrix.

    Sylvester congruence reduction: pivot on a nonzero diagonal entry of
    the remaining block when one exists; otherwise all remaining diagonal
    entries are zero and a symmetric 2x2 pivot on an off-diagonal nonzero
    contributes one positive and one negative eigenvalue.  A zero
    remaining block terminates with i_zero.

    The work is in integers: the matrix is scaled by its positive common
    denominator, and each Schur complement is replaced by a positive
    multiple of itself (|d| S for a 1x1 pivot d, |b| S for a 2x2 pivot
    with off-diagonal b) divided by its content.  Positive scalings keep
    the inertia.
    """
    if not m.is_symmetric():
        raise NotSymmetricError("inertia requires a symmetric matrix")
    n = m.rows
    _, flat = _common_denominator(m._entries)
    w = [flat[i * n : (i + 1) * n] for i in range(n)]
    i_plus = i_minus = 0
    while w:
        p = next((i for i in range(len(w)) if w[i][i]), None)
        if p is not None:
            _sym_swap(w, 0, p)
            d = w[0][0]
            if d > 0:
                i_plus += 1
            else:
                i_minus += 1
            # |d| S = |d| W - sgn(d) u u'
            size = abs(d)
            u = w[0][1:]
            su = u if d > 0 else [-x for x in u]
            w = _divide_content(
                [[size * x - sui * uj for x, uj in zip(row[1:], u)] for row, sui in zip(w[1:], su)]
            )
            continue
        pair = next(
            ((i, j) for i in range(len(w)) for j in range(i + 1, len(w)) if w[i][j]), None
        )
        if pair is None:
            break
        i0, j0 = pair  # i0 < j0, so the first swap leaves index j0 in place
        _sym_swap(w, 0, i0)
        _sym_swap(w, 1, j0)
        b = w[0][1]
        # |b| S = |b| W - sgn(b) (u v' + v u')
        size = abs(b)
        u = w[0][2:]
        v = w[1][2:]
        su, sv = (u, v) if b > 0 else ([-x for x in u], [-x for x in v])
        w = _divide_content(
            [
                [size * x - sul * vt - svl * ut for x, ut, vt in zip(row[2:], u, v)]
                for row, sul, svl in zip(w[2:], su, sv)
            ]
        )
        i_plus += 1
        i_minus += 1
    return InertiaTriple(i_plus, i_minus, len(w))
