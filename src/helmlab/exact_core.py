"""Exact linear algebra over the rationals.

Dense rational matrices, plus the generic oracles (rank, inverse,
Moore-Penrose pseudoinverse, inertia, kernel bases) against which every
closed-form identity in this package is verified.  There is no floating
point and no tolerance anywhere in this module: equality of matrices
means entrywise equality of reduced fractions.

``RatMatrix`` stores one positive common denominator and row-major
integer entries, kept canonical (the denominator and the entries have
no common factor, and the zero matrix has denominator 1), so equal
matrices have equal storage.  Every operation works on the integers:

* ``+`` and ``-`` bring both operands to the lcm of their denominators,
  a scalar multiplies the entries by its numerator and the denominator
  by its denominator;
* matmul is a Kronecker-packed integer product under the product of the
  two denominators (Kronecker substitution; see D. Harvey, J. Symbolic
  Comput. 44, 2009): each row of B becomes one Python int with one
  fixed-width slot per entry, the width taken from the bound
  ``k * max|a| * max|b|`` on the entries of the product plus a sign bit,
  so a row of the product costs one big-int multiply-add per nonzero
  entry of that row of A and one unpack.  Slots of up to 64 bits are
  read by ``array.frombytes``, wider ones by slicing the bytes;
* Gauss-Jordan elimination is fraction-free: a row update is
  ``a*row - b*lead`` followed by division by the row's content;
* the determinant is Bareiss's fraction-free elimination (Bareiss 1968,
  Math. Comp. 22), whose divisions by the previous pivot are exact;
* the inertia is a Sylvester congruence reduction in integers on the
  upper triangle, pivoting on the diagonal entry of least magnitude
  together with every diagonal pivot it can take in the same step (a
  block of pairwise uncoupled ones, whose Schur complement is one
  packed product), and scaled by positive factors only, so signs and
  hence the inertia are preserved.  The same kernel can carry its row
  transform, which turns it into a factorization (see below).

``Fraction`` values are made only where entries are read (indexing,
rows, columns, ``to_lists`` and the vectors the matrix methods return),
and they equal the ones plain ``Fraction`` arithmetic gives.

The pseudoinverse is pinv(m) = pinv(m) m G m pinv(m) = (I - P_N) G (I - P_Q)
for any generalized inverse G of m (m G m = m), with P_N and P_Q the
orthogonal projections onto ker m and ker m'.  One Gauss-Jordan pass on
[A | d I] gives G, N and Q: its reduced echelon form R = E m gives
G = S E (S puts row t at the t-th pivot row, and R S R = R).  The
inertia uses 2x2 hyperbolic pivots where the whole diagonal vanishes.
All stay purely rational and independent of any closed-form expression
they are used to check.

``factor_symmetric`` gives the inertia, determinant and pseudoinverse
of a symmetric matrix together.  Above a small order (``_SCHUR_CUTOFF``)
it factors the matrix once by a Schur-complement recursion (Bunch and
Hopcroft, Math. Comp. 28, 1974), which reduces the elimination to
half-size eliminations and packed products; ``determinant`` and
``pseudoinverse`` keep their single Bareiss and Gauss-Jordan passes and
so stay independent routes to check it, and ``inertia`` runs the
congruence without the transform.  For M = [[A, B], [B', E]] with A
nonsingular, Y = A^-1 B and S = E - B' Y:

* inertia(M) = inertia(A) + inertia(S) (Haynsworth, LAA 1, 1968);
* det M = det A * det S;
* G = [[A^-1 + Y S^- Y', -Y S^-], [-S^- Y', S^-]] is a generalized
  inverse of M when S^- is one of S, and symmetric when S^- is;
* ker M = {(-Y z, z) : z in ker S}.

A and S are factored the same way, and blocks at or below the cutoff by
one congruence pass that applies each row operation to a transform E
too (symmetric 1x1 and 2x2 pivots, after Bunch and Kaufman, Math.
Comp. 31, 1977).  E M E' is then block diagonal: its pivots give the
inertia and, as E is unit lower triangular in pivot order, the
determinant; the rows of E that leave as zero rows span the kernel; and
G = F' Omega F, F the pivots' rows of E and Omega the inverses of the
pivot blocks, is a symmetric generalized inverse.  The indices are split
in one order: those with a nonzero diagonal entry first, then the other
indices of nonzero rows, then those of zero rows, each group ascending.
A principal block holding a zero row is singular, so zero rows never
lead; the kernel of an odd helm D shows up as such a row in every
trailing Schur complement.  If A is singular all the same, the block is
factored by the base pass whatever its order.  Both rules depend only
on the matrix, so the same input always takes the same path, and a
different path would change only the speed: the inertia, the
determinant and the pseudoinverse are unique.  The last is G projected
on both sides onto the complement of ker M, in one symmetric step
(``_project_out_symmetric``).
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Scalar = Union[Fraction, int]
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class VerificationError(RuntimeError):
    """An identity that must hold by construction failed exactly."""


def frac(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction (floats are rejected)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


# Small tuples below are built from lists, never from generators: a tuple
# built from a generator is allocated at a guessed length and resized, and
# CPython keeps freed short tuples on per-length free lists that only a
# full garbage collection empties.


def vec(values: Iterable[Scalar]) -> Vector:
    return tuple([frac(v) for v in values])


def ones_vector(length: int) -> Vector:
    return (_ONE,) * length


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def scale_vector(c: Scalar, v: Sequence[Fraction]) -> Vector:
    cf = frac(c)
    return tuple([cf * x for x in v])


# -- integer representation ---------------------------------------------------


def _common_denominator(values: Iterable[Scalar]) -> tuple[int, list[int]]:
    """(d, ints) with d the lcm of the denominators and ints[i] = d * values[i].

    For reduced values (every ``Fraction`` is) d and ints have no common
    factor.  Plain ints come back as they are, over d = 1.  Anything but
    an int or a Fraction raises TypeError.
    """
    vals = list(values)
    types = {type(x) for x in vals}
    if types <= {int}:
        return 1, vals
    for t in types:
        if not issubclass(t, (int, Fraction)):
            raise TypeError(f"expected an exact scalar, got {t.__name__}")
    d = math.lcm(*{x.denominator for x in vals})
    return d, [x.numerator * (d // x.denominator) for x in vals]


def _fractions(ints: Sequence[int], den: int) -> Vector:
    """The reduced fractions ints[i] / den."""
    if den == 1:
        return tuple([Fraction(x) for x in ints])
    return tuple([Fraction(x, den) for x in ints])


# Slot sizes in bytes that a signed C integer array type reads directly.
_SLOT_CODES = {array(code).itemsize: code for code in "bhilq"}


def _pack_slots(ints: Sequence[int], size: int) -> bytes:
    """ints as consecutive size-byte two's-complement slots, in native byte order."""
    code = _SLOT_CODES.get(size)
    if code:
        return array(code, ints).tobytes()
    return b"".join([x.to_bytes(size, sys.byteorder, signed=True) for x in ints])


def _unpack_slots(buf: bytes, size: int) -> list[int]:
    """The inverse of ``_pack_slots``."""
    code = _SLOT_CODES.get(size)
    if code:
        slots = array(code)
        slots.frombytes(buf)
        return slots.tolist()
    return [
        int.from_bytes(buf[t : t + size], sys.byteorder, signed=True)
        for t in range(0, len(buf), size)
    ]


class RatMatrix:
    """Immutable dense rational matrix: integer entries over one denominator.

    Row-major ``_ints`` and a positive ``_den`` with
    ``gcd(_den, *_ints) == 1``; the matrix is ``_ints / _den``.
    """

    __slots__ = ("rows", "cols", "_den", "_ints")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimensions {rows}x{cols}")
        den, ints = _common_denominator(entries)
        if len(ints) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(ints)}"
            )
        self.rows = rows
        self.cols = cols
        self._den = den
        self._ints = tuple(ints)

    @classmethod
    def _from_ints(cls, rows: int, cols: int, den: int, ints: list[int]) -> "RatMatrix":
        """The matrix ints / den (den > 0), reduced to canonical form."""
        g = math.gcd(den, *ints)
        if g > 1:
            den //= g
            ints = [x // g for x in ints]
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._den = den
        m._ints = tuple(ints)
        return m

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RatMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        ints = [0] * (n * n)
        ints[:: n + 1] = [1] * n
        return cls._from_ints(n, n, 1, ints)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._from_ints(rows, cols, 1, [0] * (rows * cols))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._from_ints(rows, cols, 1, [1] * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "RatMatrix":
        n = len(values)
        den, diag = _common_denominator(values)
        ints = [0] * (n * n)
        ints[:: n + 1] = diag
        return cls._from_ints(n, n, den, ints)

    @classmethod
    def outer(cls, u: Sequence[Scalar], v: Sequence[Scalar]) -> "RatMatrix":
        du, ui = _common_denominator(u)
        dv, vi = _common_denominator(v)
        return cls._from_ints(len(ui), len(vi), du * dv, [a * b for a in ui for b in vi])

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence[Union["RatMatrix", Scalar]]]) -> "RatMatrix":
        """Assemble a block matrix; scalar grid cells act as 1x1 blocks."""
        norm = [[b if isinstance(b, RatMatrix) else cls(1, 1, [b]) for b in row] for row in grid]
        if not norm or not all(norm):
            raise ValueError("empty block grid or row")
        row_heights = [row[0].rows for row in norm]
        col_widths = [b.cols for b in norm[0]]
        for i, row in enumerate(norm):
            if len(row) != len(col_widths):
                raise ValueError("ragged block grid")
            for j, b in enumerate(row):
                if b.rows != row_heights[i] or b.cols != col_widths[j]:
                    raise ValueError(f"block ({i},{j}) is {b.rows}x{b.cols}")
        den = math.lcm(*[b._den for row in norm for b in row])
        out: list[int] = []
        for row, height in zip(norm, row_heights):
            scaled = [[x * (den // b._den) for x in b._ints] for b in row]
            for r in range(height):
                for b, ints in zip(row, scaled):
                    out.extend(ints[r * b.cols : (r + 1) * b.cols])
        return cls._from_ints(sum(row_heights), sum(col_widths), den, out)

    # -- access ----------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return Fraction(self._ints[i * self.cols + j], self._den)

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise IndexError(i)
        return _fractions(self._ints[i * self.cols : (i + 1) * self.cols], self._den)

    def column(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return _fractions(self._ints[j :: self.cols], self._den)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        for idx, bound in ((row_idx, self.rows), (col_idx, self.cols)):
            for i in idx:
                if not 0 <= i < bound:
                    raise IndexError(i)
        e, c = self._ints, self.cols
        return RatMatrix._from_ints(
            len(row_idx), len(col_idx), self._den, [e[i * c + j] for i in row_idx for j in col_idx]
        )

    # -- algebra ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._ints == other._ints
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._den, self._ints))

    def _combine(self, other: "RatMatrix", sign: int) -> "RatMatrix":
        """self + sign * other, under the lcm of the two denominators."""
        self._require_same_shape(other)
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        return RatMatrix._from_ints(
            self.rows, self.cols, den, [a * x + b * y for x, y in zip(self._ints, other._ints)]
        )

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._from_ints(self.rows, self.cols, self._den, [-x for x in self._ints])

    def __mul__(self, c: Scalar) -> "RatMatrix":
        cf = frac(c)
        p = cf.numerator
        return RatMatrix._from_ints(
            self.rows, self.cols, self._den * cf.denominator, [p * x for x in self._ints]
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker-packed integer product under the product of the denominators.

        Every entry of the integer product has absolute value at most
        ``bound = k * max|a| * max|b|`` (k the inner dimension), so it fits
        a w-bit two's-complement slot for any w > ``bound.bit_length()``.
        w is a whole number of bytes: the narrowest signed C array type
        that is wide enough (8 to 64 bits, enough for every helm product),
        else the fewest bytes.  Row j of B becomes one int
        ``P_j = sum_t b_jt 2^(wt)``, row i of the product is the single int
        ``sum(a_ij * P_j for nonzero a_ij)``, and its slots are the entries.

        Both conversions run in C, in O(width) per row.  With ``bias`` the
        constant that holds ``2^(w-1)`` in every slot, ``(x + bias) ^ bias``
        turns a packed row x into its slots' two's-complement bytes (the
        biased slots are nonnegative, so nothing carries), and
        ``(y ^ bias) - bias`` turns such bytes y back into a packed row.
        Slot bytes go through ``array`` when a C type has that width, and
        through one ``int.to_bytes``/``from_bytes`` per entry otherwise.
        """
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, n, k, m = self._ints, self.rows, self.cols, other.cols
        # max(., 1): the bound must also cover B's entries, which share its slots
        bound = k * max(max(map(abs, a), default=0), 1) * max(map(abs, other._ints), default=0)
        need = (bound.bit_length() + 8) // 8  # bytes for the bound and a sign bit
        size = min([s for s in _SLOT_CODES if s >= need], default=need)
        order, width = sys.byteorder, size * m  # array is native-order, so these are too
        bias = int.from_bytes((1 << (8 * size - 1)).to_bytes(size, order) * m, order)
        b_bytes = _pack_slots(other._ints, size)
        packed = [
            (int.from_bytes(b_bytes[j * width : (j + 1) * width], order) ^ bias) - bias
            for j in range(k)
        ]
        out = []
        for i in range(n):
            row = a[i * k : (i + 1) * k]
            total = sum(map(mul, compress(row, row), compress(packed, row)))
            out.append(((total + bias) ^ bias).to_bytes(width, order))
        return RatMatrix._from_ints(n, m, self._den * other._den, _unpack_slots(b"".join(out), size))

    def transpose(self) -> "RatMatrix":
        e, c = self._ints, self.cols
        out: list[int] = []
        for j in range(c):
            out.extend(e[j::c])
        return RatMatrix._from_ints(c, self.rows, self._den, out)

    def mul_vector(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"matrix has {self.cols} columns, vector length {len(v)}")
        dv, vi = _common_denominator(v)
        e, c = self._ints, self.cols
        sums = [sum(map(mul, e[i * c : (i + 1) * c], vi)) for i in range(self.rows)]
        return _fractions(sums, self._den * dv)

    def row_sums(self) -> Vector:
        e, c = self._ints, self.cols
        return _fractions([sum(e[i * c : (i + 1) * c]) for i in range(self.rows)], self._den)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        e, n = self._ints, self.rows
        return all(e[i * n : (i + 1) * n] == e[i::n] for i in range(n))

    def is_zero(self) -> bool:
        return not any(self._ints)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(min(self.rows, 6)))
        tail = " ..." if self.rows > 6 else ""
        return f"RatMatrix({self.rows}x{self.cols}: {body}{tail})"

    def _require_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
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
    ValueError at construction time.
    """

    laplacian_like: RatMatrix
    w: Vector
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", vec(self.w))
        object.__setattr__(self, "alpha", frac(self.alpha))
        lap = self.laplacian_like
        if not lap.is_square() or lap.rows != len(self.w):
            raise ValueError("L must be square of the same order as w")
        if not lap.is_symmetric():
            raise ValueError("L must be symmetric")
        if any(s != 0 for s in lap.row_sums()):
            raise ValueError("L must have zero row sums")
        if sum(self.w, _ZERO) != 1:
            raise ValueError("w must satisfy e'w = 1")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")

    @cached_property
    def candidate(self) -> RatMatrix:
        """The matrix -L/2 + alpha * w w' encoded by this (immutable) triple, built once."""
        return Fraction(-1, 2) * self.laplacian_like + self.alpha * RatMatrix.outer(self.w, self.w)


# -- elimination helpers --------------------------------------------------


def _int_rows(m: RatMatrix) -> list[list[int]]:
    """The rows of m's integer entries, as fresh lists (m times its denominator)."""
    e, c = m._ints, m.cols
    return [list(e[i * c : (i + 1) * c]) for i in range(m.rows)]


def _echelon_ints(rows: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; returns pivot columns.

    Pivoting is by first nonzero entry.  A row update is
    ``a*row - b*lead`` with ``a, b = pivot/g, f/g`` for ``g = gcd(pivot, f)``,
    then division by the row's content, so every row stays a nonzero
    multiple of the row plain rational Gauss-Jordan would hold and the
    entries stay small.  On return each pivot row is its reduced-echelon
    row times its pivot entry.  Only the first ``ncols`` columns are
    searched for pivots; row operations act on whole rows.
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


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, exactly."""
    work = _int_rows(m)
    pivots = _echelon_ints(work, m.cols)
    # row t is its pivot entry times row t of the form; rows past the rank are zero
    scales = [work[t][c] for t, c in enumerate(pivots)] + [1] * (m.rows - len(pivots))
    den = math.lcm(*scales)
    ints: list[int] = []
    for row, pv in zip(work, scales):
        f = den // pv
        ints.extend([f * x for x in row])
    return RatMatrix._from_ints(m.rows, m.cols, den, ints), tuple(pivots)


def rank(m: RatMatrix) -> int:
    """Dimension of the row space, by exact elimination."""
    return len(_echelon_ints(_int_rows(m), m.cols))


def _bareiss(rows: list[list[int]]) -> int:
    """The determinant of the square integer rows (consumed), by Bareiss."""
    sign, prev = 1, 1
    while rows:
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return 0
        if p:
            rows[0], rows[p] = rows[p], rows[0]
            sign = -sign
        pv, *tail = rows[0]
        rows = [
            [(pv * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
            for row in rows[1:]
        ]
        prev = pv
    return sign * prev


def determinant(m: RatMatrix) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination.

    On the integer entries A of m = A/d the last Bareiss pivot is det(A),
    and det(m) = det(A) / d^n.
    """
    if not m.is_square():
        raise ValueError(f"determinant of {m.rows}x{m.cols} matrix")
    return Fraction(_bareiss(_int_rows(m)), m._den ** m.rows)


def inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse, the Gauss-Jordan generalized inverse of a nonsingular
    m (``_gauss_jordan``); raises ValueError if det = 0."""
    if not m.is_square():
        raise ValueError(f"inverse of {m.rows}x{m.cols} matrix")
    g, kernel, _ = _gauss_jordan(m)
    if kernel.rows:
        raise ValueError("matrix is singular")
    return g


def solve(m: RatMatrix, b: Sequence[Scalar]) -> Optional[Vector]:
    """One exact solution of m x = b, or None if the system is inconsistent.

    Free variables are set to zero.  Used both as a solver and as the
    membership test "b in the column space of m".
    """
    if len(b) != m.rows:
        raise ValueError(f"matrix has {m.rows} rows, rhs length {len(b)}")
    # with m = A/d and b = c/db, m x = b is (db/g) A x = (d/g) c, g = gcd(d, db)
    db, rhs = _common_denominator(b)
    g = math.gcd(m._den, db)
    sa, sb = db // g, m._den // g
    work = [[sa * x for x in row] + [sb * c] for row, c in zip(_int_rows(m), rhs)]
    pivots = _echelon_ints(work, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(work[r][m.cols], work[r][c])
    return tuple(x)


def _kernel_rows(
    work: list[list[int]], pivots: list[int], ncols: int
) -> tuple[int, list[list[int]]]:
    """den, the lcm of the pivot entries of rows left by ``_echelon_ints``,
    and one integer kernel row den * (e_j - sum_t R[t, j] e_(c_t)) per
    free column j, ascending; R is the reduced echelon form."""
    den = math.lcm(*[work[t][c] for t, c in enumerate(pivots)])
    scaled = [(c, den // work[t][c]) for t, c in enumerate(pivots)]
    pivot_set = set(pivots)
    out: list[list[int]] = []
    for j in range(ncols):
        if j not in pivot_set:
            v = [0] * ncols
            v[j] = den
            for t, (c, f) in enumerate(scaled):
                v[c] = -f * work[t][j]
            out.append(v)
    return den, out


def null_space_basis(m: RatMatrix) -> list[Vector]:
    """Exact basis of the kernel, one vector per free column of the reduced echelon form."""
    work = _int_rows(m)
    den, kernel = _kernel_rows(work, _echelon_ints(work, m.cols), m.cols)
    return [tuple([Fraction(x, den) for x in v]) for v in kernel]


def _gauss_jordan(m: RatMatrix) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """(G, N, Q) from one Gauss-Jordan pass: G a generalized inverse of m,
    and the rows of N and Q integer bases of ker m and ker m'.

    The fraction-free pass runs on the integer rows of [A | d I], m = A/d,
    searching A's columns only for pivots.  The right block records the
    row operations: let row t of E be row t's right block, divided by its
    pivot entry when t is below the rank.  Then E is invertible and
    E m = R, R the reduced echelon form with pivot columns c_0 < c_1 < ...
    Let S put row t at row c_t.  R S is the identity on the first r = rank
    coordinates and zero past them, so R S R = R, and G = S E is a
    generalized inverse: m G m = E^-1 R S R = m.  N is read off the free
    columns of R; the rows of E past the rank are Q, because they
    annihilate m and E is invertible.  A nonsingular m gets G = m^-1 and
    empty N and Q, and the zero matrix gets G = 0.
    """
    rows, cols = m.rows, m.cols
    work = _int_rows(m)
    for i, row in enumerate(work):
        tail = [0] * rows
        tail[i] = m._den
        row.extend(tail)
    pivots = _echelon_ints(work, cols)
    r = len(pivots)
    # row t of work over its pivot entry is row t of [R | E]; scale all by den
    den, kernel = _kernel_rows(work, pivots, cols)
    g_ints = [0] * (cols * rows)
    for t, c in enumerate(pivots):
        f = den // work[t][c]
        g_ints[c * rows : (c + 1) * rows] = [f * x for x in work[t][cols:]]
    g = RatMatrix._from_ints(cols, rows, den, g_ints)
    n_t = RatMatrix._from_ints(cols - r, cols, 1, [x for v in kernel for x in v])
    q = RatMatrix._from_ints(rows - r, rows, 1, [x for row in work[r:] for x in row[cols:]])
    return g, n_t, q


def _project_out(g: RatMatrix, n_t: RatMatrix, q: RatMatrix) -> RatMatrix:
    """(I - P_N) g (I - P_Q), P_N and P_Q the orthogonal projections onto
    the row spaces of n_t and q.

    Each projection P = B' (B B')^-1 B is applied as thin products with
    one k x k Gram inverse, k the number of rows of B, and is skipped
    when k = 0.
    """
    if n_t.rows:
        n = n_t.transpose()
        g = g - n @ (inverse(n_t @ n) @ (n_t @ g))
    if q.rows:
        q_col = q.transpose()
        g = g - (g @ q_col) @ inverse(q @ q_col) @ q
    return g


def pseudoinverse(m: RatMatrix) -> RatMatrix:
    """Moore-Penrose inverse, exactly.

    For every generalized inverse G of m (m G m = m)

        pinv(m) = pinv(m) m G m pinv(m) = (I - P_N) G (I - P_Q),

    since pinv(m) m and m pinv(m) are the orthogonal projections onto the
    complements of N = ker m and Q = ker m'.  G, N and Q come from one
    Gauss-Jordan pass (``_gauss_jordan``), for every shape and order.
    """
    return _project_out(*_gauss_jordan(m))


def penrose_check(m: RatMatrix, x: RatMatrix) -> bool:
    """True iff x satisfies all four Penrose conditions for m, exactly.

    MXM = M, XMX = X, and both MX and XM symmetric.  When m and x are
    both symmetric, XM = X'M' = (MX)', so the fourth condition follows
    from the third and XM is not formed.
    """
    if x.rows != m.cols or x.cols != m.rows:
        raise ValueError(
            f"candidate must be {m.cols}x{m.rows}, got {x.rows}x{x.cols}"
        )
    mx = m @ x
    return (
        mx @ m == m
        and x @ mx == x
        and mx.is_symmetric()
        and (m.is_symmetric() and x.is_symmetric() or (x @ m).is_symmetric())
    )


def inertia(m: RatMatrix) -> InertiaTriple:
    """Exact inertia (i_plus, i_minus, i_zero) of a symmetric matrix.

    Sylvester congruence reduction (symmetric 1x1 and 2x2 pivots as in
    Bunch and Kaufman, Math. Comp. 31, 1977, done fraction-free): pivot on
    the nonzero diagonal entry p of least absolute value in the remaining
    block, the lowest index on a tie; when the whole diagonal is zero, a
    symmetric 2x2 pivot on the first nonzero off-diagonal entry (in
    row-major order) contributes one positive and one negative eigenvalue.
    A zero remaining block terminates with i_zero.  The least pivot keeps
    the entries small: on helm L at n = 101 the largest entry stays near
    24 bits, against 192 with the first nonzero diagonal entry.

    A 1x1 step takes a whole block P of diagonal pivots at once: p, then,
    in ascending (|a_jj|, j) order, each j with a_jj != 0 whose entries
    against p and against every pivot already in P are zero.  M_PP is then
    diagonal, so by Haynsworth's additivity (LAA 1, 1968) the signs of
    its entries join the inertia and the step goes on with the Schur
    complement of M_PP.  A block of one pivot is the plain 1x1 step, and a
    dense matrix, with no zero in p's column, takes only such steps.  On
    helm L, P is the hub and the pendants, so one step replaces n of them.

    The work is in integers and on the upper triangle only: the integer
    entries are m times its positive denominator, and each Schur
    complement is replaced by a positive multiple of itself (l S with
    l = lcm |d_q| over the block's pivots d_q, |b| S for a 2x2 pivot with
    off-diagonal b) divided by its content.  Positive scalings keep the
    inertia, and the pivot rule depends only on the matrix, so the same
    input always takes the same path.

    On helm L the first block's complement is the Schur chain's C, so
    this and ``schur_psd_check``'s inertia run the same kernel on the
    same matrix, reached two ways: from L's entries and from the
    closed-form blocks.  The tests' plain-``Fraction`` congruence and
    characteristic-polynomial sign count stay the kernel's independent
    checks.
    """
    if not m.is_symmetric():
        raise ValueError("inertia requires a symmetric matrix")
    return _congruence(m)


def _content(rows: list[list[int]], content: int = 0) -> int:
    """gcd(content, every entry of rows), stopping early at 1."""
    for row in rows:
        content = math.gcd(content, *row)
        if content == 1:
            break
    return content


def _congruence(m: RatMatrix, carry: bool = False) -> Union[InertiaTriple, "_Factor"]:
    """The inertia of the symmetric m; see ``inertia``.  With ``carry``,
    the factor of m (``_base_factor``) from the same pivots.

    The block is kept as its upper triangle: row i holds a_ij for j >= i,
    so its entry t is a_i(i+t) and its first entry is the diagonal.  The
    column u of the least pivot p is read from rows i < p at offset p - i
    and from row p past its diagonal; its zeros name the candidates for
    p's block.  A block of one pivot is a rank-one update of the rows
    left after slicing p's row and column out.  A larger block P, with
    pivots d_q, Q the other indices and U the block's columns restricted
    to Q, leaves l M_QQ - U diag(sgn(d_q) l/|d_q|) U' (l = lcm |d_q|), the
    product taken as one packed ``RatMatrix`` matmul.

    ``carry`` applies every row operation, with the same multipliers, to
    the rows of a transform E that starts as I, so E M E' is block
    diagonal: the pivots d, the 2x2 pivots [[0, b], [b, 0]], and a zero
    block.  In pivot order E is unit lower triangular, so a remaining
    row of E has entry 1 at its own index and is kept as its entries on
    the eliminated indices (``done``, in elimination order) times one
    common integer scale ``se``.  The kept triangle is the complement
    times nw/dw.  Each is divided by its own content after each step,
    and the scales are two integer ratios, not ``Fraction``s.  Then:

    * det M is the product of the pivots d and -b^2, or 0 with a kernel;
    * the rows of E that leave as zero rows (dropped by the 2x2 step or
      left at the end) annihilate M, and are a basis of its kernel;
    * G = F' Omega F, F the pivots' rows of E and Omega their weights
      1/d and the swapped pairs 1/b, is a symmetric generalized inverse
      (M G M = E^-1 Delta Delta^+ Delta E'^-1 = M), and M^-1 for a
      nonsingular M; it is one packed product.
    """
    e, n = m._ints, m.rows
    w = [list(e[i * n + i : (i + 1) * n]) for i in range(n)]
    i_plus = i_minus = i_zero = 0
    if carry:
        # E's remaining rows er on ``done``, their indices idx, the pivots'
        # rows (row, partner, weight numerator, weight denominator), the
        # kernel rows in full length, and det = det_num / det_den
        er: list[list[int]] = [[] for _ in range(n)]
        idx, done, factors, kernel = list(range(n)), [], [], []
        se, nw, dw, det_num, det_den = 1, m._den, 1, 1, 1

        def full(row: list[int], own: Optional[int] = None) -> list[int]:
            v = [0] * n
            for i, x in zip(done, row):
                v[i] = x
            if own is not None:
                v[own] = se
            return v

    while w:
        least = min([(abs(row[0]), i) for i, row in enumerate(w) if row[0]], default=None)
        if least is not None:
            size, p = least
            lead = w[p]
            # u: the column of p without a_pp; index j sits at j - (j > p)
            u = [row[p - i] for i, row in enumerate(w[:p])] + lead[1:]
            # the block: p, then greedily each index uncoupled from p (a zero
            # in u) and from every pivot already taken, by (|a_jj|, j)
            block = [p]
            uncoupled = [t + (t >= p) for t, x in enumerate(u) if not x]
            for _, j in sorted([(abs(w[j][0]), j) for j in uncoupled if w[j][0]]):
                if not any([w[min(j, q)][abs(j - q)] for q in block[1:]]):
                    block.append(j)
            pivots = [w[q][0] for q in block]
            for d in pivots:
                if d > 0:
                    i_plus += 1
                else:
                    i_minus += 1
            if carry:
                # 1/d_true = nw / (d dw), and F's rows are E's over se
                nb = len(block)
                for c, (q, d) in enumerate(zip(block, pivots)):
                    f = er[q] + [se if k == c else 0 for k in range(nb)]
                    factors.append((f, f, nw if d > 0 else -nw, abs(d) * dw * se * se))
                    det_num *= d * dw
                    det_den *= nw
                blk = [er[q] for q in block]
                done += [idx[q] for q in block]
            if len(block) == 1:
                # |d| S = |d| W - sgn(d) u u'
                su = u if lead[0] > 0 else [-x for x in u]
                rows = [row[: p - i] + row[p - i + 1 :] for i, row in enumerate(w[:p])] + w[p + 1 :]
                w = [
                    [size * x - s * y for x, y in zip(row, u[k:])] if s else [size * x for x in row]
                    for k, (row, s) in enumerate(zip(rows, su))
                ]
                if carry:
                    # |d| E_i - sgn(d) u_i E_p
                    f = factors[-1][0]
                    er = [
                        [size * x - s * y for x, y in zip(row, f)] + [-s * se]
                        for row, s in zip(er[:p] + er[p + 1 :], su)
                    ]
                    del idx[p]
            else:
                # l S = l W_QQ - U diag(l // d_q) U' for l = lcm |d_q|, U the
                # block's columns on the rest Q; d_q divides l, so l // d_q is
                # sgn(d_q) l/|d_q| exactly
                chosen = set(block)
                rest = [i for i in range(len(w)) if i not in chosen]
                size = math.lcm(*pivots)
                ut = [[u[i - (i > p)] for i in rest]] + [
                    [w[i][q - i] if i < q else w[q][i - q] for i in rest] for q in block[1:]
                ]
                nb, nr = len(block), len(rest)
                weights = [size // d for d in pivots]
                scaled = RatMatrix._from_ints(
                    nr, nb, 1, [c * x for row in zip(*ut) for c, x in zip(weights, row)]
                )
                if rest:
                    packed = RatMatrix._from_ints(nb, nr, 1, [x for col in ut for x in col])
                    update = (scaled @ packed)._ints
                    w = [
                        [
                            size * w[i][j - i] - y
                            for j, y in zip(rest[k:], update[k * (nr + 1) : (k + 1) * nr])
                        ]
                        for k, i in enumerate(rest)
                    ]
                else:
                    w = []
                if carry:
                    # l E_Q - U diag(l // d_q) E_P; E_P is blk on ``done``
                    # and se I on the block's own indices
                    nd, sc = len(done) - nb, scaled._ints
                    if nd and rest:
                        rows_p = RatMatrix._from_ints(nb, nd, 1, [x for row in blk for x in row])
                        update = (scaled @ rows_p)._ints
                    else:
                        update = [0] * (nr * nd)
                    er = [
                        [size * x - y for x, y in zip(er[i], update[k * nd : (k + 1) * nd])]
                        + [-se * c for c in sc[k * nb : (k + 1) * nb]]
                        for k, i in enumerate(rest)
                    ]
                    idx = [idx[i] for i in rest]
        else:
            # the whole diagonal is zero, so the rows before the first
            # nonzero one are zero rows and columns: zero eigenvalues
            p = next((i for i, row in enumerate(w) if any(row)), None)
            if p is None:
                break
            i_zero += p
            w = w[p:]
            q = next(t for t, x in enumerate(w[0]) if x)
            b = w[0][q]
            # |b| S = |b| W - sgn(b) (u v' + v u'), u and v the columns of 0 and q
            size = abs(b)
            u = w[0][1:q] + w[0][q + 1 :]
            v = [row[q - i] for i, row in enumerate(w[1:q], 1)] + w[q][1:]
            su, sv = (u, v) if b > 0 else ([-x for x in u], [-x for x in v])
            rows = [row[: q - i] + row[q - i + 1 :] for i, row in enumerate(w[1:q], 1)] + w[q + 1 :]
            w = [
                [size * x - s * y - t * z for x, y, z in zip(row, v[k:], u[k:])]
                for k, (row, s, t) in enumerate(zip(rows, su, sv))
            ]
            i_plus += 1
            i_minus += 1
            if carry:
                kernel += [full(row, own) for row, own in zip(er[:p], idx[:p])]
                er, idx = er[p:], idx[p:]
                # 1/b_true = nw / (b dw), and det [[0, b], [b, 0]] = -b^2
                f0, fq = er[0] + [se, 0], er[q] + [0, se]
                weight = (nw if b > 0 else -nw, size * dw * se * se)
                factors += [(f0, fq, *weight), (fq, f0, *weight)]
                det_num *= -((b * dw) ** 2)
                det_den *= nw * nw
                done += [idx[0], idx[q]]
                # |b| E_i - sgn(b) (v_i E_0 + u_i E_q)
                er = [
                    [size * x - s * y - r * z for x, y, z in zip(row, f0, fq)] + [-s * se, -r * se]
                    for row, s, r in zip(er[1:q] + er[q + 1 :], sv, su)
                ]
                idx = idx[1:q] + idx[q + 1 :]
        content = _content(w)
        if content > 1:
            w = [[x // content for x in row] for row in w]
        if carry:
            nw, dw = nw * size, dw * max(content, 1)
            g = math.gcd(nw, dw)
            nw, dw = nw // g, dw // g
            se *= size
            content = _content(er, se)
            if content > 1:
                er = [[x // content for x in row] for row in er]
                se //= content
    tri = InertiaTriple(i_plus, i_minus, i_zero + len(w))
    if not carry:
        return tri
    kernel += [full(row, own) for row, own in zip(er, idx)]
    kernel = [[x // c for x in v] for v in kernel for c in [math.gcd(*v)]]
    return _Factor(
        tri,
        _ZERO if kernel else Fraction(det_num, det_den),
        _weighted_gram(n, [(full(f), full(g), a, b) for f, g, a, b in factors]),
        RatMatrix._from_ints(len(kernel), n, 1, [x for v in kernel for x in v]),
    )


# -- Schur-complement recursion for symmetric matrices --------------------------

# Symmetric matrices of this order or less are factored by the base pass
# (the congruence with its row transform); larger ones are split in two.
# On a 2-vCPU x86_64 VM (Python 3.11), factor_symmetric took 4.4-4.7 ms of
# `verify --n 21` for every cutoff from 8 to 32, 27.9-29.1 ms of
# `verify --n 61` and 9.9-11.2 ms of a sweep of n = 4..13 for cutoffs 8
# to 24, and 33.0 and 11.6 ms at 32 (min of 15 interleaved rounds).
_SCHUR_CUTOFF = 16


class _Factor(NamedTuple):
    inertia: InertiaTriple
    det: Fraction
    ginv: RatMatrix  # a symmetric generalized inverse
    kernel: RatMatrix  # its rows are a basis of the kernel


def _base_factor(m: RatMatrix) -> _Factor:
    """The factor of m from one congruence pass that carries its row
    transform (``_congruence``)."""
    return _congruence(m, carry=True)


def _weighted_gram(n: int, terms: list[tuple[list[int], list[int], int, int]]) -> RatMatrix:
    """sum (a/b) f' g over the terms (f, g, a, b), b > 0, of integer rows of
    length n, as one packed product F' (Omega G)."""
    if not terms:
        return RatMatrix.zeros(n, n)
    terms = [(f, g, a // c, b // c) for f, g, a, b in terms for c in [math.gcd(a, b)]]
    den = math.lcm(*[b for *_, b in terms])
    left = RatMatrix._from_ints(len(terms), n, 1, [x for f, *_ in terms for x in f])
    right = [x * a * (den // b) for _, g, a, b in terms for x in g]
    return left.transpose() @ RatMatrix._from_ints(len(terms), n, den, right)


def _schur_split(m: RatMatrix) -> Optional[_Factor]:
    """The factor of m from its split into a leading and a trailing half
    of its indices; None when the leading block is singular.

    The indices are taken in one order that depends only on m: those with
    a nonzero diagonal entry, then the other indices of nonzero rows, then
    those of zero rows (which make every principal block holding them
    singular, so they never lead), each group ascending.
    """
    e, size = m._ints, m.rows
    order = sorted(
        range(size),
        key=lambda i: (not e[i * (size + 1)]) + (not any(e[i * size : (i + 1) * size])),
    )
    lead, rest = order[: size // 2], order[size // 2 :]
    fa = _factor(m.submatrix(lead, lead))
    if fa.inertia.i_zero:
        return None
    b = m.submatrix(lead, rest)
    y = fa.ginv @ b
    fs = _factor(m.submatrix(rest, rest) - b.transpose() @ y)
    z = y @ fs.ginv
    ginv = RatMatrix.from_blocks([[fa.ginv + z @ y.transpose(), -z], [-z.transpose(), fs.ginv]])
    kernel = fs.kernel
    if kernel.rows:
        kernel = RatMatrix.from_blocks([[-(kernel @ y.transpose()), kernel]])
    else:
        kernel = RatMatrix.zeros(0, size)
    if order != list(range(size)):
        back = sorted(range(size), key=order.__getitem__)  # the inverse permutation
        ginv = ginv.submatrix(back, back)
        kernel = kernel.submatrix(range(kernel.rows), back)
    tri = InertiaTriple(*[a + s for a, s in zip(fa.inertia, fs.inertia)])
    return _Factor(tri, fa.det * fs.det, ginv, kernel)


def _factor(m: RatMatrix) -> _Factor:
    if m.rows > _SCHUR_CUTOFF:
        f = _schur_split(m)
        if f is not None:
            return f
    return _base_factor(m)


def _project_out_symmetric(g: RatMatrix, n_t: RatMatrix) -> RatMatrix:
    """(I - P) g (I - P) for a symmetric g, P the orthogonal projection
    onto the row space of n_t; equal to ``_project_out(g, n_t, n_t)``.

    With N = n_t, H = g N', C = (N N')^-1, W = H C and T = C (N W),
    (I - P) g (I - P) = g - P g - g P + P g P = g - U N - (U N)' for
    U = W - N' T / 2 (g P = W N, P g = (g P)' and P g P = N' T N), so it
    takes one thin product g N', one k x k Gram inverse and one rank-k
    update, k the number of rows of n_t.
    """
    if not n_t.rows:
        return g
    n = n_t.transpose()
    h = g @ n
    c = inverse(n_t @ n)
    w = h @ c
    u = w - Fraction(1, 2) * (n @ (c @ (n_t @ w)))
    un = u @ n_t
    return g - un - un.transpose()


def factor_symmetric(m: RatMatrix) -> tuple[InertiaTriple, Fraction, RatMatrix]:
    """(inertia, determinant, Moore-Penrose inverse) of a symmetric m, from
    one factorization (see the module docstring)."""
    if not m.is_symmetric():
        raise ValueError("factor_symmetric requires a symmetric matrix")
    f = _factor(m)
    return f.inertia, f.det, _project_out_symmetric(f.ginv, f.kernel)
