"""When is a Moore-Penrose inverse of the form -L/2 + alpha ww'?

This module packages the machinery around that question for symmetric
matrices: the certificate for a candidate triple and a claimed kernel
basis (equiv formulation: D w = e/alpha, which also puts e in the
range, the kernel's matrix-vector products and W = 2 P_K, which
together prove the four Penrose conditions), the one square product it
needs (W = L D + 2I - 2we'), constructive uniqueness of the triple, the
six block conditions that pin down the bordered matrix L for helm
distance matrices, the closed-form kernel projector V, and exact
positive-semidefiniteness / rank checks for L via a Schur complement
chain decided by the trace-form inertia of one symmetric circulant
(cyclotomic.circulant_inertia), and the rank-one modification lemma.

Each identity is checked once: no function runs an oracle whose answer
another check of the same report already implies.  The Penrose
conditions are proved only by check_equiv_formulation, with no square
product of its own: its one square product, L D inside W, is built
once (correction_matrix) and shared with the report's kernel_projector
check, W = V.  The ranks come from the caller (read off inertias), and
rank(X) is not recomputed: the report's closed-form check proves
X = pinv(D).  Every function here holds for both parities: for even n,
D is nonsingular, pinv(D) = D^-1, the kernel basis is empty and the
kernel projector is zero.

Every function takes objects built once by the caller (the distance
matrix, a closed_form.HelmCase, a Decomposition, ranks already
computed) and rebuilds none of them from n.  Everything here is exact;
positive semidefiniteness in particular is decided by rational inertia,
never by floating-point eigenvalues: the signs of a circulant's
eigenvalues come from small rational trace forms, not from cosines.

The circulant block identities are proved on specs.  The rim and
coupling blocks A and B are held as circulants (closed_form.HelmCase),
and so is S, so the six conditions take them as they are and refuse any
other type.

The certificate runs on one of two routes, with one operator code.  Its
operands D, L, X and W are either all dense RatMatrix or all
circulant.Bordered elements, and the checks use only what both types
have: +, -, scalar *, @, ==, is_symmetric and the matrix-vector product
_mat_vec; mixed operands raise TypeError.  The report decides the route
once, at set-up.  When D and L lift (circulant.lift, which returns the
element read off m only when its dense() equals m) and w is constant on
the rim and on the pendants, as for every helm, D, L and
X = -L/2 + alpha ww' (candidate_element) are elements, and so are W, V
and 2 P_K.  A check is then O(n) integer work: a product of two
elements is eight packed cyclic convolutions, a matrix-vector product
is spec sums or packed correlations, and == compares 4n+1 integers.
Otherwise every operand stays dense: an L or D perturbed off the
bordered shape, a w that is not block-constant, and the trees and
generic matrices of the tests.  On elements 2 P_K is built from the
kernel basis, and is None when it is not bordered: such a 2 P_K never
equals the bordered W, as the dense comparison would find.  The Schur
chain takes L's element whichever route the certificate takes, and
fails an L without it.

The rank-one corrections are built on integer entries over one
denominator: X and W as the integers of -L/2 + alpha ww' and
L D + 2I - 2we' (on elements, ww' and we' are bordered for a
block-constant w; densely, one exact_core._rank_update of the integer
rows), and 2 P_K from the integer outer products of a fraction-free
Gram-Schmidt basis of the kernel vectors.  The certificate's
D w = e/alpha, D u = 0 and X u = 0, check_uniqueness's X e and the six
conditions' row sums (spec sums) are integer sums compared as integers,
with no Fraction per entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

from .circulant import Bordered, Circulant, _convolution_sum
from .closed_form import HelmCase
from .cyclotomic import circulant_inertia, symmetric_blocks
from .exact_core import (
    Decomposition,
    RatMatrix,
    Scalar,
    Vector,
    VerificationError,
    _common_denominator,
    _fractions,
    _from_int_rows,
    _int_rows,
    _kronecker,
    _orthogonal_rows,
    _rank_update,
)

# An operand of the certificate: dense, or a bordered element on the
# element route.
Operand = Union[RatMatrix, Bordered]


class SixConditions(NamedTuple):
    """Outcome of the six exact block conditions on (A, B, S).

    In order: A e = (3/2) e;  B e = -e;  B S = -S;  (B + I) A = 0;
    (B + I) B = 0;  (A + B) S + 2 B = 0.
    """

    a_row_sum: bool
    b_row_sum: bool
    b_absorbs_s: bool
    a_annihilated: bool
    b_annihilated: bool
    s_balance: bool


def _order(m) -> int:
    """The order of a square RatMatrix or of a Bordered element."""
    return m.order if type(m) is Bordered else m.rows


def _block_constant(w: Sequence[Scalar]) -> Optional[tuple[int, list[int]]]:
    """(c, [v0, v1, v2]) with w = (v0, v1 e', v2 e')'/c over integers, for
    w of the order 2k+1 >= 3 of a Bordered element, or None when w is not
    constant on the rim (entries 1..k) and on the pendants (k+1..2k)."""
    k = (len(w) - 1) // 2
    rim, pendants = w[1 : k + 1], w[k + 1 :]
    if rim.count(rim[0]) != k or pendants.count(pendants[0]) != k:
        return None
    return _common_denominator([w[0], rim[0], pendants[0]])


def _outer_ints(x: Sequence[int], y: Sequence[int], k: int) -> list[int]:
    """The integers (h, r1, r2, c1, c2, p, q, r, t) of the Bordered element
    x y' for x = (x0, x1 e', x2 e')' and y = (y0, y1 e', y2 e')': every
    block is a multiple of J, whose spec is all ones."""
    (x0, x1, x2), (y0, y1, y2) = x, y
    return [x0 * y0, x0 * y1, x0 * y2, x1 * y0, x2 * y0] + [x1 * y1] * k + [x1 * y2] * k + [x2 * y1] * k + [x2 * y2] * k


def candidate_element(lap: Bordered, dec: Decomposition) -> Optional[Bordered]:
    """X = -L/2 + alpha ww' as a Bordered element, or None.

    lap is L's element, lift(dec.laplacian_like), and w and alpha are
    dec's.  For a w constant on the rim and on the pendants, ww' is
    bordered too, so X is: with L = A/l, w = v/c and alpha = a/b over
    integers, X = (-b c^2 A + 2 l a vv')/(2 l b c^2) on the element's
    integers, as Decomposition.candidate builds it densely.  For any
    other w, ww' and so X are not bordered, and None comes back: the
    report then keeps every operand dense.  An element of another order
    than w raises ValueError.
    """
    if lap.order != len(dec.w):
        raise ValueError(f"element of order {lap.order} against w of length {len(dec.w)}")
    blocks = _block_constant(dec.w)
    if blocks is None:
        return None
    (c, v), a, b, l = blocks, dec.alpha.numerator, dec.alpha.denominator, lap._den
    k = (lap.order - 1) // 2
    ints = [-b * c * c * x + 2 * l * a * o for x, o in zip(lap._ints, _outer_ints(v, v, k))]
    return Bordered._reduced(2 * l * b * c * c, ints)


def correction_matrix(d: Operand, lap: Operand, w: Vector) -> Operand:
    """W = L D + 2I - 2we', for D and L both dense or both bordered elements.

    The one square product of the Penrose certificate: D w = e/alpha turns
    it into 2(I - X D) (check_equiv_formulation), and the report's
    kernel_projector check compares it with the closed-form V
    (build_kernel_projector).  The report builds it once for both.  With
    L D = P/p and w = v/c over integers, W = (c P - 2p v e' + 2pc I)/(pc).
    On elements (lap = lift(L), d = lift(D)) P is the element product,
    eight packed cyclic convolutions, and ve' is the bordered
    Bordered(v0, (v0, v0), (v1, v2), (v1 J, v1 J, v2 J, v2 J)), so W is
    an element built on P's integers: w must then be constant on the rim
    and on the pendants, else ValueError.  On dense matrices it is the
    dense product, one rank-one update of P's rows, then the diagonal.
    Mixed operands raise TypeError, as their product does.
    """
    ld = lap @ d
    p = ld._den
    if type(ld) is RatMatrix:
        c, v = _common_denominator(w)
        rows = _rank_update(c, _int_rows(ld), [[2 * p * x for x in v]], [[1] * ld.cols])
        for i, row in enumerate(rows):
            row[i] += 2 * p * c
        return _from_int_rows(rows, ld.cols, p * c)
    blocks = _block_constant(w) if len(w) == ld.order else None
    if blocks is None:
        raise ValueError("a bordered W needs w of its order, constant on the rim and on the pendants")
    (c, v), k = blocks, (ld.order - 1) // 2
    ints = [c * x - 2 * p * o for x, o in zip(ld._ints, _outer_ints(v, (1, 1, 1), k))]
    for i in (0, 5, 5 + 3 * k):  # the hub and the diagonals of P and T
        ints[i] += 2 * p * c
    return Bordered._reduced(p * c, ints)


def _kernel_basis(kernel: Sequence[Vector], order: int) -> list[tuple[list[int], int]]:
    """Pairs (q_i, c_i = q_i'q_i): an orthogonal integer basis of the span
    of the kernel vectors, by fraction-free Gram-Schmidt
    (``_orthogonal_rows``) on their integer numerators.  Raises
    ValueError for a vector of another length or for linearly dependent
    vectors."""
    for u in kernel:
        if len(u) != order:
            raise ValueError(f"kernel vector of length {len(u)} against order {order}")
    return _orthogonal_rows([_common_denominator(u)[1] for u in kernel])


def _twice_projector(basis: Sequence[tuple[list[int], int]], order: int) -> RatMatrix:
    """2 P_K = 2 K'(K K')^-1 K, K the matrix with the kernel vectors as rows.

    On the orthogonal basis (q_i, c_i) of _kernel_basis(kernel, order),
    2 P_K = sum 2 q_i q_i'/c_i needs no Gram inverse: over l = lcm c_i it
    is the sum of the integer outer products (2 l/c_i) q_i q_i', and the
    zero matrix for no vector.  Each q_i is packed into one int with one
    slot per entry (exact_core._kronecker), so row j of the sum is one
    small multiple of each packed q_i.
    """
    if not basis:
        return RatMatrix.zeros(order, order)
    den = math.lcm(*[c for _, c in basis])
    terms = [(2 * (den // c), q) for q, c in basis]
    # row i is sum s q_i q over the terms (s, q): each q one packed int
    pack, unpack = _kronecker(sum([s * max(map(abs, q)) ** 2 for s, q in terms]))
    packed = pack([x for _, q in terms for x in q], order)
    rows = [sum([s * q[i] * p for (s, q), p in zip(terms, packed)]) for i in range(order)]
    return RatMatrix._from_ints(order, order, den, unpack(rows, order))


def _bordered_projector(basis: Sequence[tuple[list[int], int]], order: int) -> Optional[Bordered]:
    """2 P_K as a Bordered element of odd order 2k+1 >= 3, or None when it
    is not one: lift(_twice_projector(basis, order)), in O(order) work
    per pair of basis vectors (q_i, c_i) of _kernel_basis.

    The elements are the matrices M that commute with the permutation R
    fixing the hub and turning the rim and the pendants one step:
    M_(Ra)(Rb) = M_ab makes the borders constant and the blocks
    circulant, and conversely.  An orthogonal projector commutes with the
    orthogonal R exactly when R maps its range into itself.  So each
    basis vector q is turned one step, and R q must
    equal its projection onto the span: over l = lcm c_i,
    l R q = sum (l/c_i)(q_i'R q) q_i.  A span that passes has a bordered
    2 P_K = sum (2 l/c_i) q_i q_i' / l, read off its hub row, first rim
    row and first pendant row, like lift.  A single q q' need not be
    bordered when the sum is: two rational vectors spanning a pair of
    Fourier modes are turned into each other.  No vector gives the zero
    element.
    """
    k = (order - 1) // 2
    den = math.lcm(1, *[c for _, c in basis])
    for q, _ in basis:
        turned = [q[0], q[k], *q[1:k], q[2 * k], *q[k + 1 : 2 * k]]
        image = [0] * order
        for p, c in basis:
            s = den // c * sum(map(mul, p, turned))
            image = [x + s * y for x, y in zip(image, p)]
        if image != [den * x for x in turned]:
            return None
    hub, rim, pendant = rows = [[0] * order for _ in range(3)]
    for q, c in basis:
        for row, i in zip(rows, (0, 1, k + 1)):
            f = 2 * (den // c) * q[i]
            row[:] = [x + f * y for x, y in zip(row, q)]
    scalars = [hub[0], hub[1], hub[k + 1], rim[0], pendant[0]]
    return Bordered._reduced(den, scalars + rim[1:] + pendant[1:])


def check_equiv_formulation(
    d: Operand, x: Operand, dec: Decomposition, kernel: Sequence[Vector], correction: Operand
) -> bool:
    """Certify X = -L/2 + alpha ww' as the Moore-Penrose inverse of d, given a kernel basis.

    d, x and correction are D, X and W = L D + 2I - 2we'
    (correction_matrix), all three dense or all three bordered elements
    (else TypeError); x is dec.candidate or its element
    (candidate_element), and w and alpha are dec's.  kernel holds
    linearly independent vectors claimed to span ker D (K the matrix
    with them as rows).  Requires d symmetric; a d that is not, a
    decomposition or kernel vector of another order, or dependent kernel
    vectors raise ValueError.  Returns True iff

        D w = e/alpha,  D u = 0 and X u = 0 for each u in kernel,
        and W = 2 P_K,  P_K = K'(K K')^-1 K,

    which prove the four Penrose conditions for the symmetric D and X:

    * D w = e/alpha gives X D = -L D/2 + alpha w (D w)' = -L D/2 + w e'
      = I - W/2;
    * so W = 2 P_K gives X D = I - P_K, which is symmetric, and so is
      D X = (X D)';
    * D K' = 0 gives D X D = D - D K'(K K')^-1 K = D;
    * X K' = 0 gives X D X = X - K'(K K')^-1 (X K')' = X.

    A K that spans less than ker D fails W = 2 P_K: rank(I - P_K) would
    exceed rank D >= rank(X D).  D w = e/alpha also proves the
    characterization's hypothesis that the all-ones vector lies in the
    range of D; a d without e in its range fails it and gets False.  Past
    the product inside W, every step is a matrix-vector product or a
    comparison, and the kernel vectors are read once, as the orthogonal
    integer basis of their span that 2 P_K is built from: on elements, the
    products are spec sums or packed correlations, and 2 P_K is built as
    an element (_bordered_projector).  The comparison with the
    pseudoinverse is the caller's oracle check.
    """
    if not type(d) is type(x) is type(correction):
        raise TypeError("D, X and W must be all dense or all bordered elements")
    if not d.is_symmetric():
        raise ValueError("characterization applies to symmetric matrices")
    order = _order(d)
    if len(dec.w) != order:
        raise ValueError(f"decomposition of order {len(dec.w)} against {order}")
    basis = _kernel_basis(kernel, order)
    projector = (_bordered_projector if type(d) is Bordered else _twice_projector)(basis, order)
    # D w = e/alpha: with D w = s/den and alpha = a/b, every s a = den b
    sums, den = d._mat_vec(dec.w)
    a, b = dec.alpha.numerator, dec.alpha.denominator
    if any(s * a != den * b for s in sums):
        return False
    # D u = 0 and X u = 0 for the kernel vectors u, tested on the integer
    # basis q of their span
    if any(any(d._mat_vec(q)[0]) or any(x._mat_vec(q)[0]) for q, _ in basis):
        return False
    return correction == projector


def check_uniqueness(x: Operand, dec: Decomposition) -> tuple[Fraction, Vector]:
    """Recover (alpha, w) from the candidate matrix alone.

    x is X = -L/2 + alpha ww', dec.candidate or its element
    (candidate_element).  Zero row sums of L give X e = alpha w and
    e' X e = alpha, so the triple is pinned down by X.  The recovered
    values must match dec's fields exactly; a mismatch (or a candidate
    with e'Xe = 0) raises ValueError, and so does an x of another order.
    """
    order = _order(x)
    if len(dec.w) != order:
        raise ValueError(f"decomposition of order {len(dec.w)} against {order}")
    # X e = s/den over integers, so alpha = e'Xe = (e's)/den and w = s/(e's)
    sums, den = x._mat_vec((1,) * order)
    total = sum(sums)
    if total == 0:
        raise ValueError("candidate has e'Xe = 0; no scale recoverable")
    alpha, w = Fraction(total, den), _fractions(sums, total)
    if alpha != dec.alpha or w != dec.w:
        raise ValueError("recovered (alpha, w) differ from the stored fields")
    return alpha, w


def check_conditions_i_vi(a: Circulant, b: Circulant, s: Circulant) -> SixConditions:
    """Evaluate the six exact block conditions on the circulants (A, B, S).

    A and B are the rim and coupling blocks of the bordered matrix
    (B = -I in the even case), S the rim cycle's signless Laplacian, each
    a circulant.Circulant: the conditions are spec identities, and the
    spectra below hold only for circulants.  Any other type raises
    TypeError, circulants of unequal orders ValueError.

    For odd n, conditions (iii), (v) and (vi) and four more identities
    fix the three spectra exactly; ``helmlab eig`` checks each one.  Let
    k = n - 1, v the alternating vector, and s_j, b_j, a_j the eigenvalues
    of S, B, A on the Fourier vector f_j = (r^(ij))_i, r = exp(2 pi i/k),
    an eigenvector of every circulant of order k; v = f_(k/2).
    S: S = 2I + C, C the rim cycle's adjacency read off the graph, with
       eigenvalues r^j + r^-j, so s_j = 4cos^2(pi j/k), zero only at k/2.
    B: condition (v), (B + I) B = 0, puts each b_j in {0, -1}.  B v = 0
       gives b_(k/2) = 0, and trace B = 2 - n = -(k - 1) leaves room for
       no other zero, so b_j = -1 for j != k/2.
    A: (iii) and (vi) give A S = -B S - 2B = S - 2B, so (a_j - 1) s_j =
       -2 b_j: a_j = 1 + 2/s_j = 1 + 1/(2cos^2(pi j/k)) for j != k/2,
       which is 3/2 at j = 0.  A v = 0 gives a_(k/2) = 0.
    """
    if not all(type(m) is Circulant for m in (a, b, s)):
        raise TypeError("A, B and S must be Circulants")
    # a circulant's row sums are its spec sum: with spec ints over den,
    # A e = (3/2) e reads 2 sum = 3 den; (B + I) X = B X + X
    return SixConditions(
        a_row_sum=2 * sum(a._ints) == 3 * a._den,
        b_row_sum=sum(b._ints) == -b._den,
        b_absorbs_s=b @ s == -s,
        a_annihilated=(b @ a + a).is_zero(),
        b_annihilated=(b @ b + b).is_zero(),
        s_balance=((a + b) @ s + 2 * b).is_zero(),
    )


def build_kernel_projector(case: HelmCase) -> Bordered:
    """Twice the orthogonal projector onto the kernel of D, either parity,
    as a Bordered element.

    The element with 2(B + I) on the rim and zeros elsewhere, B the
    case's coupling block: 2vv'/(n-1) on the rim for odd n, v the
    alternating vector, and the zero element for even n, where B = -I.
    The report checks only L D + 2I - 2we' = V.  Once equiv_formulation
    passes (D w = e/alpha, and X = -L/2 + alpha ww' is the MP inverse),
    that says V = 2(I - X D), so D V = 0, V is symmetric and V X = 0;
    V e = alpha V D w = 0; X e = alpha w (L e = 0 and e'w = 1) gives
    V w = 0; and V L = 2 alpha (V w) w' - 2 V X = 0.  This V is built
    from L's coupling spec, while equiv_formulation's 2 P_K is built from
    the closed-form kernel basis (HelmVectors.kernel); both are compared
    with the same W.  It is built from B's integer spec over B's own
    denominator; the report takes its dense() only on the dense route.
    """
    b = case.coupling_block
    rim = [2 * x for x in b._ints]
    rim[0] += 2 * b._den
    return Bordered._reduced(b._den, [0] * 5 + rim + [0] * (3 * len(rim)))


def schur_psd_check(lap: Optional[Bordered], case: HelmCase) -> bool:
    """Exact positive-semidefiniteness check of a bordered matrix L of case's shape.

    lap is L's bordered element, lift(L) (circulant.lift), of order 2n-1;
    another order raises ValueError.  It must be symmetric with symmetric
    blocks (cyclotomic.symmetric_blocks), [[c, b'], [b, T]] with a
    positive corner c, and eliminating c must leave exactly

        [ A - J/(2(n-1))   B ]
        [ B                I ]

    with A, B the case's circulant rim and coupling blocks.  L's first
    complement T - b b'/c keeps the circulant blocks: with b = (b1 e,
    b2 e), block (i, j) is T_ij - (b_i b_j/c) J.  Its identity block needs no inverse,
    so eliminating it leaves A - J/(2(n-1)) - B^2, which must equal
    A + B - J/(2(n-1)) exactly (this encodes B^2 = -B).  By Haynsworth's
    inertia additivity the first complement has the identity's inertia
    plus the second's, and L has the corner's plus the first
    complement's, so the one inertia of the second complement, a
    symmetric circulant, decides: L is PSD iff it has no negative
    inertia.  That inertia is read off the circulant's cyclotomic trace
    forms (cyclotomic.circulant_inertia), with no dense matrix.  Returns
    that conjunction.  The chain is taken on the forms only: an L that
    does not lift (lap is None) or has a non-symmetric block fails it.

    The chain runs on integers.  With L's element the integers
    (h, b1, b2, b1, b2, p, q, q, t) over den, block (i, j) of the first
    complement has the spec (h s - b_i b_j)/(den h), s the block's spec,
    and is compared with the integers x/E of its target (A - J/(2(n-1)),
    B or I) by cross-multiplication, (h s - b_i b_j) E = x den h; block
    (1, 0) equals block (0, 1).  B^2 = -B is one packed convolution of
    B's integer spec with itself against -E_B times it, and C = A + B -
    J/(2(n-1)) goes to circulant_inertia as the integer spec of a
    positive multiple of C, which has C's inertia.
    """
    n = case.n
    if lap is None:
        return False
    if lap.order != 2 * n - 1:
        raise ValueError(f"expected order {2 * n - 1}, got {lap.order}")
    h, b1, b2 = lap._ints[:3]
    if not symmetric_blocks(lap) or h <= 0:
        return False
    k, a, b = n - 1, case.rim_block, case.coupling_block
    rim, rim_den = [2 * k * x - a._den for x in a._ints], 2 * k * a._den  # A - J/(2k)
    scale = lap._den * h
    p, q, _, t = lap._specs()
    for spec, shift, target, den in (
        (p, b1 * b1, rim, rim_den),
        (q, b1 * b2, b._ints, b._den),
        (t, b2 * b2, (1,) + (0,) * (k - 1), 1),
    ):
        if [(h * s - shift) * den for s in spec] != [x * scale for x in target]:
            return False
    # the second complement, rim - B B, must be rim + B
    (square,) = _convolution_sum([[(b._ints, b._ints)]])
    if square != [-b._den * x for x in b._ints]:
        return False
    second = [x * b._den + y * rim_den for x, y in zip(rim, b._ints)]
    return circulant_inertia(Circulant._canonical(1, second)).i_minus == 0


def rank_l_check(rank_d: int, rank_l: int) -> int:
    """Rank of the bordered matrix L, with the mechanism behind it.

    rank_d and rank_l are the ranks of D and of the L of the report's
    Decomposition X = -L/2 + alpha ww'.
    Verifies that adding the rank-one term alpha ww' to -L/2 raises the
    rank by exactly one.  The rank of X = -L/2 + alpha ww' is not
    recomputed here: this leans on the report's closed-form check, which
    proves X equal to the pseudoinverse of D, so that
    rank(X) = rank(D) and rank_d == rank_l + 1 alone is the test.  L is
    symmetric (the Decomposition enforces it) and alpha is nonzero, so by
    the rank-one modification lemma (Meyer 1973, SIAM J. Appl. Math. 24)
    rank(X) = rank(L) + 1 holds exactly when w is not in the range of L:
    the rank check also proves that L z = w is inconsistent.  Returns
    rank(L), which equals 2n - 3 for odd n and 2n - 2 for even n.
    """
    if rank_d != rank_l + 1:
        raise VerificationError("rank of the distance matrix is not rank(L) + 1")
    return rank_l
