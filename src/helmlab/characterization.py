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
chain with one congruence inertia, and the rank-one modification lemma.

Each identity is checked once: no function runs an oracle whose answer
another check of the same report already implies.  The Penrose
conditions are proved only by check_equiv_formulation, with no product
of order 2n-1 of its own: its one square product, L D inside W, is built
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
never by floating-point eigenvalues.

The circulant block identities are proved on specs.  The rim and
coupling blocks A and B are held as circulants (closed_form.HelmCase),
and so is S, so the six conditions take them as they are and refuse any
other type.  L and D stay dense, since the oracles read them, and the
two checks that multiply them lift them to bordered elements
(circulant.lift), which returns the elements only after an entrywise
comparison proves each matrix equal to its element.  The checks run the
same operator code (+, -, scalar *, @, ==, is_zero) on the elements: a
product of two circulants of order k is one packed cyclic convolution,
a single big-int product of two k-slot ints, where the dense packed
product takes k^2 multiply-adds of k-slot ints.  An L or D that does
not lift, such as one perturbed off the bordered shape, stays dense in
L D; the Schur chain needs the form, and fails an L without it.

The rank-one corrections are built on integer entries over one
denominator, each as one exact_core._rank_update of integer rows: W from
the rows of L D plus its diagonal, and 2 P_K from a fraction-free
Gram-Schmidt basis of the kernel vectors.  The certificate's
D w = e/alpha, D u = 0 and X u = 0, check_uniqueness's X e and the six
conditions' row sums (spec sums) are integer sums compared as integers,
with no Fraction per entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .circulant import Bordered, Circulant, bordered_circulant, lift
from .closed_form import HelmCase
from .exact_core import (
    Decomposition,
    RatMatrix,
    Vector,
    VerificationError,
    _common_denominator,
    _fractions,
    _from_int_rows,
    _int_rows,
    _mat_vec,
    _orthogonal_rows,
    _rank_update,
    _row_sums,
    inertia,
)


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


def correction_matrix(d: RatMatrix, dec: Decomposition) -> RatMatrix:
    """W = L D + 2I - 2we', with L and w those of dec.

    The one square product of the Penrose certificate: D w = e/alpha turns
    it into 2(I - X D) (check_equiv_formulation), and the report's
    kernel_projector check compares it with the closed-form V
    (build_kernel_projector).  The report builds it once for both.  L D
    is taken on specs when L and D lift to bordered elements (for a helm
    they do) and densified once, else as a dense product.
    With L D = P/p and w = v/c over integers,
    W = (c P - 2p v e' + 2pc I)/(pc): one rank-one update of P's rows,
    then the diagonal.
    """
    lifted = lift(Bordered, dec.laplacian_like, d)
    if lifted:
        lap, dist = lifted
        ld = (lap @ dist).dense()
    else:
        ld = dec.laplacian_like @ d
    c, v = _common_denominator(dec.w)
    p = ld._den
    rows = _rank_update(c, _int_rows(ld), [[2 * p * x for x in v]], [[1] * ld.cols])
    for i, row in enumerate(rows):
        row[i] += 2 * p * c
    return _from_int_rows(rows, ld.cols, p * c)


def _twice_projector(kernel: Sequence[Vector], order: int) -> RatMatrix:
    """2 P_K = 2 K'(K K')^-1 K, K the matrix with the kernel vectors as rows.

    Fraction-free Gram-Schmidt (``_orthogonal_rows``) turns the vectors'
    integer numerators into an orthogonal integer basis q_1, q_2, ... of
    their span, so that 2 P_K = sum 2 q_i q_i'/c_i, c_i = q_i'q_i, needs
    no Gram inverse: over l = lcm c_i it is one ``_rank_update`` of the
    zero matrix, and the zero matrix for no vector.  Raises ValueError
    for a vector of another length or for linearly dependent vectors.
    """
    for u in kernel:
        if len(u) != order:
            raise ValueError(f"kernel vector of length {len(u)} against order {order}")
    basis = _orthogonal_rows([_common_denominator(u)[1] for u in kernel])
    if not basis:
        return RatMatrix.zeros(order, order)
    den = math.lcm(*[c for _, c in basis])
    left = [[-2 * (den // c) * x for x in q] for q, c in basis]
    rows = _rank_update(1, [[0] * order for _ in range(order)], left, [q for q, _ in basis])
    return _from_int_rows(rows, order, den)


def check_equiv_formulation(
    d: RatMatrix, dec: Decomposition, kernel: Sequence[Vector], correction: RatMatrix
) -> bool:
    """Certify dec.candidate as the Moore-Penrose inverse of d, given a kernel basis.

    kernel holds linearly independent vectors claimed to span ker D (K the
    matrix with them as rows), and correction is W = L D + 2I - 2we'
    (correction_matrix).  Requires d symmetric; a d that is not, a
    decomposition or kernel vector of another order, or dependent kernel
    vectors raise ValueError.  With X = dec.candidate, returns True iff

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
    the product inside W, every step is a matrix-vector product or an
    entrywise comparison.  The comparison with the pseudoinverse is the
    caller's oracle check.
    """
    if not d.is_symmetric():
        raise ValueError("characterization applies to symmetric matrices")
    order = d.rows
    if len(dec.w) != order:
        raise ValueError(f"decomposition of order {len(dec.w)} against {order}")
    projector = _twice_projector(kernel, order)
    # D w = e/alpha: with D w = s/den and alpha = a/b, every s a = den b
    sums, den = _mat_vec(d, dec.w)
    a, b = dec.alpha.numerator, dec.alpha.denominator
    if any(s * a != den * b for s in sums):
        return False
    x = dec.candidate
    if any(any(_mat_vec(d, u)[0]) or any(_mat_vec(x, u)[0]) for u in kernel):
        return False
    return correction == projector


def check_uniqueness(d: RatMatrix, dec: Decomposition) -> tuple[Fraction, Vector]:
    """Recover (alpha, w) from the candidate matrix alone.

    With X = -L/2 + alpha ww', zero row sums of L give X e = alpha w and
    e' X e = alpha, so the triple is pinned down by X.  The recovered
    values must match dec's fields exactly; a mismatch (or a candidate
    with e'Xe = 0) raises ValueError.
    """
    if len(dec.w) != d.rows:
        raise ValueError(f"decomposition of order {len(dec.w)} against {d.rows}")
    # X e = s/den over integers, so alpha = e'Xe = (e's)/den and w = s/(e's)
    sums, den = _row_sums(dec.candidate)
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


def build_kernel_projector(case: HelmCase) -> RatMatrix:
    """Twice the orthogonal projector onto the kernel of D, either parity.

    The block matrix with 2(B + I) on the rim and zeros elsewhere, B the
    case's coupling block: 2vv'/(n-1) on the rim for odd n, v the
    alternating vector, and the zero matrix for even n, where B = -I.
    The report checks only L D + 2I - 2we' = V.  Once equiv_formulation
    passes (D w = e/alpha, and X = -L/2 + alpha ww' is the MP inverse),
    that says V = 2(I - X D), so D V = 0, V is symmetric and V X = 0;
    V e = alpha V D w = 0; X e = alpha w (L e = 0 and e'w = 1) gives
    V w = 0; and V L = 2 alpha (V w) w' - 2 V X = 0.  This V is built
    from L's coupling spec, while equiv_formulation's 2 P_K is built from
    the closed-form kernel basis (HelmVectors.kernel); both are compared
    with the same W.
    """
    rim = [2 * x for x in case.coupling_block.spec]
    rim[0] += 2
    zero = (0,) * len(rim)
    return bordered_circulant(0, (0, 0), (rim, zero, zero))


def schur_psd_check(lap: RatMatrix, case: HelmCase) -> bool:
    """Exact positive-semidefiniteness check of a bordered matrix L of case's shape.

    L must lift (circulant.lift) to a bordered element [[c, b'], [b, T]]
    with a positive corner c, and eliminating c must leave exactly

        [ A - J/(2(n-1))   B ]
        [ B                I ]

    with A, B the case's circulant rim and coupling blocks.  L's first
    complement T - b b'/c keeps the circulant blocks: with b = (b1 e,
    b2 e), block (i, j) is T_ij - (b_i b_j/c) J.  Its identity block needs no inverse,
    so eliminating it leaves A - J/(2(n-1)) - B^2, which must equal
    A + B - J/(2(n-1)) exactly (this encodes B^2 = -B).  By Haynsworth's
    inertia additivity the first complement has the identity's inertia
    plus the second's, and L has the corner's plus the first
    complement's, so the one inertia of the second complement decides: L
    is PSD iff it has no negative inertia.  Returns that conjunction.  The
    chain is taken on the forms only: an L that does not lift to a
    bordered element fails it.
    """
    n = case.n
    order = 2 * n - 1
    if lap.rows != order or lap.cols != order:
        raise ValueError(f"expected order {order}, got {lap.rows}x{lap.cols}")
    if not lap.is_symmetric():
        raise ValueError("PSD check requires a symmetric matrix")
    lifted = lift(Bordered, lap)
    if not lifted:
        return False
    (l,), a, b = lifted, case.rim_block, case.coupling_block
    corner = l.hub
    if corner <= 0:
        return False
    k = n - 1
    ones = Circulant((1,) * k)
    rim = a - Fraction(1, 2 * k) * ones
    complement_1 = [
        [block - (ci * rj / corner) * ones for block, rj in zip(row, l.rows)]
        for row, ci in zip(l.blocks, l.cols)
    ]
    if complement_1 != [[rim, b], [b, Circulant((1,) + (0,) * (k - 1))]]:
        return False
    # the second complement, rim - B B, must be rim + B
    if b @ b != -b:
        return False
    return inertia((rim + b).dense()).i_minus == 0


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
