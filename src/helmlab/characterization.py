"""When is a Moore-Penrose inverse of the form -L/2 + alpha ww'?

This module packages the machinery around that question for symmetric
matrices: the certificate for a candidate triple (equiv formulation:
D w = e/alpha, which also puts e in the range, and the four Penrose
conditions), constructive uniqueness of the triple, the six block
conditions that pin down the bordered matrix L for helm distance
matrices, the kernel projector that closes the certificate, and exact
positive-semidefiniteness / rank checks for L via a Schur complement
chain with one congruence inertia, and the rank-one modification lemma.

Each identity is checked once: no function runs an oracle whose answer
another check of the same report already implies.  The Penrose
conditions are proved only by check_equiv_formulation; they also give
every fact about the kernel projector V but L D + 2I - 2we' = V.  The
ranks come from the caller (read off inertias), and rank(X) is not
recomputed: the report's closed-form check proves X = pinv(D).  Every
function here holds for both parities: for even n, D is nonsingular,
pinv(D) = D^-1 and the kernel projector is zero.

Every function takes objects built once by the caller (the distance
matrix, a closed_form.HelmCase, a Decomposition, ranks already
computed) and rebuilds none of them from n.  Everything here is exact;
positive semidefiniteness in particular is decided by rational inertia,
never by floating-point eigenvalues.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .closed_form import HelmCase
from .exact_core import (
    Decomposition,
    RatMatrix,
    Vector,
    VerificationError,
    dot,
    inertia,
    ones_vector,
    penrose_check,
    scale_vector,
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


def check_equiv_formulation(d: RatMatrix, dec: Decomposition) -> bool:
    """Certify dec.candidate as the Moore-Penrose inverse of d.

    Requires d symmetric (ValueError otherwise).  Returns True iff
    D w = (1/alpha) e and X = dec.candidate passes penrose_check.  The
    first maps alpha w to e, so it also proves the characterization's
    hypothesis that the all-ones vector lies in the range of D; a d
    without e in its range fails it and gets False.  For symmetric D and
    X the four Penrose conditions say exactly that V = 2(I - X D) is
    symmetric, D V = 0 and V X = 0.  L D + 2 I = 2 w e' + V needs no test:
    D w = e/alpha gives X D = -L D/2 + alpha w (D w)' = -L D/2 + w e'.
    The comparison with the pseudoinverse is the caller's oracle check.
    """
    if not d.is_symmetric():
        raise ValueError("characterization applies to symmetric matrices")
    order = d.rows
    if len(dec.w) != order:
        raise ValueError(f"decomposition of order {len(dec.w)} against {order}")
    if d.mul_vector(dec.w) != scale_vector(1 / dec.alpha, ones_vector(order)):
        return False
    return penrose_check(d, dec.candidate)


def check_uniqueness(d: RatMatrix, dec: Decomposition) -> tuple[Fraction, Vector]:
    """Recover (alpha, w) from the candidate matrix alone.

    With X = -L/2 + alpha ww', zero row sums of L give X e = alpha w and
    e' X e = alpha, so the triple is pinned down by X.  The recovered
    values must match dec's fields exactly; a mismatch (or a candidate
    with e'Xe = 0) raises ValueError.
    """
    if len(dec.w) != d.rows:
        raise ValueError(f"decomposition of order {len(dec.w)} against {d.rows}")
    candidate = dec.candidate
    e = ones_vector(d.rows)
    image = candidate.mul_vector(e)
    alpha = dot(e, image)
    if alpha == 0:
        raise ValueError("candidate has e'Xe = 0; no scale recoverable")
    w = scale_vector(1 / alpha, image)
    if alpha != dec.alpha or w != dec.w:
        raise ValueError("recovered (alpha, w) differ from the stored fields")
    return alpha, w


def check_conditions_i_vi(
    a_mat: RatMatrix, b_mat: RatMatrix, s_mat: RatMatrix
) -> SixConditions:
    """Evaluate the six exact block conditions on (A, B, S).

    A and B are the rim and coupling blocks of the bordered matrix
    (B = -I in the even case), S the rim cycle's signless Laplacian.

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
    if not (
        a_mat.is_square()
        and b_mat.is_square()
        and s_mat.is_square()
        and a_mat.rows == b_mat.rows == s_mat.rows
    ):
        raise ValueError("A, B, S must be square of equal order")
    k = a_mat.rows
    e = ones_vector(k)
    b_plus_i = b_mat + RatMatrix.identity(k)
    # for even n, B = -I: B + I is zero, and so are its products
    return SixConditions(
        a_row_sum=a_mat.mul_vector(e) == scale_vector(Fraction(3, 2), e),
        b_row_sum=b_mat.mul_vector(e) == scale_vector(Fraction(-1), e),
        b_absorbs_s=b_mat @ s_mat == -s_mat,
        a_annihilated=b_plus_i.is_zero() or (b_plus_i @ a_mat).is_zero(),
        b_annihilated=b_plus_i.is_zero() or (b_plus_i @ b_mat).is_zero(),
        s_balance=((a_mat + b_mat) @ s_mat + 2 * b_mat).is_zero(),
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
    V w = 0; and V L = 2 alpha (V w) w' - 2 V X = 0.
    """
    k = case.n - 1
    rim = 2 * (case.coupling_block + RatMatrix.identity(k))
    zeros_row = RatMatrix.zeros(1, k)
    zeros_col = RatMatrix.zeros(k, 1)
    zero_blk = RatMatrix.zeros(k, k)
    return RatMatrix.from_blocks(
        [
            [0, zeros_row, zeros_row],
            [zeros_col, rim, zero_blk],
            [zeros_col, zero_blk, zero_blk],
        ]
    )


def schur_psd_check(lap: RatMatrix, case: HelmCase) -> bool:
    """Exact positive-semidefiniteness check of a bordered matrix L of case's shape.

    Eliminating the (1,1) scalar, which must be positive, must leave
    exactly

        [ A - J/(2(n-1))   B ]
        [ B                I ]

    with A, B the case's rim and coupling blocks.  Its identity block
    needs no inverse, so eliminating it leaves A - J/(2(n-1)) - B^2,
    which must equal A + B - J/(2(n-1)) exactly (this encodes
    B^2 = -B).  By Haynsworth's inertia additivity the first complement
    has the identity's inertia plus the second's, and L has the corner's
    plus the first complement's, so the one inertia of the second
    complement decides: L is PSD iff it has no negative inertia.
    Returns that conjunction.
    """
    n = case.n
    order = 2 * n - 1
    if lap.rows != order or lap.cols != order:
        raise ValueError(f"expected order {order}, got {lap.rows}x{lap.cols}")
    if not lap.is_symmetric():
        raise ValueError("PSD check requires a symmetric matrix")
    corner = lap[0, 0]
    if corner <= 0:
        return False
    k = n - 1
    rest = list(range(1, order))
    border = lap.submatrix(rest, [0])
    trailing = lap.submatrix(rest, rest)
    complement_1 = trailing - (1 / corner) * (border @ border.transpose())

    rim = case.rim_block - Fraction(1, 2 * (n - 1)) * RatMatrix.ones(k, k)
    coupling = case.coupling_block
    expected_1 = RatMatrix.from_blocks([[rim, coupling], [coupling, RatMatrix.identity(k)]])
    if complement_1 != expected_1:
        return False
    complement_2 = rim - coupling @ coupling
    if complement_2 != rim + coupling:
        return False
    return inertia(complement_2).i_minus == 0


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
