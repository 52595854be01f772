"""Semi-involutory detection.

A non-singular matrix A is semi-involutory when A^{-1} = D1 A D2 for
non-singular diagonal D1, D2, or equivalently when ADA is non-singular
and diagonal for some diagonal D (the "associated diagonal").  Two
detectors are provided:

* `si_oracle` enumerates every non-singular diagonal and is therefore
  valid for any small field and size, at (q-1)^n cost.  Its search over
  GF(2^m) tables is `oracle_hits`, which takes a batch of matrices and
  returns every (matrix, diagonal) hit, so `census` and the tests run it
  on many matrices at once;
* `si_check_3x3` decides the 3x3 case from the entries alone, by two
  closed forms: `nowhere_zero_si` for a matrix with at most one zero,
  and a 2x2 block form for two or more.  It solves a semi-involutory
  matrix's witness from the cells of A D A, in one walk over d2 that
  calls nothing of the oracle's search.  Its conditions take a field
  argument `f` and the entries row by row, so `census` runs
  `nowhere_zero_si` on arrays.

The two must agree everywhere; the test suite compares them
exhaustively over GF(3) and GF(4) and on samples over GF(5), GF(7),
GF(8) and GF(16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from ._tables import _CHUNK, bulk_ops, nonzero_grid
from .errors import BudgetError, InternalMismatchError
from .field import GF, TABLE_MAX_Q
from .matrix import CHECK_BUDGET, Diagonal, Matrix, det2, dot

BRANCH_REDUCIBLE = "reducible-form"
BRANCH_SINGLE_ZERO = "single-zero"
BRANCH_NOWHERE_ZERO = "nowhere-zero"
BRANCH_ORACLE = "oracle-only"
BRANCH_NOT_SI = "not-si"


@dataclass(frozen=True)
class SiVerdict:
    """Outcome of a semi-involutory check.

    `witness` is an associated diagonal (ADA diagonal and non-singular);
    it is present exactly when `si` is true.  For irreducible matrices
    `c` is the scalar with D1 = c D2 relative to that witness and
    `a` = c^{-1} satisfies (DA)^2 = aI.
    """

    si: bool
    branch: str
    witness: tuple | None = None
    c: int | None = None
    a: int | None = None

    def to_dict(self) -> dict:
        d = {"si": self.si, "branch": self.branch}
        if self.witness is not None:
            d["D"] = list(self.witness)
        if self.c is not None:
            d["c"] = self.c
        if self.a is not None:
            d["a"] = self.a
        return d


def _ada_cell(A: Matrix, i: int, j: int) -> tuple:
    """The n-tuple t_k = a_ik * a_kj, so that (ADA)_ij = sum_k t_k d_k."""
    gf, r = A.gf, A.rows
    return tuple(gf.mul(r[i][k], r[k][j]) for k in range(A.n))


def _ada_coefficients(A: Matrix) -> list:
    """(`_ada_cell`, on the diagonal) for every cell (i, j), the
    off-diagonal cells first, each group row by row: a cell that must
    vanish rejects most diagonals, so a search tests those first."""
    n = A.n
    return sorted(((_ada_cell(A, i, j), i == j) for i in range(n) for j in range(n)),
                  key=lambda c: c[1])


def associated_diagonals(A: Matrix) -> list[tuple]:
    """All non-singular diagonals D with ADA diagonal and non-singular,
    in ascending lexicographic order of the diagonal entries.

    This is a literal exhaustive scan of (q-1)^n diagonals; it raises
    BudgetError when (q-1)^n exceeds the fixed cap `CHECK_BUDGET` =
    4096.  For characteristic 2 and q <= TABLE_MAX_Q the scan is
    `oracle_hits` on a batch of one matrix; the result is identical to
    the scalar loop.
    """
    gf, n = A.gf, A.n
    if gf.p == 2 and gf.q <= TABLE_MAX_Q:
        e = np.array(A.rows, dtype=np.uint8).reshape(-1, 1)
        hits = oracle_hits(gf, e)[0].nonzero()[0]
        grid = nonzero_grid(gf.q, n)
        return [tuple(int(col[h]) for col in grid) for h in hits]
    _search_width(gf.q, n)
    cells = _ada_coefficients(A)
    return [d for d in product(gf.elements(True), repeat=n)
            if all((dot(gf, c, d) != 0) == on for c, on in cells)]


def _search_width(q: int, free: int) -> int:
    """(q-1)^free, the values a search over `free` entries visits;
    BudgetError above `CHECK_BUDGET`."""
    total = (q - 1) ** free
    if total > CHECK_BUDGET:
        raise BudgetError(f"(q-1)^{free} = {total} exceeds the search budget "
                          f"{CHECK_BUDGET}")
    return total


def _least_witness(A: Matrix) -> tuple | None:
    """The lexicographically least associated diagonal of a 3x3 matrix,
    or None, solved from the cells of A D A rather than searched.

    A non-zero multiple of a witness is a witness, so the least one has
    d1 = 1, and each cell of A D A is t0 + t1 d2 + t2 d3.  If some
    off-diagonal cell has t2 != 0, each d2 fixes d3 by that cell.
    Otherwise d3 moves only the diagonal cells, each affine in d3, which
    rule out at most three values, so the least d3 is among the first
    four.  d2 walks upwards: at most 4 (q-1) candidates, and BudgetError
    when q - 1 exceeds `CHECK_BUDGET`."""
    gf = A.gf
    _search_width(gf.q, 1)
    cells = _ada_coefficients(A)
    pivot = next((c for c, on in cells if not on and c[2]), None)
    if pivot:
        scale = gf.neg(gf.inv(pivot[2]))
    for d2 in gf.elements(True):
        d3s = ([gf.mul(scale, gf.add(pivot[0], gf.mul(pivot[1], d2)))]
               if pivot else gf.elements(True)[:4])
        for d in ((1, d2, d3) for d3 in d3s if d3):
            if all((dot(gf, c, d) != 0) == on for c, on in cells):
                return d
    return None


@cache
def _search_plan(q: int, n: int) -> tuple:
    """For `oracle_hits`: the width w of the search, its (n, w) diagonals,
    and per cell c = (i, j) of A D A, off-diagonal cells first, the flat
    entry indices of a_ik and a_kj (so t[c, k] = a_ik a_kj) and whether
    the cell lies on the diagonal."""
    w = _search_width(q, n)
    d = np.stack(nonzero_grid(q, n))
    d.setflags(write=False)
    cells = sorted(product(range(n), repeat=2), key=lambda c: c[0] == c[1])
    ks = np.arange(n)
    ik = np.array([n * i + ks for i, _ in cells])
    kj = np.array([n * ks + j for _, j in cells])
    want = np.array([i == j for i, j in cells])[:, None]
    return w, d, ik, kj, want


def oracle_hits(gf: GF, e) -> np.ndarray:
    """The literal diagonal search of `si_oracle` over a batch of N
    matrices, for characteristic 2 and q <= TABLE_MAX_Q.

    `e` holds the n^2 entries of the n x n matrices row by row
    (a_{i+1, j+1} = e[n i + j]), each an N-long column.  Returns the
    (N, w) mask of the (matrix, diagonal) pairs whose A D A is diagonal
    and non-singular, over all w = (q-1)^n non-singular diagonals, in
    the order of `nonzero_grid`; BudgetError when w exceeds
    `CHECK_BUDGET`.  A singular matrix has no hit, since A D A
    non-singular makes A non-singular.

    The matrices lie on a (N, 1) axis and the diagonals on a (1, w)
    one, in blocks of at most `_CHUNK` pairs.  One off-diagonal cell
    of A D A is tested on that grid; the kept pairs, compacted flat,
    then test the other cells."""
    w, d, ik, kj, want = _search_plan(gf.q, math.isqrt(len(e)))
    f = bulk_ops(gf)
    a = np.asarray(e, dtype=np.uint8)
    hits = np.zeros((a.shape[1], w), dtype=bool)
    step = max(1, _CHUNK // w)
    for lo in range(0, a.shape[1], step):
        block = a[:, lo:lo + step]
        # (ADA)_ij = sum_k t[c, k] d_k for cell c = (i, j), the sum an
        # XOR-reduce over k in characteristic 2
        t = f.mul(block[ik], block[kj])
        first = np.bitwise_xor.reduce(f.mul(t[0, :, :, None], d[:, None, :]))
        mtx, dg = divmod(((first != 0) == want[0, 0]).ravel().nonzero()[0], w)
        rest = np.bitwise_xor.reduce(f.mul(t[1:, :, mtx], d[:, dg]), axis=1)
        ok = ((rest != 0) == want[1:]).all(axis=0)
        hits[lo + mtx[ok], dg[ok]] = True
    return hits


def _witness_scalars(A: Matrix, d: tuple) -> tuple:
    """(c, a) for an irreducible matrix relative to witness d.

    With ADA = D', the products d_i * D'_i agree on a single value s,
    and (DA)^2 = sI while A^{-1} = s^{-1} D A D.  The reported pair is
    therefore c = s^{-1} (so that A^{-1} = c D A D, equivalently
    D1 = c D2 for the derived pair) and a = c^{-1} = s.  Only the n
    diagonal cells are formed, n^2 products."""
    gf = A.gf
    ss = {gf.mul(d[i], dot(gf, _ada_cell(A, i, i), d))
          for i in range(A.n)}
    if len(ss) != 1:
        raise InternalMismatchError("associated scalar is not constant on an "
                                    "irreducible matrix")
    a = ss.pop()
    return gf.inv(a), a


def canonical_witness(A: Matrix, d: tuple) -> tuple:
    """Rescale a witness so that c = 1, i.e. A^{-1} = D A D exactly.

    Well-defined for irreducible matrices over characteristic 2, where
    witnesses form a single orbit under scalar multiplication and
    squaring is a bijection.  Returns (witness, c, a) = (d', 1, 1).
    """
    gf = A.gf
    c, _a = _witness_scalars(A, d)
    t = gf.sqrt(c)
    return tuple(gf.mul(t, di) for di in d), 1, 1


def _verify_witness(A: Matrix, d: tuple) -> None:
    prod = (A @ Diagonal(A.gf, d)) @ A
    for i, row in enumerate(prod.rows):
        for j, v in enumerate(row):
            if (v == 0) if i == j else (v != 0):
                raise InternalMismatchError("witness recheck failed: ADA is not "
                                            "non-singular diagonal")


def si_oracle(A: Matrix) -> SiVerdict:
    """Exhaustive-search semi-involutory test, valid for any small field.

    Scans all (q-1)^n non-singular diagonals and returns the
    lexicographically least witness.  Raises ValueError on a singular
    matrix and BudgetError when (q-1)^n exceeds the fixed cap
    `CHECK_BUDGET` = 4096.
    """
    if A.det() == 0:
        raise ValueError("singular matrix cannot be semi-involutory")
    wits = associated_diagonals(A)
    if not wits:
        return SiVerdict(False, BRANCH_NOT_SI)
    d = wits[0]
    _verify_witness(A, d)
    c = a = None
    if A.n == 1 or not A.is_reducible():
        c, a = _witness_scalars(A, d)
    return SiVerdict(True, BRANCH_ORACLE, d, c, a)


# The entry-level conditions take the nine entries e of a 3x3 matrix row
# by row (a_{i+1, j+1} = e[3 i + j]), as ints or as arrays.

def triangle_products_agree(f, e):
    """Whether the triangle products a12 a23 a31 and a13 a21 a32 agree.
    They read only the off-diagonal entries."""
    return f.mul(f.mul(e[1], e[5]), e[6]) == f.mul(f.mul(e[2], e[3]), e[7])


def product_det(f, e):
    """Determinant of the matrix of entry products

        [[a11*a21, a21*a22, a23*a31],
         [a11*a31, a21*a32, a31*a33],
         [a12*a31, a22*a32, a32*a33]]

    whose vanishing, with the triangle products agreeing, makes a
    non-singular matrix with at most one zero semi-involutory.  Over the
    integers it equals

        a33 (a11 n^2 - a22 t) + a23 a32 t,   t = a31^2 m,

    with m = a11 a22 - a12 a21 and n = a21 a32 - a22 a31 minors of A, so
    the form holds in any characteristic.  It forms 12 products, and only
    one of them (a33 times the bracket) reads a33: it is slope a33 + const
    with the two terms of `product_det_terms`."""
    slope, const = product_det_terms(f, e)
    return f.add(f.mul(e[8], slope), const)


def product_det_terms(f, e):
    """`product_det` as (slope, const), the bracket a11 n^2 - a22 t and
    a23 a32 t, with product_det = slope a33 + const; neither term reads
    a33, so `e` need not hold a33."""
    mul = f.mul
    a11, a12, a21, a22 = e[0], e[1], e[3], e[4]
    a23, a31, a32 = e[5], e[6], e[7]
    n = det2(f, a21, a22, a31, a32)
    t = mul(mul(a31, a31), det2(f, a11, a12, a21, a22))
    return det2(f, a11, a22, t, mul(n, n)), mul(mul(a23, a32), t)


def nowhere_zero_si(f, e):
    """The entry-level test of a non-singular 3x3 matrix with at most
    one zero: the triangle products agree and `product_det` vanishes."""
    return triangle_products_agree(f, e) & (product_det(f, e) == 0)


def _block_form_si(f, e):
    """The reducible-form branch.  In A or its transpose t, a row k zero
    off the diagonal makes A permutation-similar to [[B, x], [0 0, t_kk]]
    with B = [[a, b], [c, d]] and x on the other two indices.  B is
    semi-involutory iff a, d are both zero or both not; x then suits a
    witness W of B always if B is diagonal, iff x1 x2 != 0 if B is
    anti-diagonal, and otherwise iff B W x is parallel to x for
    W = diag(d, -a), whose multiples are B's witnesses."""
    for t in (e, e[0::3] + e[1::3] + e[2::3]):
        for k in range(3):
            i, j = (m for m in range(3) if m != k)
            a, b, c, d = t[4 * i], t[3 * i + j], t[3 * j + i], t[4 * j]
            x1, x2 = t[3 * i + k], t[3 * j + k]
            if t[3 * k + i] or t[3 * k + j] or (a == 0) != (d == 0):
                continue
            if b == c == 0 or x1 == x2 == 0 or a == 0 and x1 and x2:
                return True
            if a:
                y1, y2 = f.mul(d, x1), f.mul(f.neg(a), x2)
                u1, u2 = dot(f, (a, b), (y1, y2)), dot(f, (c, d), (y1, y2))
                if det2(f, u1, x1, u2, x2) == 0:
                    return True
    return False


def si_check_3x3(A: Matrix) -> SiVerdict:
    """Entry-level semi-involutory test for 3x3 matrices.

    A non-singular A is semi-involutory exactly when, by its number of
    zero entries:

    * at most one zero (`nowhere_zero_si`): the two triangle products
      a12 a23 a31 and a13 a21 a32 agree and `product_det` vanishes;
    * two or more zeros: A is permutation-similar (possibly after a
      transpose) to a block form [[B, x], [0, c]] with B semi-involutory
      and x zero or an eigenvector of B W for a witness W of B.

    With one zero the first case is the paper's single-zero condition
    (the zero sits on the diagonal, the triangle products agree and the
    complementary 2x2 minor vanishes), since there, with
    t = a31^2 (a11 a22 - a12 a21), `product_det` factors as

    * zero at a11: -t (a22 a33 - a23 a32), with t != 0;
    * zero at a33: a23 a32 t;
    * zero at a22: (a21 a32)^2 (a11 a33 - a13 a31), once the triangle
      products agree;
    * zero off the diagonal: exactly one triangle product vanishes, so
      the two cannot agree.

    The branch label follows the zero count: `nowhere-zero`,
    `single-zero` or `reducible-form`.

    Only a positive verdict looks for a witness: the canonical one with
    c = 1 when the matrix is irreducible, and the lexicographically
    least one otherwise, solved by `_least_witness` in q - 1 steps at
    most; BudgetError when q - 1 exceeds `CHECK_BUDGET`.
    """
    if A.n != 3:
        raise ValueError("si_check_3x3 needs a 3x3 matrix")
    if A.det() == 0:
        return SiVerdict(False, BRANCH_NOT_SI)
    gf, r = A.gf, A.rows
    e = r[0] + r[1] + r[2]
    zeros = e.count(0)
    if zeros <= 1:
        branch = BRANCH_SINGLE_ZERO if zeros else BRANCH_NOWHERE_ZERO
        ok = nowhere_zero_si(gf, e)
    else:
        branch = BRANCH_REDUCIBLE
        ok = _block_form_si(gf, e)
    if not ok:
        return SiVerdict(False, BRANCH_NOT_SI)
    d = _least_witness(A)
    if d is None:
        raise InternalMismatchError("branch conditions hold but no associated "
                                    "diagonal exists")
    _verify_witness(A, d)
    if branch == BRANCH_REDUCIBLE:
        return SiVerdict(True, branch, d)
    if gf.p == 2:
        d, c, a = canonical_witness(A, d)
        return SiVerdict(True, branch, d, c, a)
    c, a = _witness_scalars(A, d)
    return SiVerdict(True, branch, d, c, a)
