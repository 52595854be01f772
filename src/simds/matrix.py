"""Dense square matrices over a finite field.

Matrices and diagonal matrices are immutable values carrying their
field; every operation returns a new object, so they are safe to share
between parallel workers.  Determinants use closed-form cofactor
expansion at 2x2 and 3x3 (the hot sizes here) and Gaussian elimination
otherwise; inverses use Gauss-Jordan elimination at every size.  The 2x2
and 3x3 forms, `det2`, `minor` and `det3`, are written over a field
argument `f`, so the same lines judge one matrix of ints (f = gf) and
arrays of matrices (f = `_tables.bulk_ops(gf)`, or the bit planes of
f = `_tables.plane_ops(gf)`).  `is_mds` takes
each minor's `_det` from plain rows.

CHECK_BUDGET, fixed at 4096, caps the work of a single-matrix check: the
minors `is_mds` examines, the diagonals `si.associated_diagonals`
searches, the values of d2 the 3x3 witness walk `si._least_witness`
visits, and the n^2 entries `simds check` accepts (n <= 64) before its
O(n^3) determinant and involution test, so a check ends in bounded time
and memory at any n and q.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BudgetError
from .field import GF, json_ints

CHECK_BUDGET = 4096


def check_permutation(perm, n: int) -> tuple:
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    return perm


class Matrix:
    __slots__ = ("gf", "n", "rows")

    def __init__(self, gf: GF, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("rows must form a non-empty square grid")
        for r in rows:
            for v in r:
                gf.validate(v)
        self.gf = gf
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, gf: GF, n: int) -> "Matrix":
        return cls(gf, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.gf == other.gf and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.gf, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.gf!r}, {[list(r) for r in self.rows]})"

    def __matmul__(self, other):
        gf = self.gf
        if isinstance(other, Diagonal):
            if other.gf != gf or len(other.entries) != self.n:
                raise ValueError("dimension or field mismatch")
            d = other.entries
            return Matrix(gf, [[gf.mul(v, d[j]) for j, v in enumerate(row)]
                               for row in self.rows])
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.gf != gf or other.n != self.n:
            raise ValueError("dimension or field mismatch")
        n = self.n
        bt = other.transpose().rows
        return Matrix(gf, [[_dot(gf, row, col) for col in bt] for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(self.gf, list(zip(*self.rows)))

    def det(self) -> int:
        return _det(self.gf, self.rows)

    def inverse(self) -> "Matrix":
        """Gauss-Jordan elimination; a singular matrix raises ValueError."""
        gf, n = self.gf, self.n
        a = [list(row) + [1 if i == j else 0 for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            a[col], a[pivot] = a[pivot], a[col]
            pinv = gf.inv(a[col][col])
            a[col] = [gf.mul(pinv, v) for v in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [gf.sub(v, gf.mul(f, w)) for v, w in zip(a[r], a[col])]
        return Matrix(gf, [row[n:] for row in a])

    def is_mds(self) -> bool:
        """True iff every square submatrix of every order is non-singular.

        The n^2 entries count as the 1x1 minors.  Raises BudgetError
        rather than examine more than CHECK_BUDGET minors, which
        covers all C(2n, n) - 1 of them for every n <= 7.
        """
        gf, r, n = self.gf, self.rows, self.n
        if any(0 in row for row in r):
            return False
        examined = n * n
        idx = range(n)
        for size in range(2, n + 1):
            for rs in combinations(idx, size):
                for cs in combinations(idx, size):
                    examined += 1
                    if examined > CHECK_BUDGET:
                        raise BudgetError(f"the MDS test of a {n}x{n} matrix "
                                          f"examines more than "
                                          f"{CHECK_BUDGET} minors")
                    if _det(gf, [[r[i][j] for j in cs] for i in rs]) == 0:
                        return False
        return True

    def is_involutory(self) -> bool:
        return self @ self == Matrix.identity(self.gf, self.n)

    def conjugate(self, perm) -> "Matrix":
        """Simultaneous row/column permutation P A P^T."""
        perm = check_permutation(perm, self.n)
        return Matrix(self.gf, [[self.rows[perm[i]][perm[j]] for j in range(self.n)]
                                for i in range(self.n)])

    def is_reducible(self) -> bool:
        """True iff some P A P^T is block upper triangular with a zero
        lower-left block: iff the graph with an edge i -> j for each
        non-zero a_ij is not strongly connected, that is, some index is
        unreachable from 0 along A's rows or along its columns."""
        if self.n == 1:
            raise ValueError("reducibility needs n >= 2")
        for rows in (self.rows, tuple(zip(*self.rows))):
            reached, todo = {0}, [0]
            while todo:
                row = rows[todo.pop()]
                new = {j for j, v in enumerate(row) if v} - reached
                reached |= new
                todo += new
            if len(reached) < self.n:
                return True
        return False

    def to_dict(self) -> dict:
        d = self.gf.to_dict()
        d["n"] = self.n
        d["rows"] = [list(r) for r in self.rows]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Matrix":
        gf = GF.from_dict(d)
        m = cls(gf, [json_ints(row, "matrix entries") for row in d["rows"]])
        if "n" in d and json_ints((d["n"],), "'n'") != [m.n]:
            raise ValueError("declared n does not match the row grid")
        return m


class Diagonal:
    """A diagonal matrix stored as its diagonal."""

    __slots__ = ("gf", "entries")

    def __init__(self, gf: GF, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty diagonal")
        for v in entries:
            gf.validate(v)
        self.gf = gf
        self.entries = entries

    @property
    def nonsingular(self) -> bool:
        return 0 not in self.entries

    def as_matrix(self) -> Matrix:
        n = len(self.entries)
        return Matrix(self.gf, [[self.entries[i] if i == j else 0 for j in range(n)]
                                for i in range(n)])

    def inverse(self) -> "Diagonal":
        return Diagonal(self.gf, [self.gf.inv(v) for v in self.entries])

    def __matmul__(self, other):
        gf = self.gf
        if isinstance(other, Diagonal):
            if other.gf != gf or len(other.entries) != len(self.entries):
                raise ValueError("dimension or field mismatch")
            return Diagonal(gf, [gf.mul(a, b) for a, b in zip(self.entries, other.entries)])
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.gf != gf or other.n != len(self.entries):
            raise ValueError("dimension or field mismatch")
        return Matrix(gf, [[gf.mul(self.entries[i], v) for v in row]
                           for i, row in enumerate(other.rows)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Diagonal)
                and self.gf == other.gf and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.gf, self.entries))

    def __repr__(self) -> str:
        return f"Diagonal({self.gf!r}, {list(self.entries)})"


# The 3x3 forms take the entries row by row: a_{i+1, j+1} = e[3 i + j].

_PAIRS = ((0, 1), (0, 2), (1, 2))


def det2(f, a, b, c, d):
    """a d - b c, the determinant of [[a, b], [c, d]]."""
    return f.sub(f.mul(a, d), f.mul(b, c))


def minor(f, e, rows, cols):
    """The 2x2 minor on rows (r0, r1) and columns (c0, c1)."""
    (r0, r1), (c0, c1) = rows, cols
    return det2(f, e[3 * r0 + c0], e[3 * r0 + c1], e[3 * r1 + c0], e[3 * r1 + c1])


def minors(f, e) -> list:
    """The nine 2x2 minors of a 3x3 matrix, row pairs outermost (the
    order of `construct.minor_formulas`)."""
    return [minor(f, e, rows, cols) for rows in _PAIRS for cols in _PAIRS]


def det3(f, e, row12=None):
    """The determinant of a 3x3 matrix by cofactor expansion along row 0.
    `row12` holds the minors on rows (1, 2) and columns (0, 1), (0, 2),
    (1, 2), when the caller has them (the last three of `minors`)."""
    if row12 is None:
        row12 = (det2(f, e[3], e[4], e[6], e[7]), det2(f, e[3], e[5], e[6], e[8]),
                 det2(f, e[4], e[5], e[7], e[8]))
    m01, m02, m12 = row12
    return f.add(f.sub(f.mul(e[0], m12), f.mul(e[1], m02)), f.mul(e[2], m01))


def _det(gf: GF, rows) -> int:
    """Determinant of a square list of rows, in closed form at n = 2, 3."""
    n = len(rows)
    if n == 2:
        return det2(gf, *rows[0], *rows[1])
    if n == 3:
        return det3(gf, rows[0] + rows[1] + rows[2])
    a = [list(row) for row in rows]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = gf.neg(det)
        det = gf.mul(det, a[col][col])
        pinv = gf.inv(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                f = gf.mul(a[r][col], pinv)
                for c in range(col, n):
                    a[r][c] = gf.sub(a[r][c], gf.mul(f, a[col][c]))
    return det


def _dot(gf: GF, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = gf.add(acc, gf.mul(a, b))
    return acc
