"""Explicit constructions of 3x3 semi-involutory matrices.

An 8-tuple of non-zero field elements (a11, a22, a33, d1, d2, d3, x, y)
over GF(2^m) determines the matrix

    [ a11              (a11d1+a33d3)/d2 * x    (a11d1+a22d2)/d3 * xy ]
    [ (a22d2+a33d3)/d1 / x    a22             (a11d1+a22d2)/d3 * y  ]
    [ (a22d2+a33d3)/d1 / xy   (a11d1+a33d3)/d2 / y    a33           ]

whose behaviour is governed by the sums s12 = a11d1+a22d2,
s13 = a11d1+a33d3, s23 = a22d2+a33d3 and s = a11d1+a22d2+a33d3:
with s != 0 the matrix is semi-involutory with associated diagonal
diag(d1, d2, d3), and it is MDS exactly when all four sums are
non-zero.  The sums, the nine entries and the predicted det and A D A
diagonal have one implementation each, `decisive_sums`,
`construction_entries` and `det_and_ada`, written over a field argument
`f`: the scalar functions here pass the field, the bulk census paths
pass `_tables.bulk_ops(gf)`, and the parameter sweep passes the
bit-sliced `_tables.plane_ops(gf)`.  Also included: the classic char-2
involutory family I + aA + bB built from two rank-one patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import GF, json_ints
from .matrix import Diagonal, Matrix


@dataclass(frozen=True)
class SiParams:
    """The 8 non-zero parameters of the construction, over char 2."""

    gf: GF
    a11: int
    a22: int
    a33: int
    d1: int
    d2: int
    d3: int
    x: int
    y: int

    def __post_init__(self):
        if self.gf.p != 2:
            raise ValueError("the construction lives over characteristic 2")
        for name in ("a11", "a22", "a33", "d1", "d2", "d3", "x", "y"):
            v = getattr(self, name)
            self.gf.validate(v)
            if v == 0:
                raise ValueError(f"parameter {name} must be non-zero")

    @property
    def diag(self) -> Diagonal:
        return Diagonal(self.gf, (self.d1, self.d2, self.d3))

    def to_dict(self) -> dict:
        return {"field": self.gf.to_dict(),
                "a": [self.a11, self.a22, self.a33],
                "d": [self.d1, self.d2, self.d3],
                "x": self.x, "y": self.y}

    @classmethod
    def from_dict(cls, d: dict) -> "SiParams":
        gf = GF.from_dict(d["field"])
        a = json_ints(d["a"], "'a'")
        dd = json_ints(d["d"], "'d'")
        xy = json_ints((d["x"], d["y"]), "'x' and 'y'")
        if len(a) != 3 or len(dd) != 3:
            raise ValueError("'a' and 'd' must hold three entries each")
        return cls(gf, *a, *dd, *xy)


@dataclass(frozen=True)
class SumConditions:
    """The four decisive sums and their non-vanishing flags."""

    s12: int
    s13: int
    s23: int
    s: int

    @property
    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.s12 != 0, self.s13 != 0, self.s23 != 0, self.s != 0)

    @property
    def all_nonzero(self) -> bool:
        return all(self.flags)

    def to_dict(self) -> dict:
        return {"s12": self.s12, "s13": self.s13, "s23": self.s23, "s": self.s,
                "nonzero": list(self.flags)}


def decisive_sums(f, a11, a22, a33, d1, d2, d3) -> tuple:
    """(s12, s13, s23, s) from the products t_i = a_ii d_i.

    Written over `f.mul` with XOR as addition, so the same lines take
    Python ints (f = gf), numpy arrays (f = `_tables.bulk_ops(gf)`) or
    bit planes (f = `_tables.plane_ops(gf)`)."""
    t1, t2, t3 = f.mul(a11, d1), f.mul(a22, d2), f.mul(a33, d3)
    s12 = t1 ^ t2
    return s12, t1 ^ t3, t2 ^ t3, s12 ^ t3


def construction_entries(f, sums, a11, a22, a33, d1, d2, d3, x, y) -> list:
    """The nine entries of the constructed matrix, row by row, given
    `sums` = decisive_sums(...) of the same parameters.  Like
    `decisive_sums`, it takes ints or arrays."""
    mul, inv = f.mul, f.inv
    s12, s13, s23, _ = sums
    r12 = mul(s13, inv(d2))
    r13 = mul(s12, inv(d3))
    r21 = mul(s23, inv(d1))
    xy = mul(x, y)
    return [a11, mul(r12, x), mul(r13, xy),
            mul(r21, inv(x)), a22, mul(r13, y),
            mul(r21, inv(xy)), mul(r12, inv(y)), a33]


def det_and_ada(f, s, d1, d2, d3) -> tuple:
    """(det A, diagonal of A D A) in closed form from the sum s of
    `decisive_sums`: det = s^3 / (d1 d2 d3) and (ADA)_ii = s^2 / d_i,
    which are 0 when s = 0.  Like `decisive_sums`, it takes ints or
    arrays."""
    s2 = f.mul(s, s)
    det = f.mul(f.mul(s2, s), f.inv(f.mul(f.mul(d1, d2), d3)))
    return det, tuple(f.mul(s2, f.inv(d)) for d in (d1, d2, d3))


def sum_conditions(p: SiParams) -> SumConditions:
    return SumConditions(*decisive_sums(p.gf, p.a11, p.a22, p.a33,
                                        p.d1, p.d2, p.d3))


def build_matrix(p: SiParams) -> Matrix:
    """The 3x3 matrix determined by the parameters.

    No condition on the sums is imposed here: choices with s = 0
    legitimately produce a singular matrix."""
    gf = p.gf
    sums = decisive_sums(gf, p.a11, p.a22, p.a33, p.d1, p.d2, p.d3)
    e = construction_entries(gf, sums, p.a11, p.a22, p.a33,
                             p.d1, p.d2, p.d3, p.x, p.y)
    return Matrix(gf, [e[0:3], e[3:6], e[6:9]])


def predicted_invariants(p: SiParams) -> tuple[int, tuple[int, int, int]]:
    """(det, diagonal of A D A) of the constructed matrix."""
    return det_and_ada(p.gf, sum_conditions(p).s, p.d1, p.d2, p.d3)


def minor_formulas(p: SiParams) -> tuple:
    """The nine 2x2 minors of the constructed matrix in closed form.

    Order: row pairs {0,1}, {0,2}, {1,2} outermost, column pairs
    {0,1}, {0,2}, {1,2} within each, matching
    itertools.combinations over rows then columns.

    Requires all four sums non-zero; b = s (the square root of s^2 in
    characteristic 2) appears as a factor in every minor.
    """
    gf = p.gf
    sc = sum_conditions(p)
    if not sc.all_nonzero:
        raise ValueError("minor closed forms need all four sums non-zero")
    b = sc.s
    inv = gf.inv
    mul = gf.mul
    d12 = inv(mul(p.d1, p.d2))
    d13 = inv(mul(p.d1, p.d3))
    d23 = inv(mul(p.d2, p.d3))
    xy = mul(p.x, p.y)
    return (
        mul(mul(mul(p.a33, b), p.d3), d12),
        mul(mul(mul(sc.s12, b), p.y), d13),
        mul(mul(mul(sc.s12, b), xy), d23),
        mul(mul(mul(sc.s13, b), inv(p.y)), d12),
        mul(mul(mul(p.a22, b), p.d2), d13),
        mul(mul(mul(sc.s13, b), p.x), d23),
        mul(mul(mul(sc.s23, b), inv(xy)), d12),
        mul(mul(mul(sc.s23, b), inv(p.x)), d13),
        mul(mul(mul(p.a11, b), p.d1), d23),
    )


def extract_xy(A: Matrix, D: Diagonal) -> tuple[int, int] | None:
    """Recover (x, y) from a nowhere-zero 3x3 matrix and an associated
    diagonal, by inverting the off-diagonal formulas.

    Returns None when the sums degenerate or when the recovered pair
    fails to reproduce all six off-diagonal entries (i.e. A is not of
    the constructed form relative to D).
    """
    gf = A.gf
    if gf.p != 2:
        raise ValueError("the construction lives over characteristic 2")
    if A.n != 3:
        raise ValueError("extract_xy needs a 3x3 matrix")
    if any(v == 0 for row in A.rows for v in row):
        raise ValueError("extract_xy needs a nowhere-zero matrix")
    if not D.nonsingular or len(D.entries) != 3:
        raise ValueError("D must be a non-singular 3-entry diagonal")
    r = A.rows
    d1, d2, d3 = D.entries
    sums = decisive_sums(gf, r[0][0], r[1][1], r[2][2], d1, d2, d3)
    if 0 in sums:
        return None
    s12, s13, _, _ = sums
    x = gf.div(gf.mul(r[0][1], d2), s13)
    y = gf.div(gf.mul(r[1][2], d3), s12)
    p = SiParams(gf, r[0][0], r[1][1], r[2][2], d1, d2, d3, x, y)
    if build_matrix(p) != A:
        return None
    return x, y


def curupira_matrix(gf: GF, a: int, b: int) -> Matrix:
    """I + a*A + b*B for the two fixed rank-one row patterns A and B;
    always involutory over characteristic 2."""
    if gf.p != 2:
        raise ValueError("this family lives over characteristic 2")
    gf.validate(a)
    gf.validate(b)
    ab = a ^ b
    return Matrix(gf, [[1 ^ a, a, a],
                       [b, 1 ^ b, b],
                       [ab, ab, 1 ^ ab]])


def curupira_is_mds(gf: GF, a: int, b: int) -> bool:
    """MDS test for `curupira_matrix` straight from the parameters:
    a not in {0, 1} and b not in {0, 1, a, a+1}."""
    if gf.p != 2:
        raise ValueError("this family lives over characteristic 2")
    gf.validate(a)
    gf.validate(b)
    return a not in (0, 1) and b not in (0, 1, a, a ^ 1)
