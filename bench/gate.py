"""Correctness gate for the benchmark.

Every pass hands its outputs to one of the `check_*` functions below,
which return a list of problems per operation (empty when it is
correct).  The gate trusts nothing the program computes: counts are
compared with pinned literals, and matrix verdicts with `RefField`, a
small GF(2^m) reference written apart from `simds.field` and
`simds.matrix`.
"""

from __future__ import annotations

import json
import re

# Exact counts at q = 2^m.  m = 3 holds the paper's headline results
# (403,368 SI-MDS, 1,176 involutory MDS); m = 2 is the GF(4)
# nonexistence result, used by the smoke runs.
PINNED = {
    3: {"S": 57624, "S1": 35280, "S2": 1176, "S3": 7056, "S4": 7056,
        "S5": 7056, "SI_MDS": 403368, "INV_MDS": 1176},
    2: {"S": 0, "S1": 0, "S2": 0, "S3": 0, "S4": 0, "S5": 0,
        "SI_MDS": 0, "INV_MDS": 0},
}
# Parameter tuples per distinct matrix in the parametrized path: q - 1
# (a common scaling of d1, d2, d3), reported only when a matrix exists.
TUPLES_PER_MATRIX = {3: 7, 2: None}

_TUPLES_NOTE = re.compile(r"^(\d+) parameter tuples per distinct matrix$")


def check_count_output(text: str, rc: int, sets: tuple, m: int,
                       exhaustive: bool) -> dict:
    """Problems per counted set in the JSON-lines output of `simds count`.

    Without `exhaustive`, SI_MDS comes from the parametrized path, whose
    report note must state the pinned tuples-per-matrix ratio."""
    problems = {name: [] for name in sets}
    if rc != 0:
        for name in sets:
            problems[name].append(f"exit code {rc}")
    reports = {}
    for line in text.splitlines():
        try:
            rep = json.loads(line)
            reports[rep["set"]] = rep
        except (ValueError, KeyError, TypeError):
            for name in sets:
                problems[name].append(f"unparsable output line {line!r}")
    for name in sets:
        rep = reports.get(name)
        if rep is None:
            problems[name].append("no report")
            continue
        want = PINNED[m][name]
        for key in ("formula", "brute_force"):
            if rep.get(key) != want:
                problems[name].append(f"{key} = {rep.get(key)}, pinned {want}")
        if rep.get("match") is not True:
            problems[name].append(f"match = {rep.get('match')}")
        if name == "SI_MDS" and not exhaustive:
            note = _TUPLES_NOTE.match(rep.get("note") or "")
            got = int(note.group(1)) if note else None
            if got != TUPLES_PER_MATRIX[m]:
                problems[name].append(f"tuples per matrix = {got}, "
                                      f"pinned {TUPLES_PER_MATRIX[m]}")
    return problems


def check_sweep(result, m: int) -> list:
    """Problems with a `SweepResult` over all (q-1)^8 parameter tuples."""
    q = 1 << m
    if isinstance(result, BaseException):
        return [f"exception {type(result).__name__}: {result}"]
    problems = []
    if result.tuples != (q - 1) ** 8:
        problems.append(f"tuples = {result.tuples}, want {(q - 1) ** 8}")
    if not result.clean:
        problems.append(f"sweep not clean: {result}")
    return problems


class RefField:
    """GF(2^m) reference arithmetic for 3x3 matrices given as row tuples.

    Multiplication is shift-and-reduce into a full table; determinants
    and minors are cofactor expansions.  Addition is XOR."""

    def __init__(self, m: int, poly: int):
        self.m = m
        self.q = q = 1 << m
        self.mul = [[_mul_mod(a, b, m, poly) for b in range(q)] for a in range(q)]

    def minors(self, r) -> list:
        mul = self.mul
        out = []
        for r0, r1 in ((0, 1), (0, 2), (1, 2)):
            for c0, c1 in ((0, 1), (0, 2), (1, 2)):
                out.append(mul[r[r0][c0]][r[r1][c1]] ^ mul[r[r0][c1]][r[r1][c0]])
        return out

    def det(self, r) -> int:
        mul, mn = self.mul, self.minors(r)
        # minors[6..8] are rows {1,2} with columns {0,1}, {0,2}, {1,2}
        return mul[r[0][0]][mn[8]] ^ mul[r[0][1]][mn[7]] ^ mul[r[0][2]][mn[6]]

    def is_mds(self, r) -> bool:
        return (all(v for row in r for v in row) and all(self.minors(r))
                and self.det(r) != 0)

    def product(self, a, b) -> tuple:
        mul = self.mul
        return tuple(tuple(mul[a[i][0]][b[0][j]] ^ mul[a[i][1]][b[1][j]]
                           ^ mul[a[i][2]][b[2][j]] for j in range(3))
                     for i in range(3))

    def is_involutory(self, r) -> bool:
        return self.product(r, r) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def is_witness(self, r, d) -> bool:
        """Whether A diag(d) A is diagonal and non-singular."""
        if d is None or len(d) != 3 or not all(d):
            return False
        dr = tuple(tuple(self.mul[d[i]][v] for v in r[i]) for i in range(3))
        p = self.product(r, dr)
        return all((p[i][j] != 0) == (i == j) for i in range(3) for j in range(3))

    def sums(self, params) -> tuple:
        """(s12, s13, s23, s) of the construction, params = (a11, a22,
        a33, d1, d2, d3, x, y)."""
        a11, a22, a33, d1, d2, d3 = params[:6]
        t1, t2, t3 = self.mul[a11][d1], self.mul[a22][d2], self.mul[a33][d3]
        return t1 ^ t2, t1 ^ t3, t2 ^ t3, t1 ^ t2 ^ t3


def _mul_mod(a: int, b: int, m: int, poly: int) -> int:
    r = 0
    for i in range(m):
        if b >> i & 1:
            r ^= a << i
    for i in range(2 * m - 2, m - 1, -1):
        if r >> i & 1:
            r ^= poly << (i - m)
    return r


def check_item(ref: RefField, item, got) -> list:
    """Problems with one `check-mix` item's verdict set.

    `item` is the generated input (`rows` for a drawn matrix, `params`
    for a built one); `got` is the verdict record, or the exception the
    item raised."""
    if isinstance(got, BaseException):
        return [f"exception {type(got).__name__}: {got}"]
    r = got.rows
    problems = []
    if item.rows is not None and r != item.rows:
        problems.append("matrix entries changed")
    det = ref.det(r)
    if got.det != det:
        problems.append(f"det = {got.det}, want {det}")
    if got.mds != ref.is_mds(r):
        problems.append(f"is_mds = {got.mds}")
    if got.involutory != ref.is_involutory(r):
        problems.append(f"is_involutory = {got.involutory}")
    if got.oracle_raised and det != 0:
        problems.append("si_oracle raised ValueError on a non-singular matrix")
    if got.si != got.oracle_si:
        problems.append(f"detectors disagree: si_check_3x3 {got.si}, "
                        f"si_oracle {got.oracle_si}")
    for name, si, wit in (("si_check_3x3", got.si, got.witness),
                          ("si_oracle", got.oracle_si, got.oracle_witness)):
        if si and not ref.is_witness(r, wit):
            problems.append(f"{name} witness {wit} does not make ADA "
                            f"non-singular diagonal")
    if item.params is not None:
        sums = ref.sums(item.params)
        if not got.si:
            problems.append("built matrix is not semi-involutory")
        if got.mds != all(sums):
            problems.append(f"is_mds = {got.mds} but sums are {sums}")
        nowhere_zero = all(v for row in r for v in row)
        want = tuple(item.params[6:]) if nowhere_zero else None
        if got.extracted != want:
            problems.append(f"extract_xy = {got.extracted}, want {want}")
    return problems
