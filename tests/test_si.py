import itertools
import random
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from simds import (GF, BudgetError, Diagonal, Matrix, SiParams,
                   associated_diagonals, build_matrix,
                   canonical_witness, si_check_3x3, si_oracle,
                   sum_conditions)
from simds._tables import bulk_ops
from simds.matrix import det3, minor
from simds.si import nowhere_zero_si, oracle_hits, product_det

GF4 = GF(2, 2, 0b111)


@lru_cache(maxsize=None)
def gf4_si_matrices():
    """All 3x3 semi-involutory matrices over GF(4), by the entry test."""
    out = []
    for entries in itertools.product(range(4), repeat=9):
        A = Matrix(GF4, [entries[0:3], entries[3:6], entries[6:9]])
        if si_check_3x3(A).si:
            out.append(A)
    return out


def test_oracle_remark_matrix(gf8):
    A = Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]])
    v = si_oracle(A)
    assert v.si and v.branch == "oracle-only"
    # lex-least witness starts at d1 = 1 (witnesses scale freely)
    assert v.witness[0] == 1
    D = Diagonal(gf8, v.witness)
    prod = (A @ D) @ A
    assert all(prod.rows[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    assert all(prod.rows[i][i] != 0 for i in range(3))
    # normalizing the scalar to 1 lands on diag(7, 6, 3)
    d, c, a = canonical_witness(A, v.witness)
    assert (d, c, a) == ((7, 6, 3), 1, 1)
    Dn = Diagonal(gf8, d)
    assert A.inverse() == (Dn @ A) @ Dn


def test_check_remark_matrix(gf8):
    A = Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]])
    v = si_check_3x3(A)
    assert v.si and v.branch == "nowhere-zero"
    assert v.witness == (7, 6, 3) and v.c == 1 and v.a == 1
    assert not A.is_involutory()


def test_oracle_2x2_example(gf4):
    A = Matrix(gf4, [[1, 2], [3, 2]])
    v = si_oracle(A)
    assert v.si
    D = Diagonal(gf4, [2, 1])
    assert A.inverse() == (D @ A) @ D
    assert canonical_witness(A, v.witness)[0] == (2, 1)


def test_oracle_rejects_singular(gf4):
    with pytest.raises(ValueError):
        si_oracle(Matrix(gf4, [[1, 3, 3], [3, 2, 2], [1, 3, 3]]))


def test_oracle_1x1(gf4):
    v = si_oracle(Matrix(gf4, [[2]]))
    assert v.si and v.witness == (1,)
    # a = 2^2 * 1, c = a^{-1}
    assert v.a == gf4.mul(2, 2) and v.c == gf4.inv(v.a)


def test_oracle_budget(gf16a):
    A = Matrix.identity(gf16a, 3)
    assert si_oracle(A).si  # 15^3 = 3375 fits the budget
    with pytest.raises(BudgetError):
        si_oracle(Matrix.identity(gf16a, 4))


def test_oracle_f11(f11):
    A = Matrix(f11, [[7, 3], [4, 2]])
    v = si_oracle(A)
    assert v.si
    # the scalar ties the witness to itself: A^{-1} = c D A D
    D = Diagonal(f11, v.witness)
    lhs = A.inverse()
    rhs = (D @ A) @ D
    assert lhs == Matrix(f11, [[f11.mul(v.c, x) for x in row] for row in rhs.rows])
    # and (DA)^2 = c^{-1} I = a I
    sq = (D @ A) @ (D @ A)
    assert sq == Matrix(f11, [[v.a if i == j else 0 for j in range(2)]
                              for i in range(2)])


def test_check_gf16_example(gf16b):
    A = Matrix(gf16b, [[1, 10, 10], [9, 2, 10], [8, 5, 4]])
    v = si_check_3x3(A)
    assert v.si and v.branch == "nowhere-zero"
    assert not A.is_reducible()


def test_positive_verdict_forms_ada_coefficients_once(monkeypatch, gf8, gf16b):
    """A positive 3x3 verdict forms the 27 products of `_ada_coefficients`
    once, in `_least_witness`: `_witness_scalars`, directly or through
    `canonical_witness`, forms only the three diagonal cells."""
    from simds import si
    f5 = GF(5)
    samples = [Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]]),
               Matrix(gf16b, [[1, 10, 10], [9, 2, 10], [8, 5, 4]]),
               Matrix(f5, [[4, 1, 2], [4, 2, 3], [1, 1, 1]])]
    samples += gf4_si_matrices()[::400]
    before = [si_check_3x3(A) for A in samples]
    assert {v.branch for v in before} == {"nowhere-zero", "single-zero",
                                          "reducible-form"}
    calls = []
    real = si._ada_coefficients

    def spy(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(si, "_ada_coefficients", spy)
    for A, want in zip(samples, before):
        calls.clear()
        assert si_check_3x3(A) == want and want.si
        assert calls == [A]


def test_check_nowhere_zero_necessary_condition(gf8):
    """Unequal triangle products rule out the semi-involutory property
    for any non-singular nowhere-zero matrix."""
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        r = [[rng.randrange(1, 8) for _ in range(3)] for _ in range(3)]
        A = Matrix(gf8, r)
        up = gf8.mul(gf8.mul(r[0][1], r[1][2]), r[2][0])
        down = gf8.mul(gf8.mul(r[0][2], r[1][0]), r[2][1])
        if up == down or A.det() == 0:
            continue
        assert not si_check_3x3(A).si
        checked += 1


def test_si_product_det_examples(gf8, gf16b):
    assert product_det(gf8, [6, 1, 5, 1, 6, 3, 5, 3, 6]) == 0
    assert product_det(gf16b, [1, 10, 10, 9, 2, 10, 8, 5, 4]) == 0
    assert product_det(gf8, [1, 0, 0, 0, 1, 0, 0, 0, 1]) == 0


def _product_det_by_rows(gf, e):
    """Reference: `det3` of the product matrix of `si.product_det`,
    built and expanded row by row."""
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = e
    mul = gf.mul
    return det3(gf, [mul(a11, a21), mul(a21, a22), mul(a23, a31),
                     mul(a11, a31), mul(a21, a32), mul(a31, a33),
                     mul(a12, a31), mul(a22, a32), mul(a32, a33)])


def test_product_det_keeps_value_and_sign(gf8, gf16a):
    """`product_det`, expanded along the product matrix's column 2,
    equals its row-by-row determinant, sign included: on all 3^9
    matrices over GF(3), on 2,000 seeded ones each over GF(5) and GF(7),
    and on 2,000 each over GF(8) and GF(16), scalar and in bulk."""
    rng = random.Random(29)
    cases = [(GF(3), e) for e in itertools.product(range(3), repeat=9)]
    cases += [(gf, [rng.randrange(gf.q) for _ in range(9)])
              for gf in (GF(5), GF(7), gf8, gf16a) for _ in range(2000)]
    for gf, e in cases:
        assert product_det(gf, e) == _product_det_by_rows(gf, e)
    for gf in (gf8, gf16a):
        es = [e for g, e in cases if g is gf]
        got = product_det(bulk_ops(gf), list(np.array(es, dtype=np.uint8).T))
        assert got.tolist() == [_product_det_by_rows(gf, e) for e in es]


def test_product_det_spans_the_a33_axis_once(gf8):
    """With a33 on an axis of its own, as on a grid of every a33, only 1
    of `product_det`'s 12 products spans the full grid."""
    f = bulk_ops(gf8)
    shapes = []

    def mul(a, b):
        out = f.mul(a, b)
        shapes.append(out.shape)
        return out

    rng = np.random.default_rng(31)
    e = [rng.integers(1, 8, size=(1, 50), dtype=np.uint8) for _ in range(8)]
    e.append(np.arange(1, 8, dtype=np.uint8)[:, None])
    det = product_det(SimpleNamespace(mul=mul, add=f.add, sub=f.sub), e)
    assert det.shape == (7, 50)
    assert len(shapes) == 12 and shapes.count((7, 50)) == 1


def test_si_product_det_nonzero_for_non_si(gf8):
    rng = random.Random(3)
    seen_nonzero = 0
    for _ in range(200):
        e = [rng.randrange(1, 8) for _ in range(9)]
        if product_det(gf8, e) != 0:
            seen_nonzero += 1
            assert not si_check_3x3(Matrix(gf8, [e[0:3], e[3:6], e[6:9]])).si
    assert seen_nonzero > 100


def test_block_form_branch(gf4):
    # block diagonal: x = 0, B semi-involutory
    A = Matrix(gf4, [[1, 2, 0], [3, 2, 0], [0, 0, 1]])
    v = si_check_3x3(A)
    assert v.si and v.branch == "reducible-form"
    assert si_oracle(A).si
    # zero-column pattern, reachable only via the transposed orientation
    B = Matrix(gf4, [[1, 0, 0], [2, 1, 0], [3, 1, 1]])
    vb = si_check_3x3(B)
    assert vb.si == si_oracle(B).si
    # identity is semi-involutory
    assert si_check_3x3(Matrix.identity(gf4, 3)).si


def test_single_zero_branch():
    hits = [A for A in gf4_si_matrices()
            if sum(row.count(0) for row in A.rows) == 1]
    assert hits, "GF(4) should contain single-zero semi-involutory matrices"
    for A in hits[:50]:
        v = si_check_3x3(A)
        assert v.branch == "single-zero"
        i = next(i for i in range(3) if A.rows[i][i] == 0)
        keep = [k for k in range(3) if k != i]
        assert Matrix(A.gf, [[A.rows[r][c] for c in keep] for r in keep]).det() == 0


def _single_zero_si(gf, e):
    """Reference: the paper's single-zero condition on a matrix with one
    zero.  The zero sits on the diagonal, the triangle products
    a12 a23 a31 and a13 a21 a32 agree, and the complementary 2x2 minor
    vanishes."""
    mul = gf.mul
    i, j = divmod(e.index(0), 3)
    keep = [k for k in range(3) if k != i]
    return (i == j and mul(mul(e[1], e[5]), e[6]) == mul(mul(e[2], e[3]), e[7])
            and minor(gf, e, keep, keep) == 0)


def _one_zero(rng, q):
    """Nine entries over GF(q), exactly one of them zero."""
    e = [rng.randrange(1, q) for _ in range(9)]
    e[rng.randrange(9)] = 0
    return e


def test_single_zero_condition_is_nowhere_zero_si(gf8, gf16a):
    """On a matrix with one zero, `nowhere_zero_si` is the paper's
    single-zero condition: on every one-zero matrix over GF(3) and
    GF(4), and on 20,000 seeded ones each over GF(5), GF(7), GF(8) and
    GF(16), the last two also in bulk."""
    rng = random.Random(43)
    fields = [GF(3), GF4, GF(5), GF(7), gf8, gf16a]
    cases = {gf: [e for e in map(list, itertools.product(range(gf.q), repeat=9))
                  if e.count(0) == 1] for gf in fields[:2]}
    cases.update((gf, [_one_zero(rng, gf.q) for _ in range(20000)])
                 for gf in fields[2:])
    assert [len(cases[gf]) for gf in fields[:2]] == [2304, 59049]
    for gf, es in cases.items():
        want = [_single_zero_si(gf, e) for e in es]
        assert [nowhere_zero_si(gf, e) for e in es] == want
        assert True in want and False in want
        if gf in (gf8, gf16a):
            got = nowhere_zero_si(bulk_ops(gf), list(np.array(es, dtype=np.uint8).T))
            assert got.tolist() == want


def test_witness_validity_gf4():
    for A in gf4_si_matrices():
        v = si_check_3x3(A)
        D = Diagonal(GF4, v.witness)
        prod = (A @ D) @ A
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert prod.rows[i][j] != 0
                else:
                    assert prod.rows[i][j] == 0
        if v.c is not None:
            # A^{-1} = c D A D entrywise
            rhs = (D @ A) @ D
            scaled = Matrix(GF4, [[GF4.mul(v.c, x) for x in row] for row in rhs.rows])
            assert A.inverse() == scaled


def test_closure_gf4(permuted):
    """Transpose, inverse, permutation conjugation and diagonal
    sandwiches preserve the semi-involutory property."""
    perms = [(1, 0, 2), (2, 0, 1)]
    sandwiches = [(Diagonal(GF4, [2, 1, 3]), Diagonal(GF4, [3, 3, 1])),
                  (Diagonal(GF4, [1, 2, 2]), Diagonal(GF4, [2, 1, 1]))]
    for A in gf4_si_matrices():
        assert si_check_3x3(A.transpose()).si
        assert si_check_3x3(A.inverse()).si
        for perm in perms:
            assert si_check_3x3(permuted(A, perm)).si
        for D, E in sandwiches:
            assert si_check_3x3((D @ A) @ E).si


def test_closure_gf8_samples(gf8, permuted):
    rng = random.Random(13)
    found = []
    while len(found) < 60:
        vals = [rng.randrange(1, 8) for _ in range(8)]
        p = SiParams(gf8, *vals)
        if sum_conditions(p).s != 0:
            found.append(build_matrix(p))
    D = Diagonal(gf8, [3, 1, 6])
    E = Diagonal(gf8, [5, 2, 7])
    for A in found:
        assert si_check_3x3(A).si
        assert si_check_3x3(A.transpose()).si
        assert si_check_3x3(A.inverse()).si
        assert si_check_3x3(permuted(A, (2, 1, 0))).si
        assert si_check_3x3((D @ A) @ E).si


def test_nowhere_zero_si_is_mds_samples(gf8):
    rng = random.Random(17)
    hits = 0
    for _ in range(4000):
        A = Matrix(gf8, [[rng.randrange(1, 8) for _ in range(3)] for _ in range(3)])
        if si_check_3x3(A).si:
            hits += 1
            assert A.is_mds()
    assert hits > 0


def test_oracle_check_agreement_sampled(gf8b, gf16a):
    rng = random.Random(19)
    for gf in (gf8b, gf16a):
        for _ in range(4000):
            A = Matrix(gf, [[rng.randrange(gf.q) for _ in range(3)]
                            for _ in range(3)])
            try:
                osi = si_oracle(A).si
            except ValueError:
                osi = False
            assert si_check_3x3(A).si == osi


def test_all_witnesses_enumeration(gf4):
    A = Matrix(gf4, [[1, 2], [3, 2]])
    wits = associated_diagonals(A)
    assert wits == sorted(wits)
    assert (2, 1) in wits
    # every listed witness is valid, every omitted diagonal is not
    listed = set(wits)
    for d in itertools.product((1, 2, 3), repeat=2):
        D = Diagonal(gf4, d)
        prod = (A @ D) @ A
        ok = (prod.rows[0][1] == 0 and prod.rows[1][0] == 0
              and prod.rows[0][0] != 0 and prod.rows[1][1] != 0)
        assert ok == (d in listed)


def _seeded_sample(gf, seed, count):
    """Non-singular matrices over gf: random entries (zeros included)
    and construction-built semi-involutory ones, alternately."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            vals = [rng.randrange(1, gf.q) for _ in range(8)]
            A = build_matrix(SiParams(gf, *vals))
        else:
            A = Matrix(gf, [[rng.randrange(gf.q) for _ in range(3)]
                            for _ in range(3)])
        if A.det() != 0:
            out.append(A)
    return out


def test_associated_diagonals_tables_match_loop(monkeypatch, gf4, gf8, gf16a):
    """The table evaluation of `associated_diagonals` lists the same
    witnesses as its scalar loop."""
    from simds import si
    samples = [A for gf, n in ((gf4, 150), (gf8, 150), (gf16a, 20))
               for A in _seeded_sample(gf, 29, n)]
    by_tables = [associated_diagonals(A) for A in samples]
    assert sum(map(bool, by_tables)) >= len(samples) // 2
    monkeypatch.setattr(si, "TABLE_MAX_Q", 0)
    assert [associated_diagonals(A) for A in samples] == by_tables


def _columns(matrices):
    """The entries of each matrix, row by row, as nine uint8 columns."""
    return np.array([[v for row in A.rows for v in row] for A in matrices],
                    dtype=np.uint8).reshape(-1, 9).T


def test_oracle_hits_verdicts_match_scalar_oracle(monkeypatch, gf8, gf16a):
    """The batched oracle finds a diagonal exactly for the matrices that
    are non-singular and semi-involutory: all 4^9 matrices over GF(4),
    singular ones included, against A (D A) formed cell by cell by
    `census._product_entry` for each of the 27 diagonals D, and seeded
    samples over GF(8) and GF(16), random ones and built
    semi-involutory ones, against `si_oracle`'s scalar loop."""
    from simds import census, si
    f = bulk_ops(GF4)
    e = np.indices((4,) * 9, dtype=np.uint8).reshape(9, -1)
    got = oracle_hits(GF4, e).any(axis=1)
    want = np.zeros(e.shape[1], dtype=bool)
    for d in itertools.product(range(1, 4), repeat=3):
        da = [f.mul(d[k], e[3 * k + j]) for k in range(3) for j in range(3)]
        hit = np.ones(e.shape[1], dtype=bool)
        for i, j in itertools.product(range(3), repeat=2):
            cell = census._product_entry(f, e, da, i, j)
            hit &= (cell != 0) if i == j else (cell == 0)
        want |= hit
    assert np.array_equal(got, want) and want.sum() == 8370
    rng = random.Random(433)
    samples = [[Matrix(gf, [[rng.randrange(gf.q) for _ in range(3)] for _ in range(3)])
                for _ in range(n)] + _built_si(gf, 439, 20)
               for gf, n in ((gf8, 500), (gf16a, 60))]
    batched = [oracle_hits(A[0].gf, _columns(A)).any(axis=1).tolist() for A in samples]
    monkeypatch.setattr(si, "TABLE_MAX_Q", 0)
    for matrices, got in zip(samples, batched):
        want = [A.det() != 0 and si_oracle(A).si for A in matrices]
        assert got == want
        assert any(A.det() == 0 for A in matrices) and sum(want) >= 20


def test_oracle_hits_lists_every_associated_diagonal(monkeypatch, gf4, gf8, gf16a):
    """Row k of the hit mask marks, in `nonzero_grid` order, exactly the
    diagonals `associated_diagonals` lists for matrix k, whatever the
    block size."""
    from simds import si
    from simds._tables import nonzero_grid
    for gf, n in ((gf4, 300), (gf8, 300), (gf16a, 60)):
        samples = _seeded_sample(gf, 71, n)
        want = [associated_diagonals(A) for A in samples]
        assert any(want) and not all(want)
        grid = np.stack(nonzero_grid(gf.q, 3), axis=1)
        for chunk in (si._CHUNK, 5000):
            monkeypatch.setattr(si, "_CHUNK", chunk)
            hits = oracle_hits(gf, _columns(samples))
            assert hits.shape == (n, len(grid))
            got = [[tuple(map(int, grid[h])) for h in np.flatnonzero(row)]
                   for row in hits]
            assert got == want
    with pytest.raises(BudgetError):
        oracle_hits(gf16a, [[1]] * 16)


def _built_si(gf, seed, count):
    """Semi-involutory matrices built from seeded parameters with s != 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = SiParams(gf, *(rng.randrange(1, gf.q) for _ in range(8)))
        if sum_conditions(p).s != 0:
            out.append(build_matrix(p))
    return out


def test_least_witness_is_first_associated_diagonal(monkeypatch, gf8, gf8b, gf16a):
    """`si_check_3x3`'s witness walk finds the least of all associated
    diagonals, or None where there is none: on all 4^9 matrices over
    GF(4), by the batched oracle's first hit (a singular matrix has
    none), on built matrices over GF(8) and GF(16), and, by the scalar
    loop, on seeded random ones."""
    from simds import si
    from simds._tables import nonzero_grid
    e = np.indices((4,) * 9, dtype=np.uint8).reshape(9, -1)
    hits = oracle_hits(GF4, e)
    grid = [tuple(map(int, d)) for d in zip(*nonzero_grid(4, 3))]
    least = [grid[k] if hit else None
             for k, hit in zip(hits.argmax(axis=1).tolist(), hits.any(axis=1).tolist())]
    nonsingular = 0
    for t, want in zip(itertools.product(range(4), repeat=9), least):
        A = Matrix(GF4, (t[0:3], t[3:6], t[6:9]))
        if A.det() != 0:
            nonsingular += 1
            assert si._least_witness(A) == want
    assert nonsingular == 181440 and len(least) - least.count(None) == 8370
    built = _built_si(gf8b, 59, 300) + _built_si(gf16a, 61, 300)
    for A in built:
        assert si._least_witness(A) == associated_diagonals(A)[0]
    monkeypatch.setattr(si, "TABLE_MAX_Q", 0)
    mixed = _seeded_sample(gf8, 47, 200)
    assert any(not associated_diagonals(A) for A in mixed)
    for A in mixed + built[:20]:
        wits = associated_diagonals(A)
        assert si._least_witness(A) == (wits[0] if wits else None)


def _least_by_products(A):
    """The first diagonal (1, d2, d3), ascending, whose A D A the
    `Matrix` product shows diagonal and non-singular, or None."""
    gf = A.gf
    for d2, d3 in itertools.product(gf.elements(True), repeat=2):
        rows = ((A @ Diagonal(gf, (1, d2, d3))) @ A).rows
        if all((rows[i][j] != 0) == (i == j) for i in range(3) for j in range(3)):
            return (1, d2, d3)
    return None


def test_least_witness_matches_diagonal_loop():
    """Above the oracle's table search, at q = 32 and 64, the witness
    walk equals a loop over all (q-1)^2 diagonals with d1 = 1 that reads
    no `si` helper: on built matrices and on ones with two to five
    zeros, semi-involutory or not."""
    from simds import si
    for gf in (GF(2, 5, 0b100101), GF(2, 6, 0b1000011)):
        rng = random.Random(gf.q)
        samples = _built_si(gf, gf.q, 10)
        while len(samples) < 20:
            e = _with_zeros(rng, gf.q)
            A = Matrix(gf, [e[0:3], e[3:6], e[6:9]])
            if A.det() != 0:
                samples.append(A)
        want = [_least_by_products(A) for A in samples]
        assert [si._least_witness(A) for A in samples] == want
        assert any(w is None for w in want[10:]) and all(want[:10])


class _Forbidden(Exception):
    pass


def _forbidden(*args, **kwargs):
    raise _Forbidden


def test_oracle_does_not_read_entry_test(monkeypatch, gf4, gf8):
    """`si_oracle` is independent of the entry-level test: with every
    part of `si_check_3x3` broken, its verdicts and witnesses are
    unchanged."""
    from simds import si
    samples = _seeded_sample(gf4, 31, 300) + _seeded_sample(gf8, 37, 300)
    before = [si_oracle(A) for A in samples]
    assert any(v.si for v in before) and not all(v.si for v in before)

    def batched():
        return [oracle_hits(gf, _columns(samples[k:k + 300])).tolist()
                for k, gf in ((0, gf4), (300, gf8))]

    batched_before = batched()
    for name in ("si_check_3x3", "triangle_products_agree", "product_det",
                 "product_det_terms", "nowhere_zero_si", "_block_form_si",
                 "_least_witness"):
        monkeypatch.setattr(si, name, _forbidden)
    for A in samples:  # the patches reach every branch that reads them
        with pytest.raises(_Forbidden):
            si_check_3x3(A)
    assert [si_oracle(A) for A in samples] == before
    assert batched() == batched_before


def _with_zeros(rng, q):
    """Nine entries over GF(q), two to five of them zero."""
    e = [rng.randrange(1, q) for _ in range(9)]
    for k in rng.sample(range(9), rng.randrange(2, 6)):
        e[k] = 0
    return e


def test_entry_test_matches_oracle_in_odd_characteristic():
    """The entry-level test agrees with the oracle on all 3^9 matrices
    over GF(3), on 4,000 nowhere-zero matrices over GF(5) and on 4,000
    matrices with two to five zeros each over GF(5) and GF(7).  The
    nowhere-zero ones reach semi-involutory matrices of the nowhere-zero
    branch, and the ones with zeros those of the reducible-form branch."""
    f3, f5, f7 = GF(3), GF(5), GF(7)
    rng = random.Random(53)
    cases = [(f3, e) for e in itertools.product(range(3), repeat=9)]
    cases += [(f5, [rng.randrange(1, 5) for _ in range(9)]) for _ in range(4000)]
    cases += [(gf, _with_zeros(rng, gf.q)) for gf in (f5, f7) for _ in range(4000)]
    branches = set()
    for gf, e in cases:
        A = Matrix(gf, [e[0:3], e[3:6], e[6:9]])
        v = si_check_3x3(A)
        want = A.det() != 0 and si_oracle(A).si
        assert v.si == want
        if v.si:
            assert v.witness == si_oracle(A).witness
            branches.add((gf.q, v.branch))
    assert (5, "nowhere-zero") in branches
    assert {(3, "single-zero"), (3, "reducible-form")} <= branches
    assert {(5, "reducible-form"), (7, "reducible-form")} <= branches


def test_entry_test_searches_diagonals_only_for_witness(monkeypatch, gf4, gf8):
    """On every zero pattern `si_check_3x3` decides from the entries
    alone, and solves its witness without the oracle's diagonal search:
    with that search broken it still returns the oracle's verdict and a
    witness that `_verify_witness` accepts."""
    from simds import si
    samples = _seeded_sample(gf4, 41, 400) + _seeded_sample(gf8, 43, 400)
    verdicts = [si_oracle(A).si for A in samples]
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 100
    for name in ("associated_diagonals", "oracle_hits", "_search_plan"):
        monkeypatch.setattr(si, name, _forbidden)
    for A, is_si in zip(samples, verdicts):
        v = si_check_3x3(A)
        assert v.si is is_si
        if is_si:
            si._verify_witness(A, v.witness)
