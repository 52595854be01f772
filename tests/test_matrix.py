import itertools
import random
import time

import pytest

from simds import GF, BudgetError, Diagonal, Matrix


def all_matrices(gf, n):
    for entries in itertools.product(gf.elements(), repeat=n * n):
        yield Matrix(gf, [entries[i * n:(i + 1) * n] for i in range(n)])


def det_by_permutation_expansion(gf, rows):
    """Independent determinant oracle: sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = sum(1 for i in range(n) for j in range(i + 1, n)
                   if perm[i] > perm[j])
        term = 1
        for i in range(n):
            term = gf.mul(term, rows[i][perm[i]])
        total = gf.add(total, term if sign % 2 == 0 else gf.neg(term))
    return total


def mds_by_direct_enumeration(A):
    """Independent 3x3 MDS oracle, avoiding Matrix.det entirely."""
    assert A.n == 3
    gf, r = A.gf, A.rows
    for row in r:
        if 0 in row:
            return False
    for rs in itertools.combinations(range(3), 2):
        for cs in itertools.combinations(range(3), 2):
            minor = gf.sub(gf.mul(r[rs[0]][cs[0]], r[rs[1]][cs[1]]),
                           gf.mul(r[rs[0]][cs[1]], r[rs[1]][cs[0]]))
            if minor == 0:
                return False
    return det_by_permutation_expansion(gf, r) != 0


def test_mul_examples(gf4):
    A = Matrix(gf4, [[1, 2], [3, 2]])
    assert (A @ Diagonal(gf4, [2, 1])).rows == ((2, 2), (1, 2))
    assert A @ Matrix.identity(gf4, 2) == A


def test_mul_mismatch(gf4, gf8):
    with pytest.raises(ValueError):
        Matrix(gf4, [[1]]) @ Matrix(gf8, [[1]])
    with pytest.raises(ValueError):
        Matrix(gf4, [[1, 1], [1, 0]]) @ Matrix(gf4, [[1]])


def test_det_examples(gf4, gf8, f11):
    assert Matrix(gf4, [[1, 3, 3], [3, 2, 2], [1, 3, 3]]).det() == 0
    assert Matrix.identity(gf8, 3).det() == 1
    assert Matrix(f11, [[7, 3], [4, 2]]).det() == 2


def test_inverse_examples(gf4):
    A = Matrix(gf4, [[1, 2], [3, 2]])
    assert A.inverse() == Matrix(gf4, [[3, 3], [1, 2]])
    I = Matrix.identity(gf4, 3)
    assert I.inverse() == I


def test_inverse_singular(gf4):
    with pytest.raises(ValueError):
        Matrix(gf4, [[1, 3, 3], [3, 2, 2], [1, 3, 3]]).inverse()


def test_f11_inverse_identity(f11):
    A = Matrix(f11, [[7, 3], [4, 2]])
    D1 = Diagonal(f11, [4, 8])
    D2 = Diagonal(f11, [2, 4])
    assert A.inverse() == (D1 @ A) @ D2


def test_is_mds_examples(gf16a, gf16b, gf4):
    # involutory MDS fixture (corrected last row; see notes on the
    # printed variant in test_involutory_fixture)
    assert Matrix(gf16a, [[8, 9, 9], [14, 15, 14], [7, 7, 6]]).is_mds()
    assert Matrix(gf16b, [[1, 10, 10], [9, 2, 10], [8, 5, 4]]).is_mds()
    assert not Matrix(gf4, [[0, 1], [1, 1]]).is_mds()
    assert not Matrix.identity(gf4, 3).is_mds()


def test_involutory_fixture(gf16a, gf16b, gf8):
    M = Matrix(gf16a, [[8, 9, 9], [14, 15, 14], [7, 7, 6]])
    assert M.is_involutory()
    assert M @ M == Matrix.identity(gf16a, 3)
    # the variant with constant last row (11, 11, 11) satisfies neither
    # property, under either degree-4 modulus
    for gf in (gf16a, gf16b):
        bad = Matrix(gf, [[8, 9, 9], [14, 15, 14], [11, 11, 11]])
        assert not bad.is_involutory()
        assert not bad.is_mds()
    assert not Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]]).is_involutory()
    assert Matrix.identity(gf8, 3).is_involutory()


def reducible_by_permutations(A):
    """Reference: the definition, some P A P^T whose lower-left block
    below split k is zero, over all n! permutations and n - 1 splits."""
    n, r = A.n, A.rows
    return any(all(r[perm[i]][perm[j]] == 0 for i in range(k, n) for j in range(k))
               for perm in itertools.permutations(range(n)) for k in range(1, n))


def test_is_reducible(gf4, gf8):
    assert Matrix(gf4, [[1, 1], [0, 1]]).is_reducible()
    assert not Matrix(gf4, [[1, 1], [1, 1]]).is_reducible()
    # zero column block, reachable only through the k=1 split
    assert Matrix(gf4, [[1, 1, 0], [1, 1, 0], [1, 1, 1]]).is_reducible()
    assert not Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]]).is_reducible()
    with pytest.raises(ValueError):
        Matrix(gf4, [[1]]).is_reducible()
    # far past n! permutations: a cycle is irreducible; without one of
    # its edges, or with that edge reversed, it is not
    n = 64
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    assert Matrix.identity(gf4, 5).is_reducible()
    assert not Matrix(gf4, cycle).is_reducible()
    for i, j in ((n - 1, 0), (0, 1)):
        broken = [row[:] for row in cycle]
        broken[i][j] = 0
        assert Matrix(gf4, broken).is_reducible()
        broken[j][i] = 1
        assert Matrix(gf4, broken).is_reducible()


def test_is_reducible_matches_permutation_definition(gf4):
    """Only where an entry is zero matters: every 0/1 pattern with
    n = 2, 3 and seeded ones with n = 4 agree with the definition."""
    patterns = [p for n in (2, 3) for p in itertools.product((0, 1), repeat=n * n)]
    rng = random.Random(26)
    patterns += [[rng.randrange(2) for _ in range(16)] for _ in range(2000)]
    for p in patterns:
        n = int(len(p) ** 0.5)
        A = Matrix(gf4, [p[i * n:(i + 1) * n] for i in range(n)])
        assert A.is_reducible() == reducible_by_permutations(A), p


def test_nowhere_zero_is_irreducible(gf4):
    for A in all_matrices(gf4, 2):
        if all(v for row in A.rows for v in row):
            assert not A.is_reducible()


def test_det_multiplicative_gf4_exhaustive(gf4):
    mats = list(all_matrices(gf4, 2))
    for A in mats:
        da = A.det()
        for B in mats:
            assert (A @ B).det() == gf4.mul(da, B.det())


def test_det_multiplicative_gf8_sampled(gf8):
    rng = random.Random(5)
    for _ in range(400):
        A = Matrix(gf8, [[rng.randrange(8) for _ in range(3)] for _ in range(3)])
        B = Matrix(gf8, [[rng.randrange(8) for _ in range(3)] for _ in range(3)])
        assert (A @ B).det() == gf8.mul(A.det(), B.det())


def test_det_vs_permutation_expansion(gf8, f11):
    rng = random.Random(9)
    for gf in (gf8, f11):
        for n in (2, 3, 4):
            for _ in range(150):
                rows = [[rng.randrange(gf.q) for _ in range(n)] for _ in range(n)]
                assert Matrix(gf, rows).det() == det_by_permutation_expansion(gf, rows)


def test_inverse_roundtrip_3x3(gf8):
    rng = random.Random(6)
    done = 0
    while done < 300:
        A = Matrix(gf8, [[rng.randrange(8) for _ in range(3)] for _ in range(3)])
        if A.det() == 0:
            continue
        assert A @ A.inverse() == Matrix.identity(gf8, 3)
        done += 1


def test_inverse_is_adjugate_over_det(gf4, gf8, f11):
    """Elimination agrees with the cofactor formula for n = 1..3."""
    rng = random.Random(7)
    for gf in (gf4, gf8, f11):
        for n in (1, 2, 3):
            done = 0
            while done < 60:
                A = Matrix(gf, [[rng.randrange(gf.q) for _ in range(n)]
                                for _ in range(n)])
                det = A.det()
                if det == 0:
                    continue
                dinv = gf.inv(det)
                adj = [[1 if n == 1 else
                        Matrix(gf, [[v for c, v in enumerate(row) if c != i]
                                    for r, row in enumerate(A.rows) if r != j]).det()
                        for j in range(n)] for i in range(n)]
                want = [[gf.mul(dinv, adj[i][j] if (i + j) % 2 == 0
                                else gf.neg(adj[i][j]))
                         for j in range(n)] for i in range(n)]
                assert A.inverse() == Matrix(gf, want)
                done += 1


def cauchy(gf, n):
    """1/(x_i + y_j) over disjoint x, y: every square submatrix is again
    Cauchy, hence non-singular, so the matrix is MDS."""
    return Matrix(gf, [[gf.inv(i ^ (n + j)) for j in range(n)] for i in range(n)])


def test_is_mds_minor_budget():
    gf = GF(2, 8, 0b100011011)
    t0 = time.monotonic()
    # n = 7 has C(14, 7) - 1 = 3431 minors, all within the budget
    assert cauchy(gf, 7).is_mds()
    for n in (8, 12, 16):
        with pytest.raises(BudgetError):
            cauchy(gf, n).is_mds()
    # a verdict reached within the budget stands at any n
    ones = Matrix(gf, [[1] * 16 for _ in range(16)])
    assert not ones.is_mds()
    assert time.monotonic() - t0 < 2.0


def test_is_mds_agrees_with_direct_enumeration_gf4(gf4):
    """Every 3x3 matrix over GF(4), both verdict paths."""
    count_mds = 0
    for A in all_matrices(gf4, 3):
        got = A.is_mds()
        assert got == mds_by_direct_enumeration(A)
        count_mds += got
    assert count_mds > 0


def test_is_mds_builds_no_matrix(monkeypatch, gf8):
    """`is_mds` takes its minors' determinants from the entries and
    constructs no `Matrix` on the way."""
    rng = random.Random(61)
    samples = [Matrix(gf8, [[rng.randrange(1, 8) for _ in range(3)]
                            for _ in range(3)]) for _ in range(300)]
    samples.append(cauchy(GF(2, 8, 0b100011011), 5))
    verdicts = [A.is_mds() for A in samples]
    assert any(verdicts) and not all(verdicts)

    def forbidden(*args, **kwargs):
        raise AssertionError("is_mds constructed a Matrix")

    monkeypatch.setattr(Matrix, "__init__", forbidden)
    assert [A.is_mds() for A in samples] == verdicts


def test_mds_invariance(gf4, permuted):
    for A in all_matrices(gf4, 3):
        if not all(v for row in A.rows for v in row):
            continue
        verdict = A.is_mds()
        assert A.transpose().is_mds() == verdict
        for perm in ((1, 0, 2), (2, 0, 1)):
            assert permuted(A, perm).is_mds() == verdict


def test_mds_implies_irreducible(gf4):
    for A in all_matrices(gf4, 3):
        if A.is_mds():
            assert not A.is_reducible()


def test_matrix_json_roundtrip(gf8):
    A = Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]])
    d = A.to_dict()
    assert d == {"p": 2, "m": 3, "poly": 13, "n": 3,
                 "rows": [[6, 1, 5], [1, 6, 3], [5, 3, 6]]}
    assert Matrix.from_dict(d) == A
    with pytest.raises(ValueError):
        Matrix.from_dict({"p": 2, "m": 3, "poly": 13, "n": 2,
                          "rows": [[6, 1, 5], [1, 6, 3], [5, 3, 6]]})


def test_entry_validation(gf4):
    with pytest.raises(ValueError):
        Matrix(gf4, [[1, 4], [0, 1]])
    with pytest.raises(ValueError):
        Matrix(gf4, [[1, 2], [0, 1], [1, 1]])
    with pytest.raises(ValueError):
        Diagonal(gf4, [1, 9])


def test_diagonal_flags(gf4):
    assert Diagonal(gf4, [1, 2, 3]).nonsingular
    assert not Diagonal(gf4, [1, 0, 3]).nonsingular
