import itertools
import random

import pytest

from simds import (Diagonal, Matrix, SiParams, build_matrix, curupira_is_mds,
                   curupira_matrix, extract_xy, minor_formulas,
                   predicted_invariants, si_oracle, sum_conditions)


def brute_minors(A):
    out = []
    for rs in itertools.combinations(range(3), 2):
        for cs in itertools.combinations(range(3), 2):
            out.append(Matrix(A.gf, [[A.rows[i][j] for j in cs] for i in rs]).det())
    return tuple(out)


def test_params_validation(gf4, f11):
    with pytest.raises(ValueError):
        SiParams(gf4, 0, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        SiParams(gf4, 1, 1, 1, 1, 1, 1, 1, 4)
    with pytest.raises(ValueError):
        SiParams(f11, 1, 1, 1, 1, 1, 1, 1, 1)


def test_build_counterexample_gf4(gf4):
    p = SiParams(gf4, 1, 2, 3, 2, 3, 1, 2, 3)
    A = build_matrix(p)
    assert A.rows == ((1, 3, 3), (3, 2, 2), (1, 3, 3))
    assert A.det() == 0
    sc = sum_conditions(p)
    assert sc.s == 0 and not sc.all_nonzero
    with pytest.raises(ValueError):
        si_oracle(A)


def test_build_gf16_example(gf16b):
    p = SiParams(gf16b, 1, 2, 4, 2, 2, 9, 1, 2)
    A = build_matrix(p)
    assert A.rows == ((1, 10, 10), (9, 2, 10), (8, 5, 4))
    assert sum_conditions(p).all_nonzero
    assert A.is_mds()
    det, ada = predicted_invariants(p)
    assert ada == (7, 7, 9)
    assert A.det() == det
    D = p.diag
    assert ((A @ D) @ A).rows == ((7, 0, 0), (0, 7, 0), (0, 0, 9))


def test_sum_conditions_cancellation(gf8):
    p = SiParams(gf8, 3, 3, 5, 2, 2, 1, 1, 1)
    sc = sum_conditions(p)
    assert sc.s12 == 0 and not sc.all_nonzero


def test_degenerate_pair_sum_zeroes_entries(gf8):
    # s13 = 0 forces the (0,1) and (2,1) entries to vanish
    for p in _random_params(gf8, 300, seed=31):
        sc = sum_conditions(p)
        A = build_matrix(p)
        assert (A.rows[0][1] == 0) == (sc.s13 == 0)
        assert (A.rows[2][1] == 0) == (sc.s13 == 0)
        assert (A.rows[0][2] == 0) == (sc.s12 == 0)
        assert (A.rows[1][0] == 0) == (sc.s23 == 0)


def _random_params(gf, count, seed):
    rng = random.Random(seed)
    return [SiParams(gf, *[rng.randrange(1, gf.q) for _ in range(8)])
            for _ in range(count)]


def test_predicted_invariants_specializations(gf8):
    for p in _random_params(gf8, 100, seed=37):
        det, ada = predicted_invariants(p)
        sc = sum_conditions(p)
        if sc.s == 0:
            assert det == 0 and ada == (0, 0, 0)
        assert build_matrix(p).det() == det
    # d = (1,1,1) gives det = s^3
    p = SiParams(gf8, 2, 3, 4, 1, 1, 1, 5, 6)
    det, _ = predicted_invariants(p)
    assert det == gf8.pow(sum_conditions(p).s, 3)


def test_minor_formulas_match_brute_force(gf8, gf16b):
    for gf, seed in ((gf8, 41), (gf16b, 43)):
        done = 0
        rng = random.Random(seed)
        while done < 500:
            p = SiParams(gf, *[rng.randrange(1, gf.q) for _ in range(8)])
            if not sum_conditions(p).all_nonzero:
                continue
            assert minor_formulas(p) == brute_minors(build_matrix(p))
            done += 1


def test_minor_formulas_rejects_degenerate(gf4):
    p = SiParams(gf4, 1, 2, 3, 2, 3, 1, 2, 3)  # s = 0
    with pytest.raises(ValueError):
        minor_formulas(p)


def test_extract_roundtrip_gf8(gf8):
    for p in _random_params(gf8, 800, seed=47):
        if not sum_conditions(p).all_nonzero:
            continue
        assert extract_xy(build_matrix(p), p.diag) == (p.x, p.y)


def test_extract_gf16_example(gf16b):
    A = Matrix(gf16b, [[1, 10, 10], [9, 2, 10], [8, 5, 4]])
    assert extract_xy(A, Diagonal(gf16b, [2, 2, 9])) == (1, 2)


def test_extract_remark_matrix(gf8):
    A = Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]])
    got = extract_xy(A, Diagonal(gf8, [7, 6, 3]))
    assert got is not None
    x, y = got
    p = SiParams(gf8, 6, 6, 6, 7, 6, 3, x, y)
    assert build_matrix(p) == A


def test_extract_absent_for_unrelated_diagonal(gf8):
    A = Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]])
    # a diagonal that is not associated with A: recovery must fail
    assert extract_xy(A, Diagonal(gf8, [1, 2, 3])) is None


def test_extract_preconditions(gf8):
    with pytest.raises(ValueError):
        extract_xy(Matrix.identity(gf8, 3), Diagonal(gf8, [1, 1, 1]))
    A = Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]])
    with pytest.raises(ValueError):
        extract_xy(A, Diagonal(gf8, [1, 0, 3]))


def test_extract_recovers_all_irreducible_si_nowhere_zero(gf4, gf8):
    """Every nowhere-zero semi-involutory matrix admits (x, y) recovery
    from any of its witness diagonals."""
    from simds import associated_diagonals, si_check_3x3
    rng = random.Random(53)
    checked = 0
    for gf, tries in ((gf4, 20000), (gf8, 20000)):
        for _ in range(tries):
            rows = [[rng.randrange(1, gf.q) for _ in range(3)] for _ in range(3)]
            A = Matrix(gf, rows)
            if not si_check_3x3(A).si:
                continue
            for d in associated_diagonals(A):
                assert extract_xy(A, Diagonal(gf, d)) is not None
            checked += 1
    assert checked > 50


def test_soundness_exhaustive_gf4(gf4):
    """Over the full 3^8 parameter space: s != 0 makes the matrix
    semi-involutory with the declared witness and ADA diagonal."""
    for vals in itertools.product((1, 2, 3), repeat=8):
        p = SiParams(gf4, *vals)
        A = build_matrix(p)
        sc = sum_conditions(p)
        det, ada = predicted_invariants(p)
        assert A.det() == det
        if sc.s == 0:
            assert det == 0
            continue
        prod = (A @ p.diag) @ A
        assert prod.rows == tuple(tuple(v if i == j else 0 for j in range(3))
                                  for i, v in enumerate(ada))
        assert si_oracle(A).si
        assert A.is_mds() == sc.all_nonzero


def test_irreducibility_when_pair_sums_nonzero(gf4, gf8):
    for gf, params in ((gf4, None), (gf8, _random_params(gf8, 400, seed=59))):
        if params is None:
            params = [SiParams(gf, *vals)
                      for vals in itertools.product((1, 2, 3), repeat=8)]
        for p in params:
            sc = sum_conditions(p)
            if sc.s12 and sc.s13 and sc.s23:
                A = build_matrix(p)
                assert all(v for row in A.rows for v in row)
                assert not A.is_reducible()


def test_curupira_matrix(gf8):
    assert curupira_matrix(gf8, 0, 0) == Matrix.identity(gf8, 3)
    C = curupira_matrix(gf8, 2, 4)
    assert C.rows == ((3, 2, 2), (4, 5, 4), (6, 6, 7))
    assert C.is_involutory()
    assert C.is_mds()


def test_curupira_always_involutory(gf4, gf8, gf16a):
    for gf in (gf4, gf8, gf16a):
        for a in gf.elements():
            for b in gf.elements():
                assert curupira_matrix(gf, a, b).is_involutory()


def test_curupira_mds_predicate(gf4, gf8, gf16a):
    for gf in (gf4, gf8, gf16a):
        for a in gf.elements():
            for b in gf.elements():
                assert curupira_is_mds(gf, a, b) == curupira_matrix(gf, a, b).is_mds()
    assert not curupira_is_mds(gf8, 1, 4)
    assert not curupira_is_mds(gf8, 2, 2)
    assert curupira_is_mds(gf8, 2, 4)


def test_params_json_roundtrip(gf16b):
    p = SiParams(gf16b, 1, 2, 4, 2, 2, 9, 1, 2)
    d = p.to_dict()
    assert d == {"field": {"p": 2, "m": 4, "poly": 25},
                 "a": [1, 2, 4], "d": [2, 2, 9], "x": 1, "y": 2}
    assert SiParams.from_dict(d) == p
