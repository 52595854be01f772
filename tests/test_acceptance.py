"""Acceptance suite: one test per criterion, exact equalities throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion as it completes.
"""

import contextlib
import itertools
import random
import time

import numpy as np
import pytest

from simds import (GF, Diagonal, Matrix, SiParams,
                   associated_scalar, brute_force_S, build_matrix,
                   enumeration_stats, exhaustive_matrix_census,
                   extract_xy, formula_count,
                   minor_formulas, predicted_invariants, si_check_3x3,
                   si_oracle, sum_conditions, sweep_parameter_space)
from simds._tables import _digits, bulk_ops
from simds.census import _mds_mask
from simds.matrix import det3
from simds.si import nowhere_zero_si, oracle_hits

GF4 = GF(2, 2, 0b111)
GF8 = GF(2, 3, 0b1101)
GF8B = GF(2, 3, 0b1011)
GF16A = GF(2, 4, 0b10011)
GF16B = GF(2, 4, 0b11001)
F11 = GF(11)


@contextlib.contextmanager
def criterion(cid, text):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {cid}: FAIL - {text}")
        raise
    print(f"\nACCEPTANCE {cid}: PASS - {text} ({time.monotonic() - t0:.1f}s)")


def test_c01_parametrized_count_gf8():
    with criterion("C1", "parametrized dedup enumeration over GF(2^3) = 403368"):
        t0 = time.monotonic()
        stats = enumeration_stats(GF8B)
        assert stats.distinct == 403368
        assert time.monotonic() - t0 < 60


def test_c02_exhaustive_scan_gf8():
    with criterion("C2", "exhaustive 7^9 matrix scan over GF(2^3) = 403368"):
        assert exhaustive_matrix_census(GF8B, "SI_MDS") == 403368


def test_c03_nonexistence_gf4():
    with criterion("C3", "no semi-involutory MDS matrix exists over GF(2^2)"):
        t0 = time.monotonic()
        assert enumeration_stats(GF4).distinct == 0
        assert exhaustive_matrix_census(GF4, "SI_MDS") == 0
        assert time.monotonic() - t0 < 1.0


def test_c04_involutory_census():
    with criterion("C4", "involutory MDS: GF(2^3) scan = 1176, GF(2^4) "
                         "formula = scan = 37800 for both moduli"):
        assert exhaustive_matrix_census(GF8B, "INV_MDS") == 1176
        assert formula_count("INV_MDS", 4) == 37800
        assert exhaustive_matrix_census(GF16A, "INV_MDS") == 37800
        assert exhaustive_matrix_census(GF16B, "INV_MDS") == 37800


def test_c05_tuple_set_lemmas():
    with criterion("C5", "tuple-set counts match closed forms for m = 2, 3, 4"):
        t0 = time.monotonic()
        fields = {2: GF4, 3: GF8B, 4: GF16A}
        for m, gf in fields.items():
            parts = {}
            for name in ("S", "S1", "S2", "S3", "S4", "S5"):
                brute = brute_force_S(gf, name)
                assert brute == formula_count(name, m), (name, m)
                parts[name] = brute
            assert parts["S"] == sum(parts[k] for k in
                                     ("S1", "S2", "S3", "S4", "S5"))
        # the S total at m = 3, frozen from the literal enumeration
        assert brute_force_S(GF8B, "S") == 57624
        assert time.monotonic() - t0 < 60


def test_c06_worked_fixtures():
    with criterion("C6", "worked examples reproduce bit-exact"):
        # 2x2 over GF(2^2) with D1 = D2 = diag(2, 1)
        A = Matrix(GF4, [[1, 2], [3, 2]])
        D = Diagonal(GF4, [2, 1])
        assert A.inverse() == (D @ A) @ D == Matrix(GF4, [[3, 3], [1, 2]])
        assert associated_scalar(A, D, D) == 1
        assert si_oracle(A).si

        # 2x2 over F_11 with D1 = diag(4, 8), D2 = diag(2, 4)
        B = Matrix(F11, [[7, 3], [4, 2]])
        assert B.det() == 2
        D1, D2 = Diagonal(F11, [4, 8]), Diagonal(F11, [2, 4])
        assert B.inverse() == (D1 @ B) @ D2
        assert associated_scalar(B, D1, D2) == 2

        # 3x3 over GF(2^3): semi-involutory but not involutory
        R = Matrix(GF8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]])
        v = si_check_3x3(R)
        assert v.si and not R.is_involutory() and not R.is_reducible()
        assert v.witness == (7, 6, 3) and v.c == 1
        DR = Diagonal(GF8, [7, 6, 3])
        assert R.inverse() == (DR @ R) @ DR

        # GF(2^2) singular counterexample from the construction
        p = SiParams(GF4, 1, 2, 3, 2, 3, 1, 2, 3)
        C = build_matrix(p)
        assert C == Matrix(GF4, [[1, 3, 3], [3, 2, 2], [1, 3, 3]])
        assert C.det() == 0
        with pytest.raises(ValueError):
            si_oracle(C)

        # involutory MDS over GF(2^4) (corrected completion of the
        # published rows; the constant-row variant is neither)
        M = Matrix(GF16A, [[8, 9, 9], [14, 15, 14], [7, 7, 6]])
        assert M @ M == Matrix.identity(GF16A, 3)
        assert M.is_mds()
        bad = Matrix(GF16A, [[8, 9, 9], [14, 15, 14], [11, 11, 11]])
        assert not bad.is_involutory() and not bad.is_mds()

        # GF(2^4) 8-parameter example: matrix, ADA diagonal, recovery
        p16 = SiParams(GF16B, 1, 2, 4, 2, 2, 9, 1, 2)
        E = build_matrix(p16)
        assert E == Matrix(GF16B, [[1, 10, 10], [9, 2, 10], [8, 5, 4]])
        _, ada = predicted_invariants(p16)
        assert ada == (7, 7, 9)
        assert (E @ p16.diag) @ E == Diagonal(GF16B, ada).as_matrix()
        assert extract_xy(E, Diagonal(GF16B, [2, 2, 9])) == (1, 2)


def _oracle_verdicts(gf, e):
    """The batched oracle's verdict on each matrix of the columns `e`,
    1024 matrices a call, so that no hit mask holds more than 1024
    (q-1)^3 pairs."""
    return np.concatenate([oracle_hits(gf, e[:, lo:lo + 1024]).any(axis=1)
                           for lo in range(0, e.shape[1], 1024)])


def test_c07_oracle_equivalence():
    with criterion("C7", "entry test vs exhaustive oracle: GF(2^2) complete, "
                         "GF(2^3)/GF(2^4) 10^5 samples, zero disagreements"):
        # itertools.product order: the last entry varies fastest
        e = np.indices((4,) * 9, dtype=np.uint8).reshape(9, -1)
        cases = [(GF4, itertools.product(range(4), repeat=9), e)]
        for gf in (GF8B, GF16A):
            rng = random.Random(427)
            q = gf.q
            # 10^5 matrices of nine draws each, row by row
            flat = [rng.randrange(q) for _ in range(9 * 100_000)]
            cases.append((gf, zip(*[iter(flat)] * 9),
                          np.array(flat, dtype=np.uint8).reshape(-1, 9).T))
        for gf, matrices, e in cases:
            oracle = _oracle_verdicts(gf, e).tolist()
            for entries, osi in zip(matrices, oracle, strict=True):
                A = Matrix(gf, (entries[0:3], entries[3:6], entries[6:9]))
                assert si_check_3x3(A).si == osi


def test_c08_mds_biconditional_sweep_gf8():
    with criterion("C8", "all 7^8 parameter tuples over GF(2^3): MDS iff the "
                         "four sums are non-zero"):
        sw = sweep_parameter_space(GF8B)
        assert sw.tuples == 7 ** 8
        assert sw.mds_iff_sums_failures == 0
        assert sw.ada_formula_failures == 0
        assert sw.det_formula_failures == 0
        assert sw.zero_pattern_failures == 0


def test_c09_minor_closed_forms():
    with criterion("C9", "nine 2x2 minor closed forms match brute force on "
                         "1000 random tuples over GF(2^3) and GF(2^4)"):
        for gf, seed in ((GF8, 61), (GF16B, 67)):
            rng = random.Random(seed)
            done = 0
            while done < 1000:
                p = SiParams(gf, *[rng.randrange(1, gf.q) for _ in range(8)])
                if not sum_conditions(p).all_nonzero:
                    continue
                A = build_matrix(p)
                expect = tuple(
                    Matrix(gf, [[A.rows[i][j] for j in cs] for i in rs]).det()
                    for rs in itertools.combinations(range(3), 2)
                    for cs in itertools.combinations(range(3), 2))
                assert minor_formulas(p) == expect
                done += 1


def _si_and_mds_counts_gf8(gf):
    """(nowhere-zero semi-involutory, nowhere-zero semi-involutory MDS)
    totals over all (q-1)^9 matrices, via the bulk kernels."""
    f = bulk_ops(gf)
    total = (gf.q - 1) ** 9
    n_si = n_si_mds = 0
    for start in range(0, total, 1 << 20):
        stop = min(start + (1 << 20), total)
        e = _digits(start, stop, 9, gf.q - 1)
        si = nowhere_zero_si(f, e) & (det3(f, e) != 0)
        n_si += int(si.sum())
        n_si_mds += int((si & _mds_mask(f, e)).sum())
    return n_si, n_si_mds


def test_c10_property_suites():
    with criterion("C10", "field axioms, char-2 identities, MDS invariance, "
                          "nowhere-zero SI => MDS, worker determinism"):
        # exhaustive field axioms for q in {4, 8, 16}
        for gf in (GF4, GF8, GF16A):
            elems = list(gf.elements())
            for a in elems:
                assert gf.add(a, a) == 0
                for b in elems:
                    assert gf.add(a, b) == gf.add(b, a)
                    assert gf.mul(a, b) == gf.mul(b, a)
                    sq = gf.mul(gf.add(a, b), gf.add(a, b))
                    assert sq == gf.add(gf.mul(a, a), gf.mul(b, b))
                    for c in elems:
                        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                        assert (gf.mul(a, gf.add(b, c))
                                == gf.add(gf.mul(a, b), gf.mul(a, c)))
                if a:
                    assert gf.mul(a, gf.inv(a)) == 1
                    assert gf.pow(a, gf.q - 1) == 1

        # MDS invariance under transpose and permutation conjugation
        rng = random.Random(71)
        for _ in range(3000):
            A = Matrix(GF8, [[rng.randrange(8) for _ in range(3)]
                             for _ in range(3)])
            verdict = A.is_mds()
            assert A.transpose().is_mds() == verdict
            for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                assert A.conjugate(perm).is_mds() == verdict

        # nowhere-zero semi-involutory matrices over GF(2^3) are all MDS
        n_si, n_si_mds = _si_and_mds_counts_gf8(GF8B)
        assert n_si == n_si_mds == 403368

        # counts are independent of worker partitioning and of reruns
        assert brute_force_S(GF8B, "S", jobs=3) == brute_force_S(GF8B, "S")
        assert (exhaustive_matrix_census(GF4, "SI_MDS", jobs=2)
                == exhaustive_matrix_census(GF4, "SI_MDS"))
        assert enumeration_stats(GF8B).distinct == 403368
