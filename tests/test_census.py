import ast
import itertools
import tracemalloc

import numpy as np
import pytest

from simds import (GF, BudgetError, InternalMismatchError, Matrix, brute_force_S,
                   distinct_diag_inner_count, enumeration_stats,
                   exhaustive_matrix_census, formula_count, run_census,
                   sweep_parameter_space)
from simds import census
from simds._tables import _digits, bulk_ops, mul_table, nonzero_grid, plane_ops
from simds.census import (CSV_HEADER, SET_NAMES, _det_and_mds, _pack_keys,
                          _unpack_keys)
from simds.construct import construction_entries, decisive_sums
from simds.matrix import minor
from simds.si import oracle_hits, product_det, product_det_terms, si_check_3x3


def tuple_set_by_loops(gf, subset):
    """Independent oracle: direct nested loops over (F_q^*)^6."""
    count = 0
    nonzero = list(gf.elements(True))
    for a11, a22, a33 in itertools.product(nonzero, repeat=3):
        if subset == "S1" and len({a11, a22, a33}) != 3:
            continue
        if subset == "S2" and len({a11, a22, a33}) != 1:
            continue
        if subset == "S3" and not (a11 == a22 != a33):
            continue
        if subset == "S4" and not (a11 == a33 != a22):
            continue
        if subset == "S5" and not (a22 == a33 != a11):
            continue
        for d1, d2, d3 in itertools.product(nonzero, repeat=3):
            t1, t2, t3 = gf.mul(a11, d1), gf.mul(a22, d2), gf.mul(a33, d3)
            if 0 in (t1 ^ t2, t1 ^ t3, t2 ^ t3, t1 ^ t2 ^ t3):
                continue
            count += 1
    return count


def test_formula_values():
    assert formula_count("SI_MDS", 2) == 0
    assert formula_count("SI_MDS", 3) == 403368
    assert formula_count("SI_MDS", 4) == 127575000
    assert formula_count("INV_MDS", 2) == 0
    assert formula_count("INV_MDS", 3) == 1176
    assert formula_count("INV_MDS", 4) == 37800
    assert formula_count("S1", 3) == 35280
    assert formula_count("S2", 3) == 1176
    assert formula_count("S3", 3) == 7056
    # S is the disjoint-union total of the five patterns
    for m in (2, 3, 4, 5):
        total = sum(formula_count(n, m) for n in ("S1", "S2", "S3", "S4", "S5"))
        assert formula_count("S", m) == total


def test_formula_errors():
    with pytest.raises(ValueError):
        formula_count("S", 1)
    with pytest.raises(ValueError):
        formula_count("S6", 3)


def test_brute_force_matches_loops_gf4(gf4):
    for name in ("S", "S1", "S2", "S3", "S4", "S5"):
        assert brute_force_S(gf4, name) == tuple_set_by_loops(gf4, name) == 0


def test_brute_force_matches_loops_gf8(gf8b):
    for name in ("S", "S1", "S2", "S3", "S4", "S5"):
        got = brute_force_S(gf8b, name)
        assert got == tuple_set_by_loops(gf8b, name)
        assert got == formula_count(name, 3)


def test_partition_identity(gf8b, gf16a):
    for gf in (gf8b, gf16a):
        parts = [brute_force_S(gf, n) for n in ("S1", "S2", "S3", "S4", "S5")]
        assert sum(parts) == brute_force_S(gf, "S")


def test_counts_modulus_independent(gf8, gf8b):
    for name in ("S", "S1"):
        assert brute_force_S(gf8, name) == brute_force_S(gf8b, name)


def test_jobs_do_not_change_counts(gf8b):
    assert brute_force_S(gf8b, "S", jobs=1) == brute_force_S(gf8b, "S", jobs=3)
    g4 = GF(2, 2, 0b111)
    assert (exhaustive_matrix_census(g4, "SI_MDS", jobs=1)
            == exhaustive_matrix_census(g4, "SI_MDS", jobs=2) == 0)
    for target, want in (("SI_MDS", 403368), ("INV_MDS", 1176)):
        assert (exhaustive_matrix_census(gf8b, target, jobs=1)
                == exhaustive_matrix_census(gf8b, target, jobs=3) == want)


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize("run", [
    lambda gf, jobs: brute_force_S(gf, "S", jobs=jobs),
    lambda gf, jobs: exhaustive_matrix_census(gf, "INV_MDS", jobs=jobs),
    lambda gf, jobs: sweep_parameter_space(gf, jobs=jobs),
], ids=["brute_force_S", "exhaustive_matrix_census", "sweep_parameter_space"])
def test_jobs_below_one_rejected(gf4, run, jobs):
    """A job count below 1 is bad input, not a silent one-process run."""
    with pytest.raises(ValueError, match=f"jobs must be at least 1, not {jobs}"):
        run(gf4, jobs)


@pytest.mark.parametrize("target", ["SI_MDS", "INV_MDS"])
def test_staged_scan_visits_every_matrix_once(gf4, monkeypatch, target):
    """With tests that keep every candidate, a target's stages reach
    each choice of the entries they cross, all non-zero, over GF(4)
    exactly once, in broadcast blocks of at most _CHUNK candidates:
    3^8 for SI_MDS and 3^5 for INV_MDS.  The entries the last stage
    solves for (SI_MDS: a33; INV_MDS: a31, a32, a23 and a33) are absent
    there."""
    monkeypatch.setattr(census, "_CHUNK", 100)
    sizes, keys = [], []

    def keep_all(f, e):
        mask = np.ones(np.broadcast_shapes(*(v.shape for v in e.values())), dtype=bool)
        sizes.append(mask.size)
        return mask

    stages = [(entries, (keep_all,)) for entries, _ in census._STAGES[target]]
    crossed = sorted(pos for entries, _ in stages for pos in entries)
    assert set(range(9)) - set(crossed) == {"SI_MDS": {8}, "INV_MDS": {5, 6, 7, 8}}[target]

    def record(f, e):
        assert sorted(e) == crossed
        cols = [e[k] for k in crossed]
        assert all((col != 0).all() for col in cols)
        keys.append(_pack_keys(cols, gf4.m).ravel())
        return keep_all(f, e)

    stages[-1] = (stages[-1][0], (record,))
    first = (gf4.q - 1) ** len(stages[0][0])
    visited = census._staged_count(bulk_ops(gf4), gf4.q, stages, 0, first)
    assert visited == len(np.unique(np.concatenate(keys))) == 3 ** len(crossed)
    assert max(sizes) <= 100


@pytest.mark.parametrize("target", ["S", "S1", "S2", "S3", "S4", "S5"])
def test_staged_tuple_set_visits_every_tuple_once(gf4, monkeypatch, target):
    """A tuple set's one stage, with its test replaced by one that keeps
    every candidate, reaches each non-zero 6-tuple (a11, a22, a33, d1,
    d2, d3) over GF(4), keyed by position 0..5, exactly once, in blocks
    of at most _CHUNK rows."""
    monkeypatch.setattr(census, "_CHUNK", 100)
    sizes, keys = [], []

    def record(f, e):
        assert sorted(e) == list(range(6))
        assert all((col != 0).all() for col in e.values())
        keys.append(_pack_keys([e[k] for k in range(6)], gf4.m).ravel())
        mask = np.ones(np.broadcast_shapes(*(v.shape for v in e.values())), dtype=bool)
        sizes.append(mask.size)
        return mask

    ((entries, _),) = census._STAGES[target]
    assert entries == tuple(range(6))
    visited = census._staged_count(bulk_ops(gf4), gf4.q, [(entries, (record,))], 0, 3 ** 6)
    assert visited == len(np.unique(np.concatenate(keys))) == 3 ** 6
    assert max(sizes) <= 100


def test_scan_targets_are_the_set_names(gf4):
    """Every set the census counts is a target of `_STAGES`, listed once
    and in report order, and each public scan refuses the other kind's
    names."""
    assert tuple(census._STAGES) == SET_NAMES
    for name in ("SI_MDS", "INV_MDS", "S6"):
        with pytest.raises(ValueError, match="unknown tuple subset"):
            brute_force_S(gf4, name)
    for name in ("S", "S5", "MDS"):
        with pytest.raises(ValueError, match="target must be"):
            exhaustive_matrix_census(gf4, name)


@pytest.mark.parametrize("q, target, want", [
    (8, "SI_MDS", [[117649, 16807], [117649, 100842], [705894, 504210, 403368]]),
    (8, "INV_MDS", [[2401], [16807, 1176]]),
    (16, "INV_MDS", [[50625], [759375, 37800]]),
    (16, "SI_MDS", [[11390625, 759375], [11390625, 10631250],
                    [159468750, 138206250, 127575000]]),
])
def test_scan_survivor_counts(gf8, gf8b, gf16a, gf16b, q, target, want):
    """Per stage of the exhaustive scan, the candidates it sees and,
    after each of its tests, those that pass it and the stage's earlier
    ones, counted over the broadcast shape of the stage's blocks.  Each
    last stage sees each survivor of the stages before it with every
    a22.  INV_MDS's first stage tests nothing; SI_MDS's count after the
    three a22 minors is that of the candidates its a33 solve is live
    on.  The last count of each is of those whose solved entries pass:
    facts of the field, pinned here.  The two moduli of each degree
    give isomorphic fields, and so the same counts; the SI_MDS scan
    takes seconds at q = 16, so it runs on one of them."""
    fields = {8: (gf8b, gf8), 16: (gf16a, gf16b) if target == "INV_MDS" else (gf16a,)}
    for gf in fields[q]:
        assert _scan_survivor_counts(gf, target) == want


def _scan_survivor_counts(gf, target):
    stages = census._STAGES[target]
    counts = [[0] * (len(tests) + 1) for _, tests in stages]
    live = []
    si_a33 = census._si_a33

    def counted_si_a33(f, e, mask):
        live.append(np.count_nonzero(mask))
        return si_a33(f, e, mask)

    def counting(k, tests):
        def test(f, e):
            shape = np.broadcast_shapes(*(v.shape for v in e.values()))
            mask = np.ones(shape, dtype=bool)
            counts[k][0] += mask.size
            for i, t in enumerate(tests, 1):
                mask &= np.broadcast_to(t(f, e), shape)
                counts[k][i] += np.count_nonzero(mask)
            return mask
        return (test,)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(census._STAGES, target, tuple(
            (entries, counting(k, tests)) for k, (entries, tests) in enumerate(stages)))
        patch.setattr(census, "_si_a33", counted_si_a33)
        assert exhaustive_matrix_census(gf, target) == formula_count(target, gf.m)
    if live:
        counts[-1].insert(1, sum(live))
    return counts


@pytest.mark.parametrize("target", ["SI_MDS", "INV_MDS"])
def test_scan_puts_survivors_innermost(gf8b, monkeypatch, target):
    """After the first stage, every test of the scan sees each survivor
    column as a (1, r) row and each new entry's values as a (w, 1)
    column, so numpy's inner loops run along the survivors; both last
    stages add a22 as such a column."""
    stages = census._STAGES[target]
    seen = [0] * len(stages)

    def checked(k, test):
        entries = stages[k][0]
        known = {pos for earlier, _ in stages[:k] for pos in earlier}
        w = (gf8b.q - 1) ** len(entries)

        def wrapped(f, e):
            assert set(e) == known | set(entries)
            r = {e[pos].shape[1] for pos in known}
            assert len(r) == 1 and all(e[pos].shape == (1, *r) for pos in known)
            assert all(e[pos].shape == (w, 1) for pos in entries)
            seen[k] += 1
            return test(f, e)
        return wrapped

    monkeypatch.setitem(census._STAGES, target, stages[:1] + tuple(
        (entries, tuple(checked(k, t) for t in tests))
        for k, (entries, tests) in enumerate(stages) if k))
    assert exhaustive_matrix_census(gf8b, target) == formula_count(target, gf8b.m)
    assert all(seen[1:])


def _cross_by_nonzero(f, tests, old, new):
    """Reference: `census._cross` with its mask compacted by 2-D
    `np.nonzero`, which yields the (value, survivor) pairs row-major."""
    e = {pos: col[None, :] for pos, col in old.items()}
    e.update((pos, col[:, None]) for pos, col in new.items())
    mask = np.ones(np.broadcast_shapes(*(col.shape for col in e.values())), dtype=bool)
    for test in tests:
        mask &= test(f, e)
    value, survivor = np.nonzero(mask)
    kept = {pos: c[survivor] for pos, c in old.items()}
    kept.update((pos, c[value]) for pos, c in new.items())
    return kept


@pytest.mark.parametrize("old, new, fill", [
    ((1, 2, 3, 5), (0,), None),
    ((1, 2, 3, 5), (0, 4), False),
    ((1, 2, 3, 5), (0, 4), True),
    ((), (1, 2, 3), None),               # a first stage: no survivors yet
    (tuple(range(9)), (), None),         # no new entries (w = 1)
])
def test_cross_keeps_pairs_and_order(gf8b, old, new, fill):
    """`_cross` keeps the same (value, survivor) pairs, in the same order,
    as 2-D `np.nonzero` of its mask: on seeded masks over the (w, r) grid
    and over each of its axes, and on all-False and all-True masks, for
    r = 1 and longer survivor rows."""
    rng = np.random.default_rng(41)
    f = bulk_ops(gf8b)
    grid = dict(zip(new, nonzero_grid(gf8b.q, len(new))))
    w = (gf8b.q - 1) ** len(new)
    for r in (1, 5, 300) if old else (1,):
        block = {pos: rng.integers(1, gf8b.q, size=r, dtype=np.uint8) for pos in old}
        if fill is None:
            masks = [rng.random(shape) < rng.uniform(0.2, 0.9)
                     for shape in ((w, r), (1, r), (w, 1))]
        else:
            masks = [np.full((w, r), fill)]
        tests = [lambda f, e, m=m: m for m in masks]
        got = census._cross(f, tests, block, grid)
        want = _cross_by_nonzero(f, tests, block, grid)
        assert set(got) == set(old) | set(new)
        for pos in want:
            assert got[pos].dtype == want[pos].dtype
            assert np.array_equal(got[pos], want[pos])
        if fill is not None:
            assert len(got[new[0]]) == (w * r if fill else 0)


_A22_MINORS = (((0, 1), (1, 2)), ((1, 2), (0, 1)), ((0, 1), (0, 1)))


def _survivors(gf, target):
    """The flat candidates a target's first solve is live on: the
    survivors of its stages before the last, crossed in one block each,
    crossed with the a22 values of its last stage; for SI_MDS only with
    those that pass the three 2x2 minors reading a22 and not a33."""
    f = bulk_ops(gf)
    e = {}
    stages = census._STAGES[target]
    for entries, tests in stages[:-1]:
        e = census._cross(f, tests, e, dict(zip(entries, nonzero_grid(gf.q, len(entries)))))
    a22_minors = lambda f, e: f.nonzero(*(minor(f, e, *p) for p in _A22_MINORS))
    tests = (a22_minors,) if target == "SI_MDS" else ()
    return f, census._cross(f, tests, e, {4: nonzero_grid(gf.q, 1)[0]})


def _sorted_keys(e, m):
    return np.sort(_pack_keys([e[k] for k in sorted(e)], m))


def _solve_matches_grid(f, gf, e, pos, value, condition):
    """The (candidate, entry `pos`) pairs that the solved `value` keeps,
    where it is non-zero, are those that testing `condition` on the
    grid of every non-zero value of the entry keeps; returns how many."""
    keep = np.flatnonzero(value)
    solved = {p: col[keep] for p, col in e.items()}
    solved[pos] = value[keep]
    literal = census._cross(f, (condition,), e, {pos: nonzero_grid(gf.q, 1)[0]})
    assert set(literal) == set(solved)
    assert np.array_equal(_sorted_keys(solved, gf.m), _sorted_keys(literal, gf.m))
    return len(keep)


def test_solved_a33_stage_matches_grid(gf4, gf8, gf8b, monkeypatch):
    """Each entry a last stage solves for keeps exactly the pairs of a
    candidate and a non-zero value that testing its condition on the
    literal grid of every value keeps: SI_MDS's a33, `product_det` = 0,
    and each of INV_MDS's, in the stage's order, its cell of A^2 = I,
    on the candidates whose entries solved before it are non-zero."""
    solve = census._solved
    values = []

    def spied(*args):
        values.append(solve(*args))
        return values[-1]

    monkeypatch.setattr(census, "_solved", spied)
    for gf in (gf4, gf8, gf8b):
        f, e = _survivors(gf, "SI_MDS")
        a33 = census._si_a33(f, e, True)
        kept = _solve_matches_grid(f, gf, e, 8, a33, lambda f, e: product_det(f, e) == 0)
        assert kept == {4: 0, 8: 403368}[gf.q]
        f, e = _survivors(gf, "INV_MDS")
        values.clear()
        census._inv_mds_last(f, e)
        assert len(values) == len(census._INV_SOLVES) == 4
        live = np.ones(len(e[0]), dtype=bool)
        for (pos, (i, j), _), value in zip(census._INV_SOLVES, values):
            cell = lambda f, e, i=i, j=j: census._product_entry(f, e, e, i, j) == int(i == j)
            _solve_matches_grid(f, gf, {p: col[live] for p, col in e.items()}, pos,
                                value[live], cell)
            e[pos] = value
            live &= value != 0


def test_solve_a33_cases(gf8b):
    """On hand-built survivors, by case of `product_det` = slope a33 +
    const: slope != 0 keeps the one a33 that zeroes it, non-zero since
    const != 0; slope = 0 != const keeps none, and the solve returns 0
    there.  const = 0, which the tests before the solve rule out, raises
    InternalMismatchError on any candidate the solve is live on, with
    slope = 0 or not, rather than drop it, and passes where the solve
    is not live."""
    gf = gf8b
    f = bulk_ops(gf)
    rng = np.random.default_rng(7)
    sample = rng.integers(1, gf.q, size=(300, 8)).tolist()
    terms = [product_det_terms(gf, row) for row in sample]
    cases = {case: [row for row, (slope, const) in zip(sample, terms)
                    if (bool(slope), bool(const)) == case][:6]
             for case in ((True, True), (True, False), (False, True))}
    assert all(len(rows) == 6 for rows in cases.values())
    free = [1] * 8                       # m = n = 0: slope = const = 0
    assert product_det_terms(gf, free) == (0, 0)
    rows = cases[True, True] + cases[False, True]
    old = {k: np.array([row[k] for row in rows], dtype=np.uint8) for k in range(8)}
    live = np.ones(len(rows), dtype=bool)
    got = census._si_a33(f, old, live).tolist()
    zeroes = [[a33 for a33 in range(1, gf.q) if product_det(gf, row + [a33]) == 0]
              for row in rows]
    assert [len(z) for z in zeroes] == [1] * 6 + [0] * 6
    assert got == [z[0] for z in zeroes[:6]] + [0] * 6
    for bad in cases[True, False] + [free]:
        mixed = rows + [bad]
        old = {k: np.array([row[k] for row in mixed], dtype=np.uint8) for k in range(8)}
        with pytest.raises(InternalMismatchError, match="constant term zero"):
            census._si_a33(f, old, np.ones(len(mixed), dtype=bool))
        dead = np.arange(len(mixed)) < len(rows)
        assert census._si_a33(f, old, dead).tolist()[:len(rows)] == got


def test_scan_tests_every_mds_minor(gf8, gf8b, monkeypatch):
    """The SI_MDS stages test all nine 2x2 minors and the determinant
    between them, the tests before the a33 solve the five that do not
    read a33, and none is formed both before and after the solve: the
    determinant takes minor((1,2),(0,1)) from the a22 minors.  At
    q = 8, on both moduli, the scan counts as with the full `_det_and_mds`
    on the solved a33 in its last stage."""
    calls = {}
    seen_det = []
    det3 = census.det3

    def spied_minor(f, e, rows, cols):
        # whether a33 is known tells the minors after the solve
        calls.setdefault((tuple(rows), tuple(cols)), set()).add(8 in e)
        return minor(f, e, rows, cols)

    def spied_det3(f, e, row12=None):
        seen_det.append(row12 is not None)
        return det3(f, e, row12)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census, "minor", spied_minor)
        patch.setattr(census, "det3", spied_det3)
        assert exhaustive_matrix_census(gf8b, "SI_MDS") == 403368
    pairs = list(itertools.combinations(range(3), 2))
    on_a33 = set(itertools.product(((0, 2), (1, 2)), repeat=2))
    assert set(calls) == set(itertools.product(pairs, pairs))
    assert {pair for pair, known in calls.items() if known == {True}} == on_a33
    assert all(len(known) == 1 for known in calls.values())
    assert seen_det and all(seen_det)

    def full_mds_last(f, e):
        # const = a23 a32 a31^2 minor((0,1),(0,1)): non-zero where live
        live = minor(f, e, (0, 1), (0, 1)) != 0
        e = {**e, 8: census._si_a33(f, e, live)}
        return live & (e[8] != 0) & _det_and_mds(f, e)[1]

    stages = census._STAGES["SI_MDS"]
    monkeypatch.setitem(census._STAGES, "SI_MDS",
                        stages[:-1] + ((stages[-1][0], (full_mds_last,)),))
    for gf in (gf8, gf8b):
        assert exhaustive_matrix_census(gf, "SI_MDS") == 403368


def test_scan_raises_on_zero_constant(gf8b, monkeypatch):
    """const = a23 a32 a31^2 minor((0,1),(0,1)) in `product_det` = slope
    a33 + const, and every a33 zeroes it where const = slope = 0.  With
    the test of that leading minor blinded, candidates with const = 0
    reach the a33 solve, and the scan raises InternalMismatchError
    instead of dropping them."""
    def blinded(f, e, rows, cols):
        m = minor(f, e, rows, cols)
        return np.ones_like(m) if (tuple(rows), tuple(cols)) == ((0, 1), (0, 1)) else m

    monkeypatch.setattr(census, "minor", blinded)
    with pytest.raises(InternalMismatchError, match="constant term zero"):
        exhaustive_matrix_census(gf8b, "SI_MDS")


def _digits_by_divmod(start, stop, ndigits, base):
    cols = [[] for _ in range(ndigits)]
    for i in range(start, stop):
        for k in reversed(range(ndigits)):
            i, digit = divmod(i, base)
            cols[k].append(digit + 1)
    return cols


@pytest.mark.parametrize("q, ndigits", [(4, 6), (8, 6), (8, 9), (16, 6), (16, 9)])
def test_digits_match_divmod(q, ndigits):
    """`_digits` equals a divmod reference on the empty range and at both
    ends of (q-1)^ndigits; (q-1)^9 passes 2^32 at q = 16, and so does
    a range that crosses 2^32 there."""
    total = (q - 1) ** ndigits
    spans = [(0, 0), (0, 500), (total - 500, total), (total // 2, total // 2)]
    if total > 1 << 32:
        spans += [((1 << 32) - 300, (1 << 32) + 300), ((1 << 32) - 300, 1 << 32)]
    for start, stop in spans:
        got = _digits(start, stop, ndigits, q - 1)
        assert len(got) == ndigits
        assert all(col.dtype == np.uint8 for col in got)
        assert [col.tolist() for col in got] == _digits_by_divmod(start, stop, ndigits, q - 1)


def _count_mul_elements(f, monkeypatch) -> list:
    """Patch the field argument f's mul to record the size of each
    product array it returns; returns the list it appends to."""
    mul = f.mul
    sizes = []

    def counted(a, b):
        out = mul(a, b)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(f, "mul", counted)
    return sizes


def test_scan_products_per_candidate(gf8b, monkeypatch):
    """Each stage of the SI_MDS scan crosses its survivors with its new
    entries by broadcasting, so a product that does not read a new entry
    spans only the survivors; the last stage adds a22 and solves
    `product_det` for a33 on that grid instead of crossing a33, so a
    product that reads no a22 spans only the a11 survivors, and it
    tests only the minors that read a22 or a33 and the determinant,
    forming each minor once.  At q = 8 the scan takes at most 0.37
    products per nowhere-zero candidate (0.361)."""
    sizes = _count_mul_elements(bulk_ops(gf8b), monkeypatch)
    assert exhaustive_matrix_census(gf8b, "SI_MDS") == 403368
    assert sum(sizes) <= 0.37 * 7 ** 9


def _inv_mds_by_flat_scan(gf):
    """Reference: all (q-1)^9 nowhere-zero matrices in digit order, each
    entry of A^2 compared with I, then the MDS mask."""
    mul = mul_table(gf)
    total = (gf.q - 1) ** 9
    count = 0
    for start in range(0, total, 1 << 20):
        e = _digits(start, min(start + (1 << 20), total), 9, gf.q - 1)
        for i, j in itertools.product(range(3), repeat=2):
            sq = (mul[e[3 * i], e[j]] ^ mul[e[3 * i + 1], e[3 + j]]
                  ^ mul[e[3 * i + 2], e[6 + j]])
            keep = np.flatnonzero(sq == (1 if i == j else 0))
            e = [col[keep] for col in e]
        count += int(_det_and_mds(bulk_ops(gf), e)[1].sum())
    return count


def test_staged_inv_mds_matches_flat_scan(gf4, gf8, gf8b):
    for gf in (gf4, gf8, gf8b):
        assert (exhaustive_matrix_census(gf, "INV_MDS")
                == _inv_mds_by_flat_scan(gf) == formula_count("INV_MDS", gf.m))


class _Forbidden(Exception):
    pass


def test_scan_does_not_read_construction_or_entry_test(monkeypatch, gf4, gf8, gf8b):
    """The exhaustive scan is a witness independent of the construction
    and of `si_check_3x3`: with both broken wherever they are bound, it
    still gives the paper's counts."""
    from simds import construct, si

    def forbidden(*args, **kwargs):
        raise _Forbidden

    for module in (construct, census, si):
        for name in ("construction_entries", "decisive_sums", "si_check_3x3"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(_Forbidden):  # the patches reach the census
        brute_force_S(gf4)
    assert exhaustive_matrix_census(gf4, "SI_MDS") == 0
    for gf in (gf8, gf8b):
        assert exhaustive_matrix_census(gf, "SI_MDS") == 403368
        assert exhaustive_matrix_census(gf, "INV_MDS") == 1176


def test_scan_shares_the_nowhere_zero_condition(monkeypatch, gf8):
    """The SI_MDS scan and `si_check_3x3` judge nowhere-zero matrices by
    the one `si.product_det_terms`, which `si.product_det` is built from:
    broken wherever it is bound, both fail."""
    from simds import si

    def broken(*args, **kwargs):
        raise _Forbidden

    for module in (census, si):
        monkeypatch.setattr(module, "product_det_terms", broken)
    with pytest.raises(_Forbidden):
        si_check_3x3(Matrix(gf8, [[6, 1, 5], [1, 6, 3], [5, 3, 6]]))
    with pytest.raises(_Forbidden):
        exhaustive_matrix_census(gf8, "SI_MDS")


# GF(4)'s INV_MDS scan spans its first stage's 3^len(entries) rows
_INV_ROWS_GF4 = 3 ** len(census._STAGES["INV_MDS"][0][0])


@pytest.mark.parametrize("cpus, jobs, want", [
    (2, 100000, 2),     # capped at the CPUs
    (4, 3, 3),          # at the jobs asked for
    (1000, 100000, _INV_ROWS_GF4),  # at the spans: the first-stage rows
])
def test_pool_size_capped(gf4, monkeypatch, inline_pool, cpus, jobs, want):
    monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
    seen = []
    assert exhaustive_matrix_census(gf4, "INV_MDS", jobs=jobs,
                                    progress=seen.append) == 0
    assert inline_pool == [want]
    # the spans, and so the progress calls, follow the jobs capped at the CPUs
    spans = census._ranges(_INV_ROWS_GF4, max(min(jobs, cpus), census._SCAN_SPANS))
    assert len(seen) == len(spans)
    assert seen[-1] == 1.0


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_progress(gf8b, jobs):
    seen = []
    assert exhaustive_matrix_census(gf8b, "INV_MDS", jobs=jobs,
                                    progress=seen.append) == 1176
    assert seen == sorted(seen) and seen[-1] == 1.0


def _distinct_diag_inner_by_loops(gf, a11, a22, a33):
    """Reference: a literal loop over the non-zero (d1, d2, d3)."""
    count = 0
    for d1, d2, d3 in itertools.product(gf.elements(True), repeat=3):
        if len({d1, d2, d3}) == 3 and 0 not in decisive_sums(gf, a11, a22, a33, d1, d2, d3):
            count += 1
    return count


def test_distinct_diag_inner_identity_gf8(gf4, gf8b):
    """Innermost diagonal count for fixed pairwise-distinct a_ii: the
    bulk count equals the literal loop and the closed form, on every
    triple over GF(4) and on 60 over GF(8)."""
    for gf, values in ((gf4, (1, 2, 3)), (gf8b, (1, 2, 3, 5, 7))):
        q = gf.q
        for a11, a22, a33 in itertools.permutations(values, 3):
            got = distinct_diag_inner_count(gf, a11, a22, a33)
            assert got == _distinct_diag_inner_by_loops(gf, a11, a22, a33)
            assert got == census._distinct_diag_inner_formula(q, a11, a22, a33)
            if (a11 ^ a22) == a33:
                assert got == (q - 1) * (q * q - 9 * q + 20)
            else:
                assert got == (q - 1) * (q * q - 9 * q + 22)


def test_enumerate_gf4_empty(gf4):
    assert enumeration_stats(gf4).distinct == 0


def test_enumerate_gf8(gf8b):
    stats = enumeration_stats(gf8b)
    assert stats.distinct == 403368
    assert stats.tuple_count == brute_force_S(gf8b, "S") * 49
    # the parameter map collides exactly (q-1)-to-1 on each matrix
    assert stats.tuples_per_matrix == 7


@pytest.fixture(scope="module")
def built_keys_gf8b(gf8b):
    """Reference: the packed key of every matrix built from S x (x, y),
    in build order, i.e. all 7^8 parameter tuples in digit order with
    those outside S (a decisive sum is zero) dropped, deduplicated by
    no one."""
    f = bulk_ops(gf8b)
    total = 7 ** 8
    out = []
    for start in range(0, total, 1 << 18):
        cols = _digits(start, min(start + (1 << 18), total), 8, 7)
        keep = np.flatnonzero(f.nonzero(*decisive_sums(f, *cols[:6])))
        cols = [col[keep] for col in cols]
        e = construction_entries(f, decisive_sums(f, *cols[:6]), *cols)
        out.append(_pack_keys(e, gf8b.m))
    return np.concatenate(out)


def test_group_dedup_equals_global_dedup(gf8b, built_keys_gf8b):
    """The (a11, a22) groups are disjoint, and together they hold
    exactly the distinct keys of one global dedup of every built
    matrix, once each group's seven-entry keys get back its a11 and
    a22."""
    groups = list(census._parametrized_groups(gf8b))
    assert [g for g, _, _ in groups] == list(itertools.product(range(1, 8), repeat=2))
    assert sum(n for _, _, n in groups) == len(built_keys_gf8b) == 57624 * 49
    full = []
    for (a11, a22), keys, _ in groups:
        assert keys.dtype == np.uint32
        assert (keys[1:] > keys[:-1]).all()
        e = _unpack_keys(keys, gf8b.m, 7)
        e[0:0] = [np.full(len(keys), a11, np.uint8)]
        e[4:4] = [np.full(len(keys), a22, np.uint8)]
        full.append(_pack_keys(e, gf8b.m))
    merged = np.sort(np.concatenate(full))
    assert np.array_equal(merged, np.unique(built_keys_gf8b))


def test_spot_checks_follow_build_order(gf8b, built_keys_gf8b, monkeypatch):
    """The batched literal oracle of the spot checks sees every 4096th
    matrix of the build order, over all (q-1)^3 diagonals: 690 at
    q = 8."""
    checked = []

    def spy(gf, e):
        checked.extend(zip(*(col.tolist() for col in e)))
        return oracle_hits(gf, e)

    monkeypatch.setattr(census, "oracle_hits", spy)
    assert enumeration_stats(gf8b).distinct == 403368
    keys = []
    for entries in checked:
        key = 0
        for v in entries:
            key = (key << gf8b.m) | v
        keys.append(key)
    assert len(keys) == 690
    assert keys == built_keys_gf8b[::4096].tolist()


def test_enumeration_products_per_tuple(gf8b, monkeypatch):
    """Each entry the enumeration builds spans only the axes it reads,
    so of the six off-diagonal entries only a13 and a31 are formed for
    every (tuple, x, y); with the bulk checks on the distinct matrices
    and the batched literal search on the spot checks, the enumeration
    takes at most 9 products per built tuple at q = 8 (8.61), where
    forming all six over a flat (x, y) row took 12.04."""
    sizes = _count_mul_elements(bulk_ops(gf8b), monkeypatch)
    stats = enumeration_stats(gf8b)
    assert stats.distinct == 403368
    assert sum(sizes) <= 9 * stats.tuple_count


def test_sweep_and_enumeration_traced_peaks(gf8b):
    """At q = 8 the sweep's blocks of 104 packed words (6,656 6-tuples
    crossed with all 49 (x, y)) peak at 1.80 MB of traced allocations,
    with at most three of the nine minors alive at once, and the
    enumeration, which holds up to 2^15 distinct matrices (four
    (a11, a22) groups' 32-bit keys) before it verifies them together,
    at 1.19 MB.  Both stay under 2 MB."""
    for run, bound in ((lambda: sweep_parameter_space(gf8b).clean, 2.0),
                       (lambda: enumeration_stats(gf8b).distinct == 403368, 2.0)):
        tracemalloc.start()
        try:
            assert run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2 ** 20


def test_budget_policies(gf16a):
    with pytest.raises(BudgetError):
        enumeration_stats(gf16a)  # needs long_run
    for target in ("SI_MDS", "INV_MDS"):
        with pytest.raises(BudgetError):
            exhaustive_matrix_census(GF(2, 5, 0b100101), target)
    with pytest.raises(BudgetError):
        sweep_parameter_space(gf16a)
    with pytest.raises(BudgetError):
        distinct_diag_inner_count(GF(2, 5, 0b100101), 1, 2, 3)
    with pytest.raises(ValueError):
        exhaustive_matrix_census(gf16a, "MDS")


def test_run_census_gf4(gf4):
    reports = run_census(gf4)
    assert len(reports) == 8
    assert [r.set_name for r in reports] == list(SET_NAMES)
    for r in reports:
        assert r.match is True
        assert r.formula_value == 0 and r.brute_force_value == 0
    assert CSV_HEADER.split(",") == ["set", "q", "formula", "brute_force",
                                     "match", "seconds"]
    row = reports[0].csv_row()
    assert row.startswith("S,4,0,0,true,")


def test_run_census_formula_only(gf16a):
    reports = run_census(gf16a, sets=("SI_MDS", "INV_MDS"), mode="formula")
    assert all(r.brute_force_value is None and r.match is None for r in reports)
    assert reports[0].formula_value == 127575000
    assert reports[1].formula_value == 37800


def test_run_census_rejects_unknown_mode(gf4):
    """A mode other than "both" or "formula" is bad input, as an unknown
    set is, not a run with no brute force."""
    for mode in ("bogus", "Both", ""):
        with pytest.raises(ValueError, match="mode must be"):
            run_census(gf4, ("S",), mode=mode)


def test_run_census_budget_noted():
    reports = run_census(GF(2, 5, 0b100101), sets=("SI_MDS",), exhaustive=True)
    (r,) = reports
    assert r.brute_force_value is None and r.match is None
    assert r.note and "desk scale" in r.note


def test_run_census_si_mds_gf8_with_note(gf8b):
    (r,) = run_census(gf8b, sets=("SI_MDS",))
    assert r.match is True and r.brute_force_value == 403368
    assert r.note == "7 parameter tuples per distinct matrix"
    d = r.to_dict()
    assert d["set"] == "SI_MDS" and d["match"] is True and "note" in d


def test_sweep_gf4():
    sw = sweep_parameter_space(GF(2, 2, 0b111))
    assert sw.tuples == 3 ** 8
    assert sw.clean


# Constructions with one fault each, for the checks that must catch it.

def _swap_a12_a13(f, sums, *params):
    e = construction_entries(f, sums, *params)
    e[1], e[2] = e[2], e[1]
    return e


def _a12_plus_a11(f, sums, *params):
    e = construction_entries(f, sums, *params)
    e[1] = e[1] ^ e[0]
    return e


def _a23_times_x(f, sums, *params):
    e = construction_entries(f, sums, *params)
    e[5] = f.mul(e[5], params[6])
    return e


def _a12_is_a11(f, sums, *params):
    """a12 reads only the 6-tuple."""
    e = construction_entries(f, sums, *params)
    e[1] = e[0]
    return e


def _a13_is_x(f, sums, *params):
    """a13 reads only x, so a31 is the one entry left on every axis."""
    e = construction_entries(f, sums, *params)
    e[2] = params[6]
    return e


def _a12_is_a11_without_y(f, sums, *params):
    """y is read as x, so no entry and no mask reads y; a12 reads only
    the 6-tuple.  A counter summed over its mask's own shape, not over
    all 8-tuples, would undercount this fault."""
    return _a12_is_a11(f, sums, *params[:7], params[6])


def _failures(sw):
    return (sw.mds_iff_sums_failures, sw.ada_formula_failures,
            sw.det_formula_failures, sw.zero_pattern_failures)


# (mds_iff_sums, ada_formula, det_formula, zero_pattern) failures over
# GF(4) and GF(8) (0b1011), as counted by a literal sweep of the 8-tuples
@pytest.mark.parametrize("fault, at_q4, at_q8", [
    (_swap_a12_a13, (972, 4860, 1944, 0), (2924418, 5042100, 3226944, 0)),
    (_a12_plus_a11, (0, 5832, 2916, 486), (2319366, 5647152, 4235364, 504210)),
    (_a23_times_x, (0, 2916, 972, 0), (1815156, 4235364, 3025260, 0)),
    (_a12_is_a11, (0, 4374, 2430, 0), (2218524, 4941258, 3731154, 0)),
    (_a13_is_x, (0, 4374, 2430, 0), (2218524, 4941258, 3731154, 0)),
    (_a12_is_a11_without_y, (0, 4374, 2430, 0), (2218524, 4941258, 3731154, 0)),
])
def test_sweep_counts_construction_faults(gf4, gf8b, monkeypatch, fault,
                                          at_q4, at_q8):
    monkeypatch.setattr(census, "construction_entries", fault)
    for gf, want in ((gf4, at_q4), (gf8b, at_q8)):
        sw = sweep_parameter_space(gf)
        assert sw.tuples == (gf.q - 1) ** 8
        assert _failures(sw) == want
        assert not sw.clean


def test_jobs_do_not_change_sweep(gf4, gf8b, monkeypatch, inline_pool):
    for construction in (construction_entries, _swap_a12_a13):
        monkeypatch.setattr(census, "construction_entries", construction)
        for gf in (gf4, gf8b):
            one = sweep_parameter_space(gf, jobs=1)
            assert sweep_parameter_space(gf, jobs=3) == one
            assert one.tuples == (gf.q - 1) ** 8
            assert one.clean == (construction is construction_entries)
    assert len(inline_pool) == 4


def _entries_are_x(f, sums, *params):
    """Every entry is x, which is non-zero even where the 6-tuple is
    all zeros, as in the padding lanes of a block's last packed word."""
    return [params[6]] * 9


def test_sweep_counts_no_padding_lanes(gf4, gf8b, monkeypatch, inline_pool):
    """With every entry x, the zero-pattern check fails exactly on the
    8-tuples with a vanishing pairwise sum, counted by a literal loop,
    and would fail on every padding lane, whose sums are 0, were those
    lanes counted; one span or three, the counts agree."""
    monkeypatch.setattr(census, "construction_entries", _entries_are_x)
    for gf in (gf4, gf8b):
        nonzero = range(1, gf.q)
        vanishing = sum(0 in decisive_sums(gf, *six)[:3]
                        for six in itertools.product(nonzero, repeat=6))
        one = sweep_parameter_space(gf, jobs=1)
        assert one.zero_pattern_failures == (gf.q - 1) ** 2 * vanishing
        assert sweep_parameter_space(gf, jobs=3) == one


def test_sweep_products_per_tuple(gf4, monkeypatch):
    """Each product of the sweep spans only the broadcast axes it reads:
    over GF(4) its `plane_ops` products hold at most 45 lanes per
    8-tuple, 64 to a word of a plane (40.7, of which 38.6 hold 6-tuples
    and the rest the block's padding), where crossing each packed
    6-tuple with a flat (x, y) axis holds 59.7."""
    words = _count_mul_elements(plane_ops(gf4), monkeypatch)
    assert sweep_parameter_space(gf4).clean
    assert sum(words) // gf4.m * 64 <= 45 * 3 ** 8


def test_broken_construction_fails_bulk_verification(gf8b, monkeypatch):
    """The bulk error names its first failing matrix, which the scalar
    entry-level test and `Matrix.is_mds` reject."""
    monkeypatch.setattr(census, "construction_entries", _swap_a12_a13)
    row = r"\[\d+, \d+, \d+\]"
    with pytest.raises(InternalMismatchError,
                       match=rf"bulk verification, first \[{row}, {row}, {row}\]$") as err:
        enumeration_stats(gf8b)
    first = Matrix(gf8b, ast.literal_eval(str(err.value).split("first ")[1]))
    assert not (si_check_3x3(first).si and first.is_mds())


def test_broken_construction_fails_scalar_spot_check(gf8b, monkeypatch):
    """With the bulk verification blinded, the scalar spot check still
    catches a broken construction."""
    def blind(f, e):
        return np.ones(len(e[0]), dtype=bool)

    monkeypatch.setattr(census, "construction_entries", _swap_a12_a13)
    monkeypatch.setattr(census, "nowhere_zero_si", blind)
    monkeypatch.setattr(census, "_det_and_mds", lambda f, e: (None, blind(f, e)))
    with pytest.raises(InternalMismatchError, match="spot-checked matrices failed"):
        enumeration_stats(gf8b)


def test_spot_check_mds_half_fails_alone(gf8b):
    """The spot checks' MDS test catches a matrix that the literal
    diagonal search accepts: the identity, semi-involutory but not
    MDS."""
    identity = [[np.array([int(k % 4 == 0)], np.uint8)] for k in range(9)]
    assert oracle_hits(gf8b, [col[0] for col in identity]).any()
    with pytest.raises(InternalMismatchError,
                       match=r"1 of 1 spot-checked .* first \[\[1, 0, 0\], \[0, 1, 0\]"):
        census._verify_built(gf8b, bulk_ops(gf8b), [], identity)


def test_enumeration_builds_no_matrix(gf8b, monkeypatch):
    """The enumeration, spot checks included, judges its matrices as
    arrays and constructs no `Matrix`."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the enumeration constructed a Matrix")

    monkeypatch.setattr(Matrix, "__init__", forbidden)
    stats = enumeration_stats(gf8b)
    assert (stats.distinct, stats.tuple_count) == (403368, 2823576)


def test_one_faulty_tuple_fails_bulk_verification(gf8b, monkeypatch):
    """A fault in one built tuple of one batch is caught, although the
    six other tuples that build the same matrix are intact: a12 is
    doubled, which breaks the cross-product equality."""
    calls = []

    def one_fault(f, sums, *params):
        e = construction_entries(f, sums, *params)
        calls.append(None)
        if len(calls) == 1:
            shape = np.broadcast_shapes(*(np.shape(v) for v in e))
            a12 = np.array(np.broadcast_to(e[1], shape))
            a12.flat[1] = gf8b.mul(int(a12.flat[1]), 2)
            e[1] = a12
        return e

    monkeypatch.setattr(census, "construction_entries", one_fault)
    with pytest.raises(InternalMismatchError,
                       match="^1 enumerated matrices failed bulk verification"):
        enumeration_stats(gf8b)


def test_no_group_is_yielded_before_it_is_verified(gf8b, monkeypatch):
    """The groups are verified a few at a time, and the first one is
    held back until its matrices pass: with one entry of the first batch
    corrupted, asking for the first group raises."""
    calls = []

    def one_fault(f, sums, *params):
        e = construction_entries(f, sums, *params)
        calls.append(None)
        if len(calls) == 1:
            shape = np.broadcast_shapes(*(np.shape(v) for v in e))
            a12 = np.array(np.broadcast_to(e[1], shape))
            a12.flat[0] = gf8b.mul(int(a12.flat[0]), 2)
            e[1] = a12
        return e

    monkeypatch.setattr(census, "construction_entries", one_fault)
    with pytest.raises(InternalMismatchError, match="bulk verification"):
        next(census._parametrized_groups(gf8b))


def test_distinct_equals_unique():
    rng = np.random.default_rng(2024)
    rand = np.concatenate([rng.integers(0, 2 ** 64, 2997, dtype=np.uint64),
                           rng.integers(0, 50, 2000, dtype=np.uint64),
                           np.full(3, 2 ** 64 - 1, dtype=np.uint64)])
    rng.shuffle(rand)
    for keys in (np.empty(0, np.uint64), np.array([5], np.uint64),
                 np.full(100, 9, np.uint64), rand, rand.reshape(50, 100)):
        got = census._distinct(keys)
        assert got.dtype == keys.dtype
        assert np.array_equal(got, np.unique(keys))
    assert census._distinct(rand)[-1] == 2 ** 64 - 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pack_keys_on_mixed_broadcast_shapes(m):
    """Entries on the enumeration's axes, x by y by tuples, in its key
    order and reversed: the key of each element is the literal fold
    key << m | v over its entries, the first in the top bits, whichever
    entries span the full grid."""
    rng = np.random.default_rng(m)
    r = 5
    shapes = [(7, 1, r), (7, 7, r), (7, 1, r), (1, 7, r), (7, 7, r), (1, 7, r), (1, 1, r)]
    for order in (shapes, shapes[::-1]):
        e = [rng.integers(0, 2 ** m, shape, dtype=np.uint8) for shape in order]
        keys = _pack_keys(e, m)
        assert keys.dtype == np.uint32 and keys.shape == (7, 7, r)
        for idx in np.ndindex(keys.shape):
            want = 0
            for v in e:
                want = want << m | int(np.broadcast_to(v, keys.shape)[idx])
            assert int(keys[idx]) == want


def test_pack_keys_rejects_keys_wider_than_32_bits():
    e = [np.full(3, 20, dtype=np.uint8) for _ in range(7)]
    with pytest.raises(ValueError, match="32-bit key"):
        _pack_keys(e, 5)


# a group's seven entries: 7 m <= 32 bits holds m <= 4, the
# enumeration's q <= 16
@pytest.mark.parametrize("m, poly", [(2, 0b111), (3, 0b1011), (4, 0b10011)])
def test_pack_unpack_round_trip(m, poly):
    rng = np.random.default_rng(m)
    e = [rng.integers(0, 2 ** m, 1000, dtype=np.uint8) for _ in range(7)]
    keys = _pack_keys(e, m)
    assert keys.dtype == np.uint32
    back = _unpack_keys(keys, m, 7)
    assert all(col.dtype == np.uint8 for col in back)
    assert all(np.array_equal(a, b) for a, b in zip(back, e))
