"""Counting semi-involutory MDS matrices: closed forms and brute force.

Every count here is an exact integer and every closed form is paired
with an independent brute-force verifier at desk scale:

* the 6-tuple sets (all non-zero (a11, a22, a33, d1, d2, d3) whose four
  decisive sums are non-zero), partitioned by the equality pattern of
  the a_ii, enumerated literally over (q-1)^6;
* the parametrized enumeration, which builds every matrix from the
  tuples in S x (x, y), broadcasting batches of S tuples against the
  row of all (x, y) as the sweep does, and deduplicates by a packed
  9-entry key with a sort, one (a11, a22) group at a time: both are
  matrix entries, so two groups never share a matrix, and memory is
  bounded by one group's keys.  Each batch's distinct matrices are
  verified in bulk, and every 4096th matrix of the build order by the
  scalar checks;
* the exhaustive matrix census, which judges all (q-1)^9 nowhere-zero
  3x3 matrices and counts the semi-involutory MDS (or involutory MDS)
  ones with no reference to the construction.  It fixes the entries in
  stages (SI_MDS: the six off-diagonal entries, then a11, a22, a33;
  INV_MDS: row 0 and column 0, then a22 and a32, then a23, then a33)
  and tests each condition at the first stage where every entry it
  reads is known, so the candidates a test rejects are never expanded;
* the parameter sweep, which checks the construction's MDS, A D A,
  determinant and zero-pattern claims on every 8-tuple (a11, a22, a33,
  d1, d2, d3, x, y): a block of 6-tuples, as (R, 1) columns, is crossed
  with the (1, (q-1)^2) row of all (x, y) by broadcasting, so what
  reads only the 6-tuple is computed once for its (q-1)^2 pairs.

Bulk work runs on numpy lookup tables in fixed-size chunks.  The tuple
sets, the matrix census and the sweep can be partitioned across
processes by contiguous index ranges (of the 6-tuples, for the sweep),
and their counts are independent of the partitioning; the enumeration
runs in one process.  The tuple sets, the parametrized enumeration and
the parameter sweep take the decisive sums and the matrix entries from
`construct.decisive_sums` and `construct.construction_entries`; the
exhaustive matrix census uses neither, nor `si_check_3x3`.  All 2x2
minors and 3x3 determinants over arrays come from `_minor` and `_det3`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._tables import _digits, bulk_ops, nonzero_grid
from .construct import construction_entries, decisive_sums
from .errors import BudgetError, InternalMismatchError
from .field import GF
from .matrix import Matrix
from .si import si_check_3x3

SET_NAMES = ("S", "S1", "S2", "S3", "S4", "S5", "SI_MDS", "INV_MDS")

CSV_HEADER = "set,q,formula,brute_force,match,seconds"

# rows per block; `bulk_ops`'s `take` copies each index to 8-byte intp,
# which bounds the peak RSS
_CHUNK = 1 << 18


def formula_count(set_name: str, m: int) -> int:
    """Closed-form count of the named set over GF(2^m), m >= 2.

    The S1/S2/S3 forms are the per-pattern counts (S4 and S5 are
    symmetric to S3); S is their disjoint-union total
    (q-1)^4 (q-2) (q-4), SI_MDS is the distinct-matrix count
    (q-1)^5 (q-2) (q-4), and INV_MDS is the involutory MDS count
    (q-1)^2 (q-2) (q-4).
    """
    if m < 2:
        raise ValueError("counts are defined for m >= 2")
    q = 2 ** m
    if set_name == "S1":
        return (q - 1) ** 2 * (q - 2) ** 2 * (q - 3) * (q - 4)
    if set_name == "S2" or set_name == "INV_MDS":
        return (q - 1) ** 2 * (q - 2) * (q - 4)
    if set_name in ("S3", "S4", "S5"):
        return (q - 1) ** 2 * (q - 2) * (q * q - 6 * q + 8)
    if set_name == "S":
        return (q - 1) ** 4 * (q - 2) * (q - 4)
    if set_name == "SI_MDS":
        return (q - 1) ** 5 * (q - 2) * (q - 4)
    raise ValueError(f"unknown set {set_name!r}; expected one of {SET_NAMES}")


def _require_char2_desk(gf: GF, max_q: int = 16) -> None:
    if gf.p != 2 or gf.m < 2:
        raise ValueError("census enumeration is defined over GF(2^m), m >= 2")
    if gf.q > max_q:
        raise BudgetError(f"q = {gf.q} is beyond desk scale for this path")


def _ranges(total: int, parts: int):
    parts = max(1, min(parts, total))
    step = -(-total // parts)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_partitioned(worker, args, total: int, jobs: int, parts: int = 1,
                     progress=None) -> list:
    """Run `worker((*args, lo, hi))` over at least `parts` contiguous
    spans of range(total), in a pool of at most `jobs` processes, and
    no more than the spans or the CPUs, when jobs > 1.  Results come
    back in completion order; `progress(fraction)` is called as each
    span finishes."""
    tasks = [(*args, lo, hi) for lo, hi in _ranges(total, max(jobs, parts))]
    if jobs <= 1 or len(tasks) <= 1:
        return _reported(map(worker, tasks), len(tasks), progress)
    # the pool may start every worker on the first submit
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, task) for task in tasks]
        return _reported((f.result() for f in as_completed(futures)),
                         len(tasks), progress)


def _reported(results, n: int, progress) -> list:
    done = []
    for result in results:
        done.append(result)
        if progress is not None:
            progress(len(done) / n)
    return done


# -- the 6-tuple sets ---------------------------------------------------

def _tuple_set_masks(mul, cols: list[np.ndarray], subset: str) -> np.ndarray:
    a11, a22, a33 = cols[:3]
    mask = _nonzero(*decisive_sums(mul, *cols))
    if subset == "S":
        return mask
    if subset == "S1":
        return mask & (a11 != a22) & (a11 != a33) & (a22 != a33)
    if subset == "S2":
        return mask & (a11 == a22) & (a11 == a33)
    if subset == "S3":
        return mask & (a11 == a22) & (a11 != a33)
    if subset == "S4":
        return mask & (a11 == a33) & (a11 != a22)
    if subset == "S5":
        return mask & (a22 == a33) & (a11 != a22)
    raise ValueError(f"unknown tuple subset {subset!r}")


def _tuple_set_chunks(gf: GF, subset: str, lo: int, hi: int):
    """(columns, mask of the named set) for each chunk of the 6-tuples
    [lo, hi) in digit order."""
    mul, _ = bulk_ops(gf)
    for start in range(lo, hi, _CHUNK):
        cols = _digits(start, min(start + _CHUNK, hi), 6, gf.q - 1)
        yield cols, _tuple_set_masks(mul, cols, subset)


def _count_tuples_worker(args) -> int:
    field_dict, subset, lo, hi = args
    return sum(int(mask.sum()) for _, mask in
               _tuple_set_chunks(GF.from_dict(field_dict), subset, lo, hi))


def brute_force_S(gf: GF, subset: str = "S", jobs: int = 1) -> int:
    """Literal enumeration of the named 6-tuple set over (F_q^*)^6."""
    _require_char2_desk(gf)
    total = (gf.q - 1) ** 6
    parts = _run_partitioned(_count_tuples_worker, (gf.to_dict(), subset), total, jobs)
    return sum(parts)


def distinct_diag_inner_count(gf: GF, a11: int, a22: int, a33: int) -> int:
    """For a fixed diagonal triple, the number of pairwise-distinct
    non-zero (d1, d2, d3) satisfying the four sum conditions.  Closed
    form, cross-checked by this literal loop: (q-1)(q^2-9q+20) when
    a11+a22 = a33 and (q-1)(q^2-9q+22) otherwise."""
    count = 0
    for d1, d2, d3 in product(gf.elements(True), repeat=3):
        if d1 == d2 or d1 == d3 or d2 == d3:
            continue
        if 0 in decisive_sums(gf.mul, a11, a22, a33, d1, d2, d3):
            continue
        count += 1
    return count


# -- shared 3x3 condition kernels --------------------------------------
#
# Entry k of a 3x3 matrix is a_{i+1, j+1} with k = 3 i + j; `mul` is the
# array multiplication of `bulk_ops`.

def _nonzero(*values) -> np.ndarray:
    """Whether every value is non-zero, over the broadcast shape of the
    values."""
    mask = np.ones(np.broadcast_shapes(*(np.shape(v) for v in values)), dtype=bool)
    for v in values:
        mask &= v != 0
    return mask


def _minor(mul, e, rows, cols) -> np.ndarray:
    """The 2x2 minor on rows (r0, r1) and columns (c0, c1)."""
    (r0, r1), (c0, c1) = rows, cols
    return mul(e[3 * r0 + c0], e[3 * r1 + c1]) ^ mul(e[3 * r0 + c1], e[3 * r1 + c0])


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _det3(mul, e, row12=None) -> np.ndarray:
    """Cofactor expansion along row 0.  `row12` holds the minors on rows
    (1, 2) and columns (0, 1), (0, 2), (1, 2), when the caller has them
    (the last three of `_minors`)."""
    if row12 is None:
        row12 = [_minor(mul, e, (1, 2), cols) for cols in _PAIRS]
    m01, m02, m12 = row12
    return mul(e[0], m12) ^ mul(e[1], m02) ^ mul(e[2], m01)


def _minors(mul, e) -> list:
    """The nine 2x2 minors, row pairs outermost (the order of
    `construct.minor_formulas`)."""
    return [_minor(mul, e, rows, cols) for rows in _PAIRS for cols in _PAIRS]


def _mds_mask(mul, e) -> np.ndarray:
    minors = _minors(mul, e)
    return _nonzero(_det3(mul, e, minors[6:]), *minors)


def _cross_equal(mul, e) -> np.ndarray:
    """The triangle products a12 a23 a31 and a13 a21 a32 agree."""
    return mul(mul(e[1], e[5]), e[6]) == mul(mul(e[2], e[3]), e[7])


# the entry products (k, l) of `si.si_product_det`'s matrix, row by row
_PRODUCT_ENTRIES = ((0, 3), (3, 4), (5, 6), (0, 6), (3, 7), (6, 8),
                    (1, 6), (4, 7), (7, 8))


def _si_nowhere_zero_mask(mul, e) -> np.ndarray:
    """Cross-product equality, vanishing product-matrix determinant and
    non-vanishing determinant, for arrays of nowhere-zero entries."""
    x = [mul(e[k], e[l]) for k, l in _PRODUCT_ENTRIES]
    return _cross_equal(mul, e) & (_det3(mul, x) == 0) & (_det3(mul, e) != 0)


# -- exhaustive matrix census -------------------------------------------
#
# A scan is a list of stages; each stage adds some entries and then
# applies tests that read only entries known by that stage.  Candidates
# live in dicts keyed by entry index, so a test that reads an entry not
# yet known raises KeyError instead of reading garbage.

def _square_entry(mul, e, i: int, j: int) -> np.ndarray:
    """Entry (i, j) of A^2: row i of A times column j of A."""
    return (mul(e[3 * i], e[j]) ^ mul(e[3 * i + 1], e[3 + j])
            ^ mul(e[3 * i + 2], e[6 + j]))


def _rest_of_identity(mul, e) -> np.ndarray:
    """The six entries of A^2 = I that no earlier INV_MDS stage tests."""
    ok = np.ones(len(e[0]), dtype=bool)
    for i, j in ((0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)):
        ok &= _square_entry(mul, e, i, j) == int(i == j)
    return ok


# (entries added, tests applied in order once they are known).  Every
# SI_MDS candidate still meets the cross-product equality and all nine
# 2x2 minors of `_mds_mask` before the unchanged full-matrix kernels; the
# early tests only drop candidates sooner.  Every INV_MDS candidate still
# meets all nine entries of A^2 = I and `_mds_mask`.
_STAGES = {
    "SI_MDS": (
        ((1, 2, 3, 5, 6, 7), (_cross_equal,)),
        ((0,), (lambda mul, e: _nonzero(_minor(mul, e, (0, 1), (0, 2)),
                                        _minor(mul, e, (0, 2), (0, 1))),)),
        ((4,), (lambda mul, e: _nonzero(_minor(mul, e, (0, 1), (1, 2)),
                                        _minor(mul, e, (1, 2), (0, 1))),)),
        ((8,), (lambda mul, e: _nonzero(_minor(mul, e, (0, 2), (1, 2)),
                                        _minor(mul, e, (1, 2), (0, 2))),
                _si_nowhere_zero_mask, _mds_mask)),
    ),
    "INV_MDS": (
        ((0, 1, 2, 3, 6), (lambda mul, e: _square_entry(mul, e, 0, 0) == 1,)),
        ((4, 7), (lambda mul, e: _square_entry(mul, e, 0, 1) == 0,)),
        ((5,), (lambda mul, e: _square_entry(mul, e, 1, 0) == 0,)),
        ((8,), (_rest_of_identity, _mds_mask)),
    ),
}

# The largest q each target is scanned at.  At q = 16 the SI_MDS stages
# send 2.2e9 candidates to the final stage (4.2e6 at q = 8), the INV_MDS
# stages 1.0e7.
_SCAN_MAX_Q = {"SI_MDS": 8, "INV_MDS": 16}

# Spans of the first stage per scan, so that a one-process scan still
# reports progress.
_SCAN_SPANS = 8


def _staged_count(mul, q: int, stages, lo: int, hi: int) -> int:
    """Count the candidates passing every stage's tests, over the rows
    [lo, hi) of the first stage's entries (all in F_q^*, digit order).
    Each later stage crosses the survivors with every non-zero value of
    its entries, depth-first, in blocks of at most `_CHUNK` rows."""
    grids = [nonzero_grid(q, len(entries)) for entries, _ in stages[1:]]
    first = stages[0][0]
    count = 0
    for start in range(lo, hi, _CHUNK):
        cols = _digits(start, min(start + _CHUNK, hi), len(first), q - 1)
        count += _descend(mul, stages, grids, 0, dict(zip(first, cols)))
    return count


def _descend(mul, stages, grids, k: int, e: dict) -> int:
    for test in stages[k][1]:
        keep = np.flatnonzero(test(mul, e))
        e = {pos: col[keep] for pos, col in e.items()}
    n = len(keep)
    if k + 1 == len(stages):
        return n
    grid = grids[k]
    width = len(grid[0])
    step = max(1, _CHUNK // width)
    count = 0
    for start in range(0, n, step):
        block = {pos: np.repeat(col[start:start + step], width)
                 for pos, col in e.items()}
        reps = min(step, n - start)
        block.update(zip(stages[k + 1][0], (np.tile(g, reps) for g in grid)))
        count += _descend(mul, stages, grids, k + 1, block)
    return count


def _matrix_census_worker(args) -> int:
    field_dict, target, lo, hi = args
    gf = GF.from_dict(field_dict)
    return _staged_count(bulk_ops(gf)[0], gf.q, _STAGES[target], lo, hi)


def exhaustive_matrix_census(gf: GF, target: str, jobs: int = 1,
                             progress=None) -> int:
    """Scan every nowhere-zero 3x3 matrix over GF(2^m) and count the
    semi-involutory MDS (target "SI_MDS") or involutory MDS (target
    "INV_MDS") ones.  Matrices with a zero entry cannot be MDS, so the
    scan covers (q-1)^9 candidates, in stages that test each condition
    as soon as the entries it reads are known.  SI_MDS is scanned up to
    q = 8 and INV_MDS up to q = 16; larger q raises BudgetError.
    `progress(fraction)` is called as each span of the scan finishes."""
    if target not in _STAGES:
        raise ValueError("target must be SI_MDS or INV_MDS")
    _require_char2_desk(gf, max_q=_SCAN_MAX_Q[target])
    stages = _STAGES[target]
    total = (gf.q - 1) ** len(stages[0][0])
    return sum(_run_partitioned(_matrix_census_worker, (gf.to_dict(), target),
                                total, jobs, parts=_SCAN_SPANS, progress=progress))


# -- parametrized enumeration -------------------------------------------
#
# a11 and a22 are entries of every matrix the construction builds, so
# tuples with different (a11, a22) never build the same matrix and each
# (a11, a22) group is deduplicated on its own.

# one scalar spot check per this many matrices of the build order
_SPOT_CHECK_STRIDE = 4096


def _pack_keys(e, m: int) -> np.ndarray:
    """One uint64 key per matrix, entry 0 in the top bits: lossless for
    m-bit entries while 9 m <= 64.  The entries broadcast."""
    key = e[0].astype(np.uint64)
    for col in e[1:]:
        key = (key << np.uint64(m)) | col.astype(np.uint64)
    return key


def _unpack_keys(keys, m: int) -> list[np.ndarray]:
    """The nine uint8 entry arrays that `_pack_keys` packed into `keys`."""
    mask = np.uint64((1 << m) - 1)
    return [((keys >> np.uint64(m * (8 - k))) & mask).astype(np.uint8)
            for k in range(9)]


def _unpack_key(key: int, m: int, gf: GF) -> Matrix:
    vals = [int(v) for v in _unpack_keys(np.uint64(key), m)]
    return Matrix(gf, [vals[0:3], vals[3:6], vals[6:9]])


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of `keys`, flattened (as `np.unique`):
    a sort, then each key that differs from its predecessor."""
    keys = np.sort(keys, axis=None)
    if len(keys) == 0:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


@dataclass(frozen=True)
class EnumerationStats:
    """Bookkeeping from the parametrized enumeration.  It holds no
    failure counts: a matrix that fails verification raises
    InternalMismatchError instead."""

    distinct: int
    tuple_count: int

    @property
    def tuples_per_matrix(self) -> int | None:
        if self.distinct and self.tuple_count % self.distinct == 0:
            return self.tuple_count // self.distinct
        return None


def _parametrized_groups(gf: GF):
    """Build every matrix from the S tuples crossed with all (x, y), one
    (a11, a22) group at a time in digit order, and yield each group's
    sorted distinct keys with its tuple count.

    A batch holds up to `_CHUNK // (q-1)^2` S tuples as (R, 1) columns,
    crossed by broadcasting with the (1, (q-1)^2) row of all (x, y), as
    in the sweep.  Its matrices are deduplicated by packed key, and each
    distinct one, unpacked from its key, is verified semi-involutory and
    MDS in bulk: every built matrix is among them, since packing is
    lossless.  Every `_SPOT_CHECK_STRIDE`-th matrix of the build order is
    also checked by `si_check_3x3` and `Matrix.is_mds`.  Any failure
    raises InternalMismatchError."""
    mul, inv = bulk_ops(gf)
    x, y = (g[None, :] for g in nonzero_grid(gf.q, 2))
    nxy = x.shape[1]
    row_batch = max(1, _CHUNK // nxy)
    group = (gf.q - 1) ** 4
    seen = 0
    for lo in range(0, (gf.q - 1) ** 6, group):
        chunks = [[col[mask] for col in cols] for cols, mask in
                  _tuple_set_chunks(gf, "S", lo, lo + group)]
        s_cols = [np.concatenate(parts) for parts in zip(*chunks)]
        keys = [np.empty(0, np.uint64)]  # a group may hold no S tuple
        for start in range(0, len(s_cols[0]), row_batch):
            six = [c[start:start + row_batch, None] for c in s_cols]
            e = construction_entries(mul, inv, decisive_sums(mul, *six), *six, x, y)
            batch = _distinct(_pack_keys(e, gf.m))
            d = _unpack_keys(batch, gf.m)
            ok = _nonzero(*d) & _si_nowhere_zero_mask(mul, d) & _mds_mask(mul, d)
            if not ok.all():
                raise InternalMismatchError(
                    f"{len(ok) - int(ok.sum())} enumerated matrices failed "
                    f"bulk verification")
            shape = (len(six[0]), nxy)
            built = shape[0] * nxy
            at = np.unravel_index(
                np.arange(-seen % _SPOT_CHECK_STRIDE, built, _SPOT_CHECK_STRIDE), shape)
            picked = [np.broadcast_to(v, shape)[at].tolist() for v in e]
            for vals in zip(*picked):
                mtx = Matrix(gf, [vals[0:3], vals[3:6], vals[6:9]])
                if not (si_check_3x3(mtx).si and mtx.is_mds()):
                    raise InternalMismatchError(
                        f"enumerated matrix {mtx!r} failed the scalar spot check")
            seen += built
            keys.append(batch)
        yield _distinct(np.concatenate(keys)), len(s_cols[0]) * nxy


def _enumeration_budget(gf: GF, long_run: bool) -> None:
    _require_char2_desk(gf)
    if gf.q > 8 and not long_run:
        raise BudgetError("q = 16 enumerates ~1.3e8 matrices and needs "
                          "the long-run flag")


def enumerate_si_mds(gf: GF, mode: str = "count", long_run: bool = False):
    """Build every matrix from the valid 6-tuples crossed with all
    (x, y), and count the distinct ones (packed 9-entry keys, sorted
    and deduplicated per batch and per (a11, a22) group).

    Every distinct matrix of each batch, and so every built matrix, is
    verified semi-involutory and MDS in bulk, and every 4096th matrix
    of the build order also by the scalar `si_check_3x3` and `is_mds`;
    any failure raises InternalMismatchError.  `mode="emit"` returns a
    generator of the distinct matrices in ascending key order, each
    re-verified as it is produced.
    """
    if mode not in ("count", "emit"):
        raise ValueError("mode must be 'count' or 'emit'")
    _enumeration_budget(gf, long_run)
    if mode == "emit":
        return _emit_si_mds(gf)
    return enumeration_stats(gf, long_run=long_run).distinct


def enumeration_stats(gf: GF, long_run: bool = False) -> EnumerationStats:
    """Run the parametrized enumeration and report distinct-matrix and
    tuple counts side by side (their ratio measures how many parameter
    tuples collide on one matrix)."""
    _enumeration_budget(gf, long_run)
    distinct = tuple_count = 0
    for keys, n in _parametrized_groups(gf):
        distinct += len(keys)
        tuple_count += n
    return EnumerationStats(distinct, tuple_count)


def _sorted_keys(gf: GF):
    """The distinct keys in ascending order, one array per a11: a11
    leads the key, and the (a11, a22) groups of one a11 are disjoint."""
    groups = _parametrized_groups(gf)
    for same_a11 in zip(*[groups] * (gf.q - 1)):
        yield np.sort(np.concatenate([keys for keys, _ in same_a11]))


def _emit_si_mds(gf: GF):
    for keys in _sorted_keys(gf):
        for key in keys:
            mtx = _unpack_key(int(key), gf.m, gf)
            if not (si_check_3x3(mtx).si and mtx.is_mds()):
                raise InternalMismatchError("emitted matrix failed re-verification")
            yield mtx


# -- full parameter-space sweep ----------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Exception counters from the full 8-parameter sweep; all zero when
    the construction behaves as specified."""

    tuples: int
    mds_iff_sums_failures: int
    ada_formula_failures: int
    det_formula_failures: int
    zero_pattern_failures: int

    @property
    def clean(self) -> bool:
        return not (self.mds_iff_sums_failures or self.ada_formula_failures
                    or self.det_formula_failures or self.zero_pattern_failures)


def _sweep_worker(args) -> tuple:
    """The four failure counters over the 6-tuples (a11, a22, a33, d1,
    d2, d3) [lo, hi) in digit order, each crossed with every (x, y).

    A block holds up to `_CHUNK // (q-1)^2` 6-tuples as (R, 1) columns;
    (x, y) is a (1, (q-1)^2) row, and every bulk operation broadcasts.
    Whatever reads only the 6-tuple (the sums, r12/r13/r21, the A D A
    diagonal targets, the predicted det) is an (R, 1) array, computed
    once per 6-tuple; every entry, minor and comparison that reads x or
    y is an (R, (q-1)^2) array, computed for each of the 8-tuples."""
    field_dict, lo, hi = args
    gf = GF.from_dict(field_dict)
    mul, inv = bulk_ops(gf)
    base = gf.q - 1
    x, y = (g[None, :] for g in nonzero_grid(gf.q, 2))
    width = x.shape[1]
    step = max(1, _CHUNK // width)
    mds_bad = si_bad = det_bad = zero_bad = 0
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        six = [col[:, None] for col in _digits(start, stop, 6, base)]
        d1, d2, d3 = six[3:]
        sums = decisive_sums(mul, *six)
        s12, s13, s23, s = sums
        e = construction_entries(mul, inv, sums, *six, x, y)
        minors = _minors(mul, e)
        det = _det3(mul, e, minors[6:])
        mds_bad += int((_nonzero(det, *minors) != _nonzero(*sums)).sum())
        zero_bad += int((_nonzero(*e) != _nonzero(s12, s13, s23)).sum())
        # ADA = diag(s^2/d_i) identically; non-singular exactly when s != 0
        w = [mul((d1, d2, d3)[k], e[3 * k + j]) for k in range(3) for j in range(3)]
        s2 = mul(s, s)
        ada_ok = np.ones((stop - start, width), dtype=bool)
        for i in range(3):
            for j in range(3):
                entry = (mul(e[3 * i + 0], w[0 * 3 + j])
                         ^ mul(e[3 * i + 1], w[1 * 3 + j])
                         ^ mul(e[3 * i + 2], w[2 * 3 + j]))
                want = mul(s2, inv((d1, d2, d3)[i])) if i == j else 0
                ada_ok &= entry == want
        si_bad += int((~ada_ok).sum())
        want_det = mul(mul(s2, s), inv(mul(mul(d1, d2), d3)))
        det_bad += int((det != want_det).sum())
    return mds_bad, si_bad, det_bad, zero_bad


def sweep_parameter_space(gf: GF, jobs: int = 1) -> SweepResult:
    """Exhaustively sweep all (q-1)^8 parameter tuples and verify, for
    each: MDS holds iff all four sums are non-zero; A D A equals
    diag(s^2/d_i) entrywise (non-singular exactly when s != 0, which is
    the semi-involutory witness); det A = s^3/(d1 d2 d3); and the
    entries are nowhere zero iff the three pairwise sums are non-zero.

    The (q-1)^6 tuples (a11, a22, a33, d1, d2, d3) are partitioned into
    spans, and each is crossed with all (q-1)^2 pairs (x, y) by
    broadcasting, so what depends on the 6-tuple alone is computed once
    for its (q-1)^2 pairs; nothing is sampled or skipped."""
    _require_char2_desk(gf, max_q=8)
    parts = _run_partitioned(_sweep_worker, (gf.to_dict(),), (gf.q - 1) ** 6, jobs)
    sums = [sum(p[i] for p in parts) for i in range(4)]
    return SweepResult((gf.q - 1) ** 8, *sums)


# -- reports ------------------------------------------------------------

@dataclass
class CensusReport:
    set_name: str
    q: int
    formula_value: int
    brute_force_value: int | None
    match: bool | None
    seconds: float
    note: str | None = None

    def to_dict(self) -> dict:
        d = {"set": self.set_name, "q": self.q, "formula": self.formula_value,
             "brute_force": self.brute_force_value, "match": self.match,
             "seconds": round(self.seconds, 3)}
        if self.note:
            d["note"] = self.note
        return d

    def csv_row(self) -> str:
        bf = "" if self.brute_force_value is None else str(self.brute_force_value)
        mt = "" if self.match is None else str(self.match).lower()
        return f"{self.set_name},{self.q},{self.formula_value},{bf},{mt},{self.seconds:.3f}"


def run_census(gf: GF, sets=None, mode: str = "both", exhaustive: bool = False,
               long_run: bool = False, jobs: int = 1,
               progress=None) -> list[CensusReport]:
    """Evaluate formula and brute-force counts for the requested sets.

    Budget overruns on a brute-force path are recorded in the report
    note instead of aborting the run.  `exhaustive` switches the SI_MDS
    brute force from the parametrized enumeration to the full matrix
    scan."""
    if gf.p != 2 or gf.m < 2:
        raise ValueError("census is defined over GF(2^m), m >= 2")
    if sets is None:
        sets = SET_NAMES
    bad = [s for s in sets if s not in SET_NAMES]
    if bad:
        raise ValueError(f"unknown sets {bad}; expected from {SET_NAMES}")
    reports = []
    for name in SET_NAMES:
        if name not in sets:
            continue
        t0 = time.monotonic()
        formula = formula_count(name, gf.m)
        brute = None
        note = None
        if mode == "both":
            try:
                if name in ("S", "S1", "S2", "S3", "S4", "S5"):
                    brute = brute_force_S(gf, name, jobs=jobs)
                elif name == "SI_MDS" and not exhaustive:
                    stats = enumeration_stats(gf, long_run=long_run)
                    brute = stats.distinct
                    if stats.tuples_per_matrix not in (None, 1):
                        note = (f"{stats.tuples_per_matrix} parameter tuples "
                                f"per distinct matrix")
                else:
                    brute = exhaustive_matrix_census(gf, name, jobs=jobs,
                                                     progress=progress)
            except BudgetError as err:
                note = str(err)
        match = None if brute is None else (brute == formula)
        reports.append(CensusReport(name, gf.q, formula, brute, match,
                                    time.monotonic() - t0, note))
    return reports
