"""Counting semi-involutory MDS matrices: closed forms and brute force.

Every count here is an exact integer and every closed form is paired
with an independent brute-force verifier at desk scale:

* the 6-tuple sets (all non-zero (a11, a22, a33, d1, d2, d3) whose four
  decisive sums are non-zero), partitioned by the equality pattern of
  the a_ii, enumerated literally over (q-1)^6, each by one stage of the
  exhaustive matrix census's engine, which crosses all six coordinates;
* the parametrized enumeration, which builds every matrix from the
  tuples in S x (x, y) on the sweep's axes, x by y by a batch of S
  tuples, (q-1, 1, 1), (1, q-1, 1) and (1, 1, R), so that a12, a21, a23
  and a32 span only the tuples and one of x and y, and deduplicates
  with a sort, one (a11, a22) group at a time: both are matrix entries,
  so two groups never share a matrix, a key packs only the other seven
  entries into 32 bits, and memory is bounded by one group's keys.
  The distinct matrices of a few groups at a time (2^15 or more) are
  verified together in bulk by the entry-level test, and every 4096th
  matrix of the build order by the independent literal diagonal
  search, batched as `si.oracle_hits`, and by `matrix.mds`, the
  all-minors test of `Matrix.is_mds` over arrays, before those groups
  are reported;
* the exhaustive matrix census, which judges all (q-1)^9 nowhere-zero
  3x3 matrices and counts the semi-involutory MDS (or involutory MDS)
  ones with no reference to the construction.  It fixes the entries in
  stages (SI_MDS: the six off-diagonal entries, then a11, then a22;
  INV_MDS: row 0 and a21, then a22) and tests each condition at the
  first stage where every entry it reads is known, and only there, so
  the candidates a test rejects are never expanded.  A stage crosses
  the values of its new entries, as (w, 1) columns, with the
  survivors, as a (1, r) row, by broadcasting, so a product that does
  not read a new entry is computed once per survivor and numpy's inner
  loops run along the survivors.  Every stage but the last compacts
  its grid's mask flat, by `np.flatnonzero`, each kept index splitting
  by divmod into a (value, survivor) pair; the last counts its mask
  instead.  No stage crosses the entries left, each read affinely by a
  condition: the last stage solves, at each point of its grid, for the
  one value, if any, that meets it (SI_MDS: a33 from `si.product_det`;
  INV_MDS: a31, a32, a23 and a33 from four cells of A^2 = I), and
  tests the rest with those values.  SI_MDS's a22 minors keep 71% of
  their candidates at q = 8 and 87% at q = 16, too many for compacting
  them to pay.  At q = 16, 1.6e8 SI_MDS candidates reach the last
  stage (7.1e5 at q = 8), and the scan takes seconds;
* the parameter sweep, which checks the construction's MDS, A D A,
  determinant and zero-pattern claims on every 8-tuple (a11, a22, a33,
  d1, d2, d3, x, y) on bit-sliced elements: a block of 6-tuples is
  packed 64 to a word, W words, and x, y and the words lie on three
  broadcast axes, (q-1, 1, 1), (1, q-1, 1) and (1, 1, W), so each value
  is computed only over the parameters it reads (a12 and a21 over the
  6-tuple and x, a23 and a32 over the 6-tuple and y), and only a13,
  a31 and what reads them span all (q-1)^2 64 W 8-tuples of the block.
  Each check's failures are a mask of packed words, whose set bits are
  counted.

The MDS test of a batch, the determinant and the nine 2x2 minors all
non-zero, is one kernel, `_det_and_mds`, over either field argument:
the INV_MDS scan's last stage, the enumeration's bulk verification and
the sweep all read it.

Every path but the sweep stops at q = 16; the sweep stops at q = 8.
Every path but the sweep runs on numpy lookup tables, in fixed-size
chunks of `_tables._CHUNK` rows or broadcast pairs, with the field
argument f = `_tables.bulk_ops(gf)`; the sweep takes f =
`_tables.plane_ops(gf)`, over the same kernels.  The tuple sets, the
matrix census and the sweep can be partitioned across processes by
contiguous index ranges (of the 6-tuples, for the sweep), each worker
taking the `GF` itself, and their counts are independent of the
partitioning; the enumeration runs in one process.  The
tuple sets, the enumeration and the sweep take the construction's sums,
entries, det and A D A diagonal from `construct`; the exhaustive matrix
census reads none of them and judges semi-involutory matrices by the
entry-level test's conditions in `si`.  Minors, determinants and
matrix products come from `matrix`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from ._tables import _CHUNK, _digits, bulk_ops, nonzero_grid, plane_ops
from .construct import construction_entries, decisive_sums, det_and_ada
from .errors import BudgetError, InternalMismatchError
from .field import GF
from .matrix import det3, dot, mds, minor
from .si import (nowhere_zero_si, oracle_hits, product_det_terms,
                 triangle_products_agree)

CSV_HEADER = "set,q,formula,brute_force,match,seconds"

# Spans of a scan's first stage, so that one process still reports progress.
_SCAN_SPANS = 8

# Packed words of 6-tuples per block of the parameter sweep: at q = 8,
# 104 words (6,656 6-tuples, 18 blocks) keep the traced peak under 2 MB
# (1.80 MB), with `_det_and_mds` holding at most three minors, and each
# (m, q-1, q-1, W) uint64 array, 122,304 bytes, under glibc's 128 KiB
# mmap threshold, which holds for W <= 111, so that it comes from the
# heap rather than from fresh zeroed pages.
_SWEEP_WORDS = 104


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
    """Run `worker((*args, lo, hi))` over contiguous spans of
    range(total), in a pool of at most `jobs` processes when jobs > 1.
    `jobs` is first capped at the CPUs, so that neither the spans nor
    the pool grow past them; there are then max(jobs, `parts`) spans,
    and the pool is no larger than the spans.  Results come back in
    completion order; `progress(fraction)` is called as each span
    finishes; ValueError when jobs < 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    tasks = [(*args, lo, hi) for lo, hi in _ranges(total, max(jobs, parts))]
    if jobs <= 1 or len(tasks) <= 1:
        return _reported(map(worker, tasks), len(tasks), progress)
    # imported here: a one-process run never needs it
    from concurrent.futures import ProcessPoolExecutor, as_completed
    # the pool may start every worker on the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
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

_TUPLE_SETS = ("S", "S1", "S2", "S3", "S4", "S5")


def _tuple_set_masks(f, cols, subset: str) -> np.ndarray:
    """Whether each 6-tuple (a11, a22, a33, d1, d2, d3) = (cols[0], ...,
    cols[5]) lies in the named set.  `cols` is read by index only, so a
    scan's dict of columns keyed by position serves as a list does."""
    a11, a22, a33 = cols[0], cols[1], cols[2]
    mask = f.nonzero(*decisive_sums(f, *(cols[k] for k in range(6))))
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


def distinct_diag_inner_count(gf: GF, a11: int, a22: int, a33: int) -> int:
    """For a fixed diagonal triple, the number of pairwise-distinct
    non-zero (d1, d2, d3) satisfying the four sum conditions, counted
    over all (q-1)^3 of them in bulk, up to q = 16 as the tuple sets
    are; `_distinct_diag_inner_formula` is its closed form."""
    _require_char2_desk(gf)
    d1, d2, d3 = nonzero_grid(gf.q, 3)
    ok = _tuple_set_masks(bulk_ops(gf), (a11, a22, a33, d1, d2, d3), "S")
    return int(np.count_nonzero(ok & (d1 != d2) & (d1 != d3) & (d2 != d3)))


def _distinct_diag_inner_formula(q: int, a11: int, a22: int, a33: int) -> int:
    """`distinct_diag_inner_count` in closed form over GF(q), q = 2^m:
    (q-1)(q^2-9q+20) when a11+a22 = a33 and (q-1)(q^2-9q+22) otherwise."""
    return (q - 1) * (q * q - 9 * q + (20 if a11 ^ a22 == a33 else 22))


# -- 3x3 condition kernels ----------------------------------------------
#
# Entry k of a 3x3 matrix is a_{i+1, j+1} with k = 3 i + j.

_PAIRS = ((0, 1), (0, 2), (1, 2))


def _det_and_mds(f, e) -> tuple:
    """The determinant of the 3x3 matrices `e` and `f.nonzero`'s mask of
    where it and all nine 2x2 minors are non-zero, MDS but for the
    entries.  The three minors on rows (1, 2) make the determinant and
    are then dropped, and each other minor is ANDed into the mask as
    soon as it is formed, so no more than three minors are alive at
    once."""
    row12 = [minor(f, e, (1, 2), cols) for cols in _PAIRS]
    det = det3(f, e, row12)
    ok = f.nonzero(det, *row12)
    del row12
    for rows, cols in product(_PAIRS[:2], _PAIRS):
        ok &= f.nonzero(minor(f, e, rows, cols))
    return det, ok


def _product_entry(f, a, b, i: int, j: int) -> np.ndarray:
    """Entry (i, j) of A B: row i of A times column j of B."""
    return dot(f, (a[3 * i + k] for k in range(3)), (b[3 * k + j] for k in range(3)))


# -- exhaustive matrix census -------------------------------------------

def _mds_on_a33(f, e, m12_01) -> np.ndarray:
    """The determinant and the four 2x2 minors that read a33: the parts
    of `_det_and_mds` that no SI_MDS test before the a33 solve checks.  The
    determinant expands along row 0 with two of those minors and
    `m12_01`, minor((1,2),(0,1)), which reads no a33 and is formed once,
    before the solve."""
    pairs = ((0, 2), (1, 2))
    m = [minor(f, e, rows, cols) for rows in pairs for cols in pairs]
    return f.nonzero(det3(f, e, (m12_01, m[2], m[3])), *m)


def _solved(f, want, rest, coeff) -> np.ndarray:
    """(want - rest) / coeff, or 0 where coeff = 0 (inv's 0 sentinel)."""
    return f.mul(f.sub(want, rest), f.inv(coeff))


def _si_a33(f, e, live) -> np.ndarray:
    """The a33 on which `si.product_det` vanishes, given the other eight
    entries, or 0 where none does.  It is slope a33 + const with neither
    term reading a33, so a33 = -const/slope, and slope = 0 leaves none,
    by inv's 0 sentinel.  const = a23 a32 a31^2 minor((0,1),(0,1)), and
    the tests before the solve check each factor non-zero; a zero const
    where `live` (the mask of those tests) holds, for which every a33
    would do, raises InternalMismatchError rather than drop those
    matrices."""
    slope, const = product_det_terms(f, e)
    if np.any(live & (const == 0)):
        raise InternalMismatchError("a scan survivor reached the a33 solve "
                                    "with product_det's constant term zero")
    return _solved(f, 0, const, slope)


def _si_mds_last(f, e) -> np.ndarray:
    """SI_MDS's last stage, on the grid of a22's values by the a11
    stage's survivors: the three 2x2 minors that read a22 and not a33
    are non-zero, and so is the solved a33, which passes
    `_mds_on_a33`."""
    m12_01 = minor(f, e, (1, 2), (0, 1))
    ok = f.nonzero(minor(f, e, (0, 1), (1, 2)), m12_01, minor(f, e, (0, 1), (0, 1)))
    e = {**e, 8: _si_a33(f, e, ok)}
    return ok & (e[8] != 0) & _mds_on_a33(f, e, m12_01)


_INV_SOLVES = ((6, (0, 0), 2), (7, (0, 1), 2), (5, (1, 0), 6), (8, (0, 2), 2))


def _inv_mds_last(f, e) -> np.ndarray:
    """INV_MDS's last stage.  For each (entry, cell of A^2 = I, entry
    that is its coefficient there) of `_INV_SOLVES`, in turn, the cell
    is affine in the entry, which is solved as (want - rest) / coeff,
    rest being the cell with the entry 0, and must be non-zero (a zero
    a31 makes a23 0).  The other five cells hold, and so does
    `_det_and_mds`."""
    for pos, (i, j), coeff in _INV_SOLVES:
        without = {**e, pos: 0}
        rest = _product_entry(f, without, without, i, j)
        e = {**e, pos: _solved(f, int(i == j), rest, e[coeff])}
    ok = f.nonzero(e[5], e[6], e[7], e[8]) & _det_and_mds(f, e)[1]
    for i, j in ((1, 1), (1, 2), (2, 0), (2, 1), (2, 2)):
        ok &= _product_entry(f, e, e, i, j) == int(i == j)
    return ok


# -- staged scans -------------------------------------------------------
#
# A scan is a list of stages, each (entries added, tests applied in
# order once they are known).  Candidates live in dicts keyed by
# position, so a test that reads an entry not yet known raises KeyError
# instead of reading garbage.  A 6-tuple set S..S5 is one stage that
# crosses all six positions of (a11, a22, a33, d1, d2, d3).  SI_MDS and
# INV_MDS key the row-major matrix entries (k = 3 i + j) and test each
# condition at the first stage where every entry it reads is known, and
# only there.  SI_MDS tests both conditions of `si.nowhere_zero_si`: the
# triangle products once the off-diagonal entries are known, and
# `product_det` by solving it for a33.  Its a11 stage tests the two 2x2
# minors that read a11 but neither a22 nor a33, and its last stage,
# which adds a22, the three that read a22 and no a33, then the other
# four and the determinant on the solved a33, which includes the
# non-singularity the entry-level test presumes.  The a22 minors keep
# most of their grid (504,210 of 705,894 at q = 8), so the solve runs on
# the whole grid and products that do not read a22 are formed once per
# a11 survivor.  INV_MDS tests nothing until its last stage adds a22 and
# solves a31, a32, a23 and a33 from A^2 = I.
_STAGES = {
    **{name: (((0, 1, 2, 3, 4, 5), (partial(_tuple_set_masks, subset=name),)),)
       for name in _TUPLE_SETS},
    "SI_MDS": (
        ((1, 2, 3, 5, 6, 7), (triangle_products_agree,)),
        ((0,), (lambda f, e: f.nonzero(minor(f, e, (0, 1), (0, 2)),
                                       minor(f, e, (0, 2), (0, 1))),)),
        ((4,), (_si_mds_last,)),
    ),
    "INV_MDS": (
        ((0, 1, 2, 3), ()),
        ((4,), (_inv_mds_last,)),
    ),
}

SET_NAMES = tuple(_STAGES)


def _grid_mask(f, tests, old: dict, new: dict) -> np.ndarray:
    """The tests' masks ANDed over the grid of the values of `new` by
    the survivors of `old` (dicts of flat columns keyed by position;
    either may be empty).  The tests see the values as (w, 1) columns
    and the survivors as a (1, r) row, innermost, so that numpy's inner
    loops run over the r survivors rather than the few new values.  The
    mask starts as the first test's and is broadcast, read-only, to the
    (w, r) grid."""
    e = {pos: col[None, :] for pos, col in old.items()}
    e.update((pos, col[:, None]) for pos, col in new.items())
    mask = tests[0](f, e) if tests else True
    for test in tests[1:]:
        mask = mask & test(f, e)
    return np.broadcast_to(mask, np.broadcast_shapes(*(col.shape for col in e.values())))


def _cross(f, tests, old: dict, new: dict) -> dict:
    """The pairs of a survivor of `old` and a value of `new` that pass
    every test, over `_grid_mask`'s grid, as flat columns.  The grid is
    compacted flat, by `np.flatnonzero`, and each kept flat index splits
    by divmod by r into the (value, survivor) pair that gathers the new
    entries and the old ones, in the order of 2-D `np.nonzero`."""
    mask = _grid_mask(f, tests, old, new)
    value, survivor = divmod(np.flatnonzero(mask), mask.shape[1])
    kept = {pos: c[survivor] for pos, c in old.items()}
    kept.update((pos, c[value]) for pos, c in new.items())
    return kept


def _count(f, q: int, stages, old: dict, new: dict) -> int:
    """Count the pairs of a survivor of `old` and a value of `new` that
    pass the first of `stages` and every later one.  The last stage
    counts `_grid_mask`'s mask; an earlier one compacts it by `_cross`
    and hands the next its survivors in blocks of `_CHUNK` // w, for
    its w = (q-1)^len(entries) values, at most `_CHUNK` pairs a grid."""
    (_, tests), later = stages[0], stages[1:]
    if not later:
        return int(np.count_nonzero(_grid_mask(f, tests, old, new)))
    e = _cross(f, tests, old, new)
    entries = later[0][0]
    grid = dict(zip(entries, nonzero_grid(q, len(entries))))
    step = max(1, _CHUNK // (q - 1) ** len(entries))
    n = len(next(iter(e.values())))
    return sum(_count(f, q, later, {pos: col[lo:lo + step] for pos, col in e.items()}, grid)
               for lo in range(0, n, step))


def _staged_count(f, q: int, stages, lo: int, hi: int) -> int:
    """Count the candidates passing every stage's tests, over the rows
    [lo, hi) of the first stage's entries (all in F_q^*, digit order),
    in blocks of at most `_CHUNK` rows, each counted by `_count`."""
    first = stages[0][0]
    return sum(_count(f, q, stages, {}, dict(zip(first, _digits(
                   start, min(start + _CHUNK, hi), len(first), q - 1))))
               for start in range(lo, hi, _CHUNK))


def _scan_worker(args) -> int:
    gf, target, lo, hi = args
    return _staged_count(bulk_ops(gf), gf.q, _STAGES[target], lo, hi)


def _scan(gf: GF, target: str, jobs: int, progress) -> int:
    """Count the named target of `_STAGES` over every row of its first
    stage's entries, up to q = 16 (else BudgetError)."""
    _require_char2_desk(gf)
    total = (gf.q - 1) ** len(_STAGES[target][0][0])
    return sum(_run_partitioned(_scan_worker, (gf, target), total, jobs,
                                parts=_SCAN_SPANS, progress=progress))


def brute_force_S(gf: GF, subset: str = "S", jobs: int = 1,
                  progress=None) -> int:
    """Literal enumeration of the named 6-tuple set over (F_q^*)^6, a
    one-stage scan.  `progress(fraction)` is called as each span of the
    6-tuples finishes."""
    if subset not in _TUPLE_SETS:
        raise ValueError(f"unknown tuple subset {subset!r}")
    return _scan(gf, subset, jobs, progress)


def exhaustive_matrix_census(gf: GF, target: str, jobs: int = 1,
                             progress=None) -> int:
    """Scan every nowhere-zero 3x3 matrix over GF(2^m) and count the
    semi-involutory MDS (target "SI_MDS") or involutory MDS (target
    "INV_MDS") ones.  Matrices with a zero entry cannot be MDS, so the
    scan covers (q-1)^9 candidates, in stages that test each condition
    as soon as the entries it reads are known.  Both targets are
    scanned up to q = 16, the cap the tuple sets and the enumeration
    share; larger q raises BudgetError.
    `progress(fraction)` is called as each span of the scan finishes."""
    if target not in ("SI_MDS", "INV_MDS"):
        raise ValueError("target must be SI_MDS or INV_MDS")
    return _scan(gf, target, jobs, progress)


# -- parametrized enumeration -------------------------------------------
#
# a11 and a22 are entries of every matrix the construction builds, so
# tuples with different (a11, a22) never build the same matrix and each
# (a11, a22) group is deduplicated on its own.

# one scalar spot check per this many matrices of the build order
_SPOT_CHECK_STRIDE = 4096

# distinct matrices held back before they are verified together: at
# q = 8 the bulk checks take 0.49 ms for one group's 8,232 and 1.08 ms
# for four groups' 32,928 (best of 30, 2 vCPU Xeon), so nearly half of
# a lone group's cost is per call
_VERIFY_BATCH = 1 << 15


def _pack_keys(e, m: int) -> np.ndarray:
    """One uint32 key per matrix from its m-bit entries `e`, the first
    in the top bits; more than 32 bits raise ValueError.  A group packs
    the seven entries other than its constant a11 and a22, 7 m <= 28
    bits at the enumeration's q <= 16.  The entries broadcast: each is
    shifted to its place and the terms are ORed smallest array first,
    so that the key spans the full broadcast shape only once it must,
    and from then on takes each term in place."""
    if len(e) * m > 32:
        raise ValueError(f"{len(e)} {m}-bit entries do not fit a 32-bit key")
    key = None
    for k in sorted(range(len(e)), key=lambda k: e[k].size):
        term = np.left_shift(e[k], np.uint32(m * (len(e) - 1 - k)), dtype=np.uint32)
        if key is None:
            key = term
        elif np.broadcast_shapes(key.shape, term.shape) == key.shape:
            key |= term
        else:
            key = key | term
    return key


def _unpack_keys(keys, m: int, count: int) -> list[np.ndarray]:
    """The `count` uint8 entry arrays that `_pack_keys` packed into
    `keys`."""
    mask = np.uint32((1 << m) - 1)
    return [((keys >> np.uint32(m * (count - 1 - k))) & mask).astype(np.uint8)
            for k in range(count)]


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


def _require_all(ok: np.ndarray, e: list, failed: str) -> None:
    """Raise InternalMismatchError unless every matrix of the entry
    columns `e` passes, by the mask `ok`, naming how many `failed` and
    the first, as rows."""
    if not ok.all():
        i = int(np.argmin(ok))
        first = [[int(e[3 * r + c][i]) for c in range(3)] for r in range(3)]
        raise InternalMismatchError(f"{len(ok) - int(ok.sum())} {failed}, first {first}")


def _verify_built(gf: GF, f, groups: list, picked: list) -> None:
    """Verify the distinct matrices of `groups`, each ((a11, a22), keys,
    tuple count) as `_parametrized_groups` yields it, and the spot-check
    matrices `picked`, nine lists of entry columns; raise
    InternalMismatchError on any failure.

    The keys are unpacked, with each group's a11 and a22 added back, and
    judged semi-involutory (by the entry-level test) and MDS (by
    `_det_and_mds`) in bulk, in blocks of `_CHUNK` matrices.  The spot
    checks are judged together, in one call each, by the literal
    diagonal search of `si.oracle_hits`, which finds no diagonal for a
    singular matrix, and by `matrix.mds`, which forms every minor from
    the entries and shares nothing with `_det_and_mds`.  Either error
    names how many matrices failed and the first."""
    keys = np.concatenate([np.empty(0, np.uint32)] + [k for _, k, _ in groups])
    sizes = [len(k) for _, k, _ in groups]
    fixed = [np.repeat(np.array([g[i] for g, _, _ in groups], np.uint8), sizes)
             for i in range(2)]
    for lo in range(0, len(keys), _CHUNK):
        d = _unpack_keys(keys[lo:lo + _CHUNK], gf.m, 7)
        d[0:0] = [fixed[0][lo:lo + _CHUNK]]
        d[4:4] = [fixed[1][lo:lo + _CHUNK]]
        ok = f.nonzero(*d) & nowhere_zero_si(f, d) & _det_and_mds(f, d)[1]
        _require_all(ok, d, "enumerated matrices failed bulk verification")
    picked = [np.concatenate([np.empty(0, np.uint8)] + col) for col in picked]
    rows = [picked[0:3], picked[3:6], picked[6:9]]
    ok = oracle_hits(gf, picked).any(axis=1) & mds(f, rows)
    _require_all(ok, picked, f"of {len(ok)} spot-checked matrices failed the oracle "
                             f"or MDS test")


def _parametrized_groups(gf: GF):
    """Build every matrix from the S tuples crossed with all (x, y), one
    (a11, a22) group at a time in digit order, and yield each group's
    (a11, a22), its sorted distinct keys and its tuple count, once its
    matrices are verified.

    A batch of up to `_CHUNK // (q-1)^2` S tuples lies on a (1, 1, R)
    axis, innermost, crossed by broadcasting with x on a (q-1, 1, 1)
    axis and y on a (1, q-1, 1) one, so each entry spans only the axes
    it reads: a12 and a21 are (q-1, 1, R), a23 and a32 (1, q-1, R), and
    only a13 and a31 span all (q-1)^2 R built matrices.  The matrices
    are deduplicated by a uint32 key packing the seven entries other
    than a11 and a22, which are the group's constants.  Every
    `_SPOT_CHECK_STRIDE`-th matrix of the build order (tuple, x, y) is
    picked for a spot check, its index split by divmod into the three
    axes.  The groups are held until `_VERIFY_BATCH` distinct matrices
    are pending, and at the end, then verified together by
    `_verify_built`: every built matrix is among their distinct ones,
    since packing is lossless."""
    f = bulk_ops(gf)
    base = gf.q - 1
    (g,) = nonzero_grid(gf.q, 1)
    x, y = g[:, None, None], g[None, :, None]
    row_batch = max(1, _CHUNK // base ** 2)
    group = base ** 4
    seen = held = 0
    pending, picked = [], [[] for _ in range(9)]
    for lo in range(0, base ** 6, group):
        # (q-1)^4 <= 50,625 6-tuples at q <= 16, one `_CHUNK` at most;
        # the group's keys, (q-1)^2 times as many, bound the memory
        cols = _digits(lo, lo + group, 6, base)
        a11, a22 = int(cols[0][0]), int(cols[1][0])
        mask = _tuple_set_masks(f, cols, "S")
        s_cols = [col[mask] for col in cols]
        keys = [np.empty(0, np.uint32)]  # a group may hold no S tuple
        for start in range(0, len(s_cols[0]), row_batch):
            six = [c[None, None, start:start + row_batch] for c in s_cols]
            e = construction_entries(f, decisive_sums(f, *six), *six, x, y)
            keys.append(_distinct(_pack_keys(e[1:4] + e[5:], gf.m)))
            shape = (base, base, six[0].shape[2])
            built = shape[2] * base ** 2
            t, i, j = np.unravel_index(np.arange(
                -seen % _SPOT_CHECK_STRIDE, built, _SPOT_CHECK_STRIDE), shape[::-1])
            for col, v in zip(picked, e):
                col.append(np.broadcast_to(v, shape)[i, j, t])
            seen += built
        keys = _distinct(np.concatenate(keys))
        pending.append(((a11, a22), keys, len(s_cols[0]) * base ** 2))
        held += len(keys)
        if held >= _VERIFY_BATCH:
            _verify_built(gf, f, pending, picked)
            yield from pending
            held, pending, picked = 0, [], [[] for _ in range(9)]
    _verify_built(gf, f, pending, picked)
    yield from pending


def enumeration_stats(gf: GF, long_run: bool = False,
                      progress=None) -> EnumerationStats:
    """Run the parametrized enumeration and report distinct-matrix and
    tuple counts side by side (their ratio measures how many parameter
    tuples collide on one matrix).  Every built matrix is verified as
    `_parametrized_groups` describes; a failure raises
    InternalMismatchError.  q = 16 needs `long_run`, else BudgetError.
    `progress(fraction)` is called for each of the (q-1)^2 (a11, a22)
    groups once it is verified, so a few at a time at q = 8."""
    _require_char2_desk(gf)
    if gf.q > 8 and not long_run:
        raise BudgetError("q = 16 enumerates ~1.3e8 matrices and needs "
                          "the long-run flag")
    distinct = tuple_count = 0
    groups = (gf.q - 1) ** 2
    for done, (_, keys, n) in enumerate(_parametrized_groups(gf), 1):
        distinct += len(keys)
        tuple_count += n
        if progress is not None:
            progress(done / groups)
    return EnumerationStats(distinct, tuple_count)


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


def _set_lanes(words: np.ndarray, full: tuple) -> int:
    """The set bits of `words` broadcast to the shape `full`, counted on
    the bytes of `words` alone, since broadcasting repeats each of them
    the same number of times."""
    bits = np.count_nonzero(np.unpackbits(words.view(np.uint8)))
    return bits * (np.prod(full) // words.size)


def _sweep_worker(args) -> tuple:
    """The four failure counters over the 6-tuples (a11, a22, a33, d1,
    d2, d3) [lo, hi) in digit order, each crossed with every (x, y).

    The elements are bit-sliced, f = `_tables.plane_ops(gf)`: a block of
    up to 64 * `_SWEEP_WORDS` 6-tuples is packed 64 to a word, W words,
    and x, y and the packed words each get their own broadcast axis
    behind the m planes: x is (m, q-1, 1, 1), y is (m, 1, q-1, 1), one
    word per value, all ones or all zeros, and the 6-tuples are
    (m, 1, 1, W), innermost so that numpy's inner loops run W words
    long.  Every bulk operation broadcasts, so each value spans only the
    axes it reads: the sums, r12/r13/r21 and the predicted det and A D A
    diagonal of `construct.det_and_ada` are (m, 1, 1, W); a12 and a21
    are (m, q-1, 1, W), a23 and a32 (m, 1, q-1, W), and so are the
    minors and A D A terms built from them alone; only a13, a31 and what
    reads them span the full (m, q-1, q-1, W).  A check's mask is
    packed words with a lane's bit set where the check fails, by
    `f.nonzero`.  Its lanes past the block's last 6-tuple are cleared,
    and each counter counts its set bits as if broadcast to
    (q-1, q-1, W), so it counts every 8-tuple whatever axes the mask
    reads.  Seven of the nine minors span the full shape; the
    determinant and the MDS mask come from `_det_and_mds`, which holds
    no more than three of them at once."""
    gf, lo, hi = args
    f = plane_ops(gf)
    base = gf.q - 1
    (g,) = nonzero_grid(gf.q, 1)
    x, y = f.spread(g[:, None, None]), f.spread(g[None, :, None])
    step = 64 * _SWEEP_WORDS
    bad = [0] * 4
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        six = [f.pack(col)[:, None, None, :] for col in _digits(start, stop, 6, base)]
        live = f.pack(np.ones(stop - start, np.uint8))[0]
        full = (base, base, len(live))
        d = six[3:]
        sums = decisive_sums(f, *six)
        s12, s13, s23, s = sums
        e = construction_entries(f, sums, *six, x, y)
        # ADA = diag(s^2/d_i) identically; non-singular exactly when s != 0
        want_det, want_ada = det_and_ada(f, s, *d)
        det, mds = _det_and_mds(f, e)
        det_bad = f.nonzero(det ^ want_det)
        del det
        mds_bad = mds ^ f.nonzero(*sums)
        zero_bad = f.nonzero(*e) ^ f.nonzero(s12, s13, s23)
        da = [f.mul(d[k], e[3 * k + j]) for k in range(3) for j in range(3)]
        ada_bad = np.zeros(full, dtype=np.uint64)
        for i, j in product(range(3), repeat=2):
            got = _product_entry(f, e, da, i, j)
            ada_bad |= f.nonzero(got ^ want_ada[i] if i == j else got)
        for k, mask in enumerate((mds_bad, ada_bad, det_bad, zero_bad)):
            bad[k] += _set_lanes(mask & live, full)
    return tuple(int(n) for n in bad)


def sweep_parameter_space(gf: GF, jobs: int = 1) -> SweepResult:
    """Exhaustively sweep all (q-1)^8 parameter tuples and verify, for
    each: MDS holds iff all four sums are non-zero; A D A equals
    diag(s^2/d_i) entrywise (non-singular exactly when s != 0, which is
    the semi-involutory witness); det A = s^3/(d1 d2 d3); and the
    entries are nowhere zero iff the three pairwise sums are non-zero.

    The (q-1)^6 tuples (a11, a22, a33, d1, d2, d3) are partitioned into
    spans, and each is crossed with all (q-1)^2 pairs (x, y) by
    broadcasting on three axes, x by y by the 6-tuples: what reads the
    6-tuple alone is computed once for its (q-1)^2 pairs, what reads it
    and only one of x and y once for q-1 pairs, and the counters still
    count every 8-tuple; nothing is sampled or skipped."""
    _require_char2_desk(gf, max_q=8)
    parts = _run_partitioned(_sweep_worker, (gf,), (gf.q - 1) ** 6, jobs)
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
    note instead of aborting the run.  Every brute force is a staged
    scan but SI_MDS's, the parametrized enumeration unless `exhaustive`
    switches it to the full matrix scan.  `mode` is "both" or
    "formula" (no brute force), else ValueError."""
    if gf.p != 2 or gf.m < 2:
        raise ValueError("census is defined over GF(2^m), m >= 2")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if mode not in ("both", "formula"):
        raise ValueError(f"mode must be 'both' or 'formula', not {mode!r}")
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
                if name == "SI_MDS" and not exhaustive:
                    stats = enumeration_stats(gf, long_run=long_run,
                                              progress=progress)
                    brute = stats.distinct
                    if stats.tuples_per_matrix not in (None, 1):
                        note = (f"{stats.tuples_per_matrix} parameter tuples "
                                f"per distinct matrix")
                else:
                    # by public name, so that a profile sees each count
                    scan = (brute_force_S if name in _TUPLE_SETS
                            else exhaustive_matrix_census)
                    brute = scan(gf, name, jobs=jobs, progress=progress)
            except BudgetError as err:
                note = str(err)
        match = None if brute is None else (brute == formula)
        reports.append(CensusReport(name, gf.q, formula, brute, match,
                                    time.monotonic() - t0, note))
    return reports
