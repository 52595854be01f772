"""Numpy lookup tables and digit grids for bulk field arithmetic.

The bulk kernels in `census` and `si` turn field arithmetic over arrays
into fancy indexing.  `mul_table` and `inv_table` are the field's own
product and inverse tables (built by `GF` for q <= TABLE_MAX_Q) as
read-only uint8 arrays; `bulk_ops` wraps them as the callables
mul(a, b) and inv(a) that the construction formulas are written over.
Only characteristic 2 is supported here (addition is XOR).
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .field import GF, TABLE_MAX_Q


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _require_tables(gf: GF) -> None:
    if gf.p != 2 or gf._mul_table is None:
        raise ValueError(f"bulk tables exist for characteristic 2 and "
                         f"q <= {TABLE_MAX_Q} only, not {gf!r}")


@cache
def mul_table(gf: GF) -> np.ndarray:
    """(q, q) uint8 table with mul_table[a, b] = a * b."""
    _require_tables(gf)
    return _frozen(np.array(gf._mul_table, dtype=np.uint8).reshape(gf.q, gf.q))


@cache
def inv_table(gf: GF) -> np.ndarray:
    """(q,) uint8 table of inverses; index 0 holds a 0 sentinel."""
    _require_tables(gf)
    return _frozen(np.array(gf._inv_table, dtype=np.uint8))


def bulk_ops(gf: GF):
    """(mul, inv): field multiplication and inversion over arrays of
    elements, by lookup in `mul_table` and `inv_table`."""
    mul, inv = mul_table(gf), inv_table(gf)
    return (lambda a, b: mul[a, b]), inv.__getitem__


def _digits(start: int, stop: int, ndigits: int, base: int) -> list[np.ndarray]:
    """Columns of the base-(q-1) digit expansion of [start, stop),
    shifted to 1..q-1.  Digit 0 varies slowest."""
    idx = np.arange(start, stop, dtype=np.int64)
    return [((idx // base ** (ndigits - 1 - k)) % base + 1).astype(np.uint8)
            for k in range(ndigits)]


@cache
def nonzero_grid(q: int, n: int) -> tuple[np.ndarray, ...]:
    """n read-only coordinate arrays enumerating (F_q^*)^n in
    lexicographic order: flat index i is the i-th tuple, column 0
    varying slowest."""
    return tuple(_frozen(col) for col in _digits(0, (q - 1) ** n, n, q - 1))
