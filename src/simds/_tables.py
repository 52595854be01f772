"""Numpy lookup tables and digit grids for bulk field arithmetic.

`mul_table` and `inv_table` are the field's own product and inverse
tables (built by `GF` for q <= TABLE_MAX_Q) as read-only uint8 arrays.
`bulk_ops` wraps them as the field's arithmetic over arrays, under
`GF`'s own method names, so a kernel written over one field argument
`f` runs on ints with f = gf and on arrays with f = bulk_ops(gf).
mul(a, b) reads the product table raveled, at index a q + b, built by a
multiply, not a shift, because numpy vectorises uint8 `*` but not uint8
`<<`, and as a new array, not in place in the scaled copy of `a`, so
that a and b broadcast against each other like the operands of any
numpy operator.

When q <= 16 the index is at most q^2 - 1 <= 255, so it is built as
uint8 and its bytes are translated through the table as 256 bytes by
`bytearray.translate`: one byte lookup per product, where `take` would
first copy the index to 8-byte intp: mul of 2^18 pairs at q = 8 takes
0.14 ms against 0.46 ms (best of 50, 2 vCPU Xeon).  A bytearray, not
bytes, so that the array `np.frombuffer` makes of the result is
writable, like `take`'s.  The index is passed through a memoryview,
since `bytearray` of a 0-d array or numpy scalar x makes x zero bytes,
and is built in C order, since an index that inherits a non-contiguous
operand's layout is copied element by element.  Above q = 16 the index
is uint16 and mul, like inv, is one `ndarray.take` on a flat table,
several times faster than a 2-D fancy index.  `_digits` peels the
digits of a row index from the least significant end, one unsigned
floor division per digit.  Only characteristic 2 is supported here
(addition is XOR).
"""

from __future__ import annotations

import operator
from functools import cache
from types import SimpleNamespace

import numpy as np

from .field import GF, TABLE_MAX_Q

# rows (or broadcast pairs) per block of a bulk kernel; `take` in
# `bulk_ops` copies each index to 8-byte intp, which bounds the peak
# RSS, though only above q = 16 and in inv.  The census sweep takes a
# quarter of it; the q = 8 exhaustive scans took 0.073 s at 2^16
# against 0.062 s at 2^18 (2 vCPU Xeon).
_CHUNK = 1 << 18


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


@cache
def bulk_ops(gf: GF) -> SimpleNamespace:
    """The field's mul, inv, add and sub over arrays of elements: mul
    and inv by lookup in `mul_table` and `inv_table`, add and sub as
    XOR.  Results are uint8; the operands of mul, add and sub
    broadcast."""
    flat = mul_table(gf).ravel()
    if gf.q <= 16:
        q = np.uint8(gf.q)
        table = flat.tobytes().ljust(256, b"\0")

        def mul(a, b):
            idx = np.add(np.asarray(a, np.uint8) * q, np.asarray(b, np.uint8),
                         order="C")
            products = bytearray(memoryview(idx)).translate(table)
            return np.frombuffer(products, np.uint8).reshape(idx.shape)
    else:
        q = np.uint16(gf.q)

        def mul(a, b):
            return flat.take(np.asarray(a, np.uint16) * q + b)
    return SimpleNamespace(mul=mul, inv=inv_table(gf).take,
                           add=operator.xor, sub=operator.xor)


def _digits(start: int, stop: int, ndigits: int, base: int) -> list[np.ndarray]:
    """Columns of the base-(q-1) digit expansion of [start, stop),
    shifted to 1..q-1.  Digit 0 varies slowest.  The digits are peeled
    from the last, each by one uint32 floor division (uint64 once stop
    passes 2^32) and the product that takes the quotient back out."""
    idx = np.arange(start, stop, dtype=np.uint32 if stop <= 1 << 32 else np.uint64)
    cols = [None] * ndigits
    for k in reversed(range(ndigits)):
        rest = idx // base
        cols[k] = (idx - rest * base).astype(np.uint8) + np.uint8(1)
        idx = rest
    return cols


@cache
def nonzero_grid(q: int, n: int) -> tuple[np.ndarray, ...]:
    """n read-only coordinate arrays enumerating (F_q^*)^n in
    lexicographic order: flat index i is the i-th tuple, column 0
    varying slowest."""
    return tuple(_frozen(col) for col in _digits(0, (q - 1) ** n, n, q - 1))
