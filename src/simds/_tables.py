"""Numpy lookup tables and digit grids for bulk field arithmetic.

`mul_table` and `inv_table` are the field's own product and inverse
tables (built by `GF` for q <= TABLE_MAX_Q) as read-only uint8 arrays.
`bulk_ops` wraps them as the field's arithmetic over arrays, under
`GF`'s own method names, so a kernel written over one field argument
`f` runs on ints with f = gf and on arrays with f = bulk_ops(gf).  Both
bulk field arguments add `nonzero(*values)`, whether every value is
non-zero: a bool mask from `bulk_ops`, packed lane words from
`plane_ops`, over the values' broadcast shape either way.
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
several times faster than a 2-D fancy index.

`plane_ops` is a second field argument, over bit-sliced elements: an
array of elements of shape S is m uint64 arrays of shape S, its bit
planes, stacked as an (m, *S) array, plane k holding bit k of each
element.  Along the innermost axis the elements are packed 64 lanes to
a word (`pack`), and on any other axis an element takes one word, all
ones or all zeros in each plane (`spread`), so that numpy broadcasts
the two as it does uint8 elements.  Addition is plane-wise XOR and a
product is m^2 ANDs and the XORs that reduce it by gf's modulus, on
64 lanes at a time: the census sweep's 8-tuples run 64 to a word, one
plane op per word where a table product is one byte lookup per lane.

`_digits` peels the digits of a row index from the least significant
end, one unsigned floor division per digit.  Only characteristic 2 is
supported here (addition is XOR).
"""

from __future__ import annotations

import operator
from functools import cache
from types import SimpleNamespace

import numpy as np

from .field import GF, TABLE_MAX_Q

# rows (or broadcast pairs) per block of a table kernel; `take` in
# `bulk_ops` copies each index to 8-byte intp, which bounds the peak
# RSS, though only above q = 16 and in inv.  The q = 8 exhaustive scans
# took 0.073 s at 2^16 against 0.062 s at 2^18 (2 vCPU Xeon).
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
    broadcast.  nonzero(*values) is the bool mask of where every value
    is non-zero, over the values' broadcast shape."""
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

    def nonzero(*values):
        mask = np.ones(np.broadcast_shapes(*(np.shape(v) for v in values)), dtype=bool)
        for v in values:
            mask &= v != 0
        return mask

    return SimpleNamespace(mul=mul, inv=inv_table(gf).take,
                           add=operator.xor, sub=operator.xor, nonzero=nonzero)


def _linear_map(reads: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """A GF(2)-linear map over bit planes: output plane k is the XOR of
    the input planes i for which bit i of reads[k] is set.  Returned as
    layers (rows, planes) of index arrays: layer t XORs, into each
    output row of `rows`, the t-th input plane it reads, so that layer
    0 covers every row that reads one."""
    reads = [[i for i in range(v.bit_length()) if v >> i & 1] for v in reads]
    return [(np.array([k for k, r in enumerate(reads) if len(r) > t], np.intp),
             np.array([r[t] for r in reads if len(r) > t], np.intp))
            for t in range(max(map(len, reads), default=1))]


def _apply(layers, a: np.ndarray) -> np.ndarray:
    """The planes of the `_linear_map` `layers` applied to `a`, one
    `take` per layer; every row of the maps used here reads at least
    one plane."""
    (_, first), *rest = layers
    out = a.take(first, axis=0)
    for rows, planes in rest:
        out[rows] ^= a.take(planes, axis=0)
    return out


@cache
def plane_ops(gf: GF) -> SimpleNamespace:
    """The field's mul, inv, add and sub over bit-sliced elements, with
    `pack` and `spread` to make them from uint8 elements.  Results are
    uint64 planes; the operands of mul, add and sub broadcast when they
    have as many axes.  nonzero(*values) is packed words, one plane,
    whose lane bits are set where every value is non-zero, an element
    being non-zero where the OR of its planes is set.

    mul(a, b) is the XOR over j < m of a x^j ANDed with b's plane j.
    a x, ..., a x^(m-1) come from one linear map of a's planes, whose
    rows are read off `gf.mul`, so off gf's modulus, and a is the
    operand with fewer words, so that the map runs over the smaller
    shape.  inv(a) is a^(q-2) = a^2 a^4 ... a^(2^(m-1)), each factor
    the square of the last, squaring being linear in characteristic 2;
    it maps 0 to 0, as `inv_table` does."""
    if gf.p != 2:
        raise ValueError(f"bit-sliced elements exist for characteristic 2 "
                         f"only, not {gf!r}")
    m = gf.m
    # plane k of a x^j reads plane i of a where x^i x^j has bit k set
    shifts = _linear_map([sum((gf.mul(1 << i, 1 << j) >> k & 1) << i for i in range(m))
                          for j in range(1, m) for k in range(m)])
    square = _linear_map([sum((gf.mul(1 << i, 1 << i) >> k & 1) << i for i in range(m))
                          for k in range(m)])
    bits = np.arange(m, dtype=np.uint8)

    def mul(a, b):
        if a.size > b.size:
            a, b = b, a
        shifted = _apply(shifts, a).reshape(m - 1, *a.shape)
        out = a & b[0]
        for j in range(1, m):
            out ^= shifted[j - 1] & b[j]
        return out

    def inv(a):
        power = out = _apply(square, a)
        for _ in range(m - 2):
            power = _apply(square, power)
            out = mul(out, power)
        return out

    def pack(values):
        """The (m, W) planes of the n uint8 elements `values`, 64 lanes
        to a word, W = ceil(n / 64); the lanes past n hold 0."""
        lanes = np.zeros((m, -(-len(values) // 64) * 64), np.uint8)
        lanes[:, :len(values)] = values >> bits[:, None] & 1
        return np.packbits(lanes, axis=1, bitorder="little").view(np.uint64)

    def spread(values):
        """The (m, *values.shape) planes of the uint8 elements `values`,
        one word per element, all ones or all zeros, so that they
        broadcast against packed planes."""
        values = np.asarray(values, np.uint8)
        planes = values >> bits.reshape(-1, *[1] * values.ndim) & 1
        return -planes.astype(np.uint64)

    def nonzero(*values):
        mask = np.bitwise_or.reduce(values[0], axis=0)
        for v in values[1:]:
            mask = mask & np.bitwise_or.reduce(v, axis=0)
        return mask

    return SimpleNamespace(mul=mul, inv=inv, add=operator.xor, sub=operator.xor,
                           nonzero=nonzero, pack=pack, spread=spread)


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
