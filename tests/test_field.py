import itertools
import pickle
import time

import numpy as np
import pytest

from simds import GF, validate_modulus
from simds._tables import bulk_ops, inv_table, mul_table, plane_ops


def egcd_inverse(gf, a):
    """Independent inverse oracle: extended Euclid over GF(2)[x] or Z."""
    if gf.m == 1:
        t, new_t, r, new_r = 0, 1, gf.p, a
        while new_r:
            quot = r // new_r
            t, new_t = new_t, t - quot * new_t
            r, new_r = new_r, r - quot * new_r
        assert r == 1
        return t % gf.p
    # polynomial version, coefficients in GF(2)
    def degree(p):
        return p.bit_length() - 1

    def polydivmod(num, den):
        quot = 0
        while num and degree(num) >= degree(den):
            shift = degree(num) - degree(den)
            quot ^= 1 << shift
            num ^= den << shift
        return quot, num

    def polymul(u, v):
        out = 0
        while v:
            if v & 1:
                out ^= u
            u <<= 1
            v >>= 1
        return out

    t, new_t, r, new_r = 0, 1, gf.poly, a
    while new_r:
        quot, rem = polydivmod(r, new_r)
        t, new_t = new_t, t ^ polymul(quot, new_t)
        r, new_r = new_r, rem
    assert r == 1
    return t


@pytest.fixture(params=["gf4", "gf8", "gf16a"], scope="module")
def small_field(request):
    return request.getfixturevalue(request.param)


def test_add_examples(gf4, gf8, f11):
    assert gf4.add(2, 3) == 1
    assert gf8.add(6, 1) == 7
    assert f11.add(7, 4) == 0


def test_mul_examples(gf8, gf16a):
    # alpha * alpha^2 = alpha^3 = alpha^2 + 1 under x^3+x^2+1
    assert gf8.mul(2, 4) == 5
    # alpha^3 * alpha = alpha + 1 under x^4+x+1
    assert gf16a.mul(8, 2) == 3


def test_mul_identity(small_field):
    for a in small_field.elements():
        assert small_field.mul(a, 1) == a


def test_inv_examples(gf4, f11):
    assert gf4.inv(2) == 3
    assert gf4.mul(2, 3) == 1
    assert f11.inv(2) == 6


def test_inv_of_one(small_field):
    assert small_field.inv(1) == 1


def test_inv_zero_rejected(small_field):
    with pytest.raises(ZeroDivisionError):
        small_field.inv(0)


def test_pow_examples(gf8, gf16b):
    assert gf8.pow(2, 7) == 1
    assert gf16b.pow(2, 2) == 4
    for a in gf8.elements():
        if a:
            assert gf8.pow(a, 1) == a


def test_pow_zero_zero_rejected(gf4):
    with pytest.raises(ValueError):
        gf4.pow(0, 0)
    assert gf4.pow(0, 3) == 0


def test_elements_enumeration(gf4, f11):
    assert list(gf4.elements(nonzero_only=True)) == [1, 2, 3]
    assert list(gf4.elements()) == [0, 1, 2, 3]
    assert len(list(f11.elements(nonzero_only=True))) == 10


def test_validate_modulus():
    assert validate_modulus(2, 3, 0b1101)
    assert validate_modulus(2, 3, 0b1011)
    assert validate_modulus(2, 4, 0b10011)
    assert validate_modulus(2, 4, 0b11001)
    assert not validate_modulus(2, 2, 0b110)   # x^2 + x = x(x+1)
    assert not validate_modulus(2, 3, 0b1111)  # divisible by x+1
    assert not validate_modulus(2, 3, 0b111)   # wrong degree
    assert validate_modulus(11, 1, None)


def test_validate_modulus_size_cap():
    t0 = time.monotonic()
    for p, m, poly in ((1000000000000000003, 1, None),  # a prime far beyond the cap
                       (2, 17, (1 << 17) | 0b11), (3, 11, None)):
        with pytest.raises(ValueError):
            validate_modulus(p, m, poly)
    assert time.monotonic() - t0 < 1.0


def test_validate_modulus_negative():
    # int.bit_length ignores the sign: -13 has the degree of 0b1101
    t0 = time.monotonic()
    for m, poly in ((3, -13), (3, -11), (3, -9), (4, -19)):
        assert validate_modulus(2, m, poly) is False
    assert time.monotonic() - t0 < 1.0
    with pytest.raises(ValueError):
        GF(2, 3, -13)


def test_validate_modulus_counts():
    # number of irreducible degree-m polynomials over GF(2): 1, 2, 3
    for m, expect in ((2, 1), (3, 2), (4, 3)):
        found = sum(validate_modulus(2, m, p)
                    for p in range(1 << m, 1 << (m + 1)))
        assert found == expect


def test_bad_construction():
    with pytest.raises(ValueError):
        GF(4, 1)            # not prime
    with pytest.raises(ValueError):
        GF(2, 2, 0b110)     # reducible modulus
    with pytest.raises(ValueError):
        GF(2, 3)            # missing modulus
    with pytest.raises(ValueError):
        GF(3, 2, None)      # odd-characteristic extension
    with pytest.raises(ValueError):
        GF(2, 17, (1 << 17) | 0b11)  # beyond the size cap
    t0 = time.monotonic()
    with pytest.raises(ValueError):
        GF(1000000000000000003)     # a prime far beyond the cap
    assert time.monotonic() - t0 < 1.0


def test_field_axioms_exhaustive(small_field):
    """Associativity, commutativity, distributivity over all triples."""
    gf = small_field
    elems = list(gf.elements())
    for a in elems:
        for b in elems:
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
    for a in elems:
        for b in elems:
            for c in elems:
                assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


def test_identities_and_inverses(small_field):
    gf = small_field
    for a in gf.elements():
        assert gf.add(a, 0) == a
        assert gf.mul(a, 0) == 0
        assert gf.add(a, a) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1


def test_char2_frobenius(small_field):
    gf = small_field
    for a in gf.elements():
        for b in gf.elements():
            lhs = gf.mul(gf.add(a, b), gf.add(a, b))
            rhs = gf.add(gf.mul(a, a), gf.mul(b, b))
            assert lhs == rhs


def test_multiplicative_group_order(small_field):
    for a in small_field.elements(nonzero_only=True):
        assert small_field.pow(a, small_field.q - 1) == 1


def test_inverse_vs_exhaustive_search(small_field):
    gf = small_field
    for a in gf.elements(nonzero_only=True):
        matches = [b for b in gf.elements(nonzero_only=True) if gf.mul(a, b) == 1]
        assert matches == [gf.inv(a)]


def test_inverse_vs_extended_euclid(small_field, f11):
    for gf in (small_field, f11):
        for a in gf.elements(nonzero_only=True):
            assert gf.inv(a) == egcd_inverse(gf, a)


def test_tables_match_raw_arithmetic():
    """GF's lookup tables, and their numpy form, agree with the
    table-free arithmetic; above q = 256 there are no tables."""
    for gf in (GF(2, 4, 0b10011), GF(2, 8, 0b100011011)):
        q = gf.q
        mul, inv = mul_table(gf), inv_table(gf)
        for a in range(q):
            raw = [gf._mul_raw(a, b) for b in range(q)]
            assert [gf.mul(a, b) for b in range(q)] == raw == mul[a].tolist()
            if a:
                assert gf.inv(a) == gf._pow_raw(a, q - 2) == inv[a]
    big = GF(2, 9, 0b1000010001)
    for table in (mul_table, inv_table):
        with pytest.raises(ValueError):
            table(big)
    assert big.mul(big.inv(300), 300) == 1


@pytest.mark.parametrize("m, poly", [(2, 0b111), (3, 0b1011), (3, 0b1101),
                                     (4, 0b10011), (5, 0b100101),
                                     (8, 0b100011011)])
def test_bulk_ops_match_scalar_arithmetic(m, poly):
    """`bulk_ops` gives gf.mul on all q^2 pairs and gf.inv on all
    non-zero elements, as uint8, with broadcasting operands."""
    gf = GF(2, m, poly)
    q = gf.q
    f = bulk_ops(gf)
    assert bulk_ops(GF(2, m, poly)) is f
    mul, inv = f.mul, f.inv
    a = np.arange(q, dtype=np.uint8)
    want = [[gf.mul(x, y) for y in range(q)] for x in range(q)]
    flat = mul(np.repeat(a, q), np.tile(a, q))
    assert flat.dtype == np.uint8
    assert flat.tolist() == [v for row in want for v in row]
    grid = mul(a[:, None], a[None, :])
    assert grid.dtype == np.uint8 and grid.tolist() == want
    assert mul(a[1:4, None], a[None, :]).shape == (3, q)
    inverses = inv(a[1:])
    assert inverses.dtype == np.uint8
    assert inverses.tolist() == [gf.inv(x) for x in range(1, q)]


def _plane_values(planes, n):
    """The first n lanes of the packed planes `planes`, (m, ..., W), as
    uint8 elements."""
    lanes = np.unpackbits(planes.view(np.uint8), axis=-1, bitorder="little")[..., :n]
    return sum(lanes[k] << k for k in range(len(planes)))


@pytest.mark.parametrize("m, poly", [(2, 0b111), (3, 0b1011), (3, 0b1101),
                                     (4, 0b10011), (4, 0b11001), (4, 0b11111)])
def test_plane_ops_match_tables(m, poly):
    """`plane_ops` gives `mul_table` on all q^2 pairs, packed 64 to a
    word or one operand spread one word per element, and `inv_table` on
    every element, 0 included, under every modulus of degree 2, 3 and
    4.  A multiply built from another modulus of the same degree still
    makes a field, so the sweep would come out clean with it; this test
    ties the multiply to gf's own."""
    gf = GF(2, m, poly)
    q = gf.q
    f = plane_ops(gf)
    assert plane_ops(GF(2, m, poly)) is f
    a = np.arange(q, dtype=np.uint8)
    flat = f.mul(f.pack(np.repeat(a, q)), f.pack(np.tile(a, q)))
    assert flat.dtype == np.uint64 and flat.shape == (m, -(-q * q // 64))
    assert _plane_values(flat, q * q).tolist() == mul_table(gf).ravel().tolist()
    assert not _plane_values(flat, flat.shape[1] * 64)[q * q:].any()
    rows = f.spread(a[:, None])
    assert rows.shape == (m, q, 1)
    assert set(rows.ravel().tolist()) <= {0, 2 ** 64 - 1}
    grid = f.mul(rows, f.pack(a)[:, None, :])
    assert _plane_values(grid, q).tolist() == mul_table(gf).tolist()
    assert _plane_values(f.inv(f.pack(a)), q).tolist() == inv_table(gf).tolist()


@pytest.mark.parametrize("m, poly", [(2, 0b111), (3, 0b1011), (4, 0b10011),
                                     (5, 0b100101), (8, 0b100011011)])
def test_bulk_mul_accepts_every_operand(m, poly):
    """`bulk_ops(gf).mul` equals gf.mul on every pair, whether its index
    is translated as uint8 bytes (q <= 16) or taken as uint16, for uint8,
    uint16 and int64 arrays, Python ints, numpy scalars and 0-d arrays on
    either side, either side broadcast, and for operands that are not
    C-contiguous.  Array results are writable uint8 of the broadcast
    shape."""
    gf = GF(2, m, poly)
    q = gf.q
    mul = bulk_ops(gf).mul
    want = np.array([[gf.mul(x, y) for y in range(q)] for x in range(q)])

    def check(got, expect):
        assert got.dtype == np.uint8 and got.shape == np.shape(expect)
        assert np.array_equal(got, expect)
        if got.ndim:
            assert got.flags.writeable

    elements = np.arange(q)
    for ta, tb in itertools.product((np.uint8, np.uint16, np.int64), repeat=2):
        a, b = elements.astype(ta), elements.astype(tb)
        check(mul(a[:, None], b[None, :]), want)
        check(mul(b[None, :], a[:, None]), want.T)
        check(mul(np.repeat(a, q), np.tile(b, q)), want.ravel())
    for x in (0, 1, q - 1, q // 2 + 1):
        check(mul(x, elements), want[x])
        check(mul(elements.astype(np.uint8), x), want[:, x])
        assert [int(mul(x, y)) for y in range(q)] == want[x].tolist()
        # bytearray(n) of an integer n makes n zero bytes
        for y in (0, 1, q - 1):
            for u, v in itertools.product((x, np.uint8(x), np.array(x, np.uint8)),
                                          (y, np.uint8(y), np.array(y))):
                check(np.asarray(mul(u, v)), want[x, y])
    # non-C-contiguous operands: a transpose, `oracle_hits`' fancy index
    # t[1:, :, mtx] on the last axis, and negative strides
    a = np.repeat(elements, q).astype(np.uint8).reshape(q, q)
    b = np.tile(elements, q).astype(np.uint8).reshape(q, q)
    t = np.stack([a, b, a.T])
    mtx = np.arange(q)[::-1][: max(1, q // 2)]
    for u, v in ((a.T, b.T), (a.T, b), (t[1:, :, mtx], t[:2, :, mtx]),
                 (a[::-1, ::-2], b[::-1, ::-2]),
                 (elements[::-1, None], elements[None, ::-3])):
        assert not (u.flags.c_contiguous and v.flags.c_contiguous)
        check(mul(u, v), want[u, v])


def test_sqrt(small_field):
    gf = small_field
    for a in gf.elements():
        r = gf.sqrt(a)
        assert gf.mul(r, r) == a


def test_serialization_roundtrip(gf8, f11):
    assert gf8.to_dict() == {"p": 2, "m": 3, "poly": 13}
    assert GF.from_dict(gf8.to_dict()) == gf8
    assert f11.to_dict() == {"p": 11, "m": 1}
    assert GF.from_dict({"p": 11, "m": 1}) == f11


def test_pickle_roundtrip(gf16a, f11):
    """The census workers receive the field itself, pickled, with its
    tables; GF(2^9) has none."""
    for gf in (gf16a, f11, GF(2, 9, 529)):
        back = pickle.loads(pickle.dumps(gf))
        assert back == gf and hash(back) == hash(gf)
        assert (back.q, back.poly) == (gf.q, gf.poly)
        assert back._mul_table == gf._mul_table
        assert back._inv_table == gf._inv_table
    assert GF(2, 9, 529)._mul_table is None


def test_field_identity_semantics(gf8, gf8b):
    # same size, different modulus: different fields
    assert gf8 != gf8b
    assert GF(2, 3, 0b1101) == gf8
    assert hash(GF(2, 3, 0b1101)) == hash(gf8)
