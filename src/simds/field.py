"""Exact arithmetic in small finite fields.

Elements are plain ints.  For GF(2^m) the bits of the int are the
coefficients of a polynomial over GF(2) (bit i is the coefficient of
x^i), reduced modulo an explicit irreducible polynomial of degree m.
For a prime field GF(p) the int is the residue in [0, p).  Zero and one
are always encoded as 0 and 1.

There is deliberately no default modulus: two fields of the same size
built from different irreducible polynomials are different fields, and
the same m is commonly used with several moduli (x^3+x^2+1 vs x^3+x+1,
x^4+x+1 vs x^4+x^3+1).  Every constructor and every serialized field
descriptor carries the modulus explicitly.

Extension fields are supported for characteristic 2 only; odd
characteristic is limited to prime fields.  Field sizes are capped at
2^16.
"""

from __future__ import annotations

# the largest field with lookup tables (one byte per element)
TABLE_MAX_Q = 256


def _poly2_mod(a: int, b: int) -> int:
    """Remainder of a divided by b, both polynomials over GF(2)."""
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def validate_modulus(p: int, m: int, modulus: int | None) -> bool:
    """True iff `modulus` is an irreducible degree-m polynomial over F_p.

    Checked by trial division by every polynomial of degree 1..m/2,
    which is exhaustive and cheap at the field sizes this package
    supports.  Degree-1 polynomials (m == 1) are always irreducible and
    the modulus value is ignored.  Returns False on a wrong degree or a
    negative modulus (`int.bit_length` ignores the sign).
    Raises ValueError when p is not prime, m < 1, p^m exceeds 2^16, or
    m > 1 with p != 2.
    """
    # before the trial division in _is_prime and p ** m, whose cost
    # grows with p and m
    if p > 1 << 16 or m > 16:
        raise ValueError(f"field size {p}^{m} exceeds the 2^16 cap")
    if not _is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if m < 1:
        raise ValueError("m must be >= 1")
    if p ** m > 1 << 16:
        raise ValueError(f"field size {p ** m} exceeds the 2^16 cap")
    if m == 1:
        return True
    if p != 2:
        raise ValueError("extension fields are supported for p=2 only")
    if modulus is None or modulus < 0 or modulus.bit_length() != m + 1:
        return False
    for d in range(1, m // 2 + 1):
        for divisor in range(1 << d, 1 << (d + 1)):
            if _poly2_mod(modulus, divisor) == 0:
                return False
    return True


def json_ints(values, what: str) -> list:
    """`values` as a list, each of which must be a JSON integer.  JSON
    booleans are rejected although json loads them as bool, an int
    subclass; so are fractions and strings, which int() would turn
    into other numbers (1.9 into 1, "3" into 3)."""
    values = list(values)
    for v in values:
        if isinstance(v, bool):
            raise ValueError(f"{what} must be integers, not booleans")
        if not isinstance(v, int):
            raise ValueError(f"{what} must be integers, not {v!r}")
    return values


class GF:
    """A finite field GF(p^m) with explicit modulus.

    Parameters
    ----------
    p : characteristic, a prime.
    m : extension degree.  m >= 2 requires p == 2 and a modulus.
    poly : modulus polynomial as an int bit-vector (bit i = coefficient
        of x^i), degree exactly m, irreducible.  Ignored when m == 1.
    """

    __slots__ = ("p", "m", "q", "poly", "_mul_table", "_inv_table")

    def __init__(self, p: int, m: int = 1, poly: int | None = None):
        if not validate_modulus(p, m, poly):
            raise ValueError(f"0b{poly:b} is not irreducible of degree {m} over GF(2)"
                             if poly is not None else "a modulus is required for m >= 2")
        q = p ** m
        self.p = p
        self.m = m
        self.q = q
        self.poly = poly if m > 1 else None
        # flat q*q product table and inverse table, also the source of
        # the numpy tables in _tables; above TABLE_MAX_Q arithmetic is
        # computed per call
        self._mul_table = None
        self._inv_table = None
        if q <= TABLE_MAX_Q:
            mul = self._mul_raw
            self._mul_table = [mul(a, b) for a in range(q) for b in range(q)]
            self._inv_table = [0] + [self._pow_raw(a, q - 2) for a in range(1, q)]

    # -- element-level operations ------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b.  XOR of the coefficient vectors when p == 2."""
        if self.p == 2:
            return a ^ b
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        """a * b reduced by the modulus (p == 2) or mod p (m == 1)."""
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_raw(a, b)

    def _mul_raw(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        r = 0
        top = 1 << self.m
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.poly
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse; a == 0 raises ZeroDivisionError."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self._pow_raw(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0.  0^0 is rejected: no caller should need it."""
        if e < 0:
            raise ValueError("negative exponent; use inv() then pow()")
        if a == 0:
            if e == 0:
                raise ValueError("0^0 is undefined here")
            return 0
        return self._pow_raw(a, e)

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def sqrt(self, a: int) -> int:
        """The unique square root, p == 2 only (squaring is a bijection)."""
        if self.p != 2:
            raise ValueError("sqrt is provided for characteristic 2 only")
        return self.pow(a, 1 << (self.m - 1)) if a else 0

    def elements(self, nonzero_only: bool = False) -> range:
        """All elements in ascending integer order."""
        return range(1 if nonzero_only else 0, self.q)

    def validate(self, v: int) -> int:
        if not isinstance(v, int) or not 0 <= v < self.q:
            raise ValueError(f"{v!r} is not an element of {self!r}")
        return v

    # -- identity and serialization ------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, GF)
                and (self.p, self.m, self.poly) == (other.p, other.m, other.poly))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.poly))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m}, poly=0b{self.poly:b})"

    def to_dict(self) -> dict:
        d = {"p": self.p, "m": self.m}
        if self.poly is not None:
            d["poly"] = self.poly
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GF":
        p, m = json_ints((d["p"], d.get("m", 1)), "field parameters")
        poly = d.get("poly")
        if poly is not None:
            poly, = json_ints((poly,), "field parameters")
        return cls(p, m, poly)
