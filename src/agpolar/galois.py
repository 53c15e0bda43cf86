"""Exact arithmetic in GF(p^r) with a fixed canonical element order.

Elements are integer indices under the canonical order

    0, 1, alpha, alpha^2, ..., alpha^(q-2)

where ``alpha`` is the field's primitive element (the smallest one, in
polynomial encoding, that is a root-free generator of the multiplicative
group).  Index 0 is the zero element and index ``i >= 1`` is
``alpha^(i-1)``.  All arithmetic is table based; no floating point.

The default modulus for GF(p^r) is the lexicographically least monic
irreducible of degree r: candidates ``x^r + c_{r-1} x^{r-1} + ... + c_0``
are enumerated by the integer ``sum(c_i * p^i)`` ascending and the first
irreducible one wins.  For GF(4) that is ``w^2 + w + 1``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DivideByZero, FieldMismatch, NotPrime, Reducible

# Dense q x q operation tables are only built below this order.
_TABLE_CAP = 4096
# Table-based elements must fit in 16 bits.
_ORDER_CAP = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m is monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim(a)


def _monic_polys(degree: int, p: int):
    """All monic polynomials of exactly the given degree over GF(p)."""
    for enc in range(p**degree):
        coeffs = []
        e = enc
        for _ in range(degree):
            coeffs.append(e % p)
            e //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(m, p: int) -> bool:
    """Trial division against all monic polynomials of degree <= deg(m)/2."""
    r = len(m) - 1
    if r == 1:
        return True
    for d in range(1, r // 2 + 1):
        for div in _monic_polys(d, p):
            # long division remainder
            if not _poly_mod(m, div, p):
                return False
    return True


def _default_modulus(p: int, r: int):
    for m in _monic_polys(r, p):
        if _is_irreducible(m, p):
            return m
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldElement:
    """An element of a :class:`FiniteField`, identified by canonical index."""

    __slots__ = ("field", "index")

    def __init__(self, field: "FiniteField", index: int):
        self.field = field
        self.index = int(index)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldMismatch("elements of different fields")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.add(self.index, o.index))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.sub(self.index, o.index))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.mul(self.index, o.index))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.div(self.index, o.index))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.index, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.index))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.index))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __bool__(self):
        return self.index != 0

    def __repr__(self):
        return f"{self.field.element_name(self.index)}"


class FiniteField:
    """GF(p^r) with log/antilog tables over a fixed primitive element.

    Immutable after construction; safe for concurrent readers.
    """

    def __init__(self, p: int, r: int, modulus=None):
        if not _is_prime(p):
            raise NotPrime(f"p={p} is not prime")
        if r < 1:
            raise ValueError("r must be >= 1")
        q = p**r
        if q > _ORDER_CAP:
            raise ValueError(f"field order {q} exceeds the 16-bit table cap")
        if modulus is None:
            modulus = _default_modulus(p, r)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise Reducible(f"modulus must be monic of degree {r}")
            if not _is_irreducible(modulus, p):
                raise Reducible(f"modulus {modulus} factors over GF({p})")
        self.p = p
        self.r = r
        self.q = q
        self.modulus = modulus

        self._build_tables()

    # -- construction helpers ------------------------------------------

    def _poly_to_enc(self, poly) -> int:
        enc = 0
        for c in reversed(poly):
            enc = enc * self.p + c
        return enc

    def _enc_to_poly(self, enc: int):
        coeffs = []
        while enc:
            coeffs.append(enc % self.p)
            enc //= self.p
        return tuple(coeffs)

    def _enc_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(self._enc_to_poly(a), self._enc_to_poly(b), self.p)
        return self._poly_to_enc(_poly_mod(prod, self.modulus, self.p))

    def _mult_order(self, enc: int) -> int:
        acc, k = enc, 1
        while acc != 1:
            acc = self._enc_mul(acc, enc)
            k += 1
            if k > self.q:
                raise AssertionError("order computation ran away")
        return k

    def _build_tables(self):
        p, q = self.p, self.q
        # smallest nonzero polynomial encoding that is primitive
        alpha = None
        for cand in range(1, q):
            if self._mult_order(cand) == q - 1:
                alpha = cand
                break
        assert alpha is not None
        self._alpha_enc = alpha

        # antilog: power of alpha -> polynomial encoding
        antilog = [1] * (q - 1)
        for i in range(1, q - 1):
            antilog[i] = self._enc_mul(antilog[i - 1], alpha)
        assert len(set(antilog)) == q - 1
        log = {e: i for i, e in enumerate(antilog)}

        # canonical index <-> polynomial encoding
        idx_to_enc = [0] + antilog
        enc_to_idx = [0] * q
        for i, e in enumerate(idx_to_enc):
            enc_to_idx[e] = i
        self._idx_to_enc = idx_to_enc
        self._enc_to_idx = enc_to_idx
        self._log = log
        self._antilog = antilog
        # public views: antilog[e] = polynomial encoding of alpha^e,
        # log[enc] = e; canonical indices make index-space antilog trivial
        self.antilog = list(antilog)
        self.log = dict(log)

        if q <= _TABLE_CAP:
            add = np.zeros((q, q), dtype=np.int32)
            mul = np.zeros((q, q), dtype=np.int32)
            for a in range(q):
                ea = idx_to_enc[a]
                pa = self._enc_to_poly(ea)
                for b in range(a, q):
                    eb = idx_to_enc[b]
                    pb = self._enc_to_poly(eb)
                    n = max(len(pa), len(pb))
                    s = tuple(
                        ((pa[i] if i < len(pa) else 0) + (pb[i] if i < len(pb) else 0)) % p
                        for i in range(n)
                    )
                    add[a, b] = add[b, a] = enc_to_idx[self._poly_to_enc(_poly_trim(s))]
                    if a == 0 or b == 0:
                        m = 0
                    else:
                        m = 1 + (log[ea] + log[eb]) % (q - 1)
                    mul[a, b] = mul[b, a] = m
            self.add_table = add
            self.mul_table = mul
        else:
            self.add_table = None
            self.mul_table = None

        self.neg_table = np.array([self._neg_slow(a) for a in range(q)], dtype=np.int32)
        self.inv_table = np.array(
            [0] + [1 + (-(i - 1)) % (q - 1) for i in range(1, q)], dtype=np.int32
        )

    def _neg_slow(self, a: int) -> int:
        pa = self._enc_to_poly(self._idx_to_enc[a])
        return self._enc_to_idx[self._poly_to_enc(tuple((-c) % self.p for c in pa))]

    # -- scalar arithmetic on canonical indices ------------------------

    def add(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return int(self.add_table[a, b])
        pa = self._enc_to_poly(self._idx_to_enc[a])
        pb = self._enc_to_poly(self._idx_to_enc[b])
        n = max(len(pa), len(pb))
        s = tuple(
            ((pa[i] if i < len(pa) else 0) + (pb[i] if i < len(pb) else 0)) % self.p
            for i in range(n)
        )
        return self._enc_to_idx[self._poly_to_enc(_poly_trim(s))]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return 1 + (a - 1 + b - 1) % (self.q - 1)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero("inverse of zero")
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise DivideByZero("negative power of zero")
            return 0 if e else 1
        return 1 + ((a - 1) * e) % (self.q - 1)

    # -- elements ------------------------------------------------------

    def element(self, index: int) -> FieldElement:
        if not 0 <= index < self.q:
            raise ValueError(f"index {index} out of range for GF({self.q})")
        return FieldElement(self, index)

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def alpha(self) -> FieldElement:
        """The primitive element backing the log tables."""
        return FieldElement(self, 2 if self.q > 2 else 1)

    def elements(self):
        """All elements in canonical order."""
        return [FieldElement(self, i) for i in range(self.q)]

    def element_name(self, index: int) -> str:
        if index == 0:
            return "0"
        if index == 1:
            return "1"
        if index == 2:
            return "a"
        return f"a^{index - 1}"

    # -- structure -----------------------------------------------------

    def element_degree(self, index: int) -> int:
        """Degree over GF(p) of the subfield generated by one element."""
        if index == 0:
            return 1
        enc = self._idx_to_enc[index]
        acc = enc
        for d in range(1, self.r + 1):
            acc = self._enc_pow_p(acc)
            if acc == enc:
                return d
        raise AssertionError("Frobenius orbit did not close")

    def _enc_pow_p(self, enc: int) -> int:
        # square-and-multiply for enc^p in polynomial encoding
        res = 1
        e = self.p
        base = enc
        while e:
            if e & 1:
                res = self._enc_mul(res, base)
            base = self._enc_mul(base, base)
            e >>= 1
        return res

    def serialize(self) -> dict:
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.r == self.r
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def _field_cached(p: int, r: int, modulus) -> FiniteField:
    return FiniteField(p, r, modulus)


def field_new(p: int, r: int, modulus=None) -> FiniteField:
    """Construct (and cache) GF(p^r) with the documented default modulus."""
    return _field_cached(p, r, None if modulus is None else tuple(modulus))


def subfield_generated(elems) -> int:
    """Order of the subfield GF(p)(elems) generated by a set of elements.

    Uses Frobenius orbits: the degree of each element is the least d with
    e^(p^d) = e, and the generated subfield has degree lcm of those.
    """
    elems = list(elems)
    if not elems:
        raise ValueError("need at least one element")
    field = elems[0].field
    d = 1
    for e in elems:
        if isinstance(e, FieldElement):
            if e.field is not field and e.field != field:
                raise FieldMismatch("elements of different fields")
            idx = e.index
        else:
            idx = int(e)
        d = _lcm(d, field.element_degree(idx))
    return field.p**d


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


def field_arith(a: FieldElement, b, op: str) -> FieldElement:
    """Dispatch a named field operation; exists for descriptor-driven use."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        return a ** int(b)
    if op == "inv":
        return a.inverse()
    if op == "neg":
        return -a
    raise ValueError(f"unknown op {op!r}")
