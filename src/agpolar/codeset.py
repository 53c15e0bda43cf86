"""Monomial-set structure of polar codes over curve kernels.

A MonomialIndexSet collects multi-indices identifying rows of G_n.
Decreasing sets (closed under digitwise monomial divisibility and under
moving a factor to a free earlier variable position) are exactly the
sets stable under the known degradation moves; their duals have the
same shape, and their minimum distance is sandwiched by matrix-product
bounds built from the per-level AG-code distances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .curve import PointedCurve
from .errors import NoIsometry, NotDecreasing, OutOfRange, PreconditionViolated, TooLarge
from .kernel import Kernel
from .polarization import MultiIndex

_GEN_CAP = 1 << 20
_ENUM_CAP = 1 << 20


@dataclass(frozen=True)
class MonomialIndexSet:
    """A set of multi-indices in {0, ..., l-1}^n.

    ``shape`` marks product-kernel alphabets l = l1 * l2, in which case
    each digit k decomposes as (k // l2, k % l2) and divisibility is
    read componentwise on the pair.
    """

    n: int
    l: int
    members: frozenset  # of MultiIndex
    shape: tuple | None = None

    def __post_init__(self):
        for m in self.members:
            if m.n != self.n or m.l != self.l:
                raise OutOfRange("member arity/alphabet mismatch")
            if any(not 0 <= d < self.l for d in m.digits):
                raise OutOfRange("digit out of range")
        if self.shape is not None and self.shape[0] * self.shape[1] != self.l:
            raise OutOfRange("product shape inconsistent with alphabet")

    @classmethod
    def from_values(cls, n, l, values, shape=None):
        return cls(n, l, frozenset(MultiIndex.from_value(v, l, n) for v in values), shape)

    def values(self):
        return sorted(m.value for m in self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, mi):
        return mi in self.members

    def serialize(self) -> dict:
        # external digit order is most-significant first: [k_n, ..., k_1]
        return {
            "n": self.n,
            "l": self.l,
            "members": sorted(list(reversed(m.digits)) for m in self.members),
        }

    @classmethod
    def from_serialized(cls, data: dict, shape=None):
        n, l = int(data["n"]), int(data["l"])
        members = frozenset(
            MultiIndex(tuple(reversed([int(d) for d in row])), l)
            for row in data["members"]
        )
        return cls(n, l, members, shape)


# -- divisibility and closures ------------------------------------------


def _digit_divisors(b: int, curve, shape):
    """Digit indices whose monomial divides digit b's monomial."""
    if shape is None:
        return [bp for bp in range(curve.l) if bp == b or curve.divides(bp, b)]
    c1, c2 = curve
    l2 = shape[1]
    h, kpp = divmod(b, l2)
    hs = [x for x in range(shape[0]) if x == h or c1.divides(x, h)]
    ks = [x for x in range(l2) if x == kpp or c2.divides(x, kpp)]
    return [x1 * l2 + x2 for x1 in hs for x2 in ks]


def is_weakly_decreasing(a: MonomialIndexSet, curve) -> bool:
    """Closed under replacing any digit by a digitwise divisor."""
    members = {m.digits for m in a.members}
    for digits in members:
        for pos, b in enumerate(digits):
            for bp in _digit_divisors(b, curve, a.shape):
                nd = list(digits)
                nd[pos] = bp
                if tuple(nd) not in members:
                    return False
    return True


def _closure_digits(a: MonomialIndexSet, curve, transpositions: bool):
    members = {m.digits for m in a.members}
    frontier = list(members)
    while frontier:
        digits = frontier.pop()
        nexts = []
        for pos, b in enumerate(digits):
            for bp in _digit_divisors(b, curve, a.shape):
                nd = list(digits)
                nd[pos] = bp
                nexts.append(tuple(nd))
            if transpositions and b != 0:
                for lower in range(pos):
                    if digits[lower] == 0:
                        nd = list(digits)
                        nd[lower], nd[pos] = b, 0
                        nexts.append(tuple(nd))
        for nd in nexts:
            if nd not in members:
                members.add(nd)
                frontier.append(nd)
    return members


def decreasing_closure(a: MonomialIndexSet, curve) -> MonomialIndexSet:
    """Smallest decreasing superset: divisor moves + moves of a factor
    to a free earlier variable position, iterated to a fixpoint."""
    members = _closure_digits(a, curve, transpositions=True)
    return MonomialIndexSet(
        a.n, a.l, frozenset(MultiIndex(d, a.l) for d in members), a.shape
    )


def is_decreasing(a: MonomialIndexSet, curve) -> bool:
    return len(decreasing_closure(a, curve)) == len(a)


# -- duality ------------------------------------------------------------


def dual_set(a: MonomialIndexSet, curve=None) -> MonomialIndexSet:
    """Complement of the digitwise reflections {j : j_i = l-1-k_i}.

    If a curve is supplied, the input is first checked to be decreasing.
    """
    if curve is not None and not is_decreasing(a, curve):
        raise NotDecreasing("dual_set requires a decreasing input set")
    l, n = a.l, a.n
    excluded = {tuple(l - 1 - d for d in m.digits) for m in a.members}
    members = frozenset(
        MultiIndex(digits, l)
        for digits in itertools.product(range(l), repeat=n)
        if digits not in excluded
    )
    return MonomialIndexSet(n, l, members, a.shape)


def isometry_vector(curve: PointedCurve) -> np.ndarray:
    """The nonzero vector x with C(D, m_i Q)^perp = x * C(D, m_(l-i) Q).

    Solved from the deepest nesting level (the dual of the full-but-one
    code is one-dimensional) and verified at every level; normalized so
    the first entry is 1.
    """
    from .curve import isometry_dual_condition

    if not isometry_dual_condition(curve):
        raise PreconditionViolated("curve fails the numerical isometry-dual criterion")
    f = curve.field
    ev = curve.evaluation_matrix()
    l = curve.l
    ns = linalg.nullspace(f, ev[: l - 1])
    if ns.shape[0] != 1:
        raise NoIsometry("nullspace of the top nested code is not one-dimensional")
    v = ns[0]
    if (v == 0).any():
        raise NoIsometry("isometry vector has a zero coordinate")
    v = f.mul_table[v, f.inv(int(v[0]))]
    # verify every nesting level: rows of C_i orthogonal to v * rows of C_(l-i)
    for i in range(l + 1):
        a = ev[:i]
        b = f.mul_table[ev[: l - i], v[None, :]]
        if a.size and b.size and linalg.mat_mul(f, a, b.T).any():
            raise NoIsometry(f"nesting level {i} fails the duality check")
    return v


# -- generator matrices and distances -----------------------------------


def generator_matrix(a: MonomialIndexSet, k: Kernel, n: int) -> np.ndarray:
    """|a| x l^n evaluation matrix, rows in descending monomial order.

    Row for index k_value is the corresponding row of G_n, built as a
    Kronecker product of kernel rows, so G_n is never materialized.
    """
    total = k.l**n
    if total * max(len(a), 1) > _GEN_CAP:
        raise TooLarge("generator matrix exceeds size cap")
    field = k.field
    rows = []
    for v in sorted((m.value for m in a.members), reverse=True):
        i0 = total - v - 1  # 0-based row of G_n
        # G_n[i] = G^(x n)[rev(i)]; take rev(i) digits most-significant first
        digits = []
        x = i0
        for _ in range(n):
            digits.append(x % k.l)
            x //= k.l
        row = np.array([1], dtype=np.int32)
        for d in digits:
            row = field.mul_table[row[:, None], k.matrix[d][None, :]].reshape(-1)
        rows.append(row)
    return np.array(rows, dtype=np.int32).reshape(len(rows), total)


def brute_min_distance(field, gen: np.ndarray) -> int:
    """Exact minimum nonzero-codeword weight by message enumeration."""
    gen = np.asarray(gen, dtype=np.int32)
    kdim = gen.shape[0]
    if field.q**kdim > _ENUM_CAP:
        raise TooLarge("message enumeration exceeds cap")
    best = gen.shape[1]
    words = np.zeros((1, gen.shape[1]), dtype=np.int32)
    for r in range(kdim):
        scaled = [field.mul_table[gen[r], c][None, :] for c in range(field.q)]
        words = np.concatenate(
            [field.add_table[words, s] for s in scaled], axis=0
        )
    weights = (words != 0).sum(axis=1)
    nz = weights[weights > 0]
    return int(nz.min()) if nz.size else 0


# Keyed on curve content: field, points and basis fix the code's rows.
_AG_DIST_CACHE: dict = {}


def ag_min_distance(curve: PointedCurve, m: int) -> int:
    """Exact minimum distance of C(D, mQ) by codeword enumeration."""
    key = (curve.field, tuple(curve.points), tuple(curve.basis), tuple(curve.hstar), m)
    if key in _AG_DIST_CACHE:
        return _AG_DIST_CACHE[key]
    dim = sum(1 for h in curve.hstar if h <= m)
    if dim == 0:
        raise OutOfRange(f"C(D, {m}Q) is the zero code")
    gen = curve.evaluation_matrix()[:dim]
    d = brute_min_distance(curve.field, gen)
    _AG_DIST_CACHE[key] = d
    return d


def min_distance_bound(a: MonomialIndexSet, curve: PointedCurve, k: Kernel, n: int):
    """Matrix-product sandwich for the minimum distance of C_a.

    lower = prod_i delta(C(D, hstar[K_i] Q)) with K_i the maximum digit
    in variable position i over the members; upper comes from any member
    k' whose componentwise upper set lies inside a (tightest such
    product), or l^n when no such member exists.  Returns
    (lower, upper, metadata).
    """
    if not is_decreasing(a, curve):
        raise NotDecreasing("bound requires a decreasing set")
    if not a.members:
        raise OutOfRange("empty set has no code")
    hstar = curve.hstar
    members = {m.digits for m in a.members}
    kmax = [max(d[i] for d in members) for i in range(n)]
    lower = 1
    for ki in kmax:
        lower *= ag_min_distance(curve, hstar[ki])
    # the product is invariant under reversing the digit reading: the
    # multiset {K_i} is what enters; record the convention regardless
    upper = curve.l**n
    upper_from = None
    for digits in members:
        up = itertools.product(*[range(d, curve.l) for d in digits])
        if all(t in members for t in up):
            prod = 1
            for d in digits:
                prod *= ag_min_distance(curve, hstar[d])
            if prod < upper:
                upper = prod
                upper_from = digits
    meta = {
        "digit_order": "position i = variable X_(i+1); reversed reading gives the same products",
        "k_max": kmax,
        "upper_witness": list(upper_from) if upper_from is not None else None,
    }
    return lower, upper, meta
