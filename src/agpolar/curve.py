"""Pointed-curve presentations and their nested evaluation-code data.

A pointed curve here is purely combinatorial data: an ordered list of
rational points, the Weierstrass semigroup generators with their pole
orders, the genus, the l pole orders H*(Q) at which the evaluation code
grows, and one reduced monomial per H*(Q) value.  The two bundled
families are the rational curve (Reed-Solomon structure, genus 0) and
the Hermitian curve x^(q0+1) = y^q0 + y over GF(q0^2).  Anything else
enters through an explicit descriptor which is validated against the
same invariants.

Point ordering is lexicographic in the canonical field-element order,
which makes every matrix in this package bit-reproducible.  H*(Q) is
stored ascending with index 0 for the constant monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from . import linalg
from .errors import InvalidCurve, NotASquare, PreconditionViolated
from .galois import FieldElement, FiniteField

# -- semigroup arithmetic ----------------------------------------------


def semigroup_contains(gens, m: int) -> bool:
    """True iff m is a non-negative integer combination of the generators."""
    if m < 0:
        return False
    reachable = [False] * (m + 1)
    reachable[0] = True
    for v in range(1, m + 1):
        for a in gens:
            if a <= v and reachable[v - a]:
                reachable[v] = True
                break
    return reachable[m]


def semigroup_gaps(gens):
    """The finitely many gaps of <gens>; requires gcd(gens) = 1."""
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise ValueError("generators must have gcd 1")
    # Frobenius number is below a1 * a2 for any two coprime members;
    # 2 * max * min is a safe scan bound for desk-scale inputs.
    bound = max(gens) * min(gens) + max(gens)
    return [m for m in range(bound) if not semigroup_contains(gens, m)]


def is_symmetric_semigroup(gens, g: int) -> bool:
    """Check h in H <=> 2g-1-h not in H over the window [0, 2g)."""
    for h in range(2 * g):
        if semigroup_contains(gens, h) == semigroup_contains(gens, 2 * g - 1 - h):
            return False
    return True


# -- monomials ---------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """A reduced monomial in the curve generators with its pole order."""

    exponents: tuple
    pole_order: int

    def name(self, gen_names) -> str:
        if all(e == 0 for e in self.exponents):
            return "1"
        parts = []
        for g, e in zip(gen_names, self.exponents):
            if e == 1:
                parts.append(g)
            elif e > 1:
                parts.append(f"{g}^{e}")
        return "".join(parts)


# -- pointed curves ----------------------------------------------------


class PointedCurve:
    """Curve presentation (X, Q): points, semigroup data and basis.

    Immutable after construction.
    """

    def __init__(self, field, gens, genus, points, hstar, basis, family="custom"):
        self.field = field
        self.gens = tuple(gens)  # (name, pole_order) pairs
        self.genus = genus
        self.points = [tuple(p) for p in points]
        self.hstar = list(hstar)
        self.basis = list(basis)
        self.family = family
        self.l = len(self.points)
        self.z_pole = self.l

    @property
    def gen_names(self):
        return tuple(n for n, _ in self.gens)

    @property
    def gen_poles(self):
        return tuple(a for _, a in self.gens)

    def evaluation_matrix(self):
        """l x l matrix, row i = basis[i] evaluated at all points (indices)."""
        out = np.zeros((self.l, self.l), dtype=np.int32)
        for i in range(self.l):
            for j in range(self.l):
                out[i, j] = self._eval_index(self.basis[i], j)
        return out

    def _eval_index(self, m: Monomial, point_index: int) -> int:
        f = self.field
        acc = 1
        for coord, e in zip(self.points[point_index], m.exponents):
            if e:
                acc = f.mul(acc, f.pow(coord, e))
        return acc

    def divides(self, j: int, k: int) -> bool:
        """Basis monomial j divides basis monomial k in the quotient ring.

        Implemented as: the pole-order difference lies in H(Q) and the
        reduced exponent vectors subtract nonnegatively.  Exact for the
        reduced forms of the bundled families.
        """
        mj, mk = self.basis[j], self.basis[k]
        diff = mk.pole_order - mj.pole_order
        if diff < 0 or not semigroup_contains(self.gen_poles, diff):
            return False
        return all(ej <= ek for ej, ek in zip(mj.exponents, mk.exponents))

    def serialize(self) -> dict:
        return {
            "family": self.family,
            "field": self.field.serialize(),
            "points": [[int(c) for c in p] for p in self.points],
            "gens": [{"name": n, "pole": a} for n, a in self.gens],
            "genus": self.genus,
            "hstar": list(self.hstar),
            "basis": [list(m.exponents) for m in self.basis],
        }

    def __repr__(self):
        return f"PointedCurve({self.family}, l={self.l}, g={self.genus}, {self.field})"


def rational_curve(field: FiniteField) -> PointedCurve:
    """The projective line pointed at infinity: points = all of GF(q)."""
    q = field.q
    points = [(i,) for i in range(q)]
    basis = [Monomial((i,), i) for i in range(q)]
    return PointedCurve(
        field=field,
        gens=(("t", 1),),
        genus=0,
        points=points,
        hstar=list(range(q)),
        basis=basis,
        family="rational",
    )


def hermitian_curve(field: FiniteField) -> PointedCurve:
    """Hermitian curve x^(q0+1) = y^q0 + y over GF(q0^2), pointed at Q_inf."""
    q = field.q
    q0 = isqrt(q)
    if q0 * q0 != q:
        raise NotASquare(f"field order {q} is not a square")
    # affine rational points, lexicographic in canonical coordinate order
    points = []
    for a in range(q):
        for b in range(q):
            lhs = field.pow(a, q0 + 1)
            rhs = field.add(field.pow(b, q0), b)
            if lhs == rhs:
                points.append((a, b))
    l = q0**3
    assert len(points) == l
    genus = q0 * (q0 - 1) // 2
    gens = (("x", q0), ("y", q0 + 1))
    gaps = semigroup_gaps([q0, q0 + 1])
    hstar = sorted(
        [m for m in range(l) if semigroup_contains([q0, q0 + 1], m)]
        + [l + gap for gap in gaps]
    )
    assert len(hstar) == l
    basis = [Monomial(_hermitian_exponents(m, q0), m) for m in hstar]
    return PointedCurve(field, gens, genus, points, hstar, basis, family="hermitian")


def _hermitian_exponents(m: int, q0: int):
    # unique (i, j) with i*q0 + j*(q0+1) = m and 0 <= j < q0
    j = m % q0
    i = (m - j * (q0 + 1)) // q0
    if i < 0 or i * q0 + j * (q0 + 1) != m:
        raise ValueError(f"{m} is not representable with y-degree < {q0}")
    return (i, j)


def custom_curve(descriptor: dict) -> PointedCurve:
    """Build a PointedCurve from explicit data, validating every invariant."""
    from .galois import field_new

    fd = descriptor["field"]
    field = field_new(fd["p"], fd["r"], fd.get("modulus"))
    points = [tuple(int(c) for c in p) for p in descriptor["points"]]
    gens = tuple((g["name"], int(g["pole"])) for g in descriptor["gens"])
    genus = int(descriptor["genus"])
    hstar = [int(h) for h in descriptor["hstar"]]
    poles = [a for _, a in gens]
    if "basis" in descriptor:
        exps = [tuple(int(e) for e in ev) for ev in descriptor["basis"]]
        basis = [Monomial(e, sum(a * x for a, x in zip(poles, e))) for e in exps]
    else:
        raise InvalidCurve("descriptor must supply a basis (reduced monomials)")

    if len(set(points)) != len(points):
        raise InvalidCurve("duplicate points")
    l = len(points)
    if not (len(hstar) == len(basis) == l):
        raise InvalidCurve("|points|, |hstar| and |basis| must agree")
    if sorted(hstar) != hstar:
        raise InvalidCurve("hstar must be ascending")
    for m, h in zip(basis, hstar):
        if m.pole_order != h:
            raise InvalidCurve(f"basis pole order {m.pole_order} != hstar value {h}")
    for p in points:
        if len(p) != len(gens):
            raise InvalidCurve("point arity does not match generator count")
        if any(not 0 <= c < field.q for c in p):
            raise InvalidCurve("point coordinate out of field range")
    curve = PointedCurve(field, gens, genus, points, hstar, basis, family="custom")
    if not linalg.is_nonsingular(field, curve.evaluation_matrix()):
        raise InvalidCurve("singular evaluation matrix")
    return curve


def curve_from_descriptor(descriptor: dict) -> PointedCurve:
    """Dispatch on the JSON descriptor's family tag."""
    from .galois import field_new

    family = descriptor.get("family", "custom")
    if family == "rational":
        fd = descriptor["field"]
        return rational_curve(field_new(fd["p"], fd["r"], fd.get("modulus")))
    if family == "hermitian":
        fd = descriptor["field"]
        return hermitian_curve(field_new(fd["p"], fd["r"], fd.get("modulus")))
    return custom_curve(descriptor)


# -- per-curve operations ----------------------------------------------


def evaluate(curve: PointedCurve, m: Monomial, point_index: int) -> FieldElement:
    """Evaluate a monomial at one of the curve's points."""
    if not 0 <= point_index < curve.l:
        raise IndexError(f"point index {point_index} out of range")
    return curve.field.element(curve._eval_index(m, point_index))


def isometry_dual_condition(curve: PointedCurve) -> bool:
    """Numerical isometry-dual criterion: l + 2g - 1 in H*(Q)."""
    if curve.l < 2 * curve.genus - 2:
        raise PreconditionViolated("requires l >= 2g - 2")
    return (curve.l + 2 * curve.genus - 1) in curve.hstar


def fi_map(curve: PointedCurve, a_r: int) -> dict:
    """The semigroup shift m -> m - a_r (wrapped by +l outside H*).

    A bijection of H*(Q) whenever l >= 2g.
    """
    if curve.l < 2 * curve.genus:
        raise PreconditionViolated("requires l >= 2g")
    if a_r not in curve.gen_poles:
        raise ValueError(f"{a_r} is not a generator pole order")
    hstar = set(curve.hstar)
    out = {}
    for m in curve.hstar:
        out[m] = m - a_r if (m - a_r) in hstar else curve.l + m - a_r
    return out
