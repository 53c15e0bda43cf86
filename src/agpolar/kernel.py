"""Kernel matrices from curves and their analysis.

A kernel is an l x l nonsingular matrix over GF(q) whose rows are
labeled by monomials in strictly decreasing pole order (row 0 carries
the largest pole order, the last row is the constant).  Kernels come
from curves, from shortening, or from Kronecker composition; the
provenance expression is kept for reproducible reports.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import linalg
from .curve import Monomial, PointedCurve
from .errors import FieldMismatch, SingularKernel, TooLarge
from .galois import FiniteField, subfield_generated

# Per-row coset enumeration cap for exact partial distances.
_COSET_CAP = 1 << 24
# Cap on the trellis edges enumerated before pruning (q per state and
# step), over all positions; Reed-Solomon GF(9) needs 1.13M.
_EDGE_CAP = 1 << 21


class Kernel:
    """Nonsingular square matrix with monomial row labels."""

    def __init__(self, field, matrix, row_labels, provenance, col_points=None):
        self.field = field
        self.matrix = np.array(matrix, dtype=np.int32)
        self.l = self.matrix.shape[0]
        if self.matrix.shape != (self.l, self.l):
            raise ValueError("kernel matrix must be square")
        self.row_labels = list(row_labels)
        if len(self.row_labels) != self.l:
            raise ValueError("need one label per row")
        self.provenance = provenance
        # column -> curve point index, for kernels tied to a curve
        self.col_points = list(col_points) if col_points is not None else None
        if not linalg.is_nonsingular(field, self.matrix):
            raise SingularKernel(f"{provenance}: matrix is singular")

    @cached_property
    def trellis(self) -> "KernelTrellis":
        """The marginalization trellis, built on first use."""
        return KernelTrellis(self)

    def label_names(self):
        return [str(lbl) for lbl in self.row_labels]

    def serialize(self) -> dict:
        return {
            "field": self.field.serialize(),
            "l": self.l,
            "rows": [
                {"label": str(lbl), "values": [int(v) for v in row]}
                for lbl, row in zip(self.row_labels, self.matrix)
            ],
            "provenance": self.provenance,
        }

    def __repr__(self):
        return f"Kernel({self.provenance}, l={self.l}, {self.field})"


class RowLabel:
    """Printable row label wrapping a monomial (or product of monomials)."""

    __slots__ = ("monomials", "gen_names")

    def __init__(self, monomials, gen_names):
        # parallel tuples: one (Monomial, names) pair per tensor factor
        self.monomials = tuple(monomials)
        self.gen_names = tuple(gen_names)

    def __str__(self):
        parts = [m.name(names) for m, names in zip(self.monomials, self.gen_names)]
        parts = [p for p in parts if p != "1"] or ["1"]
        if len(parts) == 1:
            return parts[0]
        return "".join(parts)

    def __eq__(self, other):
        return isinstance(other, RowLabel) and other.monomials == self.monomials

    def __hash__(self):
        return hash(self.monomials)


def build_kernel(curve: PointedCurve) -> Kernel:
    """Evaluation matrix of the curve basis, rows in decreasing pole order."""
    ev = curve.evaluation_matrix()
    labels = [
        RowLabel((curve.basis[curve.l - 1 - i],), (curve.gen_names,))
        for i in range(curve.l)
    ]
    return Kernel(
        curve.field,
        ev[::-1],
        labels,
        provenance=f"curve:{curve.family}:q{curve.field.q}",
        col_points=list(range(curve.l)),
    )


def kernel_from_matrix(field, matrix, labels=None, provenance="explicit") -> Kernel:
    matrix = np.asarray(matrix)
    l = matrix.shape[0]
    if labels is None:
        labels = [f"r{i}" for i in range(l)]
    return Kernel(field, matrix, labels, provenance)


def arikan_kernel(field) -> Kernel:
    """[[1,0],[1,1]] viewed over the given field."""
    return kernel_from_matrix(field, [[1, 0], [1, 1]], ["g1", "1"], "arikan")


# -- syndrome trellis ---------------------------------------------------


class KernelTrellis:
    """Syndrome trellises of the nested suffix codes span(G_{j+1..l}).

    For inner position j the state after t codeword symbols is
    x_{<t} G^{-1}[:, :j+1]; a codeword ends in state (0, ..., 0, a)
    exactly when u_0..u_{j-1} are zero and u_j = a.  Only states that are
    reachable and can still reach such a target are kept.  States and
    edges form subspaces, so every state has in-degree 1, or q with one
    edge per symbol.  steps[j][t] = (src, sym) are (states after step t,
    in-degree) arrays of the source state and codeword symbol of each
    edge into each state, by ascending symbol; final states ascend in a.
    edges and width count the kept edges, in all and at the widest step.
    """

    def __init__(self, k: Kernel):
        field, q, l = k.field, k.field.q, k.l
        ech, _ = linalg.row_echelon(field, np.hstack([k.matrix, np.eye(l, dtype=np.int32)]))
        ginv = ech[:, l:]
        # The states of position j after t symbols number q^d with
        # d = rank(ginv[:t, :j+1]) + rank(ginv[t:, :j]) - j; a rank of the
        # first c columns counts the echelon pivots left of column c.
        head = [linalg.row_echelon(field, ginv[:t])[1] for t in range(l)]
        tail = [linalg.row_echelon(field, ginv[t:])[1] for t in range(l)]
        branches = q * sum(
            q ** (sum(p <= j for p in head[t]) + sum(p < j for p in tail[t]) - j)
            for j in range(l)
            for t in range(l)
        )
        if branches > _EDGE_CAP:
            raise TooLarge(f"kernel trellis needs {branches} edges, over the {_EDGE_CAP} cap")
        self.steps, self.edges, self.width = [], 0, 1
        for j in range(l):
            h = ginv[:, : j + 1]
            target = np.eye(j + 1, dtype=np.int32)[j : j + 1]
            states = np.zeros((1, j + 1), dtype=np.int32)
            steps = []
            for t in range(l):
                cand = field.add_table[states[:, None, :], field.mul_table[:, h[t]]]
                cand = cand.reshape(-1, j + 1)
                # states that can still reach a target: span(h[t+1:], target)
                checks = linalg.nullspace(field, np.vstack([h[t + 1 :], target]))
                keep = np.flatnonzero(~linalg.mat_mul(field, cand, checks.T).any(axis=1))
                states, dst = np.unique(cand[keep], axis=0, return_inverse=True)
                edge = keep[np.argsort(dst.reshape(-1) * q + keep % q)].reshape(len(states), -1)
                steps.append((edge // q, edge % q))
                self.edges += edge.size
                self.width = max(self.width, edge.size)
            self.steps.append(steps)


# -- span enumeration ---------------------------------------------------


def _span_words(field: FiniteField, rows):
    """All q^k words of the row span, as a (q^k, n) index array."""
    rows = np.asarray(rows, dtype=np.int32)
    k, n = rows.shape
    words = np.zeros((1, n), dtype=np.int32)
    for r in range(k):
        scaled = [field.mul_table[rows[r], c][None, :] for c in range(field.q)]
        words = np.concatenate(
            [field.add_table[words, s] for s in scaled], axis=0
        )
    return words


def partial_distances(k: Kernel):
    """Exact partial distances D_i = d(G_i, <G_{i+1}, ..., G_l>).

    Brute-force coset enumeration; refuses rows whose coset size exceeds
    the documented 2^24 cap.
    """
    q, l = k.field.q, k.l
    out = []
    for i in range(l):
        if q ** (l - 1 - i) > _COSET_CAP:
            raise TooLarge(f"coset enumeration for row {i + 1} exceeds cap")
        span = _span_words(k.field, k.matrix[i + 1 :])
        coset = k.field.add_table[span, k.matrix[i][None, :]]
        out.append(int((coset != 0).sum(axis=1).min()))
    return out


def exponent(k: Kernel) -> float:
    """Rate of polarization E(G) = (1 / (l ln l)) * sum ln D_i."""
    ds = partial_distances(k)
    return sum(math.log(d) for d in ds) / (k.l * math.log(k.l))


def exponent_from_distances(ds) -> float:
    l = len(ds)
    return sum(math.log(d) for d in ds) / (l * math.log(l))


# -- standard form and the polarization criterion -----------------------


def standard_form(k: Kernel):
    """A standard form G' = V G P: lower triangular with unit diagonal.

    V is upper triangular invertible, P a column permutation.  Pivots
    are chosen rightmost-first, eliminating upward, so the output is
    deterministic.  Returns (gprime, v, p) as index matrices.
    """
    field, l = k.field, k.l
    a = np.array(k.matrix, dtype=np.int32)
    v = np.eye(l, dtype=np.int32)
    pivot_col = [-1] * l
    used = set()
    for r in range(l - 1, -1, -1):
        # clear entries at pivots of lower rows, bottom pivot first
        for j in range(l - 1, r, -1):
            c = pivot_col[j]
            if a[r, c] != 0:
                coef = field.neg(int(a[r, c]))
                a[r] = linalg.addmul_row(field, a[r], a[j], coef)
                v[r] = linalg.addmul_row(field, v[r], v[j], coef)
        # rightmost nonzero among unused columns
        cand = [c for c in range(l - 1, -1, -1) if c not in used and a[r, c] != 0]
        assert cand, "nonsingular matrix must yield a pivot"
        c = cand[0]
        inv = field.inv(int(a[r, c]))
        a[r] = linalg.scale_row(field, a[r], inv)
        v[r] = linalg.scale_row(field, v[r], inv)
        pivot_col[r] = c
        used.add(c)
    perm = np.zeros(l, dtype=np.int64)
    for r in range(l):
        perm[r] = pivot_col[r]
    gprime = a[:, perm]
    p = np.zeros((l, l), dtype=np.int32)
    for r in range(l):
        p[perm[r], r] = 1
    return gprime, v, p


def polarizes_sof(k: Kernel) -> bool:
    """Mori-Tanaka criterion: non-identity standard form whose entries
    generate the whole field."""
    gprime, _, _ = standard_form(k)
    if np.array_equal(gprime, np.eye(k.l, dtype=np.int32)):
        return False
    elems = [k.field.element(int(v)) for v in np.unique(gprime)]
    return subfield_generated(elems) == k.field.q


# -- shortening and composition -----------------------------------------


def shorten_point(k: Kernel, curve: PointedCurve, point_index: int) -> Kernel:
    """Shorten at one evaluation point, preserving the nested structure.

    The lowest row nonzero at the point's column is the pivot; it clears
    the column from every other row and is then deleted together with
    the column.
    """
    if k.col_points is None or point_index not in k.col_points:
        raise ValueError(f"kernel has no column for point {point_index}")
    field = k.field
    j = k.col_points.index(point_index)
    a = np.array(k.matrix, dtype=np.int32)
    nz = np.nonzero(a[:, j])[0]
    piv = int(nz[-1])
    for i in range(k.l):
        if i != piv and a[i, j] != 0:
            coef = field.neg(field.div(int(a[i, j]), int(a[piv, j])))
            a[i] = linalg.addmul_row(field, a[i], a[piv], coef)
    keep_rows = [i for i in range(k.l) if i != piv]
    keep_cols = [c for c in range(k.l) if c != j]
    return Kernel(
        field,
        a[np.ix_(keep_rows, keep_cols)],
        [k.row_labels[i] for i in keep_rows],
        provenance=f"shorten({k.provenance}, P{point_index})",
        col_points=[k.col_points[c] for c in keep_cols],
    )


def shorten_by_function(k: Kernel, curve: PointedCurve, zprime_support, dropped_rows) -> Kernel:
    """Restrict to the zero set of a smaller function z' in L(inf Q).

    Keeps the columns in ``zprime_support`` and the rows whose labels
    survive ``dropped_rows`` (a predicate on the row label returning
    True for rows to drop).  The result must come out square and
    nonsingular, which certifies the support/row choice.
    """
    if k.col_points is None:
        raise ValueError("kernel is not tied to curve points")
    support = set(zprime_support)
    keep_cols = [c for c, pt in enumerate(k.col_points) if pt in support]
    keep_rows = [i for i, lbl in enumerate(k.row_labels) if not dropped_rows(lbl)]
    if len(keep_rows) != len(keep_cols):
        raise SingularKernel(
            f"support ({len(keep_cols)} cols) and rows ({len(keep_rows)}) disagree"
        )
    sub = k.matrix[np.ix_(keep_rows, keep_cols)]
    return Kernel(
        k.field,
        sub,
        [k.row_labels[i] for i in keep_rows],
        provenance=f"restrict({k.provenance}, s={len(keep_cols)})",
        col_points=[k.col_points[c] for c in keep_cols],
    )


def castle_sequence(curve: PointedCurve, steps=None):
    """Nested kernels from divisors of prod_i (phi - alpha_i).

    The covering map phi is the first curve generator; step j keeps the
    points whose first coordinate is among the first j field elements in
    canonical order and the monomials of first-generator degree < j.
    """
    full = build_kernel(curve)
    if steps is None:
        steps = sorted({p[0] for p in curve.points})
    out = []
    for j in range(1, len(steps) + 1):
        values = set(steps[:j])
        support = [i for i, p in enumerate(curve.points) if p[0] in values]
        out.append(
            shorten_by_function(
                full,
                curve,
                support,
                dropped_rows=lambda lbl, j=j: lbl.monomials[0].exponents[0] >= j,
            )
        )
    return out


def kron_matrix(field: FiniteField, a, b) -> np.ndarray:
    """Kronecker product of two index matrices: entry (i1 i2, j1 j2) is
    a[i1, j1] * b[i2, j2]."""
    a, b = np.asarray(a), np.asarray(b)
    prod = field.mul_table[a[:, None, :, None], b[None, :, None, :]]
    return prod.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron(k1: Kernel, k2: Kernel) -> Kernel:
    """Kronecker product kernel; row labels are pair monomials."""
    if k1.field != k2.field:
        raise FieldMismatch("kernels over different fields")
    field = k1.field
    l1, l2 = k1.l, k2.l
    out = kron_matrix(field, k1.matrix, k2.matrix)
    labels = []
    for i in range(l1 * l2):
        la, lb = k1.row_labels[i // l2], k2.row_labels[i % l2]
        if isinstance(la, RowLabel) and isinstance(lb, RowLabel):
            labels.append(
                RowLabel(la.monomials + lb.monomials, la.gen_names + lb.gen_names)
            )
        else:
            labels.append(f"{la}*{lb}")
    return Kernel(field, out, labels, provenance=f"kron({k1.provenance}, {k2.provenance})")


def kron_exponent(k1: Kernel, k2: Kernel) -> float:
    """Closed-form exponent of the Kronecker product."""
    e1, e2 = exponent(k1), exponent(k2)
    l1, l2 = k1.l, k2.l
    return (e1 * math.log(l1) + e2 * math.log(l2)) / math.log(l1 * l2)


# -- isometry check -----------------------------------------------------


def column_scaled_row_permutation(k1: Kernel, k2: Kernel):
    """Find (scaling s, row permutation pi) with k1[i] = s * k2[pi(i)].

    Returns None if no such pair exists.  Scaling candidates are derived
    from matching each row of k2 against row 0 of k1.
    """
    if k1.l != k2.l or k1.field != k2.field:
        return None
    field, l = k1.field, k1.l
    a, b = k1.matrix, k2.matrix
    for r0 in range(l):
        # candidate scaling from k1 row 0 vs k2 row r0
        if not np.array_equal(a[0] != 0, b[r0] != 0):
            continue
        s = np.ones(l, dtype=np.int32)
        ok = True
        for j in range(l):
            if a[0, j] != 0:
                s[j] = field.div(int(a[0, j]), int(b[r0, j]))
        scaled = np.zeros_like(b)
        for j in range(l):
            scaled[:, j] = field.mul_table[b[:, j], int(s[j])]
        perm = []
        rows_left = {tuple(scaled[i]): i for i in range(l)}
        for i in range(l):
            key = tuple(a[i])
            if key not in rows_left:
                ok = False
                break
            perm.append(rows_left[key])
        if ok and len(set(perm)) == l:
            return s, perm
    return None
