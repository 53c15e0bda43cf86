"""Length-N polarization: G_n = B_n G^(x n), SC machinery, Z estimation.

Index conventions follow the monomial picture: the multi-index k with
l-ary digits (k_n, ..., k_1) identifies the monomial
M_{k_1}(X_1) ... M_{k_n}(X_n) and the row l^n - k of G_n, hence the
synthetic channel W_n^{(l^n - k)}.  Channel positions are 1-based where
the literature is; u-vectors are 0-based numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import DMC, sof_witnesses
from .errors import LengthMismatch, NotSymmetric, OutOfRange, PreconditionViolated, TooLarge
from .kernel import Kernel, kron_matrix

_BN_CAP = 1 << 20
_GN_CAP = 1024


# -- multi-indices ------------------------------------------------------


@dataclass(frozen=True)
class MultiIndex:
    """Digit expansion of a row/monomial index at a given level count.

    digits[j] is the factor index on variable X_{j+1}; the value is
    sum(digits[j] * l^j).
    """

    digits: tuple
    l: int

    @property
    def n(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> int:
        v = 0
        for j, d in enumerate(self.digits):
            v += d * self.l**j
        return v

    @classmethod
    def from_value(cls, value: int, l: int, n: int) -> "MultiIndex":
        digits = []
        v = value
        for _ in range(n):
            digits.append(v % l)
            v //= l
        if v:
            raise OutOfRange(f"value {value} needs more than {n} digits base {l}")
        return cls(tuple(digits), l)

    def row(self) -> int:
        """1-based row of G_n carrying this monomial."""
        return self.l**self.n - self.value


def _check_levels(n: int):
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")


def multiindex_weight(mi: MultiIndex, hstar) -> int:
    return sum(hstar[d] for d in mi.digits)


# -- structural permutations and matrices -------------------------------


def bn_permutation(l: int, n: int) -> np.ndarray:
    """Digit-reversal permutation: perm[i] has the reversed l-ary digits."""
    if l < 2 or n < 1:
        raise OutOfRange("need l >= 2, n >= 1")
    total = l**n
    if total > _BN_CAP:
        raise TooLarge(f"l^n = {total} exceeds cap")
    perm = np.zeros(total, dtype=np.int64)
    for i in range(total):
        v, r = i, 0
        for _ in range(n):
            r = r * l + v % l
            v //= l
        perm[i] = r
    return perm


def gn_matrix(k: Kernel, n: int) -> np.ndarray:
    """Materialized G_n = B_n G^(x n) (index matrix)."""
    total = k.l**n
    if total > _GN_CAP:
        raise TooLarge(f"l^n = {total} exceeds materialization cap")
    m = np.array([[1]], dtype=np.int32)
    for _ in range(n):
        m = kron_matrix(k.field, m, k.matrix)
    perm = bn_permutation(k.l, n) if n >= 1 else np.array([0])
    return m[perm]


def row_monomial(k: Kernel, n: int, row: int) -> MultiIndex:
    """The multi-index labeling a 1-based row of G_n."""
    total = k.l**n
    if not 1 <= row <= total:
        raise OutOfRange(f"row {row} out of range 1..{total}")
    return MultiIndex.from_value(total - row, k.l, n)


# -- encoding -----------------------------------------------------------


def encode(k: Kernel, n: int, u: np.ndarray) -> np.ndarray:
    """u G_n via the n-stage butterfly (G_n is never materialized)."""
    u = np.asarray(u, dtype=np.int32)
    total = k.l**n
    if u.shape != (total,):
        raise LengthMismatch(f"expected length {total}")
    return encode_many(k, n, u[None, :])[0]


def encode_many(k: Kernel, n: int, u: np.ndarray) -> np.ndarray:
    """Row-wise encoding of a batch of input vectors."""
    u = np.asarray(u, dtype=np.int32)
    total = k.l**n
    if u.ndim != 2 or u.shape[1] != total:
        raise LengthMismatch(f"expected shape (*, {total})")
    return _encode_rec(k, n, u)


def _encode_rec(k: Kernel, n: int, u: np.ndarray) -> np.ndarray:
    if n == 0:
        return u
    field, l = k.field, k.l
    blocks = u.reshape(u.shape[0], -1, l)  # consecutive l-blocks of u
    # per-block kernel application: stream t gets (block G)[t]
    streams = np.zeros_like(blocks)
    for r in range(l):
        streams = field.add_table[
            streams,
            field.mul_table[blocks[:, :, r][:, :, None], k.matrix[r][None, None, :]],
        ]
    return np.concatenate(
        [_encode_rec(k, n - 1, streams[:, :, t].copy()) for t in range(l)], axis=1
    )


# -- kernel marginalization ---------------------------------------------

# Bytes of one gathered (states, in-degree, rows) array of the forward
# pass; chunks this small stay in cache.
_CHUNK_BYTES = 1 << 18


def kernel_likelihoods(k: Kernel, like: np.ndarray, j: int) -> np.ndarray:
    """Likelihoods of every value of u_j when u_0..u_{j-1} are zero.

    like: (l, q, rows) likelihoods of each codeword symbol.  Returns
    (q, rows): the sum over u_{j+1..} of prod_t like[t, (u G)_t], by a
    forward pass over the kernel's syndrome trellis.  For decided inputs
    other than zero, shift each symbol's likelihoods by their codeword
    first.  Rows come last, so that every gather copies whole runs.
    """
    trellis = k.trellis
    rows = like.shape[2]
    chunk = max(1, _CHUNK_BYTES // (8 * trellis.width))
    out = np.empty((k.field.q, rows))
    for lo in range(0, rows, chunk):
        part = like[:, :, lo : lo + chunk]
        alpha = np.ones((1, 1))  # the start state, broadcast over rows
        for t, (src, sym) in enumerate(trellis.steps[j]):
            if src.shape[1] == 1:
                alpha = alpha[src[:, 0]] * part[t][sym[:, 0]]
            else:  # q edges into each state, symbols 0..q-1
                alpha = np.einsum("sdr,dr->sr", alpha[src], part[t])
        out[:, lo : lo + chunk] = alpha
    return out


# -- successive cancellation --------------------------------------------


class _SCNode:
    """One SC recursion level, vectorized over a batch of received words.

    Consumes per-sample decisions and yields (q, samples) likelihoods.
    Likelihoods are normalized at every level; SC decisions are
    invariant under per-node positive scaling, and normalization keeps
    the l-fold products representable at deeper recursion levels.
    """

    def __init__(self, k: Kernel, level: int, y, w: DMC):
        self.k = k
        self.level = level
        if level == 0:
            like = w.trans[:, y[:, 0]].astype(float)  # (q, s)
            self.like = like / np.maximum(like.sum(axis=0), 1e-300)
        else:
            block = y.shape[1] // k.l
            self.children = [
                _SCNode(k, level - 1, y[:, t * block : (t + 1) * block], w)
                for t in range(k.l)
            ]
            self.kids = np.empty((k.l, k.field.q, y.shape[0]))
            self.grid = (np.arange(k.l)[:, None, None], np.arange(y.shape[0]))  # (t, row)
            self.j = 0  # inner position within the current kernel application

    def next_likelihood(self) -> np.ndarray:
        if self.level == 0:
            return self.like
        if self.j == 0:
            for t, c in enumerate(self.children):
                self.kids[t] = c.next_likelihood()
            like = self.kids
        else:
            # shift each symbol's likelihoods by the decided prefix codeword
            shift = self.k.field.add_table[self.prefix].transpose(0, 2, 1)
            like = self.kids[self.grid[0], shift, self.grid[1]]
        out = kernel_likelihoods(self.k, like, self.j)
        return out / np.maximum(out.sum(axis=0), 1e-300)

    def push_decision(self, v: np.ndarray):
        if self.level == 0:
            return
        field = self.k.field
        step = field.mul_table[self.k.matrix[self.j][:, None], v]  # (l, s)
        self.prefix = step if self.j == 0 else field.add_table[self.prefix, step]
        self.j += 1
        if self.j == self.k.l:
            for t, c in enumerate(self.children):
                c.push_decision(self.prefix[t])
            self.j = 0


def decode_sc_batch(k: Kernel, n: int, w: DMC, y: np.ndarray, frozen) -> np.ndarray:
    """SC-decode a batch of received words (one per row of y).

    ``frozen`` maps 0-based u-positions to a field element index (scalar
    per position).  Free positions take the likelihood argmax, ties
    going to the canonically smaller element.
    """
    y = np.asarray(y)
    total = k.l**n
    if y.ndim != 2 or y.shape[1] != total:
        raise LengthMismatch(f"expected received shape (*, {total})")
    s = y.shape[0]
    frozen = {int(p): int(v) for p, v in frozen.items()}
    root = _SCNode(k, n, y, w)
    u_hat = np.zeros((s, total), dtype=np.int32)
    for pos in range(total):
        like = root.next_likelihood()
        if pos in frozen:
            u_hat[:, pos] = frozen[pos]
        else:
            u_hat[:, pos] = np.argmax(like, axis=0)  # first maximum wins ties
        root.push_decision(u_hat[:, pos])
    return u_hat


def decode_sc(k: Kernel, n: int, w: DMC, y, frozen) -> np.ndarray:
    """SC estimate of u from a single received word (see decode_sc_batch)."""
    y = np.asarray(y)
    total = k.l**n
    if y.shape != (total,):
        raise LengthMismatch(f"expected received length {total}")
    return decode_sc_batch(k, n, w, y[None, :], frozen)[0]


# -- Monte Carlo Bhattacharyya estimation -------------------------------


@dataclass
class ZEstimates:
    """Genie-aided estimates of Z(W_n^{(i)}), one per channel position."""

    l: int
    n: int
    est: np.ndarray  # indexed by 0-based channel position i-1
    se: np.ndarray
    samples: int
    seed: int

    def by_monomial(self, k_value: int) -> float:
        return float(self.est[self.l**self.n - k_value - 1])

    def se_by_monomial(self, k_value: int) -> float:
        return float(self.se[self.l**self.n - k_value - 1])

    def serialize(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "z": [
                {"index": i + 1, "est": float(e), "se": float(s)}
                for i, (e, s) in enumerate(zip(self.est, self.se))
            ],
        }


def _genie_likelihoods(k: Kernel, w: DMC, y: np.ndarray) -> np.ndarray:
    """Likelihoods at all channel positions under all-zero genie decisions.

    y: (S, l^n) outputs.  Returns (l^n, q, S) in channel order.  Each
    level runs all its kernel applications in one batch: node m combines
    child nodes m*l + t, and its position i*l + j is inner position j of
    the application on the children's position i.
    """
    q, l = k.field.q, k.l
    s, total = y.shape
    like = w.trans[:, y].transpose(2, 0, 1)  # (l^n, q, S)
    width = 1  # positions per child node
    while width < total:
        kids = like.reshape(-1, l, width, q, s).transpose(1, 3, 0, 2, 4).reshape(l, q, -1)
        out = np.stack([kernel_likelihoods(k, kids, j) for j in range(l)])
        like = out.reshape(l, q, -1, width, s).transpose(2, 3, 0, 1, 4).reshape(total, q, s)
        # normalize per position: likelihood ratios are scale-invariant and
        # deeper levels stay representable
        like /= np.maximum(like.max(axis=1, keepdims=True), 1e-300)
        width *= l
    return like


def mc_estimate_z(k: Kernel, n: int, w: DMC, samples: int, seed: int,
                  batch: int = 512) -> ZEstimates:
    """Genie-aided Monte Carlo estimate of all Z(W_n^{(i)}).

    Requires an SOF channel (all-zero-word sampling is then lossless).
    Deterministic given (seed, samples, batch); the batch size only
    perturbs floating-point summation order.
    """
    _check_levels(n)
    if samples < 1:
        raise OutOfRange(f"samples must be >= 1, got {samples}")
    if sof_witnesses(w) is None:
        raise NotSymmetric("channel carries no SOF witness")
    q = k.field.q
    total = k.l**n
    rng = np.random.default_rng(seed)
    # all outputs drawn upfront so the batch size cannot affect results
    y_all = rng.choice(w.num_outputs, size=(samples, total), p=w.trans[0])
    sums = np.zeros(total)
    sqs = np.zeros(total)
    for start in range(0, samples, batch):
        y = y_all[start : start + batch]
        likes = _genie_likelihoods(k, w, y)  # (total, q, b)
        l0 = likes[:, :1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(l0 > 0, likes[:, 1:] / np.maximum(l0, 1e-300), 1.0)
        z = np.sqrt(ratios).sum(axis=1) / (q - 1)
        sums += z.sum(axis=1)
        sqs += (z**2).sum(axis=1)
    mean = sums / samples
    var = np.maximum(sqs / samples - mean**2, 0.0)
    se = np.sqrt(var / samples)
    est = np.clip(mean, 0.0, 1.0)
    return ZEstimates(k.l, n, est, se, samples, seed)


# -- information sets ---------------------------------------------------


def select_info_set(z: ZEstimates, dim: int, hstar=None):
    """The dim monomial indices of smallest estimated Z.

    Ties break toward the larger monomial: bigger pole-order weight
    first, then reverse-lexicographic on the digit tuple.  Returns a
    MonomialIndexSet.
    """
    from .codeset import MonomialIndexSet

    total = z.l**z.n
    if not 0 <= dim <= total:
        raise OutOfRange(f"dim {dim} out of range")
    keys = []
    for k_value in range(total):
        mi = MultiIndex.from_value(k_value, z.l, z.n)
        wgt = multiindex_weight(mi, hstar) if hstar is not None else k_value
        revlex = tuple(reversed(mi.digits))
        keys.append((z.by_monomial(k_value), -wgt, tuple(-d for d in revlex), k_value))
    keys.sort()
    chosen = [k[-1] for k in keys[:dim]]
    return MonomialIndexSet.from_values(z.n, z.l, chosen)


# -- theoretical degradation order --------------------------------------


def theoretical_order(k: Kernel, curve, n: int) -> dict:
    """Degradation DAG over multi-index values, transitively closed.

    An edge i -> j asserts W_n^{(l^n - i)} is a degradation of
    W_n^{(l^n - j)}, so Z_i >= Z_j and membership of i in an information
    set forces membership of j.  Only moves licensed by the degradation
    results are asserted: per-digit generator subtraction and ring
    divisibility (both under the pole-order < l guard) and moving a
    digit's monomial to a free lower variable position.
    """
    _check_levels(n)
    if curve.l < 2 * curve.genus:
        raise PreconditionViolated("requires l >= 2g")
    l = curve.l
    hstar = curve.hstar
    hpos = {m: i for i, m in enumerate(hstar)}
    total = l**n

    digit_moves = [set() for _ in range(l)]
    for b in range(l):
        if hstar[b] < l:
            for a in curve.gen_poles:
                tgt = hstar[b] - a
                if tgt in hpos:
                    digit_moves[b].add(hpos[tgt])
            for bp in range(l):
                if bp != b and curve.divides(bp, b):
                    digit_moves[b].add(bp)

    adj = {v: set() for v in range(total)}
    for v in range(total):
        digits = list(MultiIndex.from_value(v, l, n).digits)
        for pos in range(n):
            for bp in digit_moves[digits[pos]]:
                nd = digits.copy()
                nd[pos] = bp
                adj[v].add(MultiIndex(tuple(nd), l).value)
            # move a nontrivial factor to a free lower variable position
            if digits[pos] != 0:
                for lower in range(pos):
                    if digits[lower] == 0:
                        nd = digits.copy()
                        nd[lower], nd[pos] = nd[pos], 0
                        adj[v].add(MultiIndex(tuple(nd), l).value)
    # transitive closure
    closed = {v: set(adj[v]) for v in range(total)}
    changed = True
    while changed:
        changed = False
        for v in range(total):
            extra = set()
            for u in closed[v]:
                extra |= closed[u] - closed[v]
            if extra:
                closed[v] |= extra
                changed = True
    for v in closed:
        closed[v].discard(v)
    return closed


# -- simulation ---------------------------------------------------------


def transmit(w: DMC, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one output per transmitted symbol (any input shape)."""
    x = np.asarray(x)
    cum = np.cumsum(w.trans, axis=1)
    r = rng.random(x.shape)
    idx = (cum[x] <= r[..., None]).sum(axis=-1)
    return idx.clip(0, w.num_outputs - 1)


def simulate_bler(k: Kernel, n: int, w: DMC, info_positions, trials: int, seed: int,
                  batch: int = 64) -> float:
    """Block error rate of SC decoding with frozen-to-zero convention."""
    _check_levels(n)
    if trials < 1:
        raise OutOfRange(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    total = k.l**n
    info = sorted(int(p) for p in info_positions)
    frozen = {p: 0 for p in range(total) if p not in set(info)}
    # all randomness drawn upfront: the batch size cannot change results
    u_all = np.zeros((trials, total), dtype=np.int32)
    u_all[:, info] = rng.integers(0, k.field.q, size=(trials, len(info)))
    x_all = encode_many(k, n, u_all)
    y_all = transmit(w, x_all, rng)
    errors = 0
    for start in range(0, trials, batch):
        u = u_all[start : start + batch]
        u_hat = decode_sc_batch(k, n, w, y_all[start : start + batch], frozen)
        errors += int((u_hat[:, info] != u[:, info]).any(axis=1).sum())
    return errors / trials
