"""The trellis kernel marginalizer against the brute force it replaced.

The oracle enumerates all q^l kernel inputs: a one-hot table of their
codewords turns per-symbol log-likelihoods into the log-weight of every
input by one matmul, and suffix sums over the trailing inputs give the
likelihoods of each position.  ``old_mc_estimate_z`` is the genie Monte
Carlo estimator built on it (float32 weights), kept to pin the Z values
of the trellis estimator at fixed seeds.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agpolar import linalg
from agpolar.channel import qsc
from agpolar.cli import main
from agpolar.curve import hermitian_curve, rational_curve
from agpolar.errors import TooLarge
from agpolar.galois import field_new
from agpolar.kernel import build_kernel, kernel_from_matrix
from agpolar.polarization import (
    decode_sc_batch,
    encode_many,
    kernel_likelihoods,
    mc_estimate_z,
    simulate_bler,
)

# -- the brute-force oracle ---------------------------------------------


def onehot_table(k):
    """(q^l, l*q) 0/1 matrix: entry [u, t*q + x] is 1 iff (u G)_t = x."""
    field, q, l = k.field, k.field.q, k.l
    us = np.array(list(itertools.product(range(q), repeat=l)), dtype=np.int64)
    cw = np.zeros((q**l, l), dtype=np.int64)
    for r in range(l):
        cw = field.add_table[cw, field.mul_table[us[:, r][:, None], k.matrix[r][None, :]]]
    onehot = np.zeros((q**l, l * q), dtype=np.float32)
    for t in range(l):
        onehot[np.arange(q**l), t * q + cw[:, t]] = 1.0
    return onehot


def input_weights(like, onehot, dtype=np.float64):
    """(s, q^l) weight prod_t like[t, (u G)_t] of every input u."""
    s = like.shape[0]
    logk = np.maximum(np.log(np.maximum(like.reshape(s, -1), 1e-300)), -700.0)
    with np.errstate(under="ignore"):
        return np.exp(logk.astype(dtype) @ onehot.T.astype(dtype))


def brute_likelihoods(k, like, u):
    """(s, l, q): position-j likelihoods given the prefix u[:, :j], all j."""
    q, l = k.field.q, k.l
    s = like.shape[0]
    cube = input_weights(like, onehot_table(k)).reshape((s,) + (q,) * l)
    out = np.empty((s, l, q))
    for j in range(l):
        part = cube.sum(axis=tuple(range(j + 2, l + 1)))  # axes (s, u_0..u_j)
        out[:, j] = part[(np.arange(s),) + tuple(u[:, :j].T)]
    return out


def old_genie_level(k, w, y, level, onehot):
    q, l = k.field.q, k.l
    s = y.shape[0]
    if level == 0:
        return w.trans[:, y[:, 0]].T.reshape(s, 1, q)
    block = y.shape[1] // l
    kids = [
        old_genie_level(k, w, y[:, t * block : (t + 1) * block], level - 1, onehot)
        for t in range(l)
    ]
    out = np.empty((s, l**level, q))
    for i in range(l ** (level - 1)):
        like = np.stack([kid[:, i, :] for kid in kids], axis=1)
        arr = input_weights(like, onehot, np.float32).reshape((s,) + (q,) * l)
        for j in range(l, 0, -1):
            out[:, i * l + (j - 1), :] = arr[(slice(None),) + (0,) * (j - 1) + (slice(None),)]
            arr = arr.sum(axis=-1)
    out /= np.maximum(out.max(axis=2, keepdims=True), 1e-300)
    return out


def old_mc_estimate_z(k, n, w, samples, seed, batch=512):
    q, total = k.field.q, k.l**n
    rng = np.random.default_rng(seed)
    onehot = onehot_table(k)
    y_all = rng.choice(w.num_outputs, size=(samples, total), p=w.trans[0])
    sums, sqs = np.zeros(total), np.zeros(total)
    for start in range(0, samples, batch):
        likes = old_genie_level(k, w, y_all[start : start + batch], n, onehot)
        l0 = likes[:, :, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(l0[:, :, None] > 0, likes / np.maximum(l0[:, :, None], 1e-300), 1.0)
        z = np.sqrt(ratios[:, :, 1:]).sum(axis=2) / (q - 1)
        sums += z.sum(axis=0)
        sqs += (z**2).sum(axis=0)
    mean = sums / samples
    se = np.sqrt(np.maximum(sqs / samples - mean**2, 0.0) / samples)
    return np.clip(mean, 0.0, 1.0), se


# -- the marginalizer ---------------------------------------------------


def prefix_codeword(k, u, j):
    """Codeword of the inputs u[:, :j] with the rest zero."""
    field = k.field
    c = np.zeros(u.shape, dtype=np.int32)
    for r in range(j):
        c = field.add_table[c, field.mul_table[u[:, r][:, None], k.matrix[r][None, :]]]
    return c


def trellis_likelihoods(k, like, u):
    """(s, l, q) as brute_likelihoods: shift by the prefix codeword, then
    marginalize with rows last."""
    out = []
    for j in range(k.l):
        shift = k.field.add_table[prefix_codeword(k, u, j)]  # (s, l, q)
        shifted = np.take_along_axis(like, shift, axis=2)
        out.append(kernel_likelihoods(k, shifted.transpose(1, 2, 0), j).T)
    return np.stack(out, axis=1)


def assert_matches_oracle(k, rng, rows=6, zero_prefix=False):
    q, l = k.field.q, k.l
    like = rng.random((rows, l, q))
    like[rng.random((rows, l, q)) < 0.2] = 0.0  # exact zeros, as on noiseless channels
    u = np.zeros((rows, l), dtype=np.int64) if zero_prefix else rng.integers(0, q, (rows, l))
    want = brute_likelihoods(k, like, u)
    got = trellis_likelihoods(k, like, u)
    # the oracle floors zero likelihoods at 1e-300, so that positions
    # whose true likelihoods all vanish read as about 1e-295
    scale = np.maximum(want.max(axis=2, keepdims=True), 1e-100)
    assert np.abs((got - want) / scale).max() <= 1e-12


@pytest.mark.parametrize("zero_prefix", [True, False], ids=["genie", "sc"])
@pytest.mark.parametrize("name", ["ka", "kr3", "kr", "kh"])
def test_trellis_matches_brute_force(name, zero_prefix, request):
    if name == "kr3":
        k = build_kernel(rational_curve(field_new(3, 1)))
    else:
        k = request.getfixturevalue(name)
    assert_matches_oracle(k, np.random.default_rng(5), zero_prefix=zero_prefix)


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(2, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_trellis_random_kernels(pr, l, seed, zero_prefix):
    field = field_new(*pr)
    while field.q**l > 4096:
        l -= 1
    rng = np.random.default_rng(seed)
    # every nonsingular matrix is P L U with L lower, U unit upper triangular
    low = np.tril(rng.integers(0, field.q, (l, l)), -1) + np.diag(rng.integers(1, field.q, l))
    up = np.triu(rng.integers(0, field.q, (l, l)), 1) + np.eye(l, dtype=np.int64)
    g = linalg.mat_mul(field, low, up)[rng.permutation(l)]
    assert_matches_oracle(kernel_from_matrix(field, g), rng, rows=3, zero_prefix=zero_prefix)


def test_trellis_hermitian_size(kh):
    tr = kh.trellis
    assert tr.edges == 3280 and tr.width == 256
    assert [len(steps) for steps in tr.steps] == [8] * 8
    assert kh.trellis is tr  # built once per kernel


def test_trellis_cap():
    with pytest.raises(TooLarge):
        build_kernel(hermitian_curve(field_new(3, 2))).trellis


@pytest.mark.parametrize(
    "name,n,samples,seed",
    [("ka", 3, 300, 1), ("kr", 2, 300, 2), ("kh", 1, 300, 3), ("kh", 2, 64, 4)],
)
def test_mc_matches_old_estimator(name, n, samples, seed, request):
    k = request.getfixturevalue(name)
    w = qsc(k.field, 0.1)
    est, se = old_mc_estimate_z(k, n, w, samples, seed)
    z = mc_estimate_z(k, n, w, samples, seed)
    assert np.abs(z.est - est).max() <= 1e-5
    assert np.abs(z.se - se).max() <= 1e-5


# -- kernels past the old q^l cap ----------------------------------------


@pytest.fixture(scope="module")
def krs8():
    return build_kernel(rational_curve(field_new(2, 3)))  # l = 8, q^l = 2^24


def test_large_kernel_noiseless(krs8):
    w = qsc(krs8.field, 0.0)
    u = np.random.default_rng(3).integers(0, 8, (4, 8))
    assert np.array_equal(decode_sc_batch(krs8, 1, w, encode_many(krs8, 1, u), {}), u)
    z = mc_estimate_z(krs8, 1, w, samples=8, seed=1)
    assert not z.est.any()
    assert simulate_bler(krs8, 1, w, range(8), trials=4, seed=2) == 0.0


@pytest.mark.parametrize("verb", [
    ["polarize", "--samples", "16"],
    ["simulate", "--samples", "16", "--dim", "4", "--trials", "8"],
])
def test_large_kernel_cli(verb, capsys):
    argv = verb + ["--curve", "rational", "--field", "p=2,r=3", "--channel", "qsc:0.05",
                   "--seed", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
