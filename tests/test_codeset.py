import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agpolar import codeset, linalg
from agpolar.codeset import (
    MonomialIndexSet,
    ag_min_distance,
    brute_min_distance,
    decreasing_closure,
    dual_set,
    generator_matrix,
    is_decreasing,
    is_weakly_decreasing,
    isometry_vector,
    min_distance_bound,
)
from agpolar.curve import custom_curve, hermitian_curve, rational_curve
from agpolar.errors import NotDecreasing, OutOfRange, PreconditionViolated, TooLarge
from agpolar.galois import field_new
from agpolar.polarization import gn_matrix

A2 = [10, 8, 2, 1, 0]  # {y1x2, x2, y1, x1, 1}
A2P = A2 + [9]  # plus x1x2


# -- the set type -------------------------------------------------------


def test_set_roundtrip():
    a = MonomialIndexSet.from_values(2, 8, A2)
    assert a.values() == sorted(A2)
    d = a.serialize()
    assert d["n"] == 2 and d["l"] == 8
    # external digit order is most-significant first: value 10 = y1 x2
    assert [1, 2] in d["members"]
    assert MonomialIndexSet.from_serialized(d).values() == a.values()


def test_set_validation():
    with pytest.raises(OutOfRange):
        MonomialIndexSet.from_values(2, 8, [64])
    with pytest.raises(OutOfRange):
        MonomialIndexSet.from_values(1, 4, [0], shape=(2, 3))


# -- weakly decreasing / decreasing closures ----------------------------


def test_weakly_decreasing_examples(herm4):
    good = MonomialIndexSet.from_values(2, 8, A2)
    assert is_weakly_decreasing(good, herm4)
    lone = MonomialIndexSet.from_values(1, 8, [6])  # {x^2y} alone
    assert not is_weakly_decreasing(lone, herm4)
    assert is_weakly_decreasing(MonomialIndexSet.from_values(1, 8, [0]), herm4)


def test_decreasing_closure_examples(herm4):
    seed = MonomialIndexSet.from_values(2, 8, [10])
    closed = decreasing_closure(seed, herm4)
    assert closed.values() == sorted(A2)
    bigger = decreasing_closure(MonomialIndexSet.from_values(2, 8, A2P), herm4)
    assert bigger.values() == sorted(A2P)
    assert is_decreasing(bigger, herm4)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 63), max_size=6), st.sets(st.integers(0, 63), max_size=6))
def test_closure_operator_laws(va, vb):
    herm4 = test_closure_operator_laws.curve
    a = MonomialIndexSet.from_values(2, 8, va)
    b = MonomialIndexSet.from_values(2, 8, va | vb)
    ca, cb = decreasing_closure(a, herm4), decreasing_closure(b, herm4)
    assert set(a.values()) <= set(ca.values())  # extensive
    assert set(ca.values()) <= set(cb.values())  # monotone
    assert decreasing_closure(ca, herm4).values() == ca.values()  # idempotent


def test_closure_product_shape(gf2):
    r = rational_curve(gf2)
    seed = MonomialIndexSet.from_values(1, 4, [3], shape=(2, 2))
    closed = decreasing_closure(seed, (r, r))
    assert closed.values() == [0, 1, 2, 3]  # componentwise pair divisibility


# -- duals --------------------------------------------------------------


def test_dual_examples(herm4):
    rep = MonomialIndexSet.from_values(1, 8, [0])
    assert dual_set(rep, herm4).values() == list(range(7))  # all but x^3y
    everything = MonomialIndexSet.from_values(1, 8, range(8))
    assert dual_set(everything, herm4).values() == []
    dp = dual_set(MonomialIndexSet.from_values(2, 8, A2P), herm4)
    assert len(dp) == 58
    assert is_decreasing(dp, herm4)


def test_dual_requires_decreasing(herm4):
    with pytest.raises(NotDecreasing):
        dual_set(MonomialIndexSet.from_values(1, 8, [6]), herm4)


def test_dual_involution_and_nesting(herm4):
    c = MonomialIndexSet.from_values(2, 8, [0])
    a = MonomialIndexSet.from_values(2, 8, A2)
    b = MonomialIndexSet.from_values(2, 8, A2P)
    for s in (c, a, b):
        back = dual_set(dual_set(s, herm4), herm4)
        assert back.values() == s.values()
    da, db, dc = (dual_set(s, herm4).values() for s in (a, b, c))
    assert set(db) <= set(da) <= set(dc)


def test_dual_weakly_decreasing_not_always_decreasing(herm4):
    # duals of decreasing sets stay divisor-closed, but the transposition
    # closure can be lost: a concrete counterexample at n = 2
    a = decreasing_closure(
        MonomialIndexSet.from_values(2, 8, [4, 7, 44, 60]), herm4
    )
    d = dual_set(a, herm4)
    assert is_weakly_decreasing(d, herm4)
    assert not is_decreasing(d, herm4)
    # the reflection-complement map is still an involution
    assert dual_set(d).values() == a.values()


def test_dual_orthogonality(kh, herm4):
    # all-ones isometry makes the dual set generate the exact dual code
    a = MonomialIndexSet.from_values(2, 8, A2P)
    ga = generator_matrix(a, kh, 2)
    gd = generator_matrix(dual_set(a, herm4), kh, 2)
    assert linalg.rank(kh.field, ga) + linalg.rank(kh.field, gd) == 64
    assert not linalg.mat_mul(kh.field, ga, gd.T).any()


def test_isometry_vector(herm4, rat4):
    assert isometry_vector(herm4).tolist() == [1] * 8
    v = isometry_vector(rat4)  # verified at every nesting level internally
    assert (v != 0).all() and v[0] == 1
    bad = custom_curve(
        {
            "family": "custom",
            "field": {"p": 2, "r": 3},
            "points": [[0], [1], [2], [3]],
            "gens": [{"name": "t", "pole": 1}],
            "genus": 2,
            "hstar": [0, 1, 2, 5],
            "basis": [[0], [1], [2], [5]],
        }
    )
    with pytest.raises(PreconditionViolated):
        isometry_vector(bad)


# -- generator matrices and distances -----------------------------------


def test_generator_matrix_full(kh, ka):
    full = MonomialIndexSet.from_values(1, 8, range(8))
    assert np.array_equal(generator_matrix(full, kh, 1), kh.matrix)
    full4 = MonomialIndexSet.from_values(2, 2, range(4))
    assert np.array_equal(generator_matrix(full4, ka, 2), gn_matrix(ka, 2))


def test_generator_matrix_constant(kh):
    g = generator_matrix(MonomialIndexSet.from_values(2, 8, [0]), kh, 2)
    assert g.tolist() == [[1] * 64]


def test_generator_matrix_cap(kh):
    with pytest.raises(TooLarge):
        generator_matrix(MonomialIndexSet.from_values(7, 8, range(40)), kh, 7)


def test_brute_min_distance(gf4):
    assert brute_min_distance(gf4, np.eye(4, dtype=int)) == 1
    assert brute_min_distance(gf4, np.ones((1, 8), dtype=int)) == 8
    with pytest.raises(TooLarge):
        brute_min_distance(gf4, np.eye(11, dtype=int))


def test_ag_min_distance_table(herm4):
    # exact enumerated distances of C(D, mQ); the Goppa floor l - m
    # holds but is not always tight
    expect = {0: 8, 2: 6, 3: 5, 4: 4, 5: 3, 6: 2, 7: 2, 9: 1}
    for m, d in expect.items():
        assert ag_min_distance(herm4, m) == d
        if herm4.l - m > 0:
            assert d >= herm4.l - m
    assert ag_min_distance(herm4, 8) == 2  # same code as m = 7
    with pytest.raises(OutOfRange):
        ag_min_distance(herm4, -1)


def test_ag_min_distance_cache_keyed_on_content(gf4, monkeypatch):
    # a freed curve's id can be reused by the next one; make all ids collide
    monkeypatch.setattr(codeset, "id", lambda obj: 0, raising=False)
    codeset._AG_DIST_CACHE.clear()
    for _ in range(2):
        assert ag_min_distance(rational_curve(gf4), 0) == 4
        assert ag_min_distance(hermitian_curve(gf4), 0) == 8
    assert len(codeset._AG_DIST_CACHE) == 2


def test_min_distance_bound_paper_sets(kh, herm4):
    for vals in (A2, A2P):
        a = MonomialIndexSet.from_values(2, 8, vals)
        lower, upper, meta = min_distance_bound(a, herm4, kh, 2)
        exact = brute_min_distance(kh.field, generator_matrix(a, kh, 2))
        assert lower == 30 and upper == 64 and exact == 30
        assert lower <= exact <= upper
        assert meta["k_max"] == [2, 1]


def test_min_distance_bound_trivial(kh, herm4):
    full = MonomialIndexSet.from_values(1, 8, range(8))
    lower, upper, _ = min_distance_bound(full, herm4, kh, 1)
    assert lower == 1 and upper == 1
    rep = MonomialIndexSet.from_values(2, 8, [0])
    lower, upper, _ = min_distance_bound(rep, herm4, kh, 2)
    assert lower == 64 and upper == 64
    with pytest.raises(NotDecreasing):
        min_distance_bound(MonomialIndexSet.from_values(1, 8, [6]), herm4, kh, 1)


@settings(max_examples=15, deadline=None)
@given(st.sets(st.integers(0, 15), min_size=1, max_size=8))
def test_bound_sandwich_random(vals):
    rat4 = test_bound_sandwich_random.curve
    kr = test_bound_sandwich_random.kernel
    a = decreasing_closure(MonomialIndexSet.from_values(2, 4, vals), rat4)
    if len(a) > 10:  # keep the brute-force oracle within its cap
        return
    lower, upper, _ = min_distance_bound(a, rat4, kr, 2)
    exact = brute_min_distance(kr.field, generator_matrix(a, kr, 2))
    assert lower <= exact <= upper


@pytest.fixture(autouse=True)
def _stash_fixtures(request, herm4, rat4, kr):
    # hypothesis-driven tests cannot take function fixtures directly
    test_closure_operator_laws.curve = herm4
    test_bound_sandwich_random.curve = rat4
    test_bound_sandwich_random.kernel = kr
