import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflegrad import shuffling
from shufflegrad.shuffling import (
    KINDS,
    Scheme,
    _Orders,
    permutation_for_epoch,
    without_replacement_variance_factor,
)


@pytest.mark.parametrize("kind", ["fixed", "shuffle_once", "random_reshuffle"])
def test_every_epoch_is_a_permutation(kind):
    scheme = Scheme(kind, n=7, seed=3)
    for epoch in range(1, 12):
        perm = permutation_for_epoch(scheme, epoch)
        assert np.array_equal(np.sort(perm), np.arange(7))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 60), seed=st.integers(0, 2**64 - 1),
       epoch=st.integers(1, 10**6), data=st.data())
def test_every_scheme_draws_permutations(kind, n, seed, epoch, data):
    order = data.draw(st.none() | st.permutations(range(n))) if kind == "fixed" else None
    scheme = Scheme(kind, n, seed, order)
    perm = permutation_for_epoch(scheme, epoch)
    assert sorted(perm.tolist()) == list(range(n))
    if kind == "fixed":
        assert perm.tolist() == list(range(n) if order is None else order)
    if kind == "shuffle_once":
        assert np.array_equal(perm, permutation_for_epoch(scheme, 1))


def test_fixed_defaults_to_natural_order():
    scheme = Scheme.fixed(5)
    for epoch in (1, 4, 9):
        assert np.array_equal(permutation_for_epoch(scheme, epoch), np.arange(5))


def test_fixed_explicit_order_repeats():
    order = (2, 0, 3, 1)
    scheme = Scheme.fixed(4, order=order)
    for epoch in (1, 2, 7):
        assert tuple(permutation_for_epoch(scheme, epoch)) == order


def test_shuffle_once_reuses_first_epoch():
    scheme = Scheme.shuffle_once(20, seed=11)
    first = permutation_for_epoch(scheme, 1)
    for epoch in (2, 3, 50):
        assert np.array_equal(permutation_for_epoch(scheme, epoch), first)


def test_random_reshuffle_changes_between_epochs():
    scheme = Scheme.random_reshuffle(30, seed=5)
    perms = [tuple(permutation_for_epoch(scheme, t)) for t in range(1, 6)]
    assert len(set(perms)) > 1


def test_same_seed_reproduces_and_seeds_differ():
    a = Scheme.random_reshuffle(12, seed=9)
    b = Scheme.random_reshuffle(12, seed=9)
    c = Scheme.random_reshuffle(12, seed=10)
    assert np.array_equal(permutation_for_epoch(a, 3), permutation_for_epoch(b, 3))
    differs = any(
        not np.array_equal(permutation_for_epoch(a, t), permutation_for_epoch(c, t))
        for t in range(1, 5)
    )
    assert differs


def test_epoch_query_order_does_not_matter():
    scheme = Scheme.random_reshuffle(15, seed=2)
    late_first = permutation_for_epoch(scheme, 40)
    _ = [permutation_for_epoch(scheme, t) for t in range(1, 10)]
    assert np.array_equal(permutation_for_epoch(scheme, 40), late_first)


def test_epoch_is_one_based():
    scheme = Scheme.fixed(3)
    with pytest.raises(ValueError):
        permutation_for_epoch(scheme, 0)


def test_scheme_validation():
    with pytest.raises(ValueError):
        Scheme("sorted", n=3)
    with pytest.raises(ValueError):
        Scheme("fixed", n=0)
    with pytest.raises(ValueError):
        Scheme("random_reshuffle", n=4, seed=-1)
    with pytest.raises(ValueError):
        Scheme.fixed(3, order=(0, 1, 1))
    with pytest.raises(ValueError):
        Scheme.fixed(3, order=(0, 1))
    with pytest.raises(ValueError):
        Scheme("shuffle_once", n=3, seed=0, order=(0, 1, 2))


def test_seed_and_epoch_must_be_integers():
    # a float seed would lose its fraction in the split into words
    for seed in (1.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            Scheme("random_reshuffle", 4, seed=seed)
    scheme = Scheme("random_reshuffle", 4, seed=np.uint64(3))
    assert type(scheme.seed) is int and scheme.seed == 3
    for epoch in (1.5, 2.0, "3"):
        with pytest.raises(ValueError, match="epoch must be a non-negative integer"):
            permutation_for_epoch(scheme, epoch)
    np.testing.assert_array_equal(permutation_for_epoch(scheme, np.int64(2)),
                                  permutation_for_epoch(scheme, 2))


# The stream definition, in Python ints masked to 64 bits.
_M, _G = 2**64 - 1, 0x9E3779B97F4A7C15


def _mix(z):
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _M
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _M
    return z ^ z >> 31


def _row_key(seed, tag):
    r = _mix((seed & _M) + tag * _G & _M)
    while seed := seed >> 64:
        r = _mix(r + (seed & _M) & _M)
    return r


def _keys(seed, tag, t, n):
    s = _mix(_row_key(seed, tag) + t * _G & _M)
    return [_mix(s + (j + 1) * _G & _M) for j in range(n)]


def reference_order(kind, seed, order, n, t):
    """Epoch t's order of a ``(kind, seed, order)`` row: a stable sort of
    the positions by key, or an sgd row's multiply-shift indices."""
    if kind == "fixed":
        return list(range(n)) if order is None else list(order)
    if kind == "sgd":
        return [(k >> 32) * n >> 32 for k in _keys(seed, 1, t, n)]
    keys = _keys(seed, 0x5A, t if kind == "random_reshuffle" else 1, n)
    return sorted(range(n), key=keys.__getitem__)


_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200)


def test_row_keys_are_the_reference_keys():
    # one word, the largest one-word seed, and seeds of 2 and 4 words
    assert _row_key(0, 0x5A) == _mix(0x5A * _G & _M)
    assert _row_key(2**64, 1) == _mix(_mix(_G) + 1)
    tags = [0x5A, 1] * len(_SEEDS)
    seeds = [s for s in _SEEDS for _ in (0x5A, 1)]
    np.testing.assert_array_equal(shuffling._row_keys(seeds, tags),
                                  np.array(list(map(_row_key, seeds, tags)), np.uint64))


def test_permutation_for_epoch_is_the_reference_stream():
    for seed in _SEEDS:
        for epoch in (1, 2, 70, 2**40):
            want = reference_order("random_reshuffle", seed, None, 9, epoch)
            scheme = Scheme.random_reshuffle(9, seed)
            assert permutation_for_epoch(scheme, epoch).tolist() == want
            if epoch == 1:
                assert permutation_for_epoch(Scheme.shuffle_once(9, seed), 5).tolist() == want


_seeds = st.integers(0, 2**70 - 1) | st.sampled_from([2**64 - 1, 2**64])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2100), t=st.integers(1, 2**40), data=st.data(),
       rows=st.lists(st.tuples(st.sampled_from(KINDS + ("sgd",)), _seeds), min_size=1,
                     max_size=4))
def test_orders_are_the_reference_orders(n, t, data, rows):
    rows = [(kind, seed, data.draw(st.none() | st.permutations(range(n)))
             if kind == "fixed" else None) for kind, seed in rows]
    orders = _Orders(rows, n)
    orders.draw(t)
    for row, got in zip(rows, orders.block):
        assert got.tolist() == reference_order(*row, n, t)
        kind, seed, order = row
        if kind != "sgd":
            scheme = Scheme(kind, n, seed, order and tuple(order))
            assert permutation_for_epoch(scheme, t).tolist() == got.tolist()


def test_reshuffle_frequencies_are_uniform():
    # chi-square style frequency check over all 3! = 6 orders
    scheme = Scheme.random_reshuffle(3, seed=71)
    counts = {perm: 0 for perm in itertools.permutations(range(3))}
    epochs = 6000
    for t in range(1, epochs + 1):
        counts[tuple(int(i) for i in permutation_for_epoch(scheme, t))] += 1
    for perm, count in counts.items():
        assert abs(count / epochs - 1 / 6) < 0.02, (perm, count)


def test_variance_factor_values():
    assert without_replacement_variance_factor(2, 1) == Fraction(1)
    assert without_replacement_variance_factor(5, 5) == 0
    assert without_replacement_variance_factor(5, 2) == Fraction(3, 8)
    assert isinstance(without_replacement_variance_factor(7, 3), Fraction)


def test_variance_factor_domain():
    with pytest.raises(ValueError):
        without_replacement_variance_factor(1, 1)
    with pytest.raises(ValueError):
        without_replacement_variance_factor(4, 0)
    with pytest.raises(ValueError):
        without_replacement_variance_factor(4, 5)

