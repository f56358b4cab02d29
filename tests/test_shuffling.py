import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflegrad.shuffling import (
    KINDS,
    Scheme,
    _generator,
    _seed_states,
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


_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200)
_KEYS = ((), (1,), (0x5A, 1), (0x5A, 70), (0x5A, 2**40))


def _reference(seed, key):
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def test_bulk_seed_states_are_seed_sequence_states():
    # one call mixes seeds of 1, 2, 3 and 7 words with keys of 0, 1, 2 and 3 words
    states = _seed_states(_SEEDS, _KEYS)
    assert states.shape == (len(_SEEDS), len(_KEYS), 4) and states.dtype == np.uint64
    for i, seed in enumerate(_SEEDS):
        for j, key in enumerate(_KEYS):
            np.testing.assert_array_equal(states[i, j],
                                          _reference(seed, key).generate_state(4, np.uint64))


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**160), min_size=1, max_size=4),
       keys=st.lists(st.lists(st.integers(0, 2**70), max_size=3).map(tuple),
                     min_size=1, max_size=4))
def test_bulk_seed_states_match_any_seed_and_key(seeds, keys):
    states = _seed_states(seeds, keys)
    for i, seed in enumerate(seeds):
        for j, key in enumerate(keys):
            np.testing.assert_array_equal(states[i, j],
                                          _reference(seed, key).generate_state(4, np.uint64))


@pytest.mark.parametrize("key", _KEYS)
def test_generators_from_seed_states_draw_the_seed_sequence_streams(key):
    for seed, state in zip(_SEEDS, _seed_states(_SEEDS, [key])[:, 0]):
        got, want = _generator(state), np.random.default_rng(_reference(seed, key))
        np.testing.assert_array_equal(got.permutation(50), want.permutation(50))
        for _ in range(3):
            np.testing.assert_array_equal(got.integers(0, 17, size=17),
                                          want.integers(0, 17, size=17))


def test_permutation_for_epoch_is_the_seed_sequence_stream():
    for seed in _SEEDS:
        for epoch in (1, 2, 70, 2**40):
            want = np.random.default_rng(_reference(seed, (0x5A, epoch))).permutation(9)
            scheme = Scheme.random_reshuffle(9, seed)
            np.testing.assert_array_equal(permutation_for_epoch(scheme, epoch), want)
            if epoch == 1:
                np.testing.assert_array_equal(
                    permutation_for_epoch(Scheme.shuffle_once(9, seed), 5), want)


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

