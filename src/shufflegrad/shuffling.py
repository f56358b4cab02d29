"""Permutation schemes for epoch-based shuffling methods.

A scheme decides the component visiting order of every epoch.  Three
kinds are supported:

* ``fixed``: the same order every epoch (incremental gradient).  By
  default the natural order ``0..n-1``; an explicit order can be given.
* ``shuffle_once``: one uniform permutation drawn at the first epoch and
  reused for all later epochs.
* ``random_reshuffle``: a fresh uniform permutation every epoch.

Permutations are a pure function of ``(kind, seed, epoch)``: each epoch
gets its own seeded stream, so querying epochs in any order, or from
several runs concurrently, always yields identical results.  Epoch t's
stream is numpy's PCG64 seeded by ``SeedSequence(entropy=seed,
spawn_key=(0x5A, t))``; :func:`_seed_states` computes those seed words
for many (seed, key) pairs in one array pass.  The with-replacement
baseline ``sgd`` draws n uniform indices per epoch from one generator
with ``spawn_key=(1,)``.  :class:`_Orders` holds the orders of a block
of runs, each given as a plain ``(kind, seed, order)`` row, and draws
them epoch by epoch with those bits.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

KINDS = ("fixed", "shuffle_once", "random_reshuffle")

# Domain tag separating permutation streams from other consumers of the
# same user-facing seed.
_PERM_STREAM = 0x5A

__all__ = [
    "Scheme",
    "permutation_for_epoch",
    "without_replacement_variance_factor",
]


@dataclass(frozen=True)
class Scheme:
    """Component ordering policy for one run.

    kind: one of ``fixed``, ``shuffle_once``, ``random_reshuffle``.
    n: number of components (> 0).
    seed: stream seed; unused by ``fixed``.
    order: optional explicit order for ``fixed`` (defaults to 0..n-1).
    """

    kind: str
    n: int
    seed: int = 0
    order: tuple[int, ...] | None = field(default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {KINDS}")
        if self.n <= 0:
            raise ValueError(f"scheme needs n > 0 components, got n={self.n}")
        object.__setattr__(self, "seed", _nonnegative_int(self.seed, "seed"))
        if self.order is not None:
            if self.kind != "fixed":
                raise ValueError("explicit order is only valid for the fixed scheme")
            arr = np.asarray(self.order, dtype=np.int64)
            if arr.shape != (self.n,) or not np.array_equal(np.sort(arr), np.arange(self.n)):
                raise ValueError(
                    f"explicit order must be a permutation of 0..n-1 with n = {self.n}")
            object.__setattr__(self, "order", tuple(int(i) for i in arr))

    @classmethod
    def fixed(cls, n: int, order=None) -> "Scheme":
        return cls("fixed", n, 0, None if order is None else tuple(order))

    @classmethod
    def shuffle_once(cls, n: int, seed: int) -> "Scheme":
        return cls("shuffle_once", n, seed)

    @classmethod
    def random_reshuffle(cls, n: int, seed: int) -> "Scheme":
        return cls("random_reshuffle", n, seed)


def _nonnegative_int(value, what: str) -> int:
    """``value`` as an int, refusing a negative or non-integer one (a
    float seed would lose its fraction in the word split)."""
    try:
        index = operator.index(value)
    except TypeError:
        index = -1
    if index < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return index


# numpy's SeedSequence: a pool of 4 uint32 words and its hash constants
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _words(values) -> list[int]:
    """Little-endian uint32 words of each non-negative integer in turn,
    as SeedSequence splits entropy and spawn keys (0 is one word)."""
    out = []
    for v in values:
        out.append(v & _MASK)
        while v := v >> 32:
            out.append(v & _MASK)
    return out


def _hash_constants(start: int, mult: int, calls: int) -> np.ndarray:
    h = [start]
    for _ in range(calls):
        h.append(h[-1] * mult & _MASK)
    return np.array(h, dtype=np.uint32)


@functools.cache
def _mix_constants(width: int):
    """(xor, multiplier) columns of each hashmix call of a SeedSequence
    with ``width`` entropy words: the pool fill, one (4, 1) pair per
    mixing round (the source row's own entry unused), one per further
    entropy word, and the 8 output words."""
    extra = max(width - _POOL, 0)
    h = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)

    def pair(calls):
        calls = np.asarray(calls)
        return h[calls][:, None], h[calls + 1][:, None]

    # round src mixes row src into every other row; its own entry is unused
    rounds = [pair([_POOL + 3 * src + d - (d >= src) for d in range(_POOL)])
              for src in range(_POOL)]
    words = [pair(range(_POOL * (_POOL + j), _POOL * (_POOL + j + 1))) for j in range(extra)]
    out = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    return pair(range(_POOL)), rounds, words, (out[:-1, None], out[1:, None])


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = v ^ xor
    v *= mult
    v ^= v >> _XSHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> _XSHIFT
    return r


def _pool_states(entropy: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of the SeedSequences whose entropy
    words are the columns of the (width, m) uint32 ``entropy``, as (m, 4)."""
    fill, rounds, words, output = _mix_constants(len(entropy))
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, *fill)
    for src, constants in enumerate(rounds):
        mixed = _mix(pool, _hashmix(pool[src], *constants))
        mixed[src] = pool[src]
        pool = mixed
    for word, constants in zip(entropy[_POOL:], words):
        pool = _mix(pool, _hashmix(word, *constants))
    out = _hashmix(np.concatenate([pool, pool]), *output)
    # word pairs as little-endian uint64, as generate_state joins them
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


def _by_width(word_lists):
    """(indices, (k, width) uint32 array) per distinct length of word list."""
    groups: dict[int, list[int]] = {}
    for i, words in enumerate(word_lists):
        groups.setdefault(len(words), []).append(i)
    return [(np.array(idx), np.fromiter(chain.from_iterable(word_lists[i] for i in idx),
                                        np.uint32, len(idx) * width).reshape(len(idx), width))
            for width, idx in groups.items()]


def _seed_states(seeds, keys) -> np.ndarray:
    """Seed words of every (seed, spawn key) pair, in one array pass.

    ``states[i, j]`` equals ``np.random.SeedSequence(entropy=seeds[i],
    spawn_key=keys[j]).generate_state(4, np.uint64)``, the four words
    PCG64 is seeded with.  Seeds and keys are grouped by their number of
    uint32 words, so integers of any size work.
    """
    states = np.empty((len(seeds), len(keys), 4), dtype=np.uint64)
    for rows, S in _by_width([_words((s,)) for s in seeds]):
        for cols, K in _by_width(list(map(_words, keys))):
            # the key words follow the seed words padded with zeros to the pool
            # size (without a key the pool fill hashes those zeros anyway)
            lo = max(S.shape[1], _POOL)
            E = np.zeros((lo + K.shape[1], len(S), len(K)), dtype=np.uint32)
            E[:S.shape[1]] = S.T[:, :, None]
            E[lo:] = K.T[:, None, :]
            states[rows[:, None], cols] = _pool_states(E.reshape(len(E), -1)).reshape(
                len(S), len(K), 4)
    return states


class _SeedWords:
    """numpy ISeedSequence that hands PCG64 a row of :func:`_seed_states`."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (4, np.uint64):
            raise ValueError("seed words are four uint64 words")
        return self.state


@functools.cache
def _register_seed_words() -> None:
    # numpy.random loads on first use, not at import
    np.random.bit_generator.ISeedSequence.register(_SeedWords)


def _generator(state: np.ndarray) -> np.random.Generator:
    """``default_rng(SeedSequence(...))`` for the SeedSequence whose seed
    words (a row of :func:`_seed_states`) are ``state``."""
    _register_seed_words()
    return np.random.Generator(np.random.PCG64(_SeedWords(state)))


def permutation_for_epoch(scheme: Scheme, epoch: int) -> np.ndarray:
    """Visiting order for the given epoch (1-based), as 0-based indices.

    Deterministic in ``(scheme.kind, scheme.seed, epoch)``.
    """
    epoch = _nonnegative_int(epoch, "epoch")
    if epoch < 1:
        raise ValueError(f"epoch is 1-based, got {epoch}")
    if scheme.kind == "fixed":
        if scheme.order is not None:
            return np.asarray(scheme.order, dtype=np.int64)
        return np.arange(scheme.n, dtype=np.int64)
    if scheme.kind == "shuffle_once":
        epoch = 1
    state = _seed_states([scheme.seed], [(_PERM_STREAM, epoch)])[0, 0]
    return _generator(state).permutation(scheme.n)


# epochs of random_reshuffle orders seeded in one pass; the pass's fixed
# cost is spread over this many draws of a lone run
_RESHUFFLE_CHUNK = 64
_DRAW_ENTRIES = 1024  # most entries of one sgd draw; 4,096 raised a run's peak memory
_SGD_STREAM = (1,)  # the sgd generator's spawn key
_ROW_KINDS = KINDS + ("sgd",)
_identity = functools.cache(np.arange)


class _Orders:
    """Visiting orders of a block of runs: ``block``, an (R, n) array that
    :meth:`draw` writes in place each epoch, row r holding run r's order.

    ``rows[r]`` is run r's ``(kind, seed, order)``: kind is a scheme kind
    or ``"sgd"``, order a fixed run's explicit order (None: ``0..n-1``).
    The seed words come in bulk, with the bits of one seeding per run: the
    shuffle_once and sgd generators at the start (one :func:`_seed_states`
    pass per spawn key), the random_reshuffle seed words of the live rows
    once every ``_RESHUFFLE_CHUNK`` epochs (one pass).  fixed and
    shuffle_once rows are written once.  A random_reshuffle row is
    ``arange(n)`` shuffled in place, the bits of ``permutation(n)``.  An
    sgd row comes from one (k, n) draw per k epochs of the chunk, at most
    ``_DRAW_ENTRIES`` entries (at least one epoch); PCG64 keeps its spare
    32-bit half, so that draw has the bits of k draws of n.
    """

    def __init__(self, rows, n: int, epochs: int):
        self.identity = _identity(n)
        self.rows, self.n, self.epochs = list(rows), n, epochs
        self.block = np.empty((len(self.rows), n), dtype=np.int64)
        # per row: an sgd row's (generator, its drawn rows, last first), a
        # random_reshuffle row's seed words of the chunk's epochs
        self.state = [None] * len(self.rows)
        for r, (kind, _, order) in enumerate(self.rows):
            if kind not in _ROW_KINDS:
                raise ValueError(f"unknown order kind {kind!r}; expected one of {_ROW_KINDS}")
            if kind == "fixed":
                self.block[r] = self.identity if order is None else order
        for kind, key in (("shuffle_once", (_PERM_STREAM, 1)), ("sgd", _SGD_STREAM)):
            for r, (state,) in self._seed(kind, [key]):
                rng = _generator(state)
                if kind == "sgd":
                    self.state[r] = (rng, [])
                else:
                    self.block[r] = rng.permutation(n)

    def _seed(self, kind: str, keys):
        """(row, seed words per key) of every row of ``kind``, in one pass."""
        group = [r for r, row in enumerate(self.rows) if row[0] == kind]
        return zip(group, _seed_states([self.rows[r][1] for r in group], keys)) if group else ()

    def draw(self, t: int) -> None:
        """Write epoch t's orders into ``block``; epochs come in turn from 1."""
        if (t - 1) % _RESHUFFLE_CHUNK == 0:
            self.first, self.stop = t, min(t + _RESHUFFLE_CHUNK, self.epochs + 1)
            keys = [(_PERM_STREAM, e) for e in range(t, self.stop)]
            for r, words in self._seed("random_reshuffle", keys):
                self.state[r] = words
        for row, (kind, _, _), state in zip(self.block, self.rows, self.state):
            if kind == "random_reshuffle":
                row[:] = self.identity
                _generator(state[t - self.first]).shuffle(row)
            elif kind == "sgd":
                rng, drawn = state
                if not drawn:  # the next epochs' draws, last first
                    k = min(self.stop - t, max(1, _DRAW_ENTRIES // self.n))
                    drawn.extend(rng.integers(0, self.n, size=(k, self.n))[::-1])
                row[:] = drawn.pop()

    def keep(self, mask) -> None:
        """Drop the rows whose ``mask`` entry is False."""
        self.block = self.block[mask]
        self.rows = [row for row, k in zip(self.rows, mask) if k]
        self.state = [state for state, k in zip(self.state, mask) if k]


def without_replacement_variance_factor(n: int, k: int) -> Fraction:
    """Exact shrink factor (n-k)/(k(n-1)) for partial-average variance.

    Averaging the first ``k`` of a uniformly permuted family of ``n``
    vectors has variance equal to this factor times the population
    variance of the family.
    """
    if n < 2:
        raise ValueError(f"need at least two components, got n={n}")
    if k < 1 or k > n:
        raise ValueError(f"prefix length k must satisfy 1 <= k <= n, got k={k}")
    return Fraction(n - k, k * (n - 1))
