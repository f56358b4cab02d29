"""Permutation schemes for epoch-based shuffling methods.

A scheme decides the component visiting order of every epoch.  Three
kinds are supported:

* ``fixed``: the same order every epoch (incremental gradient).  By
  default the natural order ``0..n-1``; an explicit order can be given.
* ``shuffle_once``: one uniform permutation drawn at the first epoch and
  reused for all later epochs.
* ``random_reshuffle``: a fresh uniform permutation every epoch.

Orders are a pure function of ``(kind, seed, epoch)``, from a
counter-based stream in the style of SplitMix64: a run's seed is hashed
once into a row key, and epoch t's keys hash (row key, t, position), so
querying epochs in any order, or from several runs concurrently, always
yields identical results.  A permutation sorts the positions by key; the
with-replacement baseline ``sgd`` maps each key to an index by
multiply-shift.  Permutation and sgd streams use different domain tags.
:class:`_Orders` holds the orders of a block of runs, each given as a
plain ``(kind, seed, order)`` row, and hashes a whole epoch of them in
one array pass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

KINDS = ("fixed", "shuffle_once", "random_reshuffle")

# Domain tag separating permutation streams from other consumers of the
# same user-facing seed (the sgd streams).
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


_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, the golden ratio in 64 bits
_MIX_MULT_A, _MIX_MULT_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFTS = np.uint64(30), np.uint64(27), np.uint64(31)
_SGD_STREAM = 1  # the sgd streams' domain tag
_ROW_KINDS = KINDS + ("sgd",)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser of each entry of the uint64 array ``z``, in
    place (array arithmetic wraps modulo 2**64)."""
    a, b, c = _SHIFTS
    z ^= z >> a
    z *= _MIX_MULT_A
    z ^= z >> b
    z *= _MIX_MULT_B
    z ^= z >> c
    return z


def _word(value: int) -> np.uint64:
    return np.uint64(value & _MASK)


def _row_keys(seeds, tags) -> np.ndarray:
    """The key of each seed's stream with its domain tag: ``mix(w0 +
    tag*G)`` of its lowest 64-bit word w0, then ``mix(r + w)`` per further
    word w, lowest first, so seeds of any size work."""
    keys = _mix(np.array([s & _MASK for s in seeds], dtype=np.uint64)
                + np.array([tag * _GAMMA & _MASK for tag in tags], dtype=np.uint64))
    rest = [s >> 64 for s in seeds]
    while any(rest):
        more = [i for i, w in enumerate(rest) if w]
        keys[more] = _mix(keys[more] + np.array([rest[i] & _MASK for i in more], np.uint64))
        rest = [w >> 64 for w in rest]
    return keys


def _epoch_keys(row_keys: np.ndarray, t: int, n: int) -> np.ndarray:
    """(rows, n) keys of epoch t: ``mix(s + (j+1)*G)`` for position j,
    where ``s = mix(r + t*G)`` is the epoch state of row key r."""
    state = _mix(row_keys + _word(t * _GAMMA))
    return _mix(state[:, None] + np.arange(1, n + 1, dtype=np.uint64) * _word(_GAMMA))


def _permutations(keys: np.ndarray) -> np.ndarray:
    """Each row's positions sorted by key (the array is overwritten).

    The low b bits of a key, b = max(1, bit_length(n - 1)), are replaced
    by its position, so the keys are unique and any sort gives these
    orders: a stable sort of the keys themselves, unless two share their
    top 64 - b bits.  The low bits of the sorted unique keys are their
    argsort, which a sort of values gives faster than ``argsort``.
    """
    n = keys.shape[-1]
    b = np.uint64(max(1, (n - 1).bit_length()))
    keys >>= b
    keys <<= b
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=-1)
    keys &= (np.uint64(1) << b) - np.uint64(1)
    return keys.view(np.int64)


def _indices(keys: np.ndarray) -> np.ndarray:
    """Lemire's multiply-shift ``((k >> 32) * n) >> 32`` of each key: an
    index below n, at most n/2**32 from uniform (the array is overwritten)."""
    n = keys.shape[-1]
    keys >>= np.uint64(32)
    keys *= np.uint64(n)
    keys >>= np.uint64(32)
    return keys.view(np.int64)


def permutation_for_epoch(scheme: Scheme, epoch: int) -> np.ndarray:
    """Visiting order for the given epoch (1-based), as 0-based indices.

    Deterministic in ``(scheme.kind, scheme.seed, epoch)``: the one-row
    case of :class:`_Orders`.
    """
    epoch = _nonnegative_int(epoch, "epoch")
    if epoch < 1:
        raise ValueError(f"epoch is 1-based, got {epoch}")
    orders = _Orders([(scheme.kind, scheme.seed, scheme.order)], scheme.n)
    orders.draw(epoch)
    return orders.block[0]


class _Orders:
    """Visiting orders of a block of runs: ``block``, an (R, n) array that
    :meth:`draw` writes in place each epoch, row r holding run r's order.

    ``rows[r]`` is run r's ``(kind, seed, order)``: kind is a scheme kind
    or ``"sgd"``, order a fixed run's explicit order (None: ``0..n-1``).
    fixed and shuffle_once rows are written once, at the start.  Each
    epoch, one pass hashes the epoch keys of every random_reshuffle row
    (sorted into permutations) and every sgd row (mapped to indices).
    """

    def __init__(self, rows, n: int):
        rows = list(rows)
        kinds = np.array([kind for kind, _, _ in rows], dtype=object)
        self.n = n
        self.block = np.empty((len(rows), n), dtype=np.int64)
        for r, (kind, _, order) in enumerate(rows):
            if kind not in _ROW_KINDS:
                raise ValueError(f"unknown order kind {kind!r}; expected one of {_ROW_KINDS}")
            if kind == "fixed":
                self.block[r] = np.arange(n) if order is None else order
        # the rows drawn each epoch and every row's stream key
        self.reshuffle, self.sgd = kinds == "random_reshuffle", kinds == "sgd"
        self.keys = _row_keys([seed for _, seed, _ in rows],
                              [_SGD_STREAM if sgd else _PERM_STREAM for sgd in self.sgd])
        once = kinds == "shuffle_once"
        if once.any():
            self.block[once] = _permutations(_epoch_keys(self.keys[once], 1, n))

    def draw(self, t: int) -> None:
        """Write epoch t's orders into ``block``."""
        for mask, orders in ((self.reshuffle, _permutations), (self.sgd, _indices)):
            if mask.any():
                self.block[mask] = orders(_epoch_keys(self.keys[mask], t, self.n))

    def keep(self, mask) -> None:
        """Drop the rows whose ``mask`` entry is False."""
        self.block, self.keys = self.block[mask], self.keys[mask]
        self.reshuffle, self.sgd = self.reshuffle[mask], self.sgd[mask]


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
