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
several runs concurrently, always yields identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

KINDS = ("fixed", "shuffle_once", "random_reshuffle")

# Domain tag separating permutation streams from other consumers of the
# same user-facing seed.
_PERM_STREAM = 0x5A

__all__ = [
    "Scheme",
    "permutation_for_epoch",
    "without_replacement_variance_factor",
    "descending_gradient_order",
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
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.order is not None:
            if self.kind != "fixed":
                raise ValueError("explicit order is only valid for the fixed scheme")
            arr = np.asarray(self.order, dtype=np.int64)
            if arr.shape != (self.n,) or not np.array_equal(np.sort(arr), np.arange(self.n)):
                raise ValueError("explicit order must be a permutation of 0..n-1")
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


def _uniform_permutation(n: int, seed: int, epoch: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_PERM_STREAM, epoch))
    return np.random.default_rng(ss).permutation(n)


def permutation_for_epoch(scheme: Scheme, epoch: int) -> np.ndarray:
    """Visiting order for the given epoch (1-based), as 0-based indices.

    Deterministic in ``(scheme.kind, scheme.seed, epoch)``.
    """
    if epoch < 1:
        raise ValueError(f"epoch is 1-based, got {epoch}")
    if scheme.kind == "fixed":
        if scheme.order is not None:
            return np.asarray(scheme.order, dtype=np.int64)
        return np.arange(scheme.n, dtype=np.int64)
    if scheme.kind == "shuffle_once":
        return _uniform_permutation(scheme.n, scheme.seed, 1)
    return _uniform_permutation(scheme.n, scheme.seed, epoch)


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


def descending_gradient_order(problem, w) -> tuple[int, ...]:
    """Component order sorted by gradient norm at ``w``, largest first.

    An adversarial fixed ordering used to stress-test claims that hold
    for arbitrary (not just uniformly random) permutations.  Ties break
    by component index for determinism.
    """
    w = np.asarray(w, dtype=float)
    norms = np.array(
        [np.linalg.norm(problem.component_gradient(w, i)) for i in range(problem.n)]
    )
    order = np.lexsort((np.arange(problem.n), -norms))
    return tuple(int(i) for i in order)
