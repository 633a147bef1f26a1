"""Batch and episode construction.

PK batches (P classes, K samples each) feed triplet training; N-way K-shot
episodes feed evaluation. Both draw from one `ClassIndex` per split: the
sorted class ids and each class's row array, built once, so no batch or
episode rescans the labels. Episode randomness is derived per-index from
a master seed with a fixed 64-bit avalanche mix, so episode i has the
same content no matter how many episodes run or in what order.
`episode_rows` draws a whole episode set up front as one E x N x (K+Q)
int64 row array, 8 bytes per row (640 B for a 5-way episode of 16 rows
per class), so a caller that scores the same episodes many times draws
them once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, InputError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class PKSpec:
    """P classes per batch, K samples per class (batch size P*K)."""

    p_classes: int
    k_samples: int

    def __post_init__(self):
        if self.p_classes < 2:
            raise ConfigurationError(
                f"p_classes must be >= 2 (need a negative class), got {self.p_classes}"
            )
        if self.k_samples < 2:
            raise ConfigurationError(
                f"k_samples must be >= 2 (need a positive), got {self.k_samples}"
            )

    @property
    def batch_size(self) -> int:
        return self.p_classes * self.k_samples


@dataclass
class Episode:
    """One N-way K-shot evaluation task with Q queries per class.

    Labels are relabeled 0..N-1 in sampled-class order; class_ids maps them
    back. Index arrays point into the split the episode was drawn from.
    """

    n_way: int
    k_shot: int
    q_queries: int
    support_features: np.ndarray
    support_labels: np.ndarray
    query_features: np.ndarray
    query_labels: np.ndarray
    class_ids: tuple[int, ...]
    support_indices: np.ndarray
    query_indices: np.ndarray


def child_seed(master_seed: int, index: int) -> int:
    """Mix (master_seed, index) into an independent 64-bit stream seed.

    splitmix64 finalizer over master_seed + (index + 1) * golden-gamma;
    stable across releases — serialized run provenance depends on it.
    """
    if index < 0:
        raise InputError(f"index must be >= 0, got {index}")
    x = (int(master_seed) + (index + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class ClassIndex:
    """Sorted class ids of one split and each class's ascending row array.

    Build it once per split with `for_episodes`, which checks the class
    and per-class row counts an episode needs, or with the constructor
    when the caller has checked the counts its draws need already; `draw`
    then samples from it without rescanning the labels.
    """

    def __init__(self, labels: np.ndarray):
        labels = np.asarray(labels)
        self.classes = tuple(int(c) for c in np.unique(labels))
        self.rows = {c: np.flatnonzero(labels == c) for c in self.classes}

    @classmethod
    def for_episodes(
        cls, labels: np.ndarray, n_way: int, k_shot: int, q_queries: int
    ) -> "ClassIndex":
        """Index for N-way K-shot episodes with Q queries per class: at
        least N classes, every one with K + Q rows."""
        if n_way < 2:
            raise ConfigurationError(f"n_way must be >= 2, got {n_way}")
        if k_shot < 1 or q_queries < 1:
            raise ConfigurationError("k_shot and q_queries must be >= 1")
        index = cls(labels)
        if len(index.classes) < n_way:
            raise DataError(
                f"need {n_way} classes for the episode, split has {len(index.classes)}"
            )
        need = k_shot + q_queries
        for c, rows in index.rows.items():
            if len(rows) < need:
                raise DataError(
                    f"class {c} has {len(rows)} samples, episode needs {need}"
                )
        return index

    def draw(
        self, n_classes: int, per_class: int, rng: np.random.Generator
    ) -> tuple[tuple[int, ...], np.ndarray]:
        """n_classes classes without replacement, then per_class distinct
        rows of each: (class ids in drawn order, n_classes x per_class rows)."""
        drawn = rng.choice(len(self.classes), size=n_classes, replace=False)
        class_ids = tuple(self.classes[int(ci)] for ci in drawn)
        out = np.empty((n_classes, per_class), dtype=np.int64)
        for slot, c in enumerate(class_ids):
            rows = self.rows[c]
            out[slot] = rows[rng.choice(len(rows), size=per_class, replace=False)]
        return class_ids, out


def pk_batch(index: ClassIndex, spec: PKSpec, rng: np.random.Generator) -> np.ndarray:
    """Row indices of one PK batch: P classes drawn without replacement,
    then K distinct rows per class, class-major order.

    index is the split's `ClassIndex`; the caller has checked that it
    holds at least P classes of K rows each (`trainer.check_feasible`).
    """
    _, rows = index.draw(spec.p_classes, spec.k_samples, rng)
    return rows.reshape(-1)


def episode_rows(
    labels: np.ndarray,
    n_way: int,
    k_shot: int,
    q_queries: int,
    episodes: int,
    master_seed: int,
) -> np.ndarray:
    """Rows of `episodes` N-way episodes, K support then Q query rows per
    class: an episodes x n_way x (k_shot + q_queries) int64 array.

    Episode i is drawn with child_seed(master_seed, i), the draw
    `sample_episode` makes from that seed.
    """
    if episodes < 1:
        raise ConfigurationError(f"episodes must be >= 1, got {episodes}")
    index = ClassIndex.for_episodes(labels, n_way, k_shot, q_queries)
    rows = np.empty((episodes, n_way, k_shot + q_queries), dtype=np.int64)
    for i in range(episodes):
        rng = np.random.default_rng(child_seed(master_seed, i))
        rows[i] = index.draw(n_way, k_shot + q_queries, rng)[1]
    return rows


def sample_episode(
    features: np.ndarray,
    labels: np.ndarray,
    n_way: int,
    k_shot: int,
    q_queries: int,
    rng: np.random.Generator,
) -> Episode:
    """Draw one N-way K-shot episode with Q queries per class.

    N classes without replacement; per class K+Q distinct rows, the first K
    to support; episode labels are 0..N-1 in sampled order.
    """
    index = ClassIndex.for_episodes(labels, n_way, k_shot, q_queries)
    features = np.asarray(features)
    class_ids, rows = index.draw(n_way, k_shot + q_queries, rng)
    sup_idx = rows[:, :k_shot].reshape(-1)
    qry_idx = rows[:, k_shot:].reshape(-1)
    return Episode(
        n_way=n_way,
        k_shot=k_shot,
        q_queries=q_queries,
        support_features=features[sup_idx],
        support_labels=np.repeat(np.arange(n_way, dtype=np.int64), k_shot),
        query_features=features[qry_idx],
        query_labels=np.repeat(np.arange(n_way, dtype=np.int64), q_queries),
        class_ids=class_ids,
        support_indices=sup_idx,
        query_indices=qry_idx,
    )
