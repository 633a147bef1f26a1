"""Batch and episode construction.

PK batches (P classes, K samples each) feed triplet training; N-way K-shot
episodes feed evaluation. Both draw from one `ClassIndex` per split: the
sorted class ids and each class's row array, built once, so no batch or
episode rescans the labels. `pk_batch` draws a batch in two
`rng.integers` calls, Floyd's selection then a Fisher-Yates shuffle per
draw: for every split of at most 10000 classes and 10000 rows a class,
the rows and generator state of 1 + P `rng.choice(n, k, replace=False)`
calls, which numpy makes alike (`TestPkBatchReplaysChoice` in
tests/test_sampling.py pins this).
Episodes stay on `choice`: each has its own generator, and the fused
draw of 600 5-way episodes of 16 rows came within about 10% of theirs
(about 40 ms either way). Episode randomness is derived per-index from
a master seed with a fixed 64-bit avalanche mix, so episode i has the
same content no matter how many episodes run or in what order.
`episode_rows` draws a whole episode set up front as one E x N x (K+Q)
int64 row array, 8 bytes per row (640 B for a 5-way episode of 16 rows
per class), so a caller that scores the same episodes many times draws
them once. `negative_classes` draws wrong classes, for blends and label noise.
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

    `order` holds every row of the split sorted by class, and class i's
    rows are the `sizes[i]` rows of it from `offsets[i]`; `rows` maps each
    class id to that (read-only) slice. Build it once per split with `for_episodes`, which checks the class
    and per-class row counts an episode needs, or with the constructor
    when the caller has checked the counts its draws need already; `draw`
    then samples from it without rescanning the labels.
    """

    def __init__(self, labels: np.ndarray):
        labels = np.asarray(labels)
        # a stable sort keeps each class's rows ascending: `order` is every
        # row, class-sorted, and class i's rows are the slice of `sizes[i]`
        # rows from `offsets[i]`
        order = np.argsort(labels, kind="stable").astype(np.int64)
        order.flags.writeable = False
        classes, sizes = np.unique(labels[order], return_counts=True)
        self.classes = tuple(int(c) for c in classes)
        self.order = order
        self.sizes = sizes.tolist()
        self.offsets = (np.cumsum(sizes) - sizes).tolist()
        self.rows = {
            c: order[o : o + n]
            for c, o, n in zip(self.classes, self.offsets, self.sizes)
        }
        self._pk_bounds = {}

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

    def pk_bounds(self, p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """`pk_batch`'s draw bounds for P x K batches, built on first use:
        `_choice_bounds(C, P)`, and a C x (2K - 1) array of each class's
        `_choice_bounds(n_c, K)`."""
        if (p, k) not in self._pk_bounds:
            if p > len(self.classes) or k > min(self.sizes):
                raise DataError(f"no {p} classes of {k} rows for a PK batch")
            self._pk_bounds[p, k] = (
                np.array(_choice_bounds(len(self.classes), p), dtype=np.int64),
                np.array([_choice_bounds(n, k) for n in self.sizes], dtype=np.int64),
            )
        return self._pk_bounds[p, k]

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


def _choice_bounds(n: int, k: int) -> list[int]:
    """Inclusive upper bounds of the 2k - 1 draws that numpy's
    `Generator.choice(n, k, replace=False)` makes in Floyd's branch: one
    per step j = n-k..n-1 of Floyd's selection, then one per step
    i = k-1..1 of the shuffle."""
    return list(range(n - k, n)) + list(range(k - 1, 0, -1))


def _choice_replay(draws: list[int], n: int, k: int, start: int = 0) -> list[int]:
    """start + the values `Generator.choice(n, k, replace=False)` returns
    in Floyd's branch, given the draws it makes on `_choice_bounds(n, k)`."""
    out, seen = [], set()
    for j, v in zip(range(start + n - k, start + n), draws):
        v += start
        if v in seen:
            v = j
        seen.add(v)
        out.append(v)
    for i, j in zip(range(k - 1, 0, -1), draws[k:]):
        out[i], out[j] = out[j], out[i]
    return out


def pk_batch(index: ClassIndex, spec: PKSpec, rng: np.random.Generator) -> np.ndarray:
    """Row indices of one PK batch: P classes drawn without replacement,
    then K distinct rows per class, class-major order.

    index is the split's `ClassIndex`; `pk_bounds` refuses one without
    P classes of K rows each (`trainer.check_feasible` checks first).

    Each k-of-n draw is Floyd's selection, one Lemire-bounded draw in
    [0, j] for j = n-k..n-1, then a Fisher-Yates shuffle, one in [0, i]
    for i = k-1..1: uniform and ordered at any n, in O(k).
    `rng.integers(0, bounds, endpoint=True)` with array bounds makes the
    bounded draws in order, so two such calls, one for the classes and
    one for every drawn class's rows, feed the whole batch. For n <= 10000
    numpy's `choice(n, k, replace=False)` makes the same draws, so the
    batch and the generator state it leaves are `index.draw(P, K, rng)`'s
    (above it numpy shuffles a tail of arange(n) instead).
    """
    p, k = spec.p_classes, spec.k_samples
    class_bounds, row_bounds = index.pk_bounds(p, k)
    drawn = _choice_replay(
        rng.integers(0, class_bounds, endpoint=True).tolist(), len(index.classes), p
    )
    offsets, sizes = index.offsets, index.sizes
    flat = []
    for ci, draws in zip(
        drawn, rng.integers(0, row_bounds[drawn], endpoint=True).tolist()
    ):
        flat += _choice_replay(draws, sizes[ci], k, offsets[ci])
    return index.order[flat]


def negative_classes(
    rng: np.random.Generator, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """One uniform class other than labels[i] per row, from a single
    vector draw: the same stream as one scalar
    `rng.integers(0, num_classes - 1)` draw per row, in row order.
    Unchecked: `interfere_batch` checks num_classes >= 2 and the label
    range on every call, `trainer.train` once per run."""
    k = rng.integers(0, num_classes - 1, size=labels.shape[0])
    return k + (k >= labels)


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
