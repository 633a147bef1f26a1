"""Batch and episode construction.

PK batches (P classes, K samples each) feed triplet training; N-way K-shot
episodes feed evaluation. Both draw from one `ClassIndex` per split: the
sorted class ids and each class's row array, built once, so no batch or
episode rescans the labels. A batch or an episode is two `rng.integers`
calls, one for the classes and one for every drawn class's rows, each
replayed as Floyd's selection then a Fisher-Yates shuffle: for every
split of at most 10000 classes and 10000 rows a class, the rows and
generator state of 1 + P (or 1 + N) `rng.choice(n, k, replace=False)`
calls, which numpy makes alike (tests/test_sampling.py pins this against
the `choice` oracle in tests/oracles.py). Above those sizes numpy's
`choice` shuffles a tail of arange(n) instead, and the bytes may differ.
Episode randomness is derived per-index from a master seed with a fixed
64-bit avalanche mix, so episode i has the same content no matter how
many episodes run or in what order. `episode_rows` draws a whole episode
set up front into one E x N x (K+Q) int64 row buffer, 8 bytes per row
(640 B for a 5-way episode of 16 rows per class), so a caller that
scores the same episodes many times draws them once. It does not call
`integers` per episode: it replays the draws from each episode
generator's raw 32-bit words by Lemire's method, `_EPISODE_CHUNK`
episodes at a time in a few vectorized passes, and leaves an episode
with a word numpy rejects to the generator. It returns the set as its
(support, query) pair, E x N x K and E x N x Q views of that buffer, so
the support/query split is made here, where the rows are drawn, and
scoring takes no K. An episode set may hold at most
`MAX_EPISODE_ROWS` row indices (`check_episode_set`).
`negative_classes` draws wrong classes, for blends and label noise.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, InputError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# episodes whose row draws one vectorized replay takes at once: its
# buffers are this many episodes' draws, whatever the episode count
_EPISODE_CHUNK = 256
# the most row indices one episode set may hold: 2**28 int64s, 2 GiB
MAX_EPISODE_ROWS = 2**28
# draws with an inclusive bound below this read one 32-bit word each;
# numpy makes the others another way, and episode_rows leaves them to it
_WORD_BOUND = 0xFFFFFFFF


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


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a seed outside [0, 2**64): `child_seed` mixes its master seed
    mod 2**64, so -1 and 2**64 - 1 would draw the same streams."""
    if seed < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {seed}")
    if seed > _MASK64:
        raise ConfigurationError(f"{name} must be < 2**64, got {seed}")


def check_episode_set(
    n_way: int, k_shot: int, q_queries: int, episodes: int, name: str = "episodes"
) -> None:
    """Refuse an episode set whose E x N x (K + Q) row array would hold
    more than MAX_EPISODE_ROWS indices; name is the episode-count setting
    the message names."""
    count = episodes * n_way * (k_shot + q_queries)
    if count > MAX_EPISODE_ROWS:
        raise ConfigurationError(
            f"{name} = {episodes} episodes of {n_way} x ({k_shot} + {q_queries}) "
            f"rows need {count} row indices; at most 2**28 (2 GiB) are allowed"
        )


def child_seed(master_seed: int, index: int) -> int:
    """Mix (master_seed, index) into an independent 64-bit stream seed.

    splitmix64 finalizer over master_seed + (index + 1) * golden-gamma;
    stable across releases — serialized run provenance depends on it.
    master_seed must lie in [0, 2**64) (`check_seed`).
    """
    check_seed(master_seed, "master seed")
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
    class id to that (read-only) slice. Build it once per split with
    `for_episodes`, which checks the class and per-class row counts an
    episode needs, or with the constructor when the caller has checked the
    counts its draws need already; batches and episodes then draw from it
    without rescanning the labels.
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


def _pk_draws(
    index: ClassIndex, p: int, k: int, rng: np.random.Generator
) -> tuple[list[int], np.ndarray]:
    """The two bounded draws of P classes of K rows: the drawn class
    positions, replayed, and the P x (2K - 1) row draws, each row on its
    class's `_choice_bounds`."""
    class_bounds, row_bounds = index.pk_bounds(p, k)
    drawn = _choice_replay(
        rng.integers(0, class_bounds, endpoint=True).tolist(), len(index.classes), p
    )
    return drawn, rng.integers(0, row_bounds[drawn], endpoint=True)


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
    batch and the generator state it leaves are those of 1 + P `choice`
    calls (above it numpy shuffles a tail of arange(n) instead). The rows
    are replayed one class at a time: at P x K = 8 x 4 that beats
    `_floyd_replay`'s vectorized pass.
    """
    k = spec.k_samples
    drawn, draws = _pk_draws(index, spec.p_classes, k, rng)
    offsets, sizes = index.offsets, index.sizes
    flat = []
    for ci, row in zip(drawn, draws.tolist()):
        flat += _choice_replay(row, sizes[ci], k, offsets[ci])
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


def _floyd_replay(draws: np.ndarray, sizes: np.ndarray, k: int) -> np.ndarray:
    """`_choice_replay` of every row at once: row r of the R x (2k - 1)
    draws, made on `_choice_bounds(sizes[r], k)`, gives row r of the
    R x k result, the values `choice(sizes[r], k, replace=False)` returns.
    The loops run over the 2k - 1 steps, each step a few array operations
    on all R rows; the work is laid out step-major, so each step's values
    are contiguous, and the result is a transposed view."""
    n = draws.shape[0]
    steps = draws.T
    out = np.empty((k, n), dtype=np.int64)
    for t in range(k):
        v = steps[t]
        # Floyd: a value already taken is replaced by this step's bound j
        taken = (out[:t] == v).any(axis=0)
        out[t] = np.where(taken, sizes - k + t, v)
    flat, cols = out.reshape(-1), np.arange(n)
    for i, j in zip(range(k - 1, 0, -1), steps[k:]):
        at = j * n + cols
        swapped = flat[at]
        flat[at] = out[i]
        out[i] = swapped
    return out.T


def _episode_set_rows(
    index: ClassIndex, classes: np.ndarray, draws: np.ndarray, out: np.ndarray
) -> None:
    """Write into out (E x N x M) the split rows of E episodes from their
    drawn class positions (E x N) and row draws (E x N x (2M - 1)); one
    episode's arrays may drop the leading E. The draws, C-contiguous, are
    spent: their buffer holds the gathered rows on the way to out."""
    m = out.shape[-1]
    classes = classes.reshape(-1)
    picks = _floyd_replay(
        draws.reshape(-1, 2 * m - 1), np.asarray(index.sizes)[classes], m
    ).T
    picks += np.asarray(index.offsets)[classes]
    # step-major, like picks; every pick is a valid position, so "clip"
    # only skips take's buffer
    gathered = draws.reshape(-1)[: picks.size].reshape(picks.shape)
    np.take(index.order, picks, out=gathered, mode="clip")
    out.reshape(gathered.T.shape)[...] = gathered.T


def _lemire_draws(draws: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Replay numpy's bounded draws from their 32-bit words, in place.

    draws (2-D int64, C-contiguous) holds inclusive bounds b < _WORD_BOUND,
    and words (uint32, the same shape) the word each draw reads. Each bound
    becomes (u * (b + 1)) >> 32, the value `Generator.integers(0, b,
    endpoint=True)` returns from word u (Lemire's method); a bound of 0
    reads no word and stays 0. Returns the rows of draws that hold a draw
    whose word numpy rejects, (u * (b + 1)) mod 2**32 < 2**32 mod (b + 1),
    and replaces with the next word: such a row's values are not numpy's.
    """
    wide = draws.view(np.uint64)
    wide += 1
    # each int64's little-endian halves are now (b + 1, 0): the product's
    # low word goes into the zero half, so the test needs no product buffer
    halves = draws.view("<u4")
    excl, low = halves[:, 0::2], halves[:, 1::2]
    np.multiply(words, excl, out=low)
    # numpy's own first test: the threshold is below b + 1
    maybe = np.nonzero(low < excl)
    threshold = (1 << 32) % excl[maybe].astype(np.uint64)
    rejected = low[maybe] < threshold
    low[...] = 0
    np.multiply(wide, words, out=wide)
    wide >>= 32
    return maybe[0][rejected]


def _word_positions(bounds: np.ndarray, start: int) -> np.ndarray:
    """The index of the 32-bit word that each draw of a row of bounds
    reads, the first nonzero bound reading word start: a bound of 0 reads
    none (its position repeats the one before, or is start)."""
    pos = np.cumsum(bounds != 0, axis=-1, dtype=np.int32)
    pos += start - 1
    return np.maximum(pos, start, out=pos)


def _replayed_classes(
    class_bounds: np.ndarray, words: np.ndarray, class_count: int, n_way: int
) -> tuple[np.ndarray, np.ndarray]:
    """The class positions (E x N) that E episodes' class draws on
    class_bounds give, replayed from the leading words of each row of
    words, and the episodes with a rejected word among them."""
    draws = np.repeat(class_bounds[None, :], len(words), axis=0)
    rejected = _lemire_draws(draws, words[:, _word_positions(class_bounds, 0)])
    return _floyd_replay(draws, class_count, n_way), rejected


def _episode_draws(
    index: ClassIndex, n_way: int, m: int, master_seed: int, episodes: range
) -> tuple[np.ndarray, np.ndarray]:
    """`_pk_draws` of N classes of M rows on the generator of each episode
    i in episodes, seeded child_seed(master_seed, i), replayed from its raw
    words: the drawn class positions (E x N) and the row draws
    (E x N(2M - 1)). An episode with a word that numpy rejects, or every
    episode of a split with a bound of _WORD_BOUND or more, or on a
    big-endian host (the replay reads words as little-endian halves), is
    drawn by `_pk_draws` itself."""
    class_bounds, row_bounds = index.pk_bounds(n_way, m)
    e, per_episode = len(episodes), n_way * (2 * m - 1)
    bound = max(class_bounds.max(), row_bounds.max())
    if bound >= _WORD_BOUND or sys.byteorder != "little":
        classes = np.empty((e, n_way), dtype=np.int64)
        draws = np.empty((e, per_episode), dtype=np.int64)
        redraw = range(e)
    else:
        class_words = int(np.count_nonzero(class_bounds))
        raw = np.empty((e, -(-(class_words + per_episode) // 2)), dtype=np.uint64)
        for row, i in zip(raw, episodes):
            row[...] = np.random.PCG64(child_seed(master_seed, i)).random_raw(len(row))
        words = raw.view("<u4")
        classes, rejected = _replayed_classes(
            class_bounds, words, len(index.classes), n_way
        )
        draws = row_bounds[classes].reshape(e, per_episode)
        if (row_bounds == 0).any():
            # a class of exactly M rows has a bound of 0, which reads no word
            at = _word_positions(draws, class_words)
            row_words = np.take_along_axis(words, at, axis=1)
        else:
            row_words = words[:, class_words : class_words + per_episode]
        redraw = np.union1d(rejected, _lemire_draws(draws, row_words))
    for r in redraw:
        rng = np.random.default_rng(child_seed(master_seed, episodes[r]))
        drawn, again = _pk_draws(index, n_way, m, rng)
        classes[r], draws[r] = drawn, again.reshape(-1)
    return classes, draws


def episode_rows(
    labels: np.ndarray,
    n_way: int,
    k_shot: int,
    q_queries: int,
    episodes: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The (support, query) rows of `episodes` N-way episodes: an
    episodes x n_way x k_shot and an episodes x n_way x q_queries int64
    array, views of one buffer that holds each class's K support rows
    and then its Q query rows. `check_episode_set` bounds its size.

    Episode i is drawn with child_seed(master_seed, i), the draw
    `sample_episode` makes from that seed: `_pk_draws`'s two
    `rng.integers` calls, as for a batch of N classes of K + Q rows. The
    rows are those of 1 + N `choice` calls on that generator, for splits
    of at most 10000 classes and 10000 rows a class (above either, numpy's
    `choice` shuffles a tail of arange(n), and the rows may differ).

    The draws are replayed from the generator's raw words, not made by
    it (`_episode_draws`). `integers` makes each draw with a bound below
    2**32 - 1 from one 32-bit word by Lemire's method, reading the 64-bit
    words of a fresh PCG64 low half first (a bound of 0 reads none), so
    one `random_raw` call per episode gives every word its draws read
    unless numpy rejects one. Each `_EPISODE_CHUNK` episodes then take one
    `_lemire_draws` pass for their class draws, one `_floyd_replay` of the
    classes, one `_lemire_draws` pass for their row draws, at the word
    positions the class draws leave, and one `_floyd_replay` of the rows.
    An episode with a rejected word (odds below (b + 1) / 2**32 a draw)
    is drawn again by `_pk_draws`, as is every episode of a split with a
    bound of 2**32 - 1 or more. The memory the draw holds beyond the
    result is one chunk's, whatever the episode count.
    """
    if episodes < 1:
        raise ConfigurationError(f"episodes must be >= 1, got {episodes}")
    check_episode_set(n_way, k_shot, q_queries, episodes)
    index = ClassIndex.for_episodes(labels, n_way, k_shot, q_queries)
    m = k_shot + q_queries
    rows = np.empty((episodes, n_way, m), dtype=np.int64)
    for lo in range(0, episodes, _EPISODE_CHUNK):
        hi = min(lo + _EPISODE_CHUNK, episodes)
        # unnamed, so that one chunk's draws are freed before the next's
        _episode_set_rows(
            index, *_episode_draws(index, n_way, m, master_seed, range(lo, hi)),
            rows[lo:hi],
        )
    return rows[:, :, :k_shot], rows[:, :, k_shot:]


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
    to support; episode labels are 0..N-1 in sampled order. The draws and
    the generator state they leave are `episode_rows`'s for one episode.
    """
    index = ClassIndex.for_episodes(labels, n_way, k_shot, q_queries)
    features = np.asarray(features)
    drawn, draws = _pk_draws(index, n_way, k_shot + q_queries, rng)
    rows = np.empty((n_way, k_shot + q_queries), dtype=np.int64)
    _episode_set_rows(index, np.asarray(drawn), draws, rows)
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
        class_ids=tuple(index.classes[ci] for ci in drawn),
        support_indices=sup_idx,
        query_indices=qry_idx,
    )
