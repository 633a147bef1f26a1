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
many episodes run or in what order. Training draws an epoch at once: int64
rows and decoy classes (steps x designated) in the order batch t, its
decoys, batch t + 1, by `step_draws` from a one-batch sampler, or by
`pk_epoch` with no `integers` call per step. `episode_rows` gives every
episode's rows as a (support, query) pair of views of one E x N x (K+Q)
buffer, so scoring takes no K. Both replay numpy's draws from the
generator's 32-bit words in one core, `_replay`: `integers` makes a draw
with a bound b below 2**32 - 1 from one word by Lemire's method (b = 0
reads none), and PCG64 hands out each 64-bit word low half first. A word
numpy rejects (odds below (b + 1) / 2**32) is left to the generator, with
the same bits. An episode set's child seeds and numpy's seeding of them
are array passes, and one PCG64, set to each seeded state, hands out every
episode's words. Each rule a draw's inputs must meet has one owner here:
`check_seed` for seeds, `check_array_size` for the 2**28-value budget that
generated arrays and episode sets share, `check_episode_set` for an
episode set's shape, and `ClassIndex.pk_bounds` for a split's classes and
rows, which PK batches and episodes check alike. `negative_classes` draws
wrong classes, for blends and label noise.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DataError, InputError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# episodes whose row draws one vectorized replay takes at once: its
# buffers are this many episodes' draws, whatever the episode count
_EPISODE_CHUNK = 256
# the most values an array that settings size may hold: 2 GiB of 8-byte values
MAX_ARRAY_VALUES = 2**28
# draws with an inclusive bound below this read one 32-bit word each;
# numpy makes the others another way, and the replays leave them to it
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


def check_array_size(what: str, values: int) -> None:
    """Refuse an array of more than MAX_ARRAY_VALUES values; what names
    the settings that size it."""
    if values > MAX_ARRAY_VALUES:
        raise ConfigurationError(
            f"{what} would size an array of {values} values; at most 2**28 "
            "(2 GiB) are allowed"
        )


def check_episode_set(
    n_way: int, k_shot: int, q_queries: int, episodes: int, name: str = "episodes"
) -> None:
    """Refuse an episode set that no draw makes: n_way < 2, k_shot < 1,
    q_queries < 1 or episodes < 1, or an E x N x (K + Q) row array beyond
    `check_array_size`'s budget; name is the episode-count setting the
    messages name."""
    if n_way < 2 or k_shot < 1 or q_queries < 1 or episodes < 1:
        raise ConfigurationError(
            f"episodes need n_way >= 2 and k_shot, q_queries, {name} >= 1; got "
            f"{n_way}, {k_shot}, {q_queries}, {episodes}"
        )
    check_array_size(
        f"{name} = {episodes} episodes of {n_way} x ({k_shot} + {q_queries}) rows",
        episodes * n_way * (k_shot + q_queries),
    )


def _child_seeds(master_seed: int, first: int, count: int) -> np.ndarray:
    """`child_seed(master_seed, i)` of each i in first..first + count - 1,
    as a uint64 array: the splitmix64 mix in wrapping array arithmetic."""
    x = np.arange(count, dtype=np.uint64)
    x += (first + 1) & _MASK64
    x *= _GOLDEN
    x += int(master_seed)
    x ^= x >> 30
    x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= 0x94D049BB133111EB
    x ^= x >> 31
    return x


def child_seed(master_seed: int, index: int) -> int:
    """Mix (master_seed, index) into an independent 64-bit stream seed.

    splitmix64 finalizer over master_seed + (index + 1) * golden-gamma;
    stable across releases — serialized run provenance depends on it.
    master_seed must lie in [0, 2**64) (`check_seed`).
    """
    check_seed(master_seed, "master seed")
    if index < 0:
        raise InputError(f"index must be >= 0, got {index}")
    return int(_child_seeds(master_seed, index, 1)[0])


# the running hash constants, init * mult**k mod 2**32, of numpy's SeedSequence
# (numpy/random/bit_generator.pyx): 16 for its pool of 4, 9 for `generate_state`
_HASH_A, _HASH_B = (
    np.array([init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(n)], np.uint32)[:, None]
    for init, mult, n in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9))
)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _xorshift16(x: np.ndarray) -> np.ndarray:
    x ^= x >> 16
    return x


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` of each seed s of
    seeds (uint64), as a 4 x len(seeds) uint64 array: numpy's hashmix and mix
    on uint32 rows, where a seed below 2**32 (one entropy word) mixes as a
    zero high word would."""
    entropy = np.zeros((4, len(seeds)), dtype=np.uint32)
    entropy[0], entropy[1] = seeds & 0xFFFFFFFF, seeds >> 32
    pool = _xorshift16((entropy ^ _HASH_A[:4]) * _HASH_A[1:5])
    for src in range(4):
        # each other word, in order, mixes with its own hash of this one
        dst, k = [d for d in range(4) if d != src], 4 + 3 * src
        hashed = _xorshift16((pool[src] ^ _HASH_A[k : k + 3]) * _HASH_A[k + 1 : k + 4])
        pool[dst] = _xorshift16(pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R)
    state = _xorshift16((np.tile(pool, (2, 1)) ^ _HASH_B[:8]) * _HASH_B[1:]).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def _raw_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """`np.random.PCG64(s).random_raw(count)` of each seed s of seeds
    (uint64), as a len(seeds) x count uint64 array. PCG64 seeds itself
    from `_seed_words` (initstate, initseq: two 128-bit words, high first)
    in two LCG steps, here in Python ints: inc = 2 initseq + 1, state =
    (inc + initstate) M + inc, mod 2**128; one PCG64 set to each draws."""
    raw = np.empty((len(seeds), count), dtype=np.uint64)
    bits = np.random.PCG64(0)
    for row, s_hi, s_lo, q_hi, q_lo in zip(raw, *_seed_words(seeds).tolist()):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        row[...] = bits.random_raw(count)
    return raw


class ClassIndex:
    """Sorted class ids of one split and each class's ascending rows.

    `order` holds every row of the split sorted by class, and class i's
    rows are the `sizes[i]` rows of it from `offsets[i]`. Build it once
    per split; batches and episodes then draw from it without rescanning
    the labels. `pk_bounds` is the one check that a split holds what a
    draw of P classes of K rows needs, for PK batches and for episodes
    (K + Q rows a class) alike.
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
        self._pk_bounds = {}

    def pk_bounds(self, p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The draw bounds of P classes of K rows, built on first use:
        `_choice_bounds(C, P)`, and a C x (2K - 1) array of each class's
        `_choice_bounds(n_c, K)`. Refuses a split of fewer than P classes,
        or with a class of fewer than K rows, naming the first."""
        if (p, k) not in self._pk_bounds:
            if p > len(self.classes):
                raise DataError(f"split has {len(self.classes)} classes, a draw needs {p}")
            short = next((i for i, n in enumerate(self.sizes) if n < k), None)
            if short is not None:
                c, n = self.classes[short], self.sizes[short]
                raise DataError(f"class {c} has {n} rows, a draw needs {k}")
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


def _choice_replay(draws: list[int], n: int, k: int) -> list[int]:
    """The values `Generator.choice(n, k, replace=False)` returns in
    Floyd's branch, given the draws it makes on `_choice_bounds(n, k)`."""
    out, seen = [], set()
    for j, v in zip(range(n - k, n), draws):
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
    positions, replayed, and the P(2K - 1) row draws, each class's 2K - 1
    on its `_choice_bounds`."""
    class_bounds, row_bounds = index.pk_bounds(p, k)
    drawn = _choice_replay(
        rng.integers(0, class_bounds, endpoint=True).tolist(), len(index.classes), p
    )
    return drawn, rng.integers(0, row_bounds[drawn], endpoint=True).reshape(-1)


def pk_batch(index: ClassIndex, spec: PKSpec, rng: np.random.Generator) -> np.ndarray:
    """Row indices of one PK batch: P classes drawn without replacement,
    then K distinct rows per class, class-major order.

    index is the split's `ClassIndex`; `pk_bounds` refuses one without
    P classes of K rows each (`trainer.check_feasible` checks first).

    Each k-of-n draw is Floyd's selection, one Lemire-bounded draw in
    [0, j] for j = n-k..n-1, then a Fisher-Yates shuffle, one in [0, i]
    for i = k-1..1: uniform and ordered at any n, in O(k). Two
    `rng.integers` calls with array bounds make them in order, one for
    the classes and one for every drawn class's rows, replayed by one
    `_floyd_replay`. Training draws an epoch's batches with `pk_epoch`,
    the bits of one `pk_batch` a step, which the tests check against
    this one-batch draw.
    """
    drawn, draws = _pk_draws(index, spec.p_classes, spec.k_samples, rng)
    rows = np.empty((spec.p_classes, spec.k_samples), dtype=np.int64)
    _episode_set_rows(index, np.asarray(drawn), draws, rows)
    return rows.reshape(-1)


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


def _replay(index: ClassIndex, p: int, m: int,
            words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_pk_draws` of P classes of M rows replayed from the leading 32-bit
    words of each of the R rows of words: class positions (R x P), row
    draws (R x P(2M - 1)) and the rows with a word numpy rejects."""
    class_bounds, row_bounds = index.pk_bounds(p, m)
    class_words, width = int(np.count_nonzero(class_bounds)), p * (2 * m - 1)
    draws = np.repeat(class_bounds[None, :], len(words), axis=0)
    rejected = _lemire_draws(draws, words[:, _word_positions(class_bounds, 0)])
    classes = _floyd_replay(draws, len(index.classes), p)
    draws = row_bounds[classes].reshape(len(words), width)
    if (row_bounds == 0).any():
        # a class of exactly M rows has a bound of 0, which reads no word
        at = _word_positions(draws, class_words)
        row_words = np.take_along_axis(words, at, axis=1)
    else:
        row_words = words[:, class_words : class_words + width]
    return classes, draws, np.union1d(rejected, _lemire_draws(draws, row_words))


def _episode_draws(
    index: ClassIndex, n_way: int, m: int, master_seed: int, episodes: range
) -> tuple[np.ndarray, np.ndarray]:
    """`_pk_draws` of N classes of M rows on the generator of each episode
    i in episodes (a range), seeded child_seed(master_seed, i), replayed
    from its first NM + N // 2 raw words: class positions (E x N) and row
    draws (E x N(2M - 1)). An episode with a rejected word, or every one of
    a split with a bound of _WORD_BOUND or more or on a big-endian host
    (the replay reads little-endian halves), is drawn by `_pk_draws`."""
    class_bounds, row_bounds = index.pk_bounds(n_way, m)
    e, bound = len(episodes), max(class_bounds.max(), row_bounds.max())
    if bound >= _WORD_BOUND or sys.byteorder != "little":
        classes = np.empty((e, n_way), dtype=np.int64)
        draws = np.empty((e, n_way * (2 * m - 1)), dtype=np.int64)
        redraw = range(e)
    else:
        seeds = _child_seeds(master_seed, episodes.start, e)
        words = _raw_words(seeds, n_way * m + n_way // 2).view("<u4")
        classes, draws, redraw = _replay(index, n_way, m, words)
    for r in redraw:
        rng = np.random.default_rng(child_seed(master_seed, episodes[r]))
        classes[r], draws[r] = _pk_draws(index, n_way, m, rng)
    return classes, draws


def _next_words(rng: np.random.Generator, count: int) -> np.ndarray:
    """Take the next count 32-bit words that rng's PCG64 gives bounded
    draws: a pending high half, then `random_raw`'s words, low half first,
    leaving numpy's state (a spent last high half stays in it)."""
    bits, words = rng.bit_generator, np.empty(count, dtype=np.uint32)
    state = bits.state
    pending = min(state["has_uint32"], count)
    raw = bits.random_raw(-(-(count - pending) // 2))
    words[:pending], words[pending:] = state["uinteger"], raw.view("<u4")[: count - pending]
    if raw.size:
        state = bits.state
        state["has_uint32"], state["uinteger"] = (count - pending) % 2, int(raw[-1] >> 32)
    elif pending:
        state["has_uint32"] = 0
    bits.state = state
    return words


def pk_epoch(index: ClassIndex, spec: PKSpec, rng: np.random.Generator, steps: int,
             designated: int, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows (steps x P*K) and decoys (steps x designated) of `steps`
    steps: the bits and final state of `step_draws` on `pk_batch`. A step
    reads a fixed block of words, so one `_next_words` call feeds the
    epoch and one `_replay` its batches. It draws step by step, from its
    starting state, on a rejected word, a class of exactly K rows (whose
    bound of 0 reads no word), a bound of 2**32 - 1 or more, another bit
    generator than PCG64 or a big-endian host."""
    p, k = spec.p_classes, spec.k_samples
    class_bounds, row_bounds = index.pk_bounds(p, k)
    decoy_bound, per_step = num_classes - 2, p * (2 * k - 1)
    wrong = np.full((steps, designated), decoy_bound, dtype=np.int64)
    bits, bound = rng.bit_generator, max(class_bounds.max(), row_bounds.max(), decoy_bound)
    saved, rejected = bits.state, not isinstance(bits, np.random.PCG64) or (
        sys.byteorder != "little" or row_bounds.min() == 0 or bound >= _WORD_BOUND)
    if not rejected:
        width = int(np.count_nonzero(class_bounds)) + per_step
        width += designated * (decoy_bound > 0)
        words = _next_words(rng, steps * width).reshape(steps, width)
        classes, draws, bad = _replay(index, p, k, words)
        # a decoy bound of 0 reads no word: it gives 0 on any word, rejecting none
        rejected = bad.size or _lemire_draws(wrong, words[:, width - designated :]).size
    if rejected:
        bits.state = saved
        classes, draws = np.empty((steps, p), np.int64), np.empty((steps, per_step), np.int64)
        for t in range(steps):
            classes[t], draws[t] = _pk_draws(index, p, k, rng)
            wrong[t] = rng.integers(0, num_classes - 1, size=designated)
    rows = np.empty((steps, p, k), dtype=np.int64)
    _episode_set_rows(index, classes, draws, rows)
    labels = np.repeat(np.asarray(index.classes)[classes], k, axis=1)[:, :designated]
    # `negative_classes`'s shift past each row's own class
    return rows.reshape(steps, p * k), wrong + (wrong >= labels)


def step_draws(sample: Callable, labels: np.ndarray, designated: int, num_classes: int,
               rng: np.random.Generator, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows (steps x B) and decoys (steps x designated) of `steps` steps
    drawn in turn: a batch sample(rng), then one `negative_classes` draw
    for its leading designated rows, if any."""
    rows, decoys = [], np.empty((steps, designated), dtype=np.int64)
    for t in range(steps):
        rows.append(sample(rng))
        if designated:
            decoys[t] = negative_classes(rng, labels[rows[t][:designated]], num_classes)
    return np.array(rows, dtype=np.int64), decoys


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
    and then its Q query rows. `check_episode_set` checks the set's shape
    and size, and `ClassIndex.pk_bounds` the split, before it is allocated.

    Episode i is drawn with child_seed(master_seed, i), the draw
    `sample_episode` makes from that seed: `_pk_draws`'s two
    `rng.integers` calls, as for a batch of N classes of K + Q rows. The
    rows are those of 1 + N `choice` calls on that generator, for splits
    of at most 10000 classes and 10000 rows a class (above either, numpy's
    `choice` shuffles a tail of arange(n), and the rows may differ).

    The draws are replayed from each episode generator's words
    (`_episode_draws`): for each `_EPISODE_CHUNK` episodes, one `random_raw`
    call each on one reused PCG64 set to its seeded state (`_raw_words`),
    then `_replay`'s Lemire and Floyd passes for their classes, and another
    pair for their rows, at the word positions the class draws leave. An
    episode with a rejected word is drawn again by `_pk_draws`, as is every
    episode of a split with a bound of 2**32 - 1 or more. The memory the
    draw holds beyond the result is one chunk's, whatever the episode count.
    """
    check_episode_set(n_way, k_shot, q_queries, episodes)
    check_seed(master_seed, "master seed")
    index, m = ClassIndex(labels), k_shot + q_queries
    index.pk_bounds(n_way, m)
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
    check_episode_set(n_way, k_shot, q_queries, 1)
    index = ClassIndex(labels)
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
