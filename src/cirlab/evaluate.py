"""Evaluation: episodic few-shot accuracy, retrieval metrics, and
embedding-geometry statistics.

Every metric scores embeddings; running the encoder is the caller's
job, so one embedding of a split serves every metric on it. Episodic
accuracy takes the split's embedding and its episode set, the
(support, query) pair of E x N x K and E x N x Q int64 row arrays from
`sampling.episode_rows` (640 B for a 5-way episode of 16 rows per class),
and scores the episodes in fixed chunks with batched gathers and one
stacked distance per chunk, so the gathered embeddings stay at one
chunk's worth; the metric's per-row work on the queries is done once per
row of the split, not once per episode that draws the row. Geometry
statistics take the distances of one block of class-sorted rows per
GEMM, so their memory stays flat in the row count.
Distances are plain Euclidean on raw embeddings throughout; a cosine
option exists for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, ShapeError

METRICS = ("euclidean", "cosine")
# episodes scored per batched distance in episodic_accuracy
EPISODE_CHUNK = 32
# rows per block of the pairwise distances in geometry_stats
GEOMETRY_BLOCK = 256


@dataclass(frozen=True)
class EpisodicResult:
    """Mean episode accuracy, 95% confidence half-width, episode count."""

    mean: float
    ci95: float
    episodes: int


@dataclass(frozen=True)
class GeometryStats:
    """Spread statistics of an embedded, labeled sample cloud.

    center_distance: mean distance to the center of mass. intra/inter:
    mean pairwise distance within / across classes, pooled over all pairs.
    intra is None when no class has two samples; ratio = inter / intra is
    None whenever intra is None or zero.
    """

    center_distance: float
    intra: float | None
    inter: float | None
    ratio: float | None


def squared_distances(
    a: np.ndarray, b: np.ndarray, a_squared: np.ndarray | None = None
) -> np.ndarray:
    """Squared distances between float64 rows of a and of b, leading axes a
    stack: sum(a*a) - 2 (a @ b^T) + sum(b*b) clipped at 0, in place on the
    matmul output (-2x + y is the float y - 2x: the out-of-place bits).
    a_squared, if given, is sum(a*a) over the last axis, which a caller
    that gathers a's rows from one array can take once, for equal bits."""
    if a_squared is None:
        a_squared = (a * a).sum(axis=-1)
    sq = a @ b.swapaxes(-1, -2)
    sq *= -2.0
    sq += a_squared[..., :, None]
    sq += (b * b).sum(axis=-1)[..., None, :]
    return np.maximum(sq, 0.0, out=sq)


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ConfigurationError(f"metric must be one of {METRICS}, got {metric!r}")


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """a's rows over their norms; a zero row stays zero."""
    norm = np.linalg.norm(a, axis=-1, keepdims=True)
    return a / np.where(norm > 0, norm, 1.0)


def _pairwise_dist(a: np.ndarray, b: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Distance matrix between rows of a and rows of b; leading axes, if
    any, index a stack of independent (a, b) pairs."""
    _check_metric(metric)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if metric == "cosine":
        return 1.0 - _unit_rows(a) @ np.swapaxes(_unit_rows(b), -1, -2)
    sq = squared_distances(a, b)
    return np.sqrt(sq, out=sq)


def nearest_prototype_classify(
    support_features: np.ndarray,
    support_labels: np.ndarray,
    queries: np.ndarray,
    metric: str = "euclidean",
) -> np.ndarray:
    """Assign each query the class of its nearest per-class support mean.

    Ties go to the smallest class index. Accepts one query vector or a
    batch of query rows; returns matching scalar or vector predictions.
    """
    support_features = np.asarray(support_features, dtype=np.float64)
    support_labels = np.asarray(support_labels)
    queries = np.asarray(queries, dtype=np.float64)
    single = queries.ndim == 1
    q = queries[None, :] if single else queries
    if q.shape[1] != support_features.shape[1]:
        raise ShapeError("query dim does not match support dim")

    classes = np.unique(support_labels)
    protos = np.stack(
        [support_features[support_labels == c].mean(axis=0) for c in classes]
    )
    dist = _pairwise_dist(q, protos, metric)
    # argmin returns the first (lowest-index) minimum; classes are sorted,
    # so ties already resolve to the smallest class id
    pred = classes[np.argmin(dist, axis=1)]
    return pred[0] if single else pred


def episodic_accuracy(
    z: np.ndarray,
    episodes: tuple[np.ndarray, np.ndarray],
    metric: str = "euclidean",
) -> EpisodicResult:
    """Mean nearest-prototype accuracy over an episode set.

    z embeds the split; episodes is the (support, query) pair that
    `sampling.episode_rows` draws, E x N x K and E x N x Q arrays of its
    row indices: support[e, j] and query[e, j] are the rows of class j in
    episode e. Accuracy is averaged over episodes with a
    1.96 * sd / sqrt(E) half-width. Each chunk of EPISODE_CHUNK episodes
    is scored by one stacked distance from its queries to its support
    means, and distance ties go to the lowest episode class, as in
    nearest_prototype_classify. The metric's work on a query row, its
    squared norm (euclidean) or its unit row (cosine), is done once per
    row of z and gathered per chunk: each gathered row reduces the same
    values in the same order, so the bits are those of `_pairwise_dist`
    on the gathered queries.
    """
    _check_metric(metric)
    support, query = episodes
    count, n_way, q_queries = query.shape
    if support.shape[:2] != query.shape[:2]:
        raise ShapeError(
            f"support rows {support.shape} and query rows {query.shape} "
            "differ in episodes or classes"
        )
    rows = np.asarray(z, dtype=np.float64)
    if metric == "cosine":
        rows = _unit_rows(rows)
    else:
        rows_squared = (rows * rows).sum(axis=-1)
    query_labels = np.repeat(np.arange(n_way), q_queries)
    accs = np.empty(count)
    for start in range(0, count, EPISODE_CHUNK):
        stop = start + EPISODE_CHUNK
        protos = np.asarray(z[support[start:stop]].mean(axis=2), dtype=np.float64)
        at = query[start:stop].reshape(len(protos), n_way * q_queries)
        if metric == "cosine":
            dist = 1.0 - rows[at] @ _unit_rows(protos).swapaxes(-1, -2)
        else:
            dist = squared_distances(rows[at], protos, rows_squared[at])
            np.sqrt(dist, out=dist)
        pred = np.argmin(dist, axis=2)
        accs[start:stop] = np.mean(pred == query_labels, axis=1)
    mean = float(accs.mean())
    sd = float(accs.std(ddof=1)) if count > 1 else 0.0
    return EpisodicResult(
        mean=mean, ci95=float(1.96 * sd / np.sqrt(count)), episodes=count
    )


def retrieval_scores(
    query_features: np.ndarray,
    query_labels: np.ndarray,
    gallery_features: np.ndarray,
    gallery_labels: np.ndarray,
    metric: str = "euclidean",
) -> tuple[float, float]:
    """(mAP, CMC rank-1) of label retrieval, from one ranking per query.

    Per query the gallery is ranked by ascending distance (ties broken by
    gallery index, a NaN distance last); AP averages precision at each
    relevant rank, and rank-1 is 1 when the first-ranked row shares the
    query's label. Both average over queries.
    """
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    missing = sorted(set(query_labels.tolist()) - set(gallery_labels.tolist()))
    if missing:
        raise DataError(f"query labels with no gallery positive: {missing}")
    dist = _pairwise_dist(query_features, gallery_features, metric)
    order = np.argsort(dist, axis=1, kind="stable")
    relevant = gallery_labels[order] == query_labels[:, None]
    hits = np.cumsum(relevant, axis=1)
    ranks = np.arange(1, dist.shape[1] + 1)
    aps = [float((h[r] / ranks[r]).mean()) for h, r in zip(hits, relevant)]
    return float(np.mean(aps)), float(relevant[:, 0].mean())


def geometry_stats(features: np.ndarray, labels: np.ndarray) -> GeometryStats:
    """Center-of-mass spread and pooled intra/inter class mean distances.

    The rows are stable-sorted by label, so each class is one run, and
    visited in blocks of GEOMETRY_BLOCK rows i. One GEMM of the augmented
    rows [-2 z_i, |z_i|^2, 1] . [z_j, 1, |z_j|^2] gives a block's squared
    distances to the rows j >= i, in one R x N buffer per call, so memory
    grows with N, not N^2 (about 15 ms at N = 2560 and 2 ms at N = 626,
    d = 16, on one core). The distances j > i sum to the total, those in
    row i's class run to intra, and inter is the rest. When every class's
    rows are equal, which one O(N d) pass over the sorted rows checks, the
    intra sum is exactly 0, so intra is 0.0 and ratio None (the expansion
    would leave a rounding residue there); inter keeps its value.
    """
    z = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if z.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {z.shape}")
    if labels.shape != (z.shape[0],):
        raise ShapeError("labels do not match feature rows")
    sizes = np.unique(labels, return_counts=True)[1]
    if len(sizes) < 2:
        raise DataError("geometry statistics need at least 2 classes")

    center = z.mean(axis=0)
    center_distance = float(np.linalg.norm(z - center, axis=1).mean())

    n = z.shape[0]
    intra_n = int(np.sum(sizes * (sizes - 1)) // 2)
    inter_n = n * (n - 1) // 2 - intra_n
    zs = z[np.argsort(labels, kind="stable")]
    # every class run of equal rows (its columns' least and greatest
    # agree): the expansion leaves rounding residue, not 0, on its distances
    starts = np.cumsum(sizes) - sizes
    collapsed = np.array_equal(
        np.minimum.reduceat(zs, starts), np.maximum.reduceat(zs, starts)
    )
    norms = np.einsum("ij,ij->i", zs, zs)[:, None]
    rows = np.hstack((-2.0 * zs, norms, np.ones_like(norms)))
    cols = np.hstack((zs, np.ones_like(norms), norms))
    run_end = np.repeat(np.cumsum(sizes), sizes)  # one past row i's class run
    # GEOMETRY_BLOCK x N, not smaller: at N = 2560 it is the largest chunk
    # freed, which raises glibc's dynamic mmap and trim thresholds. 64-row
    # blocks sped geometry up, but the B = 256 triplet loss then took ~730
    # minor faults a call and ran 45% slower, and reproduce's eval 25%.
    buf = np.empty(min(GEOMETRY_BLOCK, n) * n)
    # in a block's leading square, column c is row start + c: j > i iff c > r
    upper = np.arange(GEOMETRY_BLOCK)[None, :] > np.arange(GEOMETRY_BLOCK)[:, None]
    total = intra_sum = 0.0
    for start in range(0, n, GEOMETRY_BLOCK):
        stop = min(start + GEOMETRY_BLOCK, n)
        m = stop - start
        dist = buf[: m * (n - start)].reshape(m, n - start)
        np.matmul(rows[start:stop], cols[start:].T, out=dist)
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        total += float(dist[:, m:].sum()) + float(np.sum(dist[:, :m], where=upper[:m, :m]))
        # row r's class mates to its right are the columns r < c < end
        ends = run_end[start:stop] - start
        own = np.arange(ends[-1]) < ends[:, None]
        own[:, :m] &= upper[:m, :m]
        intra_sum += float(np.sum(dist[:, : ends[-1]], where=own))
    inter = (total - intra_sum) / inter_n if inter_n else None
    if collapsed:
        intra_sum = 0.0
    intra = intra_sum / intra_n if intra_n else None
    ratio = None
    if intra is not None and intra > 0 and inter is not None:
        ratio = inter / intra
    return GeometryStats(
        center_distance=center_distance, intra=intra, inter=inter, ratio=ratio
    )
