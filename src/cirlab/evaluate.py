"""Evaluation: episodic few-shot accuracy, retrieval metrics, and
embedding-geometry statistics.

Every metric scores embeddings; running the encoder is the caller's
job, so one embedding of a split serves every metric on it. Episodic
accuracy takes the split's embedding and its episode set, the
(support, query) pair of E x N x K and E x N x Q int64 row arrays from
`sampling.episode_rows` (640 B for a 5-way episode of 16 rows per class),
and scores the episodes in fixed chunks with batched gathers and one
stacked distance per chunk, so the gathered embeddings stay at one
chunk's worth. Geometry statistics visit the pairwise distances one
block of rows at a time, so their memory stays flat in the sample count.
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


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between float64 rows of a and of b, leading axes a
    stack: sum(a*a) - 2 (a @ b^T) + sum(b*b) clipped at 0, in place on the
    matmul output (-2x + y is the float y - 2x: the out-of-place bits)."""
    sq = a @ b.swapaxes(-1, -2)
    sq *= -2.0
    sq += (a * a).sum(axis=-1)[..., :, None]
    sq += (b * b).sum(axis=-1)[..., None, :]
    return np.maximum(sq, 0.0, out=sq)


def _pairwise_dist(a: np.ndarray, b: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Distance matrix between rows of a and rows of b; leading axes, if
    any, index a stack of independent (a, b) pairs."""
    if metric not in METRICS:
        raise ConfigurationError(f"metric must be one of {METRICS}, got {metric!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if metric == "cosine":
        na = np.linalg.norm(a, axis=-1, keepdims=True)
        nb = np.linalg.norm(b, axis=-1, keepdims=True)
        na = np.where(na > 0, na, 1.0)
        nb = np.where(nb > 0, nb, 1.0)
        return 1.0 - (a / na) @ np.swapaxes(b / nb, -1, -2)
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
    nearest_prototype_classify.
    """
    support, query = episodes
    count, n_way, q_queries = query.shape
    if support.shape[:2] != query.shape[:2]:
        raise ShapeError(
            f"support rows {support.shape} and query rows {query.shape} "
            "differ in episodes or classes"
        )
    query_labels = np.repeat(np.arange(n_way), q_queries)
    accs = np.empty(count)
    for start in range(0, count, EPISODE_CHUNK):
        stop = start + EPISODE_CHUNK
        protos = z[support[start:stop]].mean(axis=2)
        queries = z[query[start:stop]].reshape(len(protos), n_way * q_queries, -1)
        pred = np.argmin(_pairwise_dist(queries, protos, metric), axis=2)
        accs[start:stop] = np.mean(pred == query_labels, axis=1)
    mean = float(accs.mean())
    sd = float(accs.std(ddof=1)) if count > 1 else 0.0
    return EpisodicResult(
        mean=mean, ci95=float(1.96 * sd / np.sqrt(count)), episodes=count
    )


def _check_gallery_covers(query_labels: np.ndarray, gallery_labels: np.ndarray) -> None:
    missing = sorted(set(query_labels.tolist()) - set(gallery_labels.tolist()))
    if missing:
        raise DataError(f"query labels with no gallery positive: {missing}")


def retrieval_map(
    query_features: np.ndarray,
    query_labels: np.ndarray,
    gallery_features: np.ndarray,
    gallery_labels: np.ndarray,
    metric: str = "euclidean",
) -> float:
    """Mean average precision of label retrieval.

    Per query the gallery is ranked by ascending distance (ties broken by
    gallery index); AP averages precision at each relevant rank; mAP
    averages AP over queries.
    """
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    _check_gallery_covers(query_labels, gallery_labels)
    dist = _pairwise_dist(query_features, gallery_features, metric)
    aps = np.empty(dist.shape[0])
    for qi in range(dist.shape[0]):
        order = np.argsort(dist[qi], kind="stable")
        relevant = gallery_labels[order] == query_labels[qi]
        hits = np.cumsum(relevant)
        ranks = np.arange(1, len(order) + 1)
        precisions = hits[relevant] / ranks[relevant]
        aps[qi] = float(precisions.mean())
    return float(aps.mean())


def cmc_rank1(
    query_features: np.ndarray,
    query_labels: np.ndarray,
    gallery_features: np.ndarray,
    gallery_labels: np.ndarray,
    metric: str = "euclidean",
) -> float:
    """Fraction of queries whose single nearest gallery row shares their
    label (ties broken by gallery index)."""
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    _check_gallery_covers(query_labels, gallery_labels)
    dist = _pairwise_dist(query_features, gallery_features, metric)
    nearest = np.argmin(dist, axis=1)  # first minimum = lowest gallery index
    return float(np.mean(gallery_labels[nearest] == query_labels))


def geometry_stats(features: np.ndarray, labels: np.ndarray) -> GeometryStats:
    """Center-of-mass spread and pooled intra/inter class mean distances.

    The pairs i < j are visited in blocks of GEOMETRY_BLOCK rows i: each
    block's distances to the rows j > i are summed within and across
    classes and then dropped, so memory grows with N, not N^2.
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
    # a block's rows i in [start, stop) pair with every column j > start;
    # only its leading square holds pairs with j <= i, masked by one
    # triangle: column c of a block is row start + 1 + c, so j > i iff c >= r
    tri = np.arange(GEOMETRY_BLOCK - 1)[None, :] >= np.arange(GEOMETRY_BLOCK)[:, None]
    intra_sum = inter_sum = 0.0
    for start in range(0, n, GEOMETRY_BLOCK):
        stop = min(start + GEOMETRY_BLOCK, n)
        m = stop - start
        dist = _pairwise_dist(z[start:stop], z[start + 1 :])
        in_class = labels[start:stop, None] == labels[None, start + 1 :]
        across = ~in_class
        in_class[:, : m - 1] &= tri[:m, : m - 1]
        across[:, : m - 1] &= tri[:m, : m - 1]
        intra_sum += float(np.sum(dist, where=in_class))
        inter_sum += float(np.sum(dist, where=across))
        del dist  # free this block before the next one is built
    intra = intra_sum / intra_n if intra_n else None
    inter = inter_sum / inter_n if inter_n else None
    ratio = None
    if intra is not None and intra > 0 and inter is not None:
        ratio = inter / intra
    return GeometryStats(
        center_distance=center_distance, intra=intra, inter=inter, ratio=ratio
    )
