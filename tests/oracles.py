"""Reference implementations that the package's vectorised code is checked
against: one-triple triplet loss, the enumerated batch-all triple list,
the B^3 batch-all loss and the dense N x N geometry statistics. They are
slow or memory-hungry on purpose and live only with the tests."""

import numpy as np

from cirlab.errors import DataError, InputError, ShapeError
from cirlab.evaluate import GeometryStats, _pairwise_dist
from cirlab.losses import TripletBatchResult


def _dist(a: np.ndarray, b: np.ndarray, squared: bool) -> float:
    d2 = float(np.sum((a - b) ** 2))
    return d2 if squared else float(np.sqrt(d2))


def triplet_loss(
    a: np.ndarray,
    p: np.ndarray,
    n: np.ndarray,
    margin: float,
    squared: bool = True,
    with_grads: bool = False,
):
    """Hinge loss of one (anchor, positive, negative) triple.

    Returns the loss, or (loss, grad_a, grad_p, grad_n) with with_grads.
    The subgradient is zero whenever the hinge argument is <= 0.
    """
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if not (a.shape == p.shape == n.shape):
        raise ShapeError(
            f"triplet shapes differ: {a.shape}, {p.shape}, {n.shape}"
        )
    if margin < 0:
        raise InputError(f"margin must be >= 0, got {margin}")

    hinge = margin + _dist(a, p, squared) - _dist(a, n, squared)
    loss = max(0.0, hinge)
    if not with_grads:
        return loss

    ga = np.zeros_like(a)
    gp = np.zeros_like(p)
    gn = np.zeros_like(n)
    if hinge > 0.0:
        if squared:
            ga = 2.0 * (n - p)  # 2(a-p) - 2(a-n)
            gp = -2.0 * (a - p)
            gn = 2.0 * (a - n)
        else:
            dp = _dist(a, p, squared=False)
            dn = _dist(a, n, squared=False)
            up = (a - p) / dp if dp > 0 else np.zeros_like(a)
            un = (a - n) / dn if dn > 0 else np.zeros_like(a)
            ga = up - un
            gp = -up
            gn = un
    return loss, ga, gp, gn


def batch_all_triplets(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Every valid (anchor, positive, negative) index triple in the batch:
    anchor and positive share a label and differ as rows; the negative has
    any other label."""
    labels = np.asarray(labels)
    out = []
    b = labels.shape[0]
    for a in range(b):
        for p in range(b):
            if p == a or labels[p] != labels[a]:
                continue
            for n in range(b):
                if labels[n] != labels[a]:
                    out.append((a, p, n))
    return out


def batch_all_triplet_loss_b3(features, blended_anchors, labels, cfg):
    """batch_all_triplet_loss through the full B x B x B hinge tensor: the
    active triples are enumerated as a mask and counted directly."""
    z = np.asarray(features, dtype=np.float64)
    zt = np.asarray(blended_anchors, dtype=np.float64)
    labels = np.asarray(labels)
    b = z.shape[0]
    zero = TripletBatchResult(
        loss=0.0,
        grad_anchor=np.zeros_like(z),
        grad_other=np.zeros_like(z),
        num_triplets=0,
        num_active=0,
    )
    if b == 0:
        return zero

    sq = (
        np.sum(zt * zt, axis=1)[:, None]
        - 2.0 * (zt @ z.T)
        + np.sum(z * z, axis=1)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    dist = sq if cfg.squared else np.sqrt(sq)

    same = labels[:, None] == labels[None, :]
    pos_ok = same & ~np.eye(b, dtype=bool)
    neg_ok = ~same

    valid = pos_ok[:, :, None] & neg_ok[:, None, :]
    num_triplets = int(valid.sum())
    if num_triplets == 0:
        return zero

    hinge = cfg.margin + dist[:, :, None] - dist[:, None, :]
    active = valid & (hinge > 0.0)
    num_active = int(active.sum())
    total = float(np.sum(hinge, where=active, initial=0.0))

    denom = num_triplets if cfg.reduction == "mean_all" else max(num_active, 1)
    loss = total / denom
    if num_active == 0:
        return TripletBatchResult(
            loss=loss,
            grad_anchor=np.zeros_like(z),
            grad_other=np.zeros_like(z),
            num_triplets=num_triplets,
            num_active=0,
        )

    count_ap = active.sum(axis=2).astype(np.float64)
    count_an = active.sum(axis=1).astype(np.float64)
    if cfg.squared:
        wa = 2.0 * count_ap
        wc = 2.0 * count_an
    else:
        safe = np.where(dist > 0.0, dist, 1.0)
        wa = count_ap / safe
        wc = count_an / safe

    w = 1.0 / denom
    row_wa = wa.sum(axis=1)
    row_wc = wc.sum(axis=1)
    col_wa = wa.sum(axis=0)
    col_wc = wc.sum(axis=0)
    grad_anchor = w * ((row_wa - row_wc)[:, None] * zt - wa @ z + wc @ z)
    grad_other = w * ((wc.T - wa.T) @ zt + (col_wa - col_wc)[:, None] * z)
    return TripletBatchResult(
        loss=loss,
        grad_anchor=grad_anchor,
        grad_other=grad_other,
        num_triplets=num_triplets,
        num_active=num_active,
    )


def geometry_stats_dense(features, labels) -> GeometryStats:
    """geometry_stats through the full N x N distance matrix and its upper
    triangle as index arrays."""
    z = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise DataError("geometry statistics need at least 2 classes")

    center = z.mean(axis=0)
    center_distance = float(np.linalg.norm(z - center, axis=1).mean())

    dist = _pairwise_dist(z, z)
    iu = np.triu_indices(z.shape[0], k=1)
    same = labels[iu[0]] == labels[iu[1]]
    pair_d = dist[iu]
    intra = float(pair_d[same].mean()) if same.any() else None
    inter = float(pair_d[~same].mean()) if (~same).any() else None
    ratio = None
    if intra is not None and intra > 0 and inter is not None:
        ratio = inter / intra
    return GeometryStats(
        center_distance=center_distance, intra=intra, inter=inter, ratio=ratio
    )
