"""Objective functions: hinge triplet loss with batch-all mining,
lookup-table classification scores, cross-entropy, and a closed-form
linear-regression study of the wrong-class blend.

The triplet loss uses squared Euclidean distances,
max(0, margin + ||a - p||^2 - ||a - n||^2); a non-squared variant exists
for ablation. Batch-all mining covers every valid (anchor, positive,
negative) triple in the batch; anchors may come from a separately blended
copy of the embeddings while positives and negatives stay raw.

Batch-all never builds the B^3 hinge tensor. A triple is active iff its
negative distance lies strictly below the threshold margin + d(a, p).
Each anchor's thresholds over its own positives are gathered into one
row and compared with its negative distances, so one B x K x B boolean
tensor, K the largest class in the batch, gives every (a, p) and (a, n)
active-triple count in O(B^2 K) time and memory. PK batches keep K small.
The counts are exact integers, so the gradients are bit-identical to
enumerating the triples; only the loss value moves, by rounding, because
it is summed in another order. That order: each batch's per-slot counts
dotted with their thresholds margin + d(a, p), less its (a, n) counts
dotted with the distances d(a, n), two dot products over arrays the
counting already holds. A zero count times an inf or NaN distance makes
a dot non-finite; a batch where that happens sums only the terms of its
nonzero counts instead, so a NaN or inf pair stays inactive and the loss
is finite whenever the B^3 sum is.

Everything that depends only on the batch's label pattern (the positive
and negative pair masks, the triplet count and the flat gather/scatter
indices of the threshold rows) is a `TripletMasks`. A caller whose
batches all share one pattern, as the class-major P x K batches of one
training run do, builds it once with `triplet_masks` and passes it on
every call; without it the loss derives the masks from the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, ShapeError
from .evaluate import squared_distances
from .tac import ClassTable

REDUCTIONS = ("mean_all", "mean_nonzero")


@dataclass(frozen=True)
class TripletConfig:
    """margin is the hinge offset; reduction picks the denominator
    (all valid triplets, or only those with positive hinge); squared=False
    switches to plain Euclidean distances."""

    margin: float = 0.5
    reduction: str = "mean_all"
    squared: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ConfigurationError(f"margin must be finite and >= 0, got {self.margin}")
        if self.reduction not in REDUCTIONS:
            raise ConfigurationError(
                f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}"
            )


@dataclass(frozen=True)
class StudyCase:
    """One linear-map regression instance: z = W x, target y, decoy mean mu,
    blend weight lam."""

    W: np.ndarray
    x: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    lam: float


@dataclass
class TripletBatchResult:
    """loss plus gradients split by slot: grad_anchor is w.r.t. the blended
    rows used in the anchor slot, grad_other w.r.t. the raw rows used in
    positive/negative slots. Callers add them after pulling grad_anchor
    back through whatever produced the blended rows."""

    loss: float
    grad_anchor: np.ndarray
    grad_other: np.ndarray
    num_triplets: int
    num_active: int


@dataclass(frozen=True)
class TripletMasks:
    """The label pattern of a B-row batch, as batch-all mining uses it.

    pos_ok[a, p] marks a positive pair (same label, a != p) and neg_ok[a, n]
    a negative pair. Anchor a's positives fill row a of a B x width
    threshold array, width being the largest positive count, in column
    order: pos_index holds their flat indices into a B x B array, row-major,
    and slot_index the flat indices of the slots they fill, or is None when
    every anchor has width positives and the array has no padding.
    """

    pos_ok: np.ndarray
    neg_ok: np.ndarray
    num_triplets: int
    width: int
    pos_index: np.ndarray
    slot_index: np.ndarray | None


def triplet_masks(labels: np.ndarray) -> TripletMasks:
    """The `TripletMasks` of a batch with these labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    same = labels[:, None] == labels[None, :]
    pos_ok = same & ~np.eye(labels.shape[0], dtype=bool)
    neg_ok = ~same
    npos = pos_ok.sum(axis=1)
    width = int(npos.max(initial=0))
    slots = np.arange(width) < npos[:, None]  # row-major like pos_ok
    return TripletMasks(
        pos_ok=pos_ok,
        neg_ok=neg_ok,
        num_triplets=int(npos @ neg_ok.sum(axis=1)),
        width=width,
        pos_index=np.flatnonzero(pos_ok),
        slot_index=None if slots.all() else np.flatnonzero(slots),
    )


def batch_all_triplet_loss(
    features: np.ndarray,
    blended_anchors: np.ndarray,
    labels: np.ndarray,
    cfg: TripletConfig,
    masks: TripletMasks | None = None,
) -> TripletBatchResult:
    """Triplet loss over all valid triples, vectorized.

    Blended rows serve only in the anchor slot; raw rows serve as positives
    and negatives. Distances are between a blended anchor row and a raw
    row. With an empty triplet set the loss is 0 with zero gradients.
    masks, when given, must be `triplet_masks(labels)`, built once for
    every batch with this label pattern; otherwise it is derived here.

    Features of shape S x B x d are S batches that share one label
    pattern: labels is then S x B and masks is required. The loss and the
    gradients are each batch's own, with its bits alone: loss is an S-vector
    and the gradients are S x B x d. num_triplets and num_active are
    totals over the S batches.
    """
    z = np.asarray(features, dtype=np.float64)
    zt = np.asarray(blended_anchors, dtype=np.float64)
    if np.may_share_memory(zt, z):
        # on one buffer matmul takes its symmetric a @ a.T path, which
        # rounds differently from the same rows in two buffers
        zt = zt.copy()
    labels = np.asarray(labels)
    if z.ndim not in (2, 3) or zt.shape != z.shape:
        raise ShapeError(
            f"features {z.shape} and blended_anchors {zt.shape} must be "
            "equal-shaped 2-D arrays, or 3-D for a stack of batches"
        )
    if labels.shape != z.shape[:-1]:
        raise ShapeError("labels do not match feature rows")
    b = z.shape[-2]
    if masks is None:
        if z.ndim == 3:
            raise ShapeError("a stack of batches needs its shared label masks")
        masks = triplet_masks(labels)
    elif masks.pos_ok.shape != (b, b):
        raise ShapeError(
            f"masks of {masks.pos_ok.shape[0]} rows do not match "
            f"{b} feature rows"
        )
    single = z.ndim == 2
    if single:
        z, zt = z[None], zt[None]

    # pairwise squared distances blended-anchor-to-raw, as
    # evaluate._pairwise_dist builds them (same bits)
    sq = squared_distances(zt, z)
    dist = sq if cfg.squared else np.sqrt(sq, out=sq)

    stacks = z.shape[0]
    if masks.num_triplets == 0:
        return _result(single, np.zeros(stacks), np.zeros_like(z), np.zeros_like(z), 0, 0)
    num_triplets = masks.num_triplets * stacks

    per_pair, count_an, total, active = _active_counts(dist, masks, cfg.margin)
    num_active = int(active.sum())
    if cfg.reduction == "mean_all":
        # one python scalar for every batch, as each batch alone divides
        w = 1.0 / masks.num_triplets
        loss = total / masks.num_triplets
    else:
        denom = np.maximum(active, 1)
        w = (1.0 / denom)[:, None, None]
        loss = total / denom
    if num_active == 0:
        return _result(single, loss, np.zeros_like(z), np.zeros_like(z), num_triplets, 0)

    # per-pair multiplicities, wc in place on the counts: wa[a,p] triplets
    # where (a,p) is the positive pair, wc[a,n] where (a,n) is the negative
    # pair, each times the local derivative of the distance term; every
    # pair but a positive one has a zero wa
    wa = np.zeros((stacks, b * b))
    wc = count_an
    if cfg.squared:
        wa[:, masks.pos_index] = per_pair * 2.0
        wc *= 2.0
    else:
        safe = np.where(dist > 0.0, dist, 1.0)
        wa[:, masks.pos_index] = per_pair / safe.reshape(stacks, -1)[:, masks.pos_index]
        wc /= safe
    wa = wa.reshape(stacks, b, b)

    row_wa = wa.sum(axis=2)
    row_wc = wc.sum(axis=2)
    col_wa = wa.sum(axis=1)
    col_wc = wc.sum(axis=1)
    grad_anchor = w * ((row_wa - row_wc)[:, :, None] * zt - wa @ z + wc @ z)
    wc -= wa  # its transpose is wc.T - wa.T, in the layout of that difference
    grad_other = w * (wc.swapaxes(1, 2) @ zt + (col_wa - col_wc)[:, :, None] * z)
    # a batch with no active triple has exact zero gradients, as alone
    if stacks > 1 and not active.all():
        idle = active == 0
        grad_anchor[idle] = 0.0
        grad_other[idle] = 0.0
    return _result(single, loss, grad_anchor, grad_other, num_triplets, num_active)


def _result(single, loss, grad_anchor, grad_other, num_triplets, num_active):
    """The loss's result, with the stack axis dropped for a single batch."""
    if single:
        loss, grad_anchor, grad_other = float(loss[0]), grad_anchor[0], grad_other[0]
    return TripletBatchResult(
        loss=loss,
        grad_anchor=grad_anchor,
        grad_other=grad_other,
        num_triplets=num_triplets,
        num_active=num_active,
    )


def _active_counts(dist, masks, margin):
    """Active-triple counts per pair and the hinge total over them, for
    each of a stack of S batches.

    per_pair[s, i] counts the negatives n for which (a, p, n) is active,
    (a, p) the positive pair at flat index masks.pos_index[i], as unsigned
    or int64 integers; count_an[s, a, n] counts the positives p for which
    it is, as float64 holding exact integers. total and active, each
    batch's hinge total and active count, are S-vectors. Every
    S x B x K x B temporary is freed on return, before the caller's
    gradient block.
    """
    # (a, p, n) is active iff dist[a, n] < margin + dist[a, p]; this is the
    # B^3 test fl(margin + dist[a, p] - dist[a, n]) > 0 exactly. Row a of
    # thr holds anchor a's thresholds over its positives in column order,
    # padded with 0, which no distance lies below; negd holds its negative
    # distances, +inf where the pair is not a negative. A NaN on either
    # side compares false, so a NaN hinge is never active.
    stacks, b = dist.shape[:2]
    thresholds = dist.reshape(stacks, b * b).take(masks.pos_index, axis=1)
    thresholds += margin
    if masks.slot_index is None:
        thr = thresholds.reshape(stacks, b, masks.width)
    else:
        thr = np.zeros((stacks, b, masks.width))
        thr.reshape(stacks, -1)[:, masks.slot_index] = thresholds
    negd = np.where(masks.neg_ok, dist, np.inf)
    # (anchor, positive slot, n) as 0/1 bytes, whose counts are summed
    # exactly in the narrowest accumulator that holds them
    active = (negd[:, :, None, :] < thr[:, :, :, None]).view(np.uint8)
    narrow = np.uint8 if masks.width < 256 else np.int64
    count_an = active.sum(axis=2, dtype=narrow).astype(np.float64)
    per_slot = active.sum(axis=3, dtype=np.uint16 if b < 65536 else np.int64)
    # each batch's hinge total: its slot counts dotted with their
    # thresholds (a padded slot is 0 times 0), less its negative counts
    # dotted with their distances. A zero count times an inf or NaN
    # distance makes a dot non-finite; such a batch sums the terms of its
    # nonzero counts alone, as the B^3 hinge skips inactive triples
    per_slot = per_slot.reshape(stacks, -1)
    thr = thr.reshape(stacks, -1)
    flat_an, flat_dist = count_an.reshape(stacks, -1), dist.reshape(stacks, -1)
    total = _row_dots(per_slot, thr) - _row_dots(flat_an, flat_dist)
    bad = ~np.isfinite(total)
    if bad.any():
        pos, neg = per_slot[bad], flat_an[bad]
        total[bad] = np.sum(pos * thr[bad], axis=1, where=pos > 0, initial=0.0) - np.sum(
            neg * flat_dist[bad], axis=1, where=neg > 0, initial=0.0
        )
    if masks.slot_index is not None:
        per_slot = per_slot.take(masks.slot_index, axis=1)
    return per_slot, count_an, total, per_slot.sum(axis=1, dtype=np.int64)


def _row_dots(a, b):
    """Each row of a dotted with the same row of b, with the bits of np.dot
    on the two rows: one BLAS dot per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def oim_scores(
    tac: ClassTable, z: np.ndarray, temperature: float = 1.0
) -> np.ndarray:
    """Similarity of embeddings to every table row: (table @ z) / temperature.

    Accepts one d-vector or a B x d batch; returns matching C or B x C
    logits. A stack of S tables takes S x B x d embeddings, batch s scored
    against table s, and returns S x B x C logits.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise ConfigurationError(f"temperature must be finite and > 0, got {temperature}")
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    z2 = z[None, :] if single else z
    # the same stack axes in front, and the same embedding dim
    if z2.shape[:-2] + z2.shape[-1:] != tac.table.shape[:-2] + tac.table.shape[-1:]:
        raise ShapeError(
            f"embeddings of shape {z2.shape} do not match table shape {tac.table.shape}"
        )
    with np.errstate(over="ignore"):  # training and evals refuse an inf
        logits = (z2 @ tac.table.swapaxes(-1, -2)) / temperature
    return logits[0] if single else logits


def cross_entropy(
    logits: np.ndarray, target: np.ndarray, with_grads: bool = False
):
    """-sum(target * log softmax(logits)), averaged over rows for batches.

    target rows must be valid distributions (entries >= 0, summing to 1
    within 1e-6). With with_grads, also returns d(loss)/d(logits), which for
    the row-mean is (softmax - target) / num_rows.
    """
    logits = np.asarray(logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if logits.shape != target.shape:
        raise ShapeError(
            f"logits shape {logits.shape} != target shape {target.shape}"
        )
    single = logits.ndim == 1
    lg = logits[None, :] if single else logits
    tg = target[None, :] if single else target
    if lg.ndim != 2:
        raise ShapeError(f"logits must be 1-D or 2-D, got shape {logits.shape}")
    if (tg < 0).any() or (np.abs(tg.sum(axis=1) - 1.0) > 1e-6).any():
        raise InputError("target rows must be distributions (>= 0, sum to 1)")
    loss, grads = batch_cross_entropy(lg, tg)
    loss = float(loss)
    return (loss, grads[0] if single else grads) if with_grads else loss


def batch_cross_entropy(logits: np.ndarray, target: np.ndarray):
    """`cross_entropy` with grads on float64 B x C logits and target rows
    the caller has checked are distributions: (loss, d(loss)/d(logits)).
    S x B x C logits are a stack of S batches, each with its own bits, and
    give an S-vector of losses."""
    b = logits.shape[-2]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    # each batch's B x C products summed as one flat run, as .sum() does
    loss = -(target * logp).reshape(*logits.shape[:-2], -1).sum(axis=-1) / b
    return loss, (np.exp(logp) - target) / b


def label_smooth(classes, num_classes: int, epsilon: float = 0.0) -> np.ndarray:
    """Smoothed target distributions: (1 - epsilon) * onehot + epsilon / C.

    classes may be a single id or an array of ids of any shape; returns a
    C-vector, or one row per id with the ids' shape in front.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ConfigurationError(f"epsilon must lie in [0, 1), got {epsilon}")
    ids = np.atleast_1d(np.asarray(classes, dtype=np.int64))
    if ids.size and (ids.min() < 0 or ids.max() >= num_classes):
        raise InputError(f"class ids must lie in [0, {num_classes})")
    out = np.full((*ids.shape, num_classes), epsilon / num_classes)
    out.reshape(-1, num_classes)[np.arange(ids.size), ids.reshape(-1)] += 1.0 - epsilon
    return out[0] if np.isscalar(classes) or np.ndim(classes) == 0 else out


def study_case_loss(case: StudyCase):
    """Closed-form study of the blend on least squares.

    For z = W x with plain loss 0.5 ||z - y||^2, blending z toward mu with
    weight lam gives the same regularized loss written two ways:
      form A: 0.5 ||(1 - lam) W x + lam mu - y||^2   (blend-then-subtract)
      form B: 0.5 ||(W x - y) - lam (W x - mu)||^2   (residual minus pull)
    Returns (plain_loss, form_a, form_b, grad_W) where grad_W is the exact
    gradient of the regularized loss: (1 - lam) * r x^T with residual
    r = (1 - lam) W x + lam mu - y.
    """
    W = np.asarray(case.W, dtype=np.float64)
    x = np.asarray(case.x, dtype=np.float64)
    y = np.asarray(case.y, dtype=np.float64)
    mu = np.asarray(case.mu, dtype=np.float64)
    if W.ndim != 2:
        raise ShapeError(f"W must be 2-D, got shape {W.shape}")
    if x.shape != (W.shape[1],):
        raise ShapeError(f"x shape {x.shape} does not match W columns {W.shape[1]}")
    if y.shape != (W.shape[0],) or mu.shape != (W.shape[0],):
        raise ShapeError("y and mu must match W rows")

    lam = float(case.lam)
    z = W @ x
    # the ufuncs, not the .sum() and np.outer wrappers around them, and
    # the residual z - y taken once: the same bits, faster
    e = z - y
    plain = 0.5 * float(np.add.reduce(e * e))
    r = (1.0 - lam) * z + lam * mu - y
    form_a = 0.5 * float(np.add.reduce(r * r))
    f = e - lam * (z - mu)
    form_b = 0.5 * float(np.add.reduce(f * f))
    grad_w = np.multiply(r[:, None], x)
    grad_w *= 1.0 - lam
    return plain, form_a, form_b, grad_w
