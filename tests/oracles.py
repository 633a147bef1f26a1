"""Reference implementations that the package's code is checked against:
one-triple triplet loss, the enumerated batch-all triple list, the
batch-all loss of one batch as a stack of one, the B^3 batch-all loss,
the gather loss with its label masks rebuilt on every call and
boolean-mask gathers, the active-triple counts summed off the
bool tensor, the per-class means and the per-label
class-mean table update,
the out-of-place pairwise distances, the dense N x N
geometry statistics, the scalar negative-class draw, the k-of-n draws
of batches and episodes through numpy's `choice`, the central
finite-difference gradient checker, the four per-head
training steps that the one shared training step replaced, that step
run on a stack of one arm, and the reproduce settings that mirrored the
training config. They are slow,
memory-hungry or repetitive on purpose and live only with the tests."""

from dataclasses import dataclass

import numpy as np

from cirlab.datagen import GeneratorSpec
from cirlab.errors import ConfigurationError, DataError, InputError, ShapeError
from cirlab.evaluate import GeometryStats
from cirlab.interference import (
    InterferenceConfig,
    NoiseConfig,
    gaussian_perturb,
    interfere_backward,
    interfere_batch,
    matched_noise_sigma,
)
from cirlab.losses import (
    TripletBatchResult,
    TripletConfig,
    batch_all_triplet_loss,
    cross_entropy,
    label_smooth,
    oim_scores,
    triplet_masks,
)
from cirlab.nn import (
    ParamGrads, backward, flatten_params, forward, input_gradient, stack_params,
)
from cirlab.sampling import ClassIndex, child_seed, pk_batch
from cirlab.tac import ClassTable, _fold
from cirlab.trainer import TrainConfig, _step


def grad_check(params, loss_closure, epsilon=1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    loss_closure maps params to (loss, ParamGrads) and must be deterministic.
    Returns the maximum per-entry discrepancy, normalized by the largest
    gradient magnitude seen (per-entry relative error is meaningless for
    near-zero entries, where finite differences are pure rounding noise).
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")

    _, analytic = loss_closure(params)
    # a copy to perturb: the stack of one copies the arrays
    work = stack_params([params]).arm(0)

    def fd_entry(arr: np.ndarray, idx) -> float:
        orig = arr[idx]
        arr[idx] = orig + epsilon
        lo_hi, _ = loss_closure(work)
        arr[idx] = orig - epsilon
        lo_lo, _ = loss_closure(work)
        arr[idx] = orig
        return (lo_hi - lo_lo) / (2.0 * epsilon)

    max_diff = 0.0
    max_mag = 0.0
    for kind in ("weights", "biases"):
        arrays = getattr(work, kind)
        grads = getattr(analytic, kind)
        for arr, ga in zip(arrays, grads):
            for idx in np.ndindex(arr.shape):
                fd = fd_entry(arr, idx)
                an = float(ga[idx])
                max_diff = max(max_diff, abs(fd - an))
                max_mag = max(max_mag, abs(fd), abs(an))
    if max_mag == 0.0:
        return 0.0
    return max_diff / max_mag


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


def one_batch_loss(features, blended_anchors, labels, cfg, masks=None):
    """batch_all_triplet_loss on one B x d batch, passed as a stack of one
    with the masks of its labels (or the given masks): a float loss and
    B x d gradients."""
    masks = triplet_masks(labels) if masks is None else masks
    res = batch_all_triplet_loss(
        np.asarray(features)[None], np.asarray(blended_anchors)[None], cfg, masks
    )
    return TripletBatchResult(
        float(res.loss[0]), res.grad_anchor[0], res.grad_other[0],
        res.num_triplets, res.num_active,
    )


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


def batch_all_triplet_loss_boolean(features, blended_anchors, labels, cfg):
    """batch_all_triplet_loss as it was before its masks could be cached:
    the label masks come from the labels on every call, and the threshold
    rows are gathered and scattered through boolean masks. The hinge total
    is `hinge_total`'s. The cached-mask loss must give the same floats."""
    z = np.asarray(features, dtype=np.float64)
    zt = np.asarray(blended_anchors, dtype=np.float64)
    labels = np.asarray(labels)
    sq = zt @ z.T
    sq *= -2.0
    sq += np.sum(zt * zt, axis=1)[:, None]
    sq += np.sum(z * z, axis=1)[None, :]
    np.maximum(sq, 0.0, out=sq)
    dist = sq if cfg.squared else np.sqrt(sq, out=sq)

    same = labels[:, None] == labels[None, :]
    pos_ok = same & ~np.eye(z.shape[0], dtype=bool)
    neg_ok = ~same
    num_triplets = int(pos_ok.sum(axis=1) @ neg_ok.sum(axis=1))
    zero = np.zeros_like(z)
    if num_triplets == 0:
        return TripletBatchResult(0.0, zero, zero.copy(), 0, 0)

    s = cfg.margin + dist
    npos = pos_ok.sum(axis=1)
    slots = np.arange(npos.max()) < npos[:, None]
    thr = np.zeros(slots.shape)
    thr[slots] = s[pos_ok]
    negd = np.where(neg_ok, dist, np.inf)
    active = negd[:, None, :] < thr[:, :, None]
    count_an = active.sum(axis=1, dtype=np.float64)
    per_slot = active.sum(axis=2)
    count_ap = np.zeros_like(count_an)
    count_ap[pos_ok] = per_slot[slots]
    total = float(hinge_total(per_slot, thr, count_an, dist))
    num_active = int(count_ap.sum())
    denom = num_triplets if cfg.reduction == "mean_all" else max(num_active, 1)
    loss = total / denom
    if num_active == 0:
        return TripletBatchResult(loss, zero, zero.copy(), num_triplets, 0)

    wa, wc = count_ap, count_an
    if cfg.squared:
        wa *= 2.0
        wc *= 2.0
    else:
        safe = np.where(dist > 0.0, dist, 1.0)
        wa /= safe
        wc /= safe
    w = 1.0 / denom
    row_wa = wa.sum(axis=1)
    row_wc = wc.sum(axis=1)
    col_wa = wa.sum(axis=0)
    col_wc = wc.sum(axis=0)
    grad_anchor = w * ((row_wa - row_wc)[:, None] * zt - wa @ z + wc @ z)
    grad_other = w * ((wc.T - wa.T) @ zt + (col_wa - col_wc)[:, None] * z)
    return TripletBatchResult(loss, grad_anchor, grad_other, num_triplets, num_active)


def hinge_total(per_slot, thr, count_an, dist):
    """One batch's batch-all hinge total in losses._active_counts' order:
    its slot counts dotted with their padded threshold rows, less its
    (a, n) counts dotted with their distances, one np.dot each; where that
    is not finite, the same terms summed over the nonzero counts alone."""
    p, t = per_slot.ravel().astype(np.float64), thr.ravel()
    c, d = count_an.ravel(), dist.ravel()
    total = np.dot(p, t) - np.dot(c, d)
    if np.isfinite(total):
        return total
    return np.sum(p * t, where=p > 0, initial=0.0) - np.sum(c * d, where=c > 0, initial=0.0)


def active_counts_bool_sums(dist, masks, margin):
    """losses._active_counts with its thresholds gathered from the whole
    margin + dist square and its counts summed straight off the bool B^3
    tensor, into float64 and into numpy's default integer."""
    stacks, b = dist.shape[:2]
    s = margin + dist
    thresholds = s.reshape(stacks, b * b).take(masks.pos_index, axis=1)
    if masks.slot_index is None:
        thr = thresholds.reshape(stacks, b, masks.width)
    else:
        thr = np.zeros((stacks, b, masks.width))
        thr.reshape(stacks, -1)[:, masks.slot_index] = thresholds
    negd = np.where(masks.neg_ok, dist, np.inf)
    active = negd[:, :, None, :] < thr[:, :, :, None]
    count_an = active.sum(axis=2, dtype=np.float64)
    per_slot = active.sum(axis=3)
    total = np.array([hinge_total(*batch) for batch in zip(per_slot, thr, count_an, dist)])
    per_slot = per_slot.reshape(stacks, -1)
    if masks.slot_index is not None:
        per_slot = per_slot.take(masks.slot_index, axis=1)
    return per_slot, count_an, total, per_slot.sum(axis=1)


def class_means(features, labels, num_classes):
    """Per-class means of the rows of features.

    Returns (means, counts): means is (num_classes, dim) with zero rows for
    absent classes, counts is the per-class row count.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {features.shape}")
    if labels.shape != (features.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} does not match {features.shape[0]} rows"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InputError(f"labels must lie in [0, {num_classes})")
    counts = np.bincount(labels, minlength=num_classes).astype(np.int64)
    sums = np.zeros((num_classes, features.shape[1]))
    np.add.at(sums, labels, features)
    means = np.zeros_like(sums)
    present = counts > 0
    means[present] = sums[present] / counts[present, None]
    return means, counts


def tac_update_add_at(tac, features, labels, normalize=False):
    """tac_update through per-label np.add.at sums and boolean row masks,
    for any batch layout."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=tac.num_classes)
    sums = np.zeros((tac.num_classes, features.shape[1]))
    np.add.at(sums, labels, features)
    present = counts > 0
    means = np.zeros_like(sums)
    means[present] = sums[present] / counts[present, None]
    table = tac.table.copy()
    table[present] = (1.0 - tac.momentum) * table[present] + tac.momentum * means[present]
    if normalize:
        norms = np.linalg.norm(table[present], axis=1)
        safe = norms > 0
        rows = table[present]
        rows[safe] = rows[safe] / norms[safe, None]
        table[present] = rows
    return ClassTable(table=table, momentum=tac.momentum)


def folded(tac, features, labels, normalize=False, class_rows=None):
    """The trainer's in-place `tac._fold` on a copy of tac's table, as a
    new table: the fold `tac_update` makes after its checks."""
    table = tac.table.copy()
    _fold(table, tac.momentum, features, labels, normalize, class_rows)
    return ClassTable(table=table, momentum=tac.momentum)


def pairwise_dist_out_of_place(a, b):
    """evaluate._pairwise_dist's Euclidean distances as one out-of-place
    expression."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (
        np.sum(a * a, axis=-1)[..., :, None]
        - 2.0 * (a @ np.swapaxes(b, -1, -2))
        + np.sum(b * b, axis=-1)[..., None, :]
    )
    return np.sqrt(np.maximum(sq, 0.0))


def geometry_stats_dense(features, labels) -> GeometryStats:
    """geometry_stats through the full N x N distance matrix and its upper
    triangle as index arrays."""
    z = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise DataError("geometry statistics need at least 2 classes")

    center = z.mean(axis=0)
    center_distance = float(np.linalg.norm(z - center, axis=1).mean())

    dist = pairwise_dist_out_of_place(z, z)
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


def sample_negative_class(rng: np.random.Generator, label: int, num_classes: int) -> int:
    """Draw a class index uniformly from all classes except `label`.

    Consumes exactly one integer draw from rng regardless of the outcome,
    so callers can keep their random streams aligned across configurations.
    """
    if num_classes < 2:
        raise ConfigurationError(
            f"need at least 2 classes to draw a different one, got {num_classes}"
        )
    if not 0 <= label < num_classes:
        raise InputError(f"label {label} outside [0, {num_classes})")
    k = int(rng.integers(0, num_classes - 1))
    return k + (1 if k >= label else 0)


def choice_draw(index, n_classes, per_class, rng):
    """n_classes classes without replacement, then per_class distinct rows
    of each, through numpy's `choice`: (class ids in drawn order,
    n_classes x per_class rows). `pk_batch` and the episode draws replay
    its rows and generator state from two array draws."""
    drawn = rng.choice(len(index.classes), size=n_classes, replace=False)
    class_ids = tuple(index.classes[int(ci)] for ci in drawn)
    out = np.empty((n_classes, per_class), dtype=np.int64)
    for slot, ci in enumerate(drawn):
        start, size = index.offsets[ci], index.sizes[ci]
        out[slot] = index.order[start + rng.choice(size, size=per_class, replace=False)]
    return class_ids, out


def choice_episode_rows(labels, n_way, k_shot, q_queries, episodes, master_seed):
    """`sampling.episode_rows` one episode at a time: episode i is
    `choice_draw` on a generator seeded child_seed(master_seed, i), whose
    K + Q rows a class are split into (support, query) at K."""
    index = ClassIndex(labels)
    rows = np.empty((episodes, n_way, k_shot + q_queries), dtype=np.int64)
    for i in range(episodes):
        rng = np.random.default_rng(child_seed(master_seed, i))
        rows[i] = choice_draw(index, n_way, k_shot + q_queries, rng)[1]
    return rows[:, :, :k_shot], rows[:, :, k_shot:]


# The per-head training steps as they stood before they were folded into
# `trainer._step`, with the helpers they called, kept verbatim but for
# the stream layout: noise comes from its own generator, and preformed
# triplets come from three passes of draws.


def _perturb(z, labels, tac, cfg, rng, noise_rng):
    """Blend designated rows toward wrong-class rows drawn from rng, or
    substitute Gaussian noise from noise_rng at the same call site
    (control arm). The wrong-class draws are consumed either way so the
    arms' streams stay aligned."""
    blended, decoys = interfere_batch(z, labels, tac, cfg.interference, rng)
    if cfg.noise is not None and cfg.noise.enabled:
        n_designated = int((decoys >= 0).sum())
        if n_designated:
            sigma = cfg.noise.sigma
            if sigma is None:
                sigma = matched_noise_sigma(z, tac, cfg.interference.strength, decoys)
            blended = z.copy()
            blended[:n_designated] = gaussian_perturb(
                z[:n_designated], sigma, noise_rng
            )
    return blended, decoys


def _pull_back_anchor_grads(grad_anchor, decoys, cfg):
    """d(blended)/d(z) is (1 - strength) on blended rows, identity on
    pass-through rows (and on noise-perturbed rows, where the noise is an
    additive constant w.r.t. z)."""
    if not cfg.interference.enabled or cfg.interference.strength == 0.0:
        return grad_anchor
    out = grad_anchor.copy()
    mask = decoys >= 0
    out[mask] = interfere_backward(grad_anchor[mask], cfg.interference.strength)
    return out


def _uniform_batch(n: int, size: int, rng) -> np.ndarray:
    return rng.choice(n, size=min(size, n), replace=False)


def step_triplet_batch_all(params, tac, feats, labels, index, pk, cfg, rng, noise_rng):
    idx = pk_batch(index, pk, rng)
    x, y = feats[idx], labels[idx]
    z, cache = forward(params, x)
    blended, decoys = _perturb(z, y, tac, cfg, rng, noise_rng)
    res = one_batch_loss(z, blended, y, cfg.triplet)
    grad_z = res.grad_other + _pull_back_anchor_grads(res.grad_anchor, decoys, cfg)
    grads = backward(params, cache, grad_z)
    return z, y, res.loss, grads


def step_triplet_preformed(params, tac, feats, labels, pk, cfg, rng, noise_rng):
    """Literal pre-formed triplets: batch_size independent (a, p, n) draws,
    anchors blended, the mean of per-triplet hinges minimized.

    The draws pick places in the rows sorted by class (stably, so each
    class's rows ascend), one scalar draw each: first every anchor's
    place, then every positive's among the other rows of the anchor's
    class, then every negative's among the rows of the other classes."""
    b = pk.batch_size
    n = feats.shape[0]
    order = np.argsort(labels, kind="stable")
    a_idx = np.empty(b, dtype=np.int64)
    p_idx = np.empty(b, dtype=np.int64)
    n_idx = np.empty(b, dtype=np.int64)
    for i in range(b):
        a_idx[i] = order[int(rng.integers(0, n))]
    for i, a in enumerate(a_idx):
        same = [int(r) for r in order if labels[r] == labels[a] and r != a]
        p_idx[i] = same[int(rng.integers(0, len(same)))]
    for i in range(b):
        diff = [int(r) for r in order if labels[r] != labels[a_idx[i]]]
        n_idx[i] = diff[int(rng.integers(0, len(diff)))]

    stacked = np.concatenate([a_idx, p_idx, n_idx])
    x, y = feats[stacked], labels[stacked]
    z, cache = forward(params, x)
    za, zp, zn = z[:b], z[b : 2 * b], z[2 * b :]
    blended_a, decoys = _perturb(za, y[:b], tac, cfg, rng, noise_rng)

    diff_p = blended_a - zp
    diff_n = blended_a - zn
    hinge = cfg.triplet.margin + np.sum(diff_p**2, axis=1) - np.sum(diff_n**2, axis=1)
    active = hinge > 0.0
    loss = float(np.maximum(hinge, 0.0).mean())

    w = active[:, None] / b
    ga = 2.0 * w * (zn - zp)
    gp = -2.0 * w * diff_p
    gn = 2.0 * w * diff_n
    grad_z = np.concatenate(
        [_pull_back_anchor_grads(ga, decoys, cfg), gp, gn]
    )
    grads = backward(params, cache, grad_z)
    return z, y, loss, grads


def step_oim(params, tac, feats, labels, pk, cfg, rng, noise_rng):
    idx = _uniform_batch(feats.shape[0], pk.batch_size, rng)
    x, y = feats[idx], labels[idx]
    z, cache = forward(params, x)
    blended, decoys = _perturb(z, y, tac, cfg, rng, noise_rng)
    logits = oim_scores(tac, blended, cfg.temperature)
    targets = label_smooth(y, tac.num_classes, cfg.label_smoothing)
    loss, glog = cross_entropy(logits, targets, with_grads=True)
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    grad_blended = (glog @ tac.table) / cfg.temperature
    grad_z = _pull_back_anchor_grads(grad_blended, decoys, cfg)
    grads = backward(params, cache, grad_z)
    return z, y, loss, acc, grads


def step_cross_entropy(params, head, tac, feats, labels, pk, cfg, rng, noise_rng):
    idx = _uniform_batch(feats.shape[0], pk.batch_size, rng)
    x, y = feats[idx], labels[idx]
    z, cache = forward(params, x)
    blended, decoys = _perturb(z, y, tac, cfg, rng, noise_rng)
    logits, head_cache = forward(head, blended)
    targets = label_smooth(y, logits.shape[1], cfg.label_smoothing)
    loss, glog = cross_entropy(logits, targets, with_grads=True)
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    head_grads = backward(head, head_cache, glog)
    grad_blended = input_gradient(head, head_cache, glog)
    grad_z = _pull_back_anchor_grads(grad_blended, decoys, cfg)
    grads = backward(params, cache, grad_z)
    return z, y, loss, acc, grads, head_grads


def arm_of_step(record, grads, head_grads, s):
    """Arm s of a stacked `trainer._step` record and the encoder's and the
    head's (or None) gradient views, as the plain (z, y, loss, acc, grads,
    head grads or None) of one arm."""

    def one(g):
        return None if g is None else ParamGrads(
            weights=[w[s] for w in g.weights], biases=[b[s] for b in g.biases]
        )

    # the triplet heads report no batch accuracy; the per-head steps gave 0.0
    acc = 0.0 if record.acc is None else float(record.acc[s])
    loss = float(record.loss[s])
    return record.z[s], record.y[s], loss, acc, one(grads), one(head_grads)


def single_step(params, head, tac, feats, labels, parts, cfg, rng, noise_rng=None,
                draw=None):
    """`trainer._step` on a stack of one arm, on `draw`, one step's (rows,
    decoys) of a `parts.epoch` draw, or when draw is None on a one-step
    `parts.epoch(rng, 1)`, with any noise from noise_rng: plain params,
    head and table in, one arm's plain results out."""
    if draw is None:
        (draw,) = zip(*parts.epoch(rng, 1))
    rows, decoys = draw
    encoder = flatten_params(stack_params([params]))
    if head is not None:
        head = flatten_params(stack_params([head]))
    record = _step(
        encoder, head, ClassTable(tac.table[None], tac.momentum), feats, labels,
        parts, [cfg], rows[None], decoys, [noise_rng],
    )
    return arm_of_step(record, encoder.grads, None if head is None else head.grads, 0)


# The reproduce settings as they stood when they mirrored TrainConfig's
# fields one by one, and the mapping from them to each cell's config,
# kept verbatim.


@dataclass(frozen=True)
class ReproduceSettings:
    """Hyperparameters of the comparison matrix.

    The defaults are the calibrated benchmark preset; tests shrink them.
    ``dataset`` overrides the generator spec (its seed field is replaced
    by each run's seed); None means the standard benchmark spec.
    """

    seeds: tuple = (0, 1, 2, 3, 4)
    epochs: int = 60
    iterations: int = 100
    learning_rate: float = 0.001
    hidden_dims: tuple = (64,)
    embed_dim: int = 16
    activation: str = "relu"
    p_classes: int = 8
    k_samples: int = 4
    strength: float = 0.5
    momentum: float = 0.5
    margin: float = 0.5
    eval_n_way: int = 5
    eval_q_queries: int = 15
    eval_episodes: int = 600
    log_episodes: int = 30
    dataset: GeneratorSpec | None = None
    splits: tuple = (0.64, 0.16, 0.20)

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigurationError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")


def train_config(settings, arm, seed):
    if arm == "no_reg":
        inter = InterferenceConfig(strength=settings.strength, enabled=False)
        noise = None
    elif arm == "cir":
        inter = InterferenceConfig(strength=settings.strength, enabled=True)
        noise = None
    elif arm == "noise":
        inter = InterferenceConfig(strength=settings.strength, enabled=False)
        noise = NoiseConfig(sigma=None, enabled=True)
    else:
        raise ConfigurationError(f"unknown arm {arm!r}")
    return TrainConfig(
        loss_mode="triplet",
        epochs=settings.epochs,
        iterations=settings.iterations,
        seed=seed,
        hidden_dims=settings.hidden_dims,
        embed_dim=settings.embed_dim,
        activation=settings.activation,
        learning_rate=settings.learning_rate,
        p_classes=settings.p_classes,
        k_samples=settings.k_samples,
        tac_momentum=settings.momentum,
        interference=inter,
        noise=noise,
        triplet=TripletConfig(margin=settings.margin),
        eval_n_way=settings.eval_n_way,
        eval_k_shot=1,
        eval_q_queries=5,
        eval_episodes=settings.log_episodes,
    )
