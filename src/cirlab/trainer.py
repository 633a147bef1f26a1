"""Training: one step shared by triplet metric learning and table-lookup /
cross-entropy classification, each with optional wrong-class blending of
the output features, plus the two-stage schedule (cross-entropy pretrain,
then triplet).

Every run is driven by one master seed. Independent random streams are
derived with child_seed(master, k): k=0 encoder init, 1 class-table init,
2 the training stream (batches, negative-class draws, noise), 3 validation
episodes, 4 train-proxy episodes, 5 holdout selection, 6 classifier head
init. Runs are fully deterministic on one thread. Both episode sets are
drawn once per run, and after each epoch every split is embedded once
for all the metrics scored on it.

Per iteration: sample a batch, embed it, blend the designated rows toward
drawn wrong-class table rows (or add matched Gaussian noise instead),
compute the loss on blended-anchor/raw-other rows, pull anchor gradients
back through the blend's (1 - strength) factor, take one SGD step, then
fold the *raw pre-step* per-class batch means into the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import Dataset
from .errors import ConfigurationError, DataError, NumericError
from .evaluate import episodic_accuracy, geometry_stats, retrieval_map, cmc_rank1
from .interference import (
    InterferenceConfig,
    NoiseConfig,
    gaussian_perturb,
    interfere_backward,
    interfere_batch,
    matched_noise_sigma,
)
from .losses import (
    TripletConfig,
    batch_all_triplet_loss,
    cross_entropy,
    label_smooth,
    oim_scores,
)
from .nn import (
    LrSchedule,
    ModelParams,
    backward,
    forward,
    init_params,
    input_gradient,
    sgd_step,
)
from .sampling import ClassIndex, PKSpec, child_seed, episode_rows, pk_batch
from .tac import ClassTable, tac_init, tac_update

LOSS_MODES = ("triplet", "oim", "cross_entropy")
MINING_MODES = ("batch_all", "preformed")

CSV_HEADER = "epoch,stage,lr,train_loss,train_acc,val_acc,center_dist,inter_intra_ratio"


@dataclass(frozen=True)
class TrainConfig:
    """Everything one run needs; see the module docstring for semantics.

    For the Gaussian-noise control arm, `noise` is set (and interference
    disabled); when noise.sigma is None the scale is matched per batch to
    the displacement the blend at interference.strength would have caused.
    """

    loss_mode: str = "triplet"
    epochs: int = 30
    iterations: int = 100
    seed: int = 0
    hidden_dims: tuple[int, ...] = (64,)
    embed_dim: int = 16
    activation: str = "relu"
    learning_rate: float = 0.0002
    decay_start_epoch: int = 0
    decay_factor: float = 1.0
    p_classes: int = 8
    k_samples: int = 4
    tac_momentum: float = 0.5
    tac_normalize: bool = False
    interference: InterferenceConfig = field(default_factory=InterferenceConfig)
    noise: NoiseConfig | None = None
    triplet: TripletConfig = field(default_factory=TripletConfig)
    temperature: float = 1.0
    label_smoothing: float = 0.0
    mining: str = "batch_all"
    eval_n_way: int = 5
    eval_k_shot: int = 1
    eval_q_queries: int = 5
    eval_episodes: int = 40
    holdout_fraction: float = 0.1
    stage2: "TrainConfig | None" = None

    def __post_init__(self):
        if self.loss_mode not in LOSS_MODES:
            raise ConfigurationError(
                f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}"
            )
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.embed_dim < 1:
            raise ConfigurationError("embed_dim must be >= 1")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigurationError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if self.mining not in MINING_MODES:
            raise ConfigurationError(
                f"mining must be one of {MINING_MODES}, got {self.mining!r}"
            )
        if self.mining == "preformed" and (
            not self.triplet.squared or self.triplet.reduction != "mean_all"
        ):
            raise ConfigurationError(
                "preformed mining needs squared = true and reduction = mean_all"
            )
        if self.noise is not None and self.noise.enabled and self.interference.enabled:
            raise ConfigurationError(
                "interference and noise are mutually exclusive perturbations"
            )
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be > 0")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigurationError("label_smoothing must lie in [0, 1)")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigurationError("holdout_fraction must lie in [0, 1)")
        if self.loss_mode in ("oim", "cross_entropy") and self.holdout_fraction == 0.0:
            raise ConfigurationError(
                "classification modes need holdout_fraction > 0 for validation"
            )
        if self.eval_n_way < 2 or self.eval_k_shot < 1 or self.eval_q_queries < 1:
            raise ConfigurationError("episodic eval needs n_way >= 2, k/q >= 1")
        if self.eval_episodes < 1:
            raise ConfigurationError("eval_episodes must be >= 1")
        # construct to validate the rate/decay ranges even for epochs = 0
        self.make_schedule()

    def make_schedule(self) -> LrSchedule:
        return LrSchedule(
            initial_rate=self.learning_rate,
            decay_start_epoch=self.decay_start_epoch,
            decay_factor_per_epoch=self.decay_factor,
            total_epochs=max(1, self.epochs),
        )


@dataclass(frozen=True)
class EpochLog:
    """One row of the training curve; ratio may be absent on degenerate
    embeddings (no within-class pairs or zero intra spread)."""

    epoch: int
    stage: int
    lr: float
    train_loss: float
    train_acc: float
    val_acc: float
    center_dist: float
    inter_intra_ratio: float | None


def logs_to_csv(logs: list[EpochLog]) -> str:
    lines = [CSV_HEADER]
    for row in logs:
        ratio = "" if row.inter_intra_ratio is None else repr(row.inter_intra_ratio)
        lines.append(
            f"{row.epoch},{row.stage},{row.lr!r},{row.train_loss!r},"
            f"{row.train_acc!r},{row.val_acc!r},{row.center_dist!r},{ratio}"
        )
    return "\n".join(lines) + "\n"


def _holdout_rows(labels: np.ndarray, fraction: float, seed: int):
    """Deterministic stratified holdout: per class, the last floor(fraction
    * count) of a seeded permutation of its rows."""
    rng = np.random.default_rng(seed)
    held = []
    for c in np.unique(labels):
        rows = np.flatnonzero(labels == c)
        take = int(np.floor(fraction * len(rows)))
        if take:
            perm = rng.permutation(len(rows))
            held.extend(rows[perm[:take]])
    held = np.array(sorted(held), dtype=np.int64)
    keep = np.setdiff1d(np.arange(len(labels)), held)
    return keep, held


def check_feasible(train_ds: Dataset, val_ds: Dataset | None, cfg: TrainConfig) -> None:
    """Reject config/split mismatches before touching any rng."""
    if train_ds.size == 0:
        raise DataError("training split is empty")
    _check_class_count(train_ds, "train")
    if cfg.loss_mode == "triplet":
        _check_rows(train_ds, "train", cfg.p_classes, cfg.k_samples, "batches")
        if val_ds is None:
            raise DataError("triplet mode needs a validation split for episodes")
        _check_class_count(val_ds, "validation")
        # the per-epoch accuracies score episodes on both splits
        need = cfg.eval_k_shot + cfg.eval_q_queries
        for ds, split in ((train_ds, "train"), (val_ds, "validation")):
            _check_rows(ds, split, cfg.eval_n_way, need, "episodes")
    elif not np.floor(cfg.holdout_fraction * np.bincount(train_ds.labels)).any():
        # _holdout_rows takes floor(fraction * count) rows of each class
        raise DataError(
            f"holdout_fraction {cfg.holdout_fraction} holds out no rows: every "
            f"train class has fewer than 1/{cfg.holdout_fraction} rows"
        )
    if train_ds.class_count < 2:
        raise DataError("need at least 2 training classes")


def _check_rows(ds: Dataset, split: str, classes: int, need: int, use: str) -> None:
    """The split must declare `classes` classes and hold `need` rows of
    every declared class, so a declared class with no rows fails too."""
    if ds.class_count < classes:
        raise DataError(
            f"{split} split has {ds.class_count} classes, {use} need {classes}"
        )
    counts = np.bincount(ds.labels, minlength=ds.class_count)
    short = np.flatnonzero(counts < need)
    if short.size:
        raise DataError(
            f"{split} class {short[0]} has {counts[short[0]]} samples, {use} need {need}"
        )


def _check_class_count(ds: Dataset, split: str) -> None:
    """The class count comes from a file header and sizes per-class arrays
    (bincounts here, the class table in train()). More classes than rows
    leaves some class empty, so refuse it before any such allocation."""
    if ds.class_count > ds.size:
        raise DataError(
            f"{split} split declares {ds.class_count} classes "
            f"but has only {ds.size} rows"
        )


def _perturb(z, labels, tac, cfg, rng):
    """Blend designated rows toward drawn wrong-class rows, or substitute
    Gaussian noise at the same call site (control arm). The wrong-class
    draws are consumed either way so streams stay aligned."""
    blended, decoys = interfere_batch(z, labels, tac, cfg.interference, rng)
    if cfg.noise is not None and cfg.noise.enabled:
        n_designated = int((decoys >= 0).sum())
        if n_designated:
            sigma = cfg.noise.sigma
            if sigma is None:
                sigma = matched_noise_sigma(
                    z, labels, tac, cfg.interference.strength, decoys
                )
            blended = z.copy()
            blended[:n_designated] = gaussian_perturb(z[:n_designated], sigma, rng)
    return blended, decoys


def train(
    train_ds: Dataset,
    val_ds: Dataset | None,
    cfg: TrainConfig,
    initial_params: ModelParams | None = None,
    stage: int = 1,
    epoch_offset: int = 0,
):
    """Run one training stage; returns (params, table, epoch logs).

    With initial_params the encoder continues from that state (its own
    fresh table is still created — stage 2 of the two-stage schedule).
    """
    check_feasible(train_ds, val_ds, cfg)

    dims = (train_ds.input_dim, *cfg.hidden_dims, cfg.embed_dim)
    if initial_params is not None:
        if initial_params.layer_dims != dims:
            raise ConfigurationError(
                f"initial params dims {initial_params.layer_dims} do not match "
                f"configured dims {dims}"
            )
        params = initial_params.copy()
    else:
        params = init_params(dims, cfg.activation, seed=child_seed(cfg.seed, 0))
    tac = tac_init(
        train_ds.class_count, cfg.embed_dim, cfg.tac_momentum,
        seed=child_seed(cfg.seed, 1),
    )
    rng = np.random.default_rng(child_seed(cfg.seed, 2))
    schedule = cfg.make_schedule()

    feats = train_ds.features.astype(np.float64)
    labels = train_ds.labels
    fit_feats, fit_labels = feats, labels
    if cfg.loss_mode != "triplet":
        keep, held = _holdout_rows(labels, cfg.holdout_fraction, child_seed(cfg.seed, 5))
        fit_feats, fit_labels = feats[keep], labels[keep]
        held_feats, held_labels = feats[held], labels[held]

    head = None
    if cfg.loss_mode == "cross_entropy":
        head = init_params(
            (cfg.embed_dim, train_ds.class_count), "identity",
            seed=child_seed(cfg.seed, 6),
        )

    sample, head_loss = _mode_parts(cfg, fit_labels)
    if cfg.loss_mode == "triplet":
        # fixed master seeds: the same episodes score every epoch
        shape = cfg.eval_n_way, cfg.eval_k_shot, cfg.eval_q_queries, cfg.eval_episodes
        train_rows = episode_rows(labels, *shape, child_seed(cfg.seed, 4))
        val_rows = episode_rows(val_ds.labels, *shape, child_seed(cfg.seed, 3))
    logs: list[EpochLog] = []
    for e in range(cfg.epochs):
        rate = schedule.rate(e)
        loss_sum = 0.0
        acc_sum = 0.0
        for it in range(cfg.iterations):
            z, y, loss, batch_acc, grads, head_grads = _step(
                params, head, tac, fit_feats, fit_labels, sample, head_loss, cfg, rng
            )
            if not np.isfinite(loss) or not np.all(np.isfinite(z)):
                raise NumericError(
                    f"non-finite loss or embeddings at epoch {epoch_offset + e} "
                    f"iteration {it}"
                )
            params = sgd_step(params, grads, rate)
            if head is not None:
                head = sgd_step(head, head_grads, rate)
            tac = tac_update(tac, z, y, normalize=cfg.tac_normalize)
            loss_sum += loss
            acc_sum += batch_acc

        train_loss = loss_sum / cfg.iterations
        z_train = forward(params, feats)[0]
        if cfg.loss_mode == "triplet":
            train_acc = episodic_accuracy(z_train, train_rows, cfg.eval_k_shot).mean
            z_val = forward(params, val_ds.features)[0]
            val_acc = episodic_accuracy(z_val, val_rows, cfg.eval_k_shot).mean
        else:
            train_acc = acc_sum / cfg.iterations
            val_acc = _classification_accuracy(
                forward(params, held_feats)[0], held_labels, head, tac, cfg.temperature
            )

        geom = geometry_stats(z_train, labels)
        logs.append(
            EpochLog(
                epoch=epoch_offset + e,
                stage=stage,
                lr=rate,
                train_loss=train_loss,
                train_acc=train_acc,
                val_acc=val_acc,
                center_dist=geom.center_distance,
                inter_intra_ratio=geom.ratio,
            )
        )
    return params, tac, logs


def _step(params, head, tac, feats, labels, sample, head_loss, cfg, rng):
    """One training step for every head; returns (z, y, loss, batch
    accuracy, encoder gradients, head gradients or None)."""
    rows, n_anchor = sample(rng)
    x, y = feats[rows], labels[rows]
    z, cache = forward(params, x)
    blended, decoys = _perturb(z[:n_anchor], y[:n_anchor], tac, cfg, rng)
    loss, acc, grad_blended, grad_z, head_grads = head_loss(
        z, blended, y, head, tac, cfg
    )
    # d(blended)/dz is (1 - strength) on blended rows and the identity on
    # the others, noise-perturbed rows included (the noise is additive)
    blend = cfg.interference
    if blend.enabled and blend.strength != 0.0:
        mask = decoys >= 0
        grad_blended[mask] = interfere_backward(grad_blended[mask], blend.strength)
    grad_z[:n_anchor] += grad_blended
    return z, y, loss, acc, backward(params, cache, grad_z), head_grads


def _mode_parts(cfg, labels):
    """Pick the per-mode halves of `_step` once per run.

    sample(rng) returns the batch rows and how many leading rows are
    anchors: all rows of PK and uniform batches, the a-rows of preformed
    mining's [a | p | n] stack of batch_size independent draws. head_loss
    returns (loss, batch accuracy, gradient w.r.t. the blended anchors,
    gradient w.r.t. the raw rows, head gradients or None).
    """
    pk = PKSpec(cfg.p_classes, cfg.k_samples)
    if cfg.loss_mode != "triplet":
        n, size = len(labels), min(pk.batch_size, len(labels))
        head_loss = _oim_loss if cfg.loss_mode == "oim" else _cross_entropy_loss
        return (lambda rng: (rng.choice(n, size=size, replace=False), size)), head_loss
    # check_feasible has already required P classes of K rows each
    index = ClassIndex(labels)
    b = pk.batch_size
    if cfg.mining == "batch_all":
        return (lambda rng: (pk_batch(index, pk, rng), b)), _batch_all_loss
    # each class's negative rows, ascending, as the draws index them
    negatives = {c: np.flatnonzero(labels != c) for c in index.classes}

    def preformed(rng):
        # the index holds at least K >= 2 rows per class, so p != a exists
        stacked = np.empty((3, b), dtype=np.int64)
        for i in range(b):
            a = int(rng.integers(0, len(labels)))
            c = int(labels[a])
            same = index.rows[c]
            p = a
            while p == a:
                p = int(same[rng.integers(0, len(same))])
            diff = negatives[c]
            stacked[:, i] = a, p, diff[rng.integers(0, len(diff))]
        return stacked.reshape(-1), b

    return preformed, _preformed_loss


def _batch_all_loss(z, blended, y, head, tac, cfg):
    res = batch_all_triplet_loss(z, blended, y, cfg.triplet)
    return res.loss, 0.0, res.grad_anchor, res.grad_other, None


def _preformed_loss(z, blended, y, head, tac, cfg):
    """Mean hinge of the stacked (a, p, n) triplets, squared distances."""
    b = blended.shape[0]
    zp, zn = z[b : 2 * b], z[2 * b :]
    diff_p, diff_n = blended - zp, blended - zn
    hinge = cfg.triplet.margin + np.sum(diff_p**2, axis=1) - np.sum(diff_n**2, axis=1)
    w = (hinge > 0.0)[:, None] / b
    grad_raw = np.concatenate([np.zeros_like(blended), -2.0 * w * diff_p, 2.0 * w * diff_n])
    return float(np.maximum(hinge, 0.0).mean()), 0.0, 2.0 * w * (zn - zp), grad_raw, None


def _oim_loss(z, blended, y, head, tac, cfg):
    logits = oim_scores(tac, blended, cfg.temperature)
    loss, glog, acc = _softmax_loss(logits, y, cfg)
    return loss, acc, (glog @ tac.table) / cfg.temperature, np.zeros_like(z), None


def _cross_entropy_loss(z, blended, y, head, tac, cfg):
    logits, head_cache = forward(head, blended)
    loss, glog, acc = _softmax_loss(logits, y, cfg)
    head_grads = backward(head, head_cache, glog)
    grad_blended = input_gradient(head, head_cache, glog)
    return loss, acc, grad_blended, np.zeros_like(z), head_grads


def _softmax_loss(logits, y, cfg):
    targets = label_smooth(y, logits.shape[1], cfg.label_smoothing)
    loss, glog = cross_entropy(logits, targets, with_grads=True)
    return loss, glog, float(np.mean(np.argmax(logits, axis=1) == y))


def _classification_accuracy(z, labels, head, tac, temperature) -> float:
    """Argmax accuracy of raw (unblended) embeddings, scored by the head, or
    by table lookup when there is no head."""
    if z.shape[0] == 0:
        return float("nan")
    logits = oim_scores(tac, z, temperature) if head is None else forward(head, z)[0]
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def train_two_stage(train_ds: Dataset, val_ds: Dataset | None, cfg: TrainConfig):
    """Cross-entropy pretrain, then discard the head, re-derive a fresh
    class table, and continue with triplet training from the stage-1
    encoder. Logs concatenate with stage markers 1 and 2."""
    if cfg.loss_mode != "cross_entropy":
        raise ConfigurationError(
            f"two-stage training starts from cross_entropy, got {cfg.loss_mode!r}"
        )
    if cfg.stage2 is None:
        raise ConfigurationError("two-stage training needs a stage2 config")
    if cfg.stage2.loss_mode != "triplet":
        raise ConfigurationError(
            f"stage2 must use the triplet loss, got {cfg.stage2.loss_mode!r}"
        )
    if cfg.stage2.hidden_dims != cfg.hidden_dims or cfg.stage2.embed_dim != cfg.embed_dim:
        raise ConfigurationError("stage2 must keep the stage-1 encoder architecture")

    stage1_cfg = replace(cfg, stage2=None)
    params, _, logs1 = train(train_ds, val_ds, stage1_cfg, stage=1)
    params2, tac2, logs2 = train(
        train_ds, val_ds, cfg.stage2,
        initial_params=params, stage=2, epoch_offset=cfg.epochs,
    )
    return params2, tac2, logs1 + logs2


def evaluate_checkpoint(
    params: ModelParams,
    tac: ClassTable,
    split: Dataset,
    protocol: str,
    seed: int = 0,
    n_way: int = 5,
    k_shot: int = 1,
    q_queries: int = 15,
    episodes: int = 600,
    temperature: float = 1.0,
    metric: str = "euclidean",
):
    """Metric rows [(name, value, ci95-or-None)] for one protocol.

    episodic: N-way K-shot nearest-prototype accuracy over seeded episodes.
    retrieval: per class the first sample (in row order) queries the rest.
    classification: table-lookup argmax accuracy (the split must carry the
    table's classes). The split is embedded once, after these checks.
    """
    rows = None
    if protocol == "episodic":
        rows = episode_rows(split.labels, n_way, k_shot, q_queries, episodes, seed)
    elif protocol == "classification":
        if split.class_count != tac.num_classes:
            raise ConfigurationError(
                f"split has {split.class_count} classes but the table holds "
                f"{tac.num_classes}"
            )
    elif protocol != "retrieval":
        raise ConfigurationError(
            f"protocol must be episodic, retrieval, or classification, got {protocol!r}"
        )
    z, _ = forward(params, split.features)
    labels = split.labels
    if rows is not None:
        res = episodic_accuracy(z, rows, k_shot, metric)
        return [("episodic_accuracy", res.mean, res.ci95)]
    if protocol == "classification":
        acc = _classification_accuracy(z, labels, None, tac, temperature)
        return [("classification_accuracy", acc, None)]
    first = {}
    for i, y in enumerate(labels):
        first.setdefault(int(y), i)
    q_rows = np.array(sorted(first.values()), dtype=np.int64)
    g_rows = np.setdiff1d(np.arange(split.size), q_rows)
    if g_rows.size == 0:
        raise DataError("retrieval needs at least one gallery row")
    mean_ap = retrieval_map(z[q_rows], labels[q_rows], z[g_rows], labels[g_rows], metric)
    rank1 = cmc_rank1(z[q_rows], labels[q_rows], z[g_rows], labels[g_rows], metric)
    return [("map", mean_ap, None), ("cmc_rank1", rank1, None)]
