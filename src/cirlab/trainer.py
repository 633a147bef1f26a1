"""Training: one step shared by triplet metric learning and table-lookup /
cross-entropy classification, each with optional wrong-class blending of
the output features, plus the two-stage schedule (cross-entropy pretrain,
then triplet).

Every run is driven by one master seed. Independent random streams are
derived with child_seed(master, k): k=0 encoder init, 1 class-table init,
2 the training stream (batches and negative-class draws), 3 validation
episodes, 4 train-proxy episodes, 5 holdout selection, 6 classifier head
init, 7 the Gaussian noise of the control arm. Runs are fully
deterministic on one thread. Both episode sets are drawn once per run,
as the (support, query) pairs of `episode_rows`, and after each epoch
every split is embedded once for all the metrics scored on it.

The draws are made per epoch: `_Parts.epoch`, every head's one reader of
the training stream, draws an epoch's batches and decoys with the bits of
a step-by-step draw (`pk_epoch` for batch-all PK runs, else `step_draws`).
Per iteration: embed the batch, blend the designated rows toward their
decoys' table rows (or add matched Gaussian noise instead), compute the
loss on blended-anchor/raw-other rows, pull anchor gradients back through
the blend's (1 - strength) factor, take one SGD step, then fold the *raw
pre-step* per-class batch means into the table.

Every PK batch is class-major with P distinct classes, so its label
pattern is the same on every step: `_mode_parts` builds the batch-all
loss's `TripletMasks` once per run, and the table update sums each
class's block of K rows with a reshape instead of a per-label scatter.

What a run fixes is built once per run, not per step. The encoder and
the cross-entropy head each live in one flat buffer (`flatten_params`):
`backward` writes their gradients into a buffer of the same layout, and
each SGD step is one finiteness check and one in-place subtraction over
the whole buffer (`sgd_step_in_place`, with the bits of `sgd_step`). The
softmax heads take their smoothed targets as rows of one C x C
`label_smooth` table.

Configs that differ only in the anchor treatment (`interference` and
`noise`) can train in lockstep, as arms of one `train` call: the arms
share the split, the initial encoder and table, the episodes and the
batch label pattern, so each step runs the encoder, the head and its
loss, the backward pass, the SGD steps and the table update once, on
arrays with a leading arm axis: every head takes the whole stack. The
arms designate the same rows, and one training stream draws each batch
and its decoy classes once for all of them; each arm then treats its
own anchors, a noise arm with noise from its own generator, computes
its own epoch-end metrics, and gets the bits it gets alone. A single run
is a stack of one arm. A lockstep call finishes for every arm or raises
the first error any arm hits; `reproduce` then trains each arm alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .datagen import Dataset, floor_count
from .errors import ConfigurationError, DataError, NumericError
from .evaluate import episodic_accuracy, geometry_stats, retrieval_scores
from .interference import (
    InterferenceConfig,
    NoiseConfig,
    designated_rows,
    gaussian_perturb,
    interfere,
    interfere_backward,
    matched_noise_sigma,
)
from .losses import (
    TripletConfig,
    batch_all_triplet_loss,
    batch_cross_entropy,
    label_smooth,
    oim_scores,
    triplet_masks,
)
from .nn import (
    ModelParams,
    backward,
    check_activation,
    flatten_params,
    forward,
    init_params,
    input_gradient,
    sgd_step_in_place,
    stack_params,
)
from .sampling import (
    ClassIndex, PKSpec, check_array_size, check_episode_set, check_seed,
    child_seed, episode_rows, pk_epoch, step_draws,
)
from .tac import ClassTable, tac_init, tac_update

LOSS_MODES = ("triplet", "oim", "cross_entropy")
MINING_MODES = ("batch_all", "preformed")

CSV_HEADER = "epoch,stage,lr,train_loss,train_acc,val_acc,center_dist,inter_intra_ratio"


@dataclass(frozen=True)
class TrainConfig:
    """Everything one run needs; see the module docstring for semantics.

    Construction refuses every setting that training would refuse, so a
    config that parses can train on any split that `check_feasible` passes.

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
        check_seed(self.seed)
        if self.embed_dim < 1:
            raise ConfigurationError("embed_dim must be >= 1")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigurationError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        # a bias is one width, and a weight matrix two adjacent widths
        widths = [
            *((f"hidden_dims[{i}] = {h}", h) for i, h in enumerate(self.hidden_dims)),
            (f"embed_dim = {self.embed_dim}", self.embed_dim),
        ]
        for name, width in widths:
            check_array_size(name, width)
        for (a, wa), (b, wb) in zip(widths, widths[1:]):
            check_array_size(f"{a} x {b}", wa * wb)
        check_activation(self.activation)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.decay_start_epoch < 0:
            raise ConfigurationError(
                f"decay_start_epoch must be >= 0, got {self.decay_start_epoch}"
            )
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigurationError(
                f"decay_factor must lie in (0, 1], got {self.decay_factor}"
            )
        # the rate only decays, so the last epoch's is the smallest
        if self.epochs and not self.rate(self.epochs - 1) > 0.0:
            raise ConfigurationError(
                f"learning rate decays to {self.rate(self.epochs - 1)} by epoch "
                f"{self.epochs - 1}; it must stay > 0"
            )
        PKSpec(self.p_classes, self.k_samples)
        # an epoch draw holds at most 4 P K values a step, for every head
        check_array_size(
            f"iterations = {self.iterations} x 4 x p_classes x k_samples",
            self.iterations * 4 * self.p_classes * self.k_samples,
        )
        # a checkpoint stores gamma as a float32, which must not round to 0
        if not 0.0 < self.tac_momentum <= 1.0 or np.float32(self.tac_momentum) == 0:
            raise ConfigurationError(
                f"gamma (tac_momentum) must lie in (0, 1], got {self.tac_momentum}"
            )
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
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigurationError(
                f"temperature must be finite and > 0, got {self.temperature}"
            )
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigurationError("label_smoothing must lie in [0, 1)")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigurationError("holdout_fraction must lie in [0, 1)")
        if self.loss_mode in ("oim", "cross_entropy") and self.holdout_fraction == 0.0:
            raise ConfigurationError(
                "classification modes need holdout_fraction > 0 for validation"
            )
        check_episode_set(
            self.eval_n_way, self.eval_k_shot, self.eval_q_queries,
            self.eval_episodes, "eval_episodes",
        )
        if self.stage2 is not None:
            self._check_two_stage()

    def _check_two_stage(self):
        """Stage 1 pretrains with cross-entropy; stage 2 continues its
        encoder with the triplet loss, so it keeps the encoder's dims and
        activation."""
        if self.loss_mode != "cross_entropy":
            raise ConfigurationError(
                f"two-stage training starts from cross_entropy, got {self.loss_mode!r}"
            )
        if self.stage2.stage2 is not None:
            raise ConfigurationError("two-stage schedules do not nest further")
        if self.stage2.loss_mode != "triplet":
            raise ConfigurationError(
                f"stage2 must use the triplet loss, got {self.stage2.loss_mode!r}"
            )
        if (
            self.stage2.hidden_dims != self.hidden_dims
            or self.stage2.embed_dim != self.embed_dim
        ):
            raise ConfigurationError("stage2 must keep the stage-1 encoder architecture")
        # stage 2 continues the stage-1 encoder, activation included
        if self.stage2.activation != self.activation:
            raise ConfigurationError(
                f"stage2 must keep the stage-1 activation {self.activation!r}, "
                f"got {self.stage2.activation!r}"
            )

    def rate(self, epoch: int) -> float:
        """The SGD rate of `epoch`: learning_rate until decay_start_epoch,
        then decayed by decay_factor per epoch."""
        exponent = max(0, epoch - self.decay_start_epoch)
        return self.learning_rate * self.decay_factor**exponent


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
    """Deterministic stratified holdout: per class, the first floor(fraction
    * count) of a seeded permutation of its rows (counted by `floor_count`)."""
    rng, index = np.random.default_rng(seed), ClassIndex(labels)
    held = []
    for start, size in zip(index.offsets, index.sizes):
        take = int(floor_count(fraction * size))
        if take:
            held.extend(index.order[start + rng.permutation(size)[:take]])
    held = np.array(sorted(held), dtype=np.int64)
    keep = np.setdiff1d(np.arange(len(labels)), held)
    return keep, held


def check_feasible(train_ds: Dataset, val_ds: Dataset | None, cfg: TrainConfig) -> None:
    """Reject config/split mismatches before touching any rng."""
    if train_ds.size == 0:
        raise DataError("training split is empty")
    _check_class_count(train_ds, "train")
    if val_ds is not None and val_ds.input_dim != train_ds.input_dim:
        raise DataError(
            f"validation split has {val_ds.input_dim} input columns, "
            f"train split has {train_ds.input_dim}"
        )
    # the split's widths size the first weight matrix and the class table
    name, width = (
        ("hidden_dims[0]", cfg.hidden_dims[0]) if cfg.hidden_dims
        else ("embed_dim", cfg.embed_dim)
    )
    check_array_size(
        f"input_dim = {train_ds.input_dim} x {name} = {width}",
        train_ds.input_dim * width,
    )
    check_array_size(
        f"class_count = {train_ds.class_count} x embed_dim = {cfg.embed_dim}",
        train_ds.class_count * cfg.embed_dim,
    )
    if cfg.loss_mode == "triplet":
        _check_rows(train_ds, "train", cfg.p_classes, cfg.k_samples, "batches")
        if val_ds is None:
            raise DataError("triplet mode needs a validation split for episodes")
        _check_class_count(val_ds, "validation")
        # the per-epoch accuracies score episodes on both splits
        need = cfg.eval_k_shot + cfg.eval_q_queries
        for ds, split in ((train_ds, "train"), (val_ds, "validation")):
            _check_rows(ds, split, cfg.eval_n_way, need, "episodes")
    elif not floor_count(cfg.holdout_fraction * np.bincount(train_ds.labels)).any():
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
    (bincounts here, the class table in train()), which labels index
    unchecked. Refuse more classes than rows, which leaves some class empty,
    and labels outside the count before any such allocation."""
    if ds.class_count > ds.size:
        raise DataError(
            f"{split} split declares {ds.class_count} classes "
            f"but has only {ds.size} rows"
        )
    if ds.size and not 0 <= ds.labels.min() <= ds.labels.max() < ds.class_count:
        raise DataError(f"{split} split has labels outside [0, {ds.class_count})")


def _treat(out, z, decoys, tac, cfg, rng):
    """Write an arm's treatment of its designated rows, the leading
    len(decoys) rows of z, into out: matched or fixed-scale noise from rng,
    the arm's own noise generator (control arm), the blend toward the
    decoys' rows of tac, or nothing."""
    n, blend = len(decoys), cfg.interference
    if cfg.noise is not None and cfg.noise.enabled:
        sigma = cfg.noise.sigma
        if sigma is None:
            sigma = matched_noise_sigma(z[:n], tac, blend.strength, decoys)
        out[:n] = gaussian_perturb(z[:n], sigma, rng)
    elif blend.blends(n):
        out[:n] = interfere(z[:n], tac.table[decoys], blend.strength)


def _check_arms(cfg, arms):
    """Lockstep arms differ only in the anchor treatment, the blend's
    switch and strength and the noise: they designate the same rows, so
    one draw of decoys serves them all."""
    for i, arm in enumerate(arms, 1):
        blend = arm.interference
        treated = replace(cfg.interference, enabled=blend.enabled, strength=blend.strength)
        if replace(cfg, interference=treated, noise=arm.noise) != arm:
            raise ConfigurationError(
                f"arm {i} differs from the first config in more than the "
                "blend's switch and strength and the noise"
            )


def train(
    train_ds: Dataset,
    val_ds: Dataset | None,
    cfg: TrainConfig,
    initial_params: ModelParams | None = None,
    stage: int = 1,
    epoch_offset: int = 0,
    arms: tuple = (),
):
    """Run one training stage; returns (params, table, epoch logs).

    With initial_params the encoder continues from that state (its own
    fresh table is still created — stage 2 of the two-stage schedule).

    arms are further configs that differ from cfg only in `interference`
    and `noise`, with the same `interference.fraction`. They train in
    lockstep with cfg: each step takes one batch and one set of decoys,
    and runs the encoder, the loss, the SGD step and the table update
    once for all of them, stacked on a leading arm axis; the anchor
    treatment, each arm's noise generator and the epoch-end metrics stay
    per arm. With arms the call returns one (params, table, logs) per
    config of (cfg, *arms), each with the bits of a `train` call on that
    config alone; the first error any arm hits is raised for the call.
    """
    if cfg.stage2 is not None:
        raise ConfigurationError("train runs one stage; use train_two_stage for stage2")
    _check_arms(cfg, arms)
    check_feasible(train_ds, val_ds, cfg)

    dims = (train_ds.input_dim, *cfg.hidden_dims, cfg.embed_dim)
    if initial_params is not None:
        if initial_params.layer_dims != dims:
            raise ConfigurationError(
                f"initial params dims {initial_params.layer_dims} do not match "
                f"configured dims {dims}"
            )
        params = initial_params
    else:
        params = init_params(dims, cfg.activation, seed=child_seed(cfg.seed, 0))
    tac = tac_init(
        train_ds.class_count, cfg.embed_dim, cfg.tac_momentum,
        seed=child_seed(cfg.seed, 1),
    )

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

    parts = _mode_parts(cfg, fit_labels, train_ds.class_count)
    if cfg.loss_mode == "triplet":
        # fixed master seeds: the same episodes score every epoch
        shape = cfg.eval_n_way, cfg.eval_k_shot, cfg.eval_q_queries, cfg.eval_episodes
        train_episodes = episode_rows(labels, *shape, child_seed(cfg.seed, 4))
        val_episodes = episode_rows(val_ds.labels, *shape, child_seed(cfg.seed, 3))

    # every arm starts from the same encoder, head and table, and draws
    # its batches and decoys from one training stream; the stacked
    # encoder and head each step in place in one flat buffer
    configs = (cfg, *arms)
    count = len(configs)
    rng = np.random.default_rng(child_seed(cfg.seed, 2))
    noise_rngs = [np.random.default_rng(child_seed(cfg.seed, 7)) for _ in configs]
    encoder = flatten_params(stack_params([params] * count))
    params = encoder.params
    if head is not None:
        head = flatten_params(stack_params([head] * count))
    tac = ClassTable(np.stack([tac.table] * count), tac.momentum)
    logs = [[] for _ in configs]

    def epoch_log(s, e, rate, loss_sum, acc_sum):
        """Arm s's log row of epoch e, from its own embeddings."""
        arm_params = params.arm(s)
        z_train = forward(arm_params, feats)[0]
        if cfg.loss_mode == "triplet":
            train_acc = episodic_accuracy(z_train, train_episodes).mean
            z_val = forward(arm_params, val_ds.features)[0]
            val_acc = episodic_accuracy(z_val, val_episodes).mean
        else:
            train_acc = acc_sum / cfg.iterations
            val_acc = _classification_accuracy(
                forward(arm_params, held_feats)[0], held_labels,
                None if head is None else head.params.arm(s), tac.arm(s),
                cfg.temperature,
            )
        geom = geometry_stats(z_train, labels)
        return EpochLog(
            epoch=epoch_offset + e,
            stage=stage,
            lr=rate,
            train_loss=loss_sum / cfg.iterations,
            train_acc=train_acc,
            val_acc=val_acc,
            center_dist=geom.center_distance,
            inter_intra_ratio=geom.ratio,
        )

    for e in range(cfg.epochs):
        rate = cfg.rate(e)
        loss_sum, acc_sum = np.zeros(count), np.zeros(count)
        rows, decoys = parts.epoch(rng, cfg.iterations)
        for it in range(cfg.iterations):
            step = _step(
                encoder, head, tac, fit_feats, fit_labels, parts, configs,
                rows[it], decoys[it], noise_rngs,
            )
            # the blended or noised anchors too: the batch-all loss leaves a
            # non-finite anchor's triplets inactive, so its loss stays finite
            if not all(np.isfinite(a).all() for a in (step.loss, step.z, step.blended)):
                raise NumericError(
                    f"non-finite loss or embeddings at epoch {epoch_offset + e} "
                    f"iteration {it}"
                )
            sgd_step_in_place(encoder, rate)
            if head is not None:
                sgd_step_in_place(head, rate)
            tac = tac_update(
                tac, step.z, step.y, normalize=cfg.tac_normalize,
                class_rows=parts.class_rows,
            )
            loss_sum += step.loss
            if step.acc is not None:
                acc_sum += step.acc
        losses, accs = loss_sum.tolist(), acc_sum.tolist()
        for s in range(count):
            logs[s].append(epoch_log(s, e, rate, losses[s], accs[s]))

    outcomes = [(params.arm(s), tac.arm(s), logs[s]) for s in range(count)]
    return outcomes if arms else outcomes[0]


class StepRecord(NamedTuple):
    """What one step of a stack of arms gives back, each with a leading
    arm axis: the batch's embeddings z, the treated anchors, the labels
    y, the loss and the batch accuracy (None for the triplet heads)."""

    z: np.ndarray
    blended: np.ndarray
    y: np.ndarray
    loss: np.ndarray
    acc: np.ndarray | None


def _step(encoder, head, tac, feats, labels, parts, cfgs, rows, decoys, noise_rngs):
    """One training step of a stack of arms on batch `rows`, for every
    head; returns its `StepRecord` and leaves the gradients of the flat
    encoder and head (or None) in their gradient buffers. Arm s treats
    its designated anchors under cfgs[s] against its own table tac.arm(s)
    and the `decoys`, one per designated row, with any noise
    from noise_rngs[s]; the encoder, the head, the loss and the backward
    pass run once, on the stacked params, head and tables."""
    rows = np.broadcast_to(rows, (len(cfgs), rows.size))
    x, y = feats.take(rows, axis=0), labels.take(rows)
    z, cache = forward(encoder.params, x)
    n_anchor, n = parts.anchors, parts.designated
    # one copy for the stack, untreated arms included, which the arms'
    # treatments then overwrite in place
    blended = z[:, :n_anchor].copy()
    if n:
        for s, cfg in enumerate(cfgs):
            _treat(blended[s], z[s], decoys, tac.arm(s), cfg, noise_rngs[s])
    # the arms share every setting a head reads (`_check_arms`)
    loss, acc, grad_blended, grad_z = parts.head_loss(
        z, blended, y, head, tac, cfgs[0]
    )
    # d(blended)/dz is (1 - strength) on the blended rows, a prefix, and
    # the identity on the others, noise-perturbed rows included (the noise
    # is additive); an arm with the blend off skips the multiply
    for s, cfg in enumerate(cfgs):
        blend = cfg.interference
        if blend.blends(n):
            grad_blended[s, :n] = interfere_backward(grad_blended[s, :n], blend.strength)
    grad_z[:, :n_anchor] += grad_blended
    backward(encoder.params, cache, grad_z, out=encoder.grads)
    return StepRecord(z, blended, y, loss, acc)


class _Parts(NamedTuple):
    """The per-mode parts of the epoch draw and `_step`; see `_mode_parts`."""

    epoch: Callable
    anchors: int
    designated: int
    head_loss: Callable
    class_rows: int | None


def _mode_parts(cfg, labels, num_classes):
    """Pick the per-mode parts of the epoch draw and `_step` once per run.

    epoch(rng, steps) draws an epoch's int64 rows (steps x batch rows)
    and decoys (steps x designated): `pk_epoch` for batch-all PK runs,
    `step_draws` on a one-batch sampler for the others. The leading
    `anchors` rows of a batch are anchors: all rows of PK and uniform
    batches, the a-rows of preformed mining's [a | p | n] stack of
    batch_size independent draws. The leading `designated` anchors are
    the ones the arms treat; every arm designates as many (`_check_arms`).
    head_loss(z, blended, y, head, tac, cfg) takes a stack of arms: z, the
    blended anchors and y with a leading arm axis, the flat stacked head
    (or None) and class tables, and cfg, whose head settings every arm
    shares (`_check_arms`). It returns (loss, batch accuracy or None for
    the triplet heads, gradient w.r.t. the blended anchors, gradient
    w.r.t. the raw rows), each with a leading arm axis, and leaves the
    head's gradients in its gradient buffer. The softmax heads take their
    targets as rows of one C x C table of smoothed distributions, built
    here for the run's `num_classes`.
    class_rows is K when every batch is a class-major PK batch of
    distinct classes, for `tac_update`, else None.
    """
    pk, n = PKSpec(cfg.p_classes, cfg.k_samples), len(labels)
    b = pk.batch_size if cfg.loss_mode == "triplet" else min(pk.batch_size, n)
    designated = designated_rows(cfg.interference.fraction, b)
    if cfg.loss_mode != "triplet":
        head_loss = _oim_loss if cfg.loss_mode == "oim" else _cross_entropy_loss
        targets = label_smooth(np.arange(num_classes), num_classes, cfg.label_smoothing)
        return _Parts(
            partial(step_draws, (lambda rng: rng.choice(n, size=b, replace=False)),
                    labels, designated, num_classes),
            b,
            designated,
            partial(head_loss, targets=targets),
            None,
        )
    # check_feasible has already required P classes of K rows each
    index = ClassIndex(labels)
    if cfg.mining == "batch_all":
        # every PK batch has this label pattern, whichever classes it draws
        masks = triplet_masks(np.repeat(np.arange(pk.p_classes), pk.k_samples))
        return _Parts(
            partial(pk_epoch, index, pk, designated=designated, num_classes=num_classes),
            b,
            designated,
            partial(_batch_all_loss, masks=masks),
            pk.k_samples,
        )
    # for each position of `index.order`: where its class's block starts,
    # and how many rows it holds
    order = index.order
    lo, size = np.repeat([index.offsets, index.sizes], index.sizes, axis=1)

    def preformed(rng):
        # positions in `order`: an anchor, a positive among the k - 1
        # other rows of its class's block (k >= 2), a negative among the
        # n - k positions outside the block
        a = rng.integers(0, n, size=b)
        first, k = lo[a], size[a]
        p = first + rng.integers(0, k - 1)
        p += p >= a
        r = rng.integers(0, n - k)
        r += (r >= first) * k
        return order[np.concatenate([a, p, r])]

    epoch = partial(step_draws, preformed, labels, designated, num_classes)
    return _Parts(epoch, b, designated, _preformed_loss, None)


def _batch_all_loss(z, blended, y, head, tac, cfg, masks):
    res = batch_all_triplet_loss(z, blended, cfg.triplet, masks)
    return res.loss, None, res.grad_anchor, res.grad_other


def _preformed_loss(z, blended, y, head, tac, cfg):
    """Mean hinge of the stacked (a, p, n) triplets, squared distances."""
    b = blended.shape[1]
    zp, zn = z[:, b : 2 * b], z[:, 2 * b :]
    diff_p, diff_n = blended - zp, blended - zn
    hinge = cfg.triplet.margin + (diff_p**2).sum(axis=2) - (diff_n**2).sum(axis=2)
    w = (hinge > 0.0)[..., None] / b
    grad_raw = np.concatenate(
        [np.zeros_like(blended), -2.0 * w * diff_p, 2.0 * w * diff_n], axis=1
    )
    return np.maximum(hinge, 0.0).mean(axis=1), None, 2.0 * w * (zn - zp), grad_raw


def _oim_loss(z, blended, y, head, tac, cfg, targets):
    logits = oim_scores(tac, blended, cfg.temperature)
    loss, glog, acc = _softmax_loss(logits, y, targets)
    return loss, acc, (glog @ tac.table) / cfg.temperature, np.zeros_like(z)


def _cross_entropy_loss(z, blended, y, head, tac, cfg, targets):
    logits, head_cache = forward(head.params, blended)
    loss, glog, acc = _softmax_loss(logits, y, targets)
    backward(head.params, head_cache, glog, out=head.grads)
    grad_blended = input_gradient(head.params, head_cache, glog)
    return loss, acc, grad_blended, np.zeros_like(z)


def _softmax_loss(logits, y, targets):
    # the rows of label_smooth's table are distributions: no need for
    # cross_entropy's checks
    loss, glog = batch_cross_entropy(logits, targets.take(y, axis=0))
    # each arm's mean of the hits: an exact integer count over the row
    # count, rounded once as the mean rounds it
    return loss, glog, (logits.argmax(axis=-1) == y).sum(axis=-1) / y.shape[-1]


def _classification_accuracy(z, labels, head, tac, temperature) -> float:
    """Argmax accuracy of raw (unblended) embeddings, scored by the head, or
    by table lookup when there is no head."""
    logits = oim_scores(tac, z, temperature) if head is None else forward(head, z)[0]
    if not np.isfinite(logits).all():
        raise NumericError("non-finite classification logits")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def train_two_stage(train_ds: Dataset, val_ds: Dataset | None, cfg: TrainConfig):
    """Cross-entropy pretrain, then discard the head, re-derive a fresh
    class table, and continue with triplet training from the stage-1
    encoder. Logs concatenate with stage markers 1 and 2; TrainConfig has
    checked the pair of stages."""
    if cfg.stage2 is None:
        raise ConfigurationError("two-stage training needs a stage2 config")

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
    temperature: float = 1.0,
    metric: str = "euclidean",
    episodes: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Metric rows [(name, value, ci95-or-None)] for one protocol.

    episodic: N-way K-shot nearest-prototype accuracy over `episodes`, the
    (support, query) split rows that the caller drew with `episode_rows`;
    the other protocols take no episodes.
    retrieval: per class the first sample (in row order) queries the rest.
    classification: table-lookup argmax accuracy (the split must carry the
    table's classes and at least one row). The split is embedded once,
    after these checks.
    """
    if protocol not in ("episodic", "retrieval", "classification"):
        raise ConfigurationError(
            f"protocol must be episodic, retrieval, or classification, got {protocol!r}"
        )
    if (episodes is None) == (protocol == "episodic"):
        raise ConfigurationError(
            f"protocol {protocol} {'needs' if episodes is None else 'takes no'} "
            "episode rows"
        )
    if protocol == "classification":
        if split.class_count != tac.num_classes:
            raise ConfigurationError(
                f"split has {split.class_count} classes but the table holds "
                f"{tac.num_classes}"
            )
        if split.size == 0:
            raise DataError("classification needs at least one row")
    z, _ = forward(params, split.features)
    labels = split.labels
    if episodes is not None:
        res = episodic_accuracy(z, episodes, metric)
        return [("episodic_accuracy", res.mean, res.ci95)]
    if protocol == "classification":
        acc = _classification_accuracy(z, labels, None, tac, temperature)
        return [("classification_accuracy", acc, None)]
    q_rows = np.sort(np.unique(labels, return_index=True)[1])
    g_rows = np.setdiff1d(np.arange(split.size), q_rows)
    if g_rows.size == 0:
        raise DataError("retrieval needs at least one gallery row")
    mean_ap, rank1 = retrieval_scores(
        z[q_rows], labels[q_rows], z[g_rows], labels[g_rows], metric
    )
    return [("map", mean_ap, None), ("cmc_rank1", rank1, None)]
