"""Running table of per-class average embeddings.

One row per class, updated by an exponential moving average of per-class
batch means. The table is treated as a constant during backpropagation:
lookups feed the interference blend, but no gradient flows back into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, ShapeError


@dataclass
class ClassTable:
    """table has shape (num_classes, dim); momentum is the EMA weight on
    the fresh batch mean. A stack of S tables of one momentum has shape
    (S, num_classes, dim)."""

    table: np.ndarray
    momentum: float

    @property
    def num_classes(self) -> int:
        return self.table.shape[-2]

    @property
    def dim(self) -> int:
        return self.table.shape[-1]

    def arm(self, s: int) -> "ClassTable":
        """Table s of a stack, as a plain table viewing the stack's array."""
        return ClassTable(self.table[s], self.momentum)


def tac_init(
    num_classes: int, dim: int, momentum: float = 0.5, seed: int = 0
) -> ClassTable:
    """Create a class table with rows drawn N(0, 1), seed-determined.

    At least two classes are required — the whole point of the table is
    offering a *wrong* class to blend toward.
    """
    if num_classes < 2:
        raise ConfigurationError(
            f"num_classes must be >= 2 (need a wrong class), got {num_classes}"
        )
    if dim < 1:
        raise ConfigurationError(f"dim must be >= 1, got {dim}")
    if not 0.0 < momentum <= 1.0:
        raise ConfigurationError(f"momentum must lie in (0, 1], got {momentum}")
    table = np.random.default_rng(seed).normal(0.0, 1.0, size=(num_classes, dim))
    return ClassTable(table=table, momentum=momentum)


def tac_update(
    tac: ClassTable,
    features: np.ndarray,
    labels: np.ndarray,
    normalize: bool = False,
    class_rows: int | None = None,
) -> ClassTable:
    """Blend fresh per-class batch means into the table.

    Rows for classes present in the batch move by
    row <- (1 - momentum) * row + momentum * batch_mean; absent classes keep
    their rows. With normalize=True each updated row is rescaled to unit
    Euclidean norm afterward (rows with zero norm are left alone). Returns a
    new table; the input is untouched.

    class_rows = K declares a class-major batch of distinct classes, K rows
    each, as PK sampling draws it: each class's rows then form one block
    and are summed with a reshape, in the same order and to the same bits
    as the general per-label accumulation. Either path also takes a stack
    of S tables with S x B features and S x B labels, batch s updating
    table s to the bits of that update alone.
    """
    features = np.asarray(features, dtype=np.float64)
    if (
        features.ndim != tac.table.ndim
        or features.shape[-1] != tac.dim
        or features.shape[:-2] != tac.table.shape[:-2]
    ):
        raise ShapeError(
            f"features shape {features.shape} does not match table shape "
            f"{tac.table.shape}"
        )
    labels = np.asarray(labels)
    n = features.shape[-2]
    if class_rows is None:
        if labels.shape != features.shape[:-1]:
            raise ShapeError(f"labels shape {labels.shape} does not match {n} rows")
    elif class_rows < 1 or labels.shape != features.shape[:-1] or n % class_rows:
        raise ShapeError(
            f"labels shape {labels.shape} is not a class-major batch of "
            f"{n} rows, {class_rows} per class"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= tac.num_classes):
        raise InputError(f"labels must lie in [0, {tac.num_classes})")
    table = tac.table.copy()
    _fold(table, tac.momentum, features, labels, normalize, class_rows)
    return ClassTable(table=table, momentum=tac.momentum)


def _fold(
    table: np.ndarray,
    momentum: float,
    features: np.ndarray,
    labels: np.ndarray,
    normalize: bool,
    class_rows: int | None,
) -> None:
    """`tac_update`'s fold without its checks, written into table in
    place: table must be C-contiguous, and features (float64) and labels
    must be a batch that `tac_update` would accept for it."""
    num_classes, dim = table.shape[-2:]
    # a stack's tables as one (S * C) x d view, row s * C + c being row c
    # of table s (one table needs no offset); keys are the flat rows of the
    # batch's rows (general path) or of its classes' blocks (class-major)
    flat = table.reshape(-1, dim)
    keys = labels if class_rows is None else labels[..., ::class_rows]
    if len(flat) > num_classes:
        keys = keys + np.arange(0, len(flat), num_classes)[:, None]
    keys = keys.reshape(-1)
    if class_rows is None:
        # the present classes' means: bincount adds each (class, column)
        # cell's entries in row order from zero, as np.add.at would
        counts = np.bincount(keys, minlength=len(flat))
        cells = (keys[:, None] * dim + np.arange(dim)).reshape(-1)
        sums = np.bincount(cells, features.reshape(-1), minlength=flat.size)
        classes = np.flatnonzero(counts)
        means = sums.reshape(flat.shape)[classes] / counts[classes, None]
    else:
        classes = keys
        # the blocks add each class's rows in row order, as np.add.at does;
        # + 0.0 makes an all -0.0 sum the +0.0 that np.add.at's zero start
        # gives, whatever sign this numpy's reduction leaves on it
        blocks = features.reshape(-1, class_rows, dim)
        means = (blocks.sum(axis=-2) + 0.0) / class_rows
    rows = (1.0 - momentum) * flat[classes] + momentum * means
    if normalize:
        norms = np.linalg.norm(rows, axis=-1)
        safe = norms > 0
        rows[safe] = rows[safe] / norms[safe, None]
    flat[classes] = rows
