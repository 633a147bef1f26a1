"""Blending embeddings toward wrong-class averages, and a noise control.

The blend replaces a training embedding z with (1 - strength) * z +
strength * mu, where mu is the table row of a uniformly drawn *other*
class. The table row is a constant for backpropagation, so the gradient of
anything downstream with respect to z just picks up a factor (1 - strength).

The Gaussian control perturbs embeddings by isotropic noise of a matched
magnitude instead, to separate "moved toward a decoy class" from "moved
anywhere at all".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import floor_count
from .errors import ConfigurationError, InputError, ShapeError
from .sampling import negative_classes
from .tac import ClassTable


@dataclass(frozen=True)
class InterferenceConfig:
    """strength is the blend weight on the decoy row; fraction is the share
    of batch rows designated for blending (1.0 = every row)."""

    strength: float = 0.5
    fraction: float = 1.0
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.strength <= 1.0:
            raise ConfigurationError(
                f"strength must lie in [0, 1], got {self.strength}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must lie in [0, 1], got {self.fraction}"
            )

    def blends(self, rows: int) -> bool:
        """Whether the blend moves any of `rows` rows (strength 0 runs as off)."""
        return self.enabled and self.strength > 0.0 and rows > 0


@dataclass(frozen=True)
class NoiseConfig:
    """Isotropic Gaussian control: sigma > 0 fixes the scale; sigma = None
    requests a norm-matched scale computed by the caller per batch."""

    sigma: float | None = None
    enabled: bool = False

    def __post_init__(self):
        if self.sigma is not None and not (
            math.isfinite(self.sigma) and self.sigma >= 0
        ):
            raise ConfigurationError(f"sigma must be finite and >= 0, got {self.sigma}")


def interfere(z: np.ndarray, mu: np.ndarray, strength: float) -> np.ndarray:
    """(1 - strength) * z + strength * mu, rowwise."""
    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if z.shape != mu.shape:
        raise ShapeError(f"z shape {z.shape} != mu shape {mu.shape}")
    if not 0.0 <= strength <= 1.0:
        raise InputError(f"strength must lie in [0, 1], got {strength}")
    return (1.0 - strength) * z + strength * mu


def designated_rows(fraction: float, n: int) -> int:
    """How many leading rows of an n-row batch are designated: ceil(fraction
    * n), with `floor_count`'s rule for a near-integer product (0.14 * 50
    is 7.000000000000001 in float, and designates 7 rows, not 8)."""
    return int(-floor_count(-(fraction * n)))


def interfere_backward(grad_blended: np.ndarray, strength: float) -> np.ndarray:
    """Pull a gradient back through the blend: d(blended)/dz = (1 - strength)."""
    if not 0.0 <= strength <= 1.0:
        raise InputError(f"strength must lie in [0, 1], got {strength}")
    return (1.0 - strength) * np.asarray(grad_blended, dtype=np.float64)


def interfere_batch(
    features: np.ndarray,
    labels: np.ndarray,
    tac: ClassTable,
    config: InterferenceConfig,
    rng: np.random.Generator,
):
    """Blend designated rows of a batch toward drawn wrong-class rows.

    The first ceil(fraction * B) rows are designated (`designated_rows`).
    For *every* designated row one negative class is drawn from rng — even
    when the blend is disabled or strength is zero — so random streams
    stay aligned across configurations that differ only in whether
    blending acts. Returns (blended, decoy_labels) where decoy_labels
    holds the drawn class per row, -1 for rows never designated.
    The trainer draws the same decoys with `negative_classes`, once per
    step for every arm, and treats each arm's rows itself.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {features.shape}")
    if labels.shape != (features.shape[0],):
        raise ShapeError("labels do not match feature rows")
    if features.shape[1] != tac.dim:
        raise ShapeError(
            f"feature dim {features.shape[1]} != table dim {tac.dim}"
        )

    n = designated_rows(config.fraction, features.shape[0])
    decoys = np.full(features.shape[0], -1, dtype=np.int64)
    c, designated = tac.num_classes, labels[:n]
    if n:
        if c < 2:
            raise ConfigurationError(
                f"need at least 2 classes to draw a different one, got {c}"
            )
        outside = (designated < 0) | (designated >= c)
        if outside.any():
            raise InputError(f"label {designated[np.argmax(outside)]} outside [0, {c})")
        decoys[:n] = negative_classes(rng, designated, c)

    blended = features.copy()
    if config.blends(n):
        blended[:n] = interfere(features[:n], tac.table[decoys[:n]], config.strength)
    return blended, decoys


def gaussian_perturb(
    features: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Add iid N(0, sigma^2) noise to every entry; sigma = 0 is a no-op
    that still consumes the same number of draws."""
    features = np.asarray(features, dtype=np.float64)
    if sigma < 0:
        raise InputError(f"sigma must be >= 0, got {sigma}")
    noise = rng.normal(0.0, 1.0, size=features.shape)
    return features + sigma * noise


def matched_noise_sigma(
    features: np.ndarray, tac: ClassTable, strength: float, decoys: np.ndarray
) -> float:
    """Scale for the Gaussian control that matches the mean displacement of
    the blend: mean over rows of strength * ||mu_decoy - z|| / sqrt(dim).

    Dividing by sqrt(dim) converts a displacement norm into a per-entry
    sigma whose expected noise norm is comparable. A decoy of -1 marks a
    row that was not designated, which the mean skips.
    """
    features = np.asarray(features, dtype=np.float64)
    decoys = np.asarray(decoys)
    keep = decoys >= 0
    if not keep.all():
        decoys, features = decoys[keep], features[keep]
    if not len(decoys):
        return 0.0
    diff = tac.table[decoys] - features
    # np.linalg.norm(diff, axis=1) and .mean() without their wrappers
    disp = strength * np.sqrt(np.add.reduce(diff * diff, axis=1))
    return float(np.add.reduce(disp) / len(disp) / np.sqrt(features.shape[1]))
