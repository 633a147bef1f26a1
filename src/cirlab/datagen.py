"""Synthetic labeled datasets with controllable class overlap.

Gaussian clusters around uniformly placed centers, with optional fixed
random mixing nonlinearity and label noise as overfit-pressure knobs, plus
class-disjoint train/val/test splitting and a small binary file format.

File format `CIRD`: magic, little-endian u32 version, u32 n, u32 d_in,
u32 C, then n records of (u32 label, d_in x f32 features), then the
generator provenance as a UTF-8 footer.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .sampling import check_array_size, check_seed, negative_classes

MAGIC = b"CIRD"
VERSION = 1

NONLINEARITIES = ("none", "rotate_mix")


# default spec for the reproduction experiments: small classes, mixing
# nonlinearity, and label noise so an unregularized model can overfit
REPRODUCE_SPEC = dict(
    num_classes=40,
    samples_per_class=25,
    input_dim=32,
    spread=1.0,
    center_scale=2.0,
    nonlinearity="rotate_mix",
    label_noise_rate=0.1,
)


@dataclass(frozen=True)
class GeneratorSpec:
    num_classes: int
    samples_per_class: int
    input_dim: int
    spread: float = 1.0
    center_scale: float = 2.0
    nonlinearity: str = "none"
    label_noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigurationError(
                f"num_classes must be >= 2, got {self.num_classes}"
            )
        if self.samples_per_class < 1:
            raise ConfigurationError("samples_per_class must be >= 1")
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        if not (math.isfinite(self.spread) and self.spread > 0):
            raise ConfigurationError(f"spread must be finite and > 0, got {self.spread}")
        # centers are uniform on [-center_scale, center_scale], a finite width
        if not (math.isfinite(2 * self.center_scale) and self.center_scale >= 0):
            raise ConfigurationError(
                f"center_scale must be >= 0 with 2 * center_scale finite, "
                f"got {self.center_scale}"
            )
        if self.nonlinearity not in NONLINEARITIES:
            raise ConfigurationError(
                f"nonlinearity must be one of {NONLINEARITIES}, got {self.nonlinearity!r}"
            )
        if not 0.0 <= self.label_noise_rate < 1.0:
            raise ConfigurationError(
                f"label_noise_rate must lie in [0, 1), got {self.label_noise_rate}"
            )
        # the n x d features outgrow the C x d centres; rotate_mix adds d x d
        d = self.input_dim
        values = max(self.num_classes * self.samples_per_class * d,
                     d * d if self.nonlinearity == "rotate_mix" else 0)
        check_array_size(
            f"num_classes = {self.num_classes}, samples_per_class = "
            f"{self.samples_per_class} and input_dim = {d}", values,
        )
        check_seed(self.seed)

    def describe(self) -> str:
        return (
            f"gaussian_mixture classes={self.num_classes} "
            f"per_class={self.samples_per_class} dim={self.input_dim} "
            f"spread={self.spread} center_scale={self.center_scale} "
            f"nonlinearity={self.nonlinearity} "
            f"label_noise={self.label_noise_rate} seed={self.seed}"
        )


@dataclass
class Dataset:
    """features: n x d_in float32; labels: n int64 in [0, class_count);
    class_map holds the original class id behind each relabeled id when the
    dataset is a split of another."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    provenance: str
    class_map: tuple[int, ...] | None = None

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


def reproduce_spec(seed: int = 0) -> GeneratorSpec:
    return GeneratorSpec(seed=seed, **REPRODUCE_SPEC)


def gen_gaussian_mixture(spec: GeneratorSpec) -> Dataset:
    """Sample the mixture dataset described by spec, fully seed-determined.

    Centers are uniform in [-center_scale, center_scale]^d; each sample is
    its center plus N(0, spread^2 I). rotate_mix then applies a fixed
    random linear mix, tanh, and a random rotation. Label noise reassigns
    a round(rate * n) subset of labels uniformly to wrong classes.
    """
    rng = np.random.default_rng(spec.seed)
    c, per, d = spec.num_classes, spec.samples_per_class, spec.input_dim
    n = c * per
    centers = rng.uniform(-spec.center_scale, spec.center_scale, size=(c, d))
    labels = np.repeat(np.arange(c, dtype=np.int64), per)
    feats = centers[labels] + rng.normal(0.0, spec.spread, size=(n, d))

    if spec.nonlinearity == "rotate_mix":
        mix = rng.normal(0.0, 1.0, size=(d, d)) / np.sqrt(d)
        rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
        feats = np.tanh(feats @ mix.T) @ rot.T

    n_noise = int(round(spec.label_noise_rate * n))
    if n_noise:
        noisy = rng.choice(n, size=n_noise, replace=False)
        labels[noisy] = negative_classes(rng, labels[noisy], c)

    counts = np.bincount(labels, minlength=c)
    if (counts == 0).any():
        raise DataError(
            f"label noise emptied classes {np.flatnonzero(counts == 0).tolist()}; "
            "pick another seed or lower the rate"
        )
    with np.errstate(over="ignore"):  # `save_dataset` refuses the inf
        feats = feats.astype(np.float32)
    return Dataset(
        features=feats,
        labels=labels,
        class_count=c,
        provenance=spec.describe(),
    )


def floor_count(x):
    """floor(x) as an int64 count, for x a product fraction * n: a product
    within 1e-9 of an integer counts as that integer, so float error does
    not drop a whole item (0.57 * 100 is 56.99999999999999 in float, and
    counts 57, not 56). Elementwise on arrays."""
    nearest = np.rint(x)
    return np.where(np.abs(x - nearest) <= 1e-9, nearest, np.floor(x)).astype(np.int64)


def split_counts(fractions: tuple[float, float, float], c: int) -> tuple[int, int, int]:
    """The train/val/test class counts that `split_classes` gives c
    classes: floor(f_train * c) and floor(f_val * c) (both counted by
    `floor_count`), and the rest. Refuses fractions that are not three
    positive numbers summing to 1 within 1e-9, or that leave a split
    without a class."""
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ConfigurationError(f"need three positive fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"fractions must sum to 1, got {sum(fractions)}")
    n_train = int(floor_count(fractions[0] * c))
    n_val = int(floor_count(fractions[1] * c))
    n_test = c - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ConfigurationError(
            f"every split needs >= 1 class; fractions {fractions} over {c} "
            f"classes give {n_train}/{n_val}/{n_test}"
        )
    return n_train, n_val, n_test


def split_classes(
    ds: Dataset, fractions: tuple[float, float, float], seed: int = 0
) -> tuple[Dataset, Dataset, Dataset]:
    """Partition the class set into train/val/test by the given fractions.

    Class ids are permuted by seed; the first ones go to train, the next
    to val, the rest to test, as many as `split_counts` gives. Each split
    relabels its classes to 0..C_split-1 (sampled order) and records the
    original ids in class_map.
    """
    n_train, n_val, _ = split_counts(fractions, ds.class_count)
    check_seed(seed, "split seed")
    c = ds.class_count

    perm = np.random.default_rng(seed).permutation(c)
    groups = (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val :],
    )
    names = ("train", "val", "test")
    relabel = np.empty(c, dtype=np.int64)  # class id -> position in its group
    out = []
    for name, group in zip(names, groups):
        relabel[group] = np.arange(len(group))
        mask = np.isin(ds.labels, group)
        labels = relabel[ds.labels[mask]]
        out.append(
            Dataset(
                features=ds.features[mask].copy(),
                labels=labels,
                class_count=len(group),
                provenance=f"{ds.provenance} | split={name} split_seed={seed}",
                class_map=tuple(int(g) for g in group),
            )
        )
    return tuple(out)


def save_dataset(ds: Dataset, path: str) -> None:
    """Write the CIRD binary format (see module docstring); refuses, as
    `load_dataset` does, a feature that is not finite in float32."""
    with np.errstate(over="ignore"):  # the check below refuses an overflow
        feats = np.ascontiguousarray(ds.features, dtype="<f4")
    if not np.isfinite(feats).all():
        row = np.flatnonzero(~np.isfinite(feats).all(axis=1))[0]
        raise DataError(f"{path}: row {row} has a non-finite feature")
    labels = np.asarray(ds.labels, dtype="<u4")
    n, d = feats.shape
    rec = np.dtype([("label", "<u4"), ("feat", "<f4", (d,))])
    records = np.empty(n, dtype=rec)
    records["label"] = labels
    records["feat"] = feats
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIII", VERSION, n, d, ds.class_count))
        fh.write(records.tobytes())
        fh.write(ds.provenance.encode("utf-8"))


def load_dataset(path: str) -> Dataset:
    """Read a CIRD file back; inverse of save_dataset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 or blob[:4] != MAGIC:
        raise DataError(f"{path}: not a CIRD dataset file")
    version, n, d, c = struct.unpack("<IIII", blob[4:20])
    if version != VERSION:
        raise DataError(f"{path}: unsupported CIRD version {version}")
    body_end = 20 + n * 4 * (1 + d)
    if len(blob) < body_end:
        raise DataError(f"{path}: truncated CIRD file")
    # each record is a u4 label followed by d f4 features
    records = np.frombuffer(blob[20:body_end], dtype="<u4").reshape(n, 1 + d)
    labels = records[:, 0].astype(np.int64)
    if labels.size and labels.max() >= c:
        raise DataError(f"{path}: label {labels.max()} outside class count {c}")
    features = records[:, 1:].view("<f4").copy()
    finite = np.isfinite(features)
    if not finite.all():
        row = np.flatnonzero(~finite.all(axis=1))[0]
        raise DataError(f"{path}: row {row} has a non-finite feature")
    try:
        provenance = blob[body_end:].decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: provenance is not valid UTF-8") from None
    return Dataset(
        features=features,
        labels=labels,
        class_count=c,
        provenance=provenance,
    )
