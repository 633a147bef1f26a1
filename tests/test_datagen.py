"""Tests for the synthetic generator, class splitting, and the file format."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from cirlab.datagen import (
    Dataset,
    GeneratorSpec,
    floor_count,
    gen_gaussian_mixture,
    load_dataset,
    reproduce_spec,
    save_dataset,
    split_classes,
)
from cirlab.errors import ConfigurationError, DataError


class TestGenerator:
    def test_shapes_and_dtypes(self):
        spec = GeneratorSpec(num_classes=5, samples_per_class=7, input_dim=4, seed=1)
        ds = gen_gaussian_mixture(spec)
        assert ds.features.shape == (35, 4)
        assert ds.features.dtype == np.float32
        assert ds.labels.shape == (35,)
        assert ds.class_count == 5
        assert np.all(np.bincount(ds.labels) == 7)

    def test_deterministic(self):
        spec = GeneratorSpec(num_classes=4, samples_per_class=5, input_dim=3, seed=9)
        a = gen_gaussian_mixture(spec)
        b = gen_gaussian_mixture(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_tiny_spread_collapses_to_centers(self):
        spec = GeneratorSpec(
            num_classes=3, samples_per_class=6, input_dim=2, spread=1e-9,
            center_scale=5.0, seed=2,
        )
        ds = gen_gaussian_mixture(spec)
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert np.allclose(rows, rows[0], atol=1e-6)

    def test_clean_labels_match_nearest_center(self):
        # well-separated centers, tiny spread, no noise: every sample must
        # sit closest to its own class's sample mean
        spec = GeneratorSpec(
            num_classes=4, samples_per_class=20, input_dim=6, spread=0.01,
            center_scale=10.0, label_noise_rate=0.0, seed=3,
        )
        ds = gen_gaussian_mixture(spec)
        means = np.stack(
            [ds.features[ds.labels == c].mean(axis=0) for c in range(4)]
        )
        dist = np.linalg.norm(ds.features[:, None, :] - means[None], axis=2)
        assert np.array_equal(np.argmin(dist, axis=1), ds.labels)

    def test_label_noise_rate_applied(self):
        spec = GeneratorSpec(
            num_classes=10, samples_per_class=50, input_dim=3,
            label_noise_rate=0.2, seed=4,
        )
        clean = gen_gaussian_mixture(
            GeneratorSpec(num_classes=10, samples_per_class=50, input_dim=3, seed=4)
        )
        noisy = gen_gaussian_mixture(spec)
        flipped = np.sum(clean.labels != noisy.labels)
        assert flipped == round(0.2 * 500)

    def test_rotate_mix_changes_features(self):
        base = GeneratorSpec(num_classes=3, samples_per_class=4, input_dim=5, seed=5)
        mixed = GeneratorSpec(
            num_classes=3, samples_per_class=4, input_dim=5, seed=5,
            nonlinearity="rotate_mix",
        )
        a = gen_gaussian_mixture(base)
        b = gen_gaussian_mixture(mixed)
        assert not np.allclose(a.features, b.features)
        assert np.all(np.isfinite(b.features))

    def test_reproduce_spec_defaults(self):
        ds = gen_gaussian_mixture(reproduce_spec(seed=0))
        assert ds.class_count == 40
        assert ds.size == 40 * 25
        assert ds.input_dim == 32

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(num_classes=1, samples_per_class=5, input_dim=3)
        with pytest.raises(ConfigurationError):
            GeneratorSpec(num_classes=3, samples_per_class=5, input_dim=3, spread=0.0)
        with pytest.raises(ConfigurationError):
            GeneratorSpec(
                num_classes=3, samples_per_class=5, input_dim=3, label_noise_rate=1.0
            )
        with pytest.raises(ConfigurationError):
            GeneratorSpec(
                num_classes=3, samples_per_class=5, input_dim=3, nonlinearity="spin"
            )
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -3"):
            GeneratorSpec(num_classes=3, samples_per_class=5, input_dim=3, seed=-3)

    def test_array_size_bound(self):
        # 2**28 values is the largest array a spec may ask for
        GeneratorSpec(num_classes=2**4, samples_per_class=2**16, input_dim=2**8)
        GeneratorSpec(num_classes=2, samples_per_class=1, input_dim=2**14,
                      nonlinearity="rotate_mix")
        refused = r"an array of {} values; at most 2\*\*28"
        with pytest.raises(ConfigurationError, match=refused.format(2**28 + 1)):
            GeneratorSpec(num_classes=17, samples_per_class=15790321, input_dim=1)
        with pytest.raises(ConfigurationError, match=refused.format(2**28 + 2**12)):
            GeneratorSpec(num_classes=2**4, samples_per_class=2**16 + 1, input_dim=2**8)
        with pytest.raises(ConfigurationError, match=refused.format((2**14 + 1) ** 2)):
            GeneratorSpec(num_classes=2, samples_per_class=1, input_dim=2**14 + 1,
                          nonlinearity="rotate_mix")

    @pytest.mark.parametrize("field, value, message", [
        ("spread", np.nan, "spread must be finite"),
        ("spread", np.inf, "spread must be finite"),
        ("center_scale", np.nan, "center_scale must be >= 0"),
        ("center_scale", np.inf, "center_scale must be >= 0"),
        ("center_scale", 1e308, "center_scale must be >= 0"),  # 2e308 overflows
    ])
    def test_spec_refuses_non_finite_sizes(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            GeneratorSpec(num_classes=3, samples_per_class=5, input_dim=3, **{field: value})


class TestSplitClasses:
    def make(self, num_classes=10):
        return gen_gaussian_mixture(
            GeneratorSpec(
                num_classes=num_classes, samples_per_class=6, input_dim=3, seed=7
            )
        )

    def test_benchmark_partition(self):
        ds = self.make(num_classes=100)
        train, val, test = split_classes(ds, (0.64, 0.16, 0.20), seed=0)
        assert train.class_count == 64
        assert val.class_count == 16
        assert test.class_count == 20

    def test_partition_is_disjoint_and_complete(self):
        ds = self.make()
        train, val, test = split_classes(ds, (0.5, 0.2, 0.3), seed=1)
        sets = [set(s.class_map) for s in (train, val, test)]
        assert sets[0] | sets[1] | sets[2] == set(range(10))
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])
        assert train.size + val.size + test.size == ds.size

    def test_relabeling_dense_and_consistent(self):
        ds = self.make()
        train, _, _ = split_classes(ds, (0.5, 0.2, 0.3), seed=2)
        assert set(train.labels) == set(range(train.class_count))
        # every relabeled sample carries the features of its original class
        for new_label, orig in enumerate(train.class_map):
            orig_rows = ds.features[ds.labels == orig]
            new_rows = train.features[train.labels == new_label]
            assert np.array_equal(
                np.sort(orig_rows, axis=0), np.sort(new_rows, axis=0)
            )

    def test_same_seed_same_partition(self):
        ds = self.make()
        a = split_classes(ds, (0.5, 0.2, 0.3), seed=3)
        b = split_classes(ds, (0.5, 0.2, 0.3), seed=3)
        for x, y in zip(a, b):
            assert x.class_map == y.class_map
            assert np.array_equal(x.features, y.features)

    def test_float_product_does_not_undershoot(self):
        # 0.57 * 100 is 56.99999999999999 in float: 57 train classes, not 56
        ds = self.make(num_classes=100)
        train, val, test = split_classes(ds, (0.57, 0.23, 0.20), seed=0)
        assert (train.class_count, val.class_count, test.class_count) == (57, 23, 20)

    def test_floor_count_exact_for_two_decimal_fractions(self):
        n = np.arange(1, 257)
        for k in range(1, 100):
            assert np.array_equal(floor_count(k / 100 * n), k * n // 100), k
        assert int(floor_count(0.29 * 100)) == 29
        assert int(floor_count(2.5)) == 2

    def test_empty_split_rejected(self):
        ds = self.make(num_classes=4)
        with pytest.raises(ConfigurationError):
            split_classes(ds, (0.9, 0.05, 0.05), seed=0)

    def test_bad_fractions(self):
        ds = self.make()
        with pytest.raises(ConfigurationError):
            split_classes(ds, (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ConfigurationError):
            split_classes(ds, (1.0, 0.0, 0.0), seed=0)

    def test_negative_seed_refused(self):
        with pytest.raises(ConfigurationError, match="split seed must be >= 0"):
            split_classes(self.make(), (0.5, 0.2, 0.3), seed=-1)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = gen_gaussian_mixture(
            GeneratorSpec(num_classes=6, samples_per_class=9, input_dim=5, seed=11)
        )
        path = str(tmp_path / "ds.cird")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert back.features.dtype == np.float32
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_count == ds.class_count
        assert back.provenance == ds.provenance

    def test_same_dataset_same_bytes(self, tmp_path):
        ds = gen_gaussian_mixture(
            GeneratorSpec(num_classes=3, samples_per_class=4, input_dim=2, seed=12)
        )
        p1, p2 = str(tmp_path / "a.cird"), str(tmp_path / "b.cird")
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_magic_bytes_present(self, tmp_path):
        ds = gen_gaussian_mixture(
            GeneratorSpec(num_classes=2, samples_per_class=2, input_dim=2, seed=13)
        )
        path = str(tmp_path / "m.cird")
        save_dataset(ds, path)
        assert Path(path).read_bytes()[:4] == b"CIRD"

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.cird")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError):
            load_dataset(path)

    def test_truncated_rejected(self, tmp_path):
        ds = gen_gaussian_mixture(
            GeneratorSpec(num_classes=2, samples_per_class=3, input_dim=4, seed=14)
        )
        path = str(tmp_path / "t.cird")
        save_dataset(ds, path)
        blob = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(DataError):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_feature_rejected_with_its_row(self, tmp_path, bad):
        ds = gen_gaussian_mixture(
            GeneratorSpec(num_classes=2, samples_per_class=3, input_dim=4, seed=15)
        )
        path = str(tmp_path / "f.cird")
        save_dataset(ds, path)
        # save_dataset refuses such rows: write them into the file's bytes
        blob = bytearray(Path(path).read_bytes())
        for row, col in ((4, 2), (5, 0)):
            struct.pack_into("<f", blob, 20 + 4 * (5 * row + 1 + col), bad)
        Path(path).write_bytes(blob)
        with pytest.raises(DataError, match=f"^{re.escape(path)}: row 4 has a non-finite feature$"):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e39])  # 1e39 is inf in float32
    def test_save_refuses_what_load_refuses(self, tmp_path, bad):
        ds = gen_gaussian_mixture(
            GeneratorSpec(num_classes=2, samples_per_class=3, input_dim=4, seed=15)
        )
        ds.features = ds.features.astype(np.float64)
        ds.features[4, 2] = bad
        path = str(tmp_path / "f.cird")
        with pytest.raises(DataError, match=f"^{re.escape(path)}: row 4 has a non-finite feature$"):
            save_dataset(ds, path)
        assert list(tmp_path.iterdir()) == []
