"""Tests for the flat key=value config format."""

import dataclasses

import pytest

from cirlab.config import (
    ConfigFileError,
    config_to_text,
    parse_config_text,
)
from cirlab.errors import ConfigurationError
from cirlab.interference import InterferenceConfig, NoiseConfig
from cirlab.trainer import TrainConfig


class TestParsing:
    def test_empty_text_is_all_defaults(self):
        assert parse_config_text("") == TrainConfig()

    def test_basic_assignments(self):
        cfg = parse_config_text(
            "lambda = 0.5\ngamma = 0.5\nepochs = 12\nseed = 3\n"
        )
        assert cfg.interference.strength == 0.5
        assert cfg.tac_momentum == 0.5
        assert cfg.epochs == 12
        assert cfg.seed == 3

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# a full-line comment\n"
            "\n"
            "epochs = 4  # trailing comment\n"
        )
        assert cfg.epochs == 4

    def test_hidden_dims_list(self):
        cfg = parse_config_text("hidden_dims = 64, 32\n")
        assert cfg.hidden_dims == (64, 32)
        assert parse_config_text("hidden_dims =\n").hidden_dims == ()

    def test_matched_sigma(self):
        cfg = parse_config_text(
            "interference = false\nnoise = true\nsigma = matched\n"
        )
        assert cfg.noise == NoiseConfig(sigma=None, enabled=True)
        cfg = parse_config_text(
            "interference = false\nnoise = true\nsigma = 0.25\n"
        )
        assert cfg.noise.sigma == 0.25

    def test_no_noise_keys_means_no_noise_config(self):
        assert parse_config_text("epochs = 1\n").noise is None

    def test_bools(self):
        assert parse_config_text("squared = false\n").triplet.squared is False
        assert parse_config_text("tac_normalize = 1\n").tac_normalize is True

    def test_stage2_section(self):
        cfg = parse_config_text(
            "loss_mode = cross_entropy\n"
            "epochs = 2\n"
            "[stage2]\n"
            "loss_mode = triplet\n"
            "epochs = 5\n"
            "lambda = 0.3\n"
        )
        assert cfg.loss_mode == "cross_entropy"
        assert cfg.stage2.loss_mode == "triplet"
        assert cfg.stage2.epochs == 5
        assert cfg.stage2.interference.strength == 0.3
        # the outer config keeps its own interference settings
        assert cfg.interference.strength == 0.5


class TestParseErrors:
    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigFileError, match=r"line 2: unknown key 'lamda'"):
            parse_config_text("epochs = 1\nlamda = 0.5\n")

    def test_all_errors_listed(self):
        with pytest.raises(ConfigFileError) as err:
            parse_config_text("bogus = 1\nalso_bogus = 2\n")
        assert "line 1" in str(err.value)
        assert "line 2" in str(err.value)

    def test_bad_literal_reports_line(self):
        with pytest.raises(ConfigFileError, match="line 1"):
            parse_config_text("epochs = three\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigFileError, match="key = value"):
            parse_config_text("epochs 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigFileError, match="duplicate key 'epochs'"):
            parse_config_text("epochs = 1\nepochs = 2\n")

    def test_duplicate_section(self):
        with pytest.raises(ConfigFileError, match=r"line 3: duplicate section \[stage2\]"):
            parse_config_text("[stage2]\nepochs = 1\n[stage2]\nepochs = 2\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigFileError, match=r"unknown section \[stage3\]"):
            parse_config_text("[stage3]\nepochs = 1\n")

    def test_out_of_range_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("lambda = 1.5\n")

    def test_interference_noise_conflict_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("noise = true\nsigma = matched\n")


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = TrainConfig()
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_nondefault_round_trip(self):
        cfg = TrainConfig(
            loss_mode="oim",
            epochs=7,
            iterations=55,
            seed=99,
            hidden_dims=(48, 24),
            embed_dim=12,
            activation="tanh",
            learning_rate=0.0123,
            decay_start_epoch=3,
            decay_factor=0.9,
            tac_momentum=0.25,
            tac_normalize=True,
            interference=InterferenceConfig(strength=0.7, fraction=0.5),
            temperature=2.5,
            label_smoothing=0.1,
        )
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_noise_arm_round_trip(self):
        cfg = TrainConfig(
            interference=InterferenceConfig(strength=0.5, enabled=False),
            noise=NoiseConfig(sigma=None, enabled=True),
        )
        assert parse_config_text(config_to_text(cfg)) == cfg
        cfg = dataclasses.replace(cfg, noise=NoiseConfig(sigma=0.3, enabled=True))
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_two_stage_round_trip(self):
        cfg = TrainConfig(
            loss_mode="cross_entropy",
            epochs=3,
            learning_rate=0.02,
            stage2=TrainConfig(epochs=9, interference=InterferenceConfig(strength=0.4)),
        )
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_serialized_text_is_stable(self):
        cfg = TrainConfig()
        assert config_to_text(cfg) == config_to_text(cfg)

    def test_float_precision_survives(self):
        cfg = TrainConfig(learning_rate=0.1 + 0.2)  # deliberately ugly repr
        again = parse_config_text(config_to_text(cfg))
        assert again.learning_rate == cfg.learning_rate
