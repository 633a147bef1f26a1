"""Tests for the three-arm comparison harness (shrunken settings)."""

import os

import pytest

from cirlab import reproduce
from cirlab.datagen import GeneratorSpec
from cirlab.errors import ConfigurationError
from cirlab.reproduce import (
    ARMS,
    SUMMARY_HEADER,
    ReproduceSettings,
    format_report,
    run_reproduction,
)

TINY = ReproduceSettings(
    seeds=(0, 1),
    epochs=2,
    iterations=10,
    learning_rate=0.0005,
    hidden_dims=(16,),
    embed_dim=8,
    p_classes=4,
    k_samples=4,
    eval_n_way=3,
    eval_q_queries=5,
    eval_episodes=20,
    log_episodes=10,
    dataset=GeneratorSpec(
        num_classes=12, samples_per_class=16, input_dim=8,
        spread=0.4, center_scale=2.0,
    ),
    splits=(0.5, 0.25, 0.25),
)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("repro")
    report = run_reproduction(str(out), settings=TINY)
    return report, out


def test_all_cells_complete(tiny_report):
    report, _ = tiny_report
    assert report.ok
    assert len(report.runs) == len(ARMS) * 2


def test_summary_schema(tiny_report):
    report, out = tiny_report
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == SUMMARY_HEADER
    # 3 arms x 2 seeds run rows + 3 arms x 2 aggregate rows
    assert len(lines) == 1 + 6 + 6
    tags = [line.split(",")[1] for line in lines[7:]]
    assert tags == ["mean", "ci95"] * 3
    # every value column is a plain number, ci95 rows included
    for line in lines[1:]:
        for value in line.split(",")[2:]:
            float(value)


def test_curve_files_written(tiny_report):
    _, out = tiny_report
    for arm in ARMS:
        for seed in (0, 1):
            path = out / f"curves_{arm}_seed{seed}.csv"
            assert path.exists()
            body = path.read_text().strip().split("\n")
            assert len(body) == 1 + TINY.epochs


def test_plots_written(tiny_report):
    _, out = tiny_report
    assert (out / "val_accuracy.svg").read_text().startswith("<svg")
    assert (out / "train_loss.svg").exists()


def test_verdicts_present(tiny_report):
    report, _ = tiny_report
    names = [name for name, _ in report.verdicts]
    assert len(names) == 4
    assert any("noise" in n for n in names)


def test_format_report_mentions_all_arms(tiny_report):
    report, _ = tiny_report
    text = format_report(report)
    for arm in ARMS:
        assert arm in text
    assert "PASS" in text or "FAIL" in text


def test_deterministic_summary(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    small = ReproduceSettings(
        seeds=(0,), epochs=1, iterations=5, hidden_dims=(8,), embed_dim=4,
        p_classes=3, k_samples=3, eval_n_way=3, eval_q_queries=3,
        eval_episodes=10, log_episodes=5,
        dataset=TINY.dataset, splits=TINY.splits,
    )
    run_reproduction(str(a), settings=small)
    run_reproduction(str(b), settings=small)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "val_accuracy.svg").read_bytes() == (b / "val_accuracy.svg").read_bytes()


def test_failures_recorded_not_raised(tmp_path):
    bad = ReproduceSettings(
        seeds=(0,), epochs=2, iterations=20, learning_rate=1e200,
        activation="identity",
        hidden_dims=(8,), embed_dim=4, p_classes=3, k_samples=3,
        eval_n_way=3, eval_q_queries=3, eval_episodes=10, log_episodes=5,
        dataset=TINY.dataset, splits=TINY.splits,
    )
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        report = run_reproduction(str(tmp_path), settings=bad)
    assert not report.ok
    assert len(report.failures) == 3
    assert all("NumericError" in msg for _, _, msg in report.failures)
    # summary still written (empty of run rows)
    assert (tmp_path / "summary.csv").read_text().startswith(SUMMARY_HEADER)


def test_unexpected_error_is_recorded_per_cell(tmp_path, monkeypatch):
    real_run_one = reproduce._run_one

    def run_one(settings, arm, seed, out_dir):
        if (arm, seed) == ("cir", 1):
            raise RuntimeError("worker blew up")
        return real_run_one(settings, arm, seed, out_dir)

    monkeypatch.setattr(reproduce, "_run_one", run_one)
    small = ReproduceSettings(
        seeds=(0, 1), epochs=1, iterations=5, hidden_dims=(8,), embed_dim=4,
        p_classes=3, k_samples=3, eval_n_way=3, eval_q_queries=3,
        eval_episodes=10, log_episodes=5,
        dataset=TINY.dataset, splits=TINY.splits,
    )
    report = run_reproduction(str(tmp_path), settings=small, threads=1)
    assert not report.ok
    assert report.failures == (("cir", 1, "RuntimeError: worker blew up"),)
    assert sorted((r.arm, r.seed) for r in report.runs) == sorted(
        (arm, seed) for arm in ARMS for seed in (0, 1) if (arm, seed) != ("cir", 1)
    )


def test_parallel_matches_sequential(tmp_path):
    small = ReproduceSettings(
        seeds=(0, 1), epochs=1, iterations=5, hidden_dims=(8,), embed_dim=4,
        p_classes=3, k_samples=3, eval_n_way=3, eval_q_queries=3,
        eval_episodes=10, log_episodes=5,
        dataset=TINY.dataset, splits=TINY.splits,
    )
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    run_reproduction(str(seq), settings=small, threads=1)
    run_reproduction(str(par), settings=small, threads=3)
    assert (seq / "summary.csv").read_bytes() == (par / "summary.csv").read_bytes()


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        ReproduceSettings(seeds=())
    with pytest.raises(ConfigurationError):
        ReproduceSettings(seeds=(1, 1))
