"""Acceptance suite: the ten load-bearing properties of the package.

Each test is one criterion, numbered and self-contained; tolerances and
runtime budgets are asserted inline.  Criteria 6-8 share one multi-seed
benchmark matrix (module-scoped fixture), matching how the comparison is
meant to be consumed.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from cirlab.checkpoint import save_checkpoint
from cirlab.cli import entrypoint
from cirlab.datagen import GeneratorSpec, gen_gaussian_mixture, split_classes
from cirlab.evaluate import episodic_accuracy, retrieval_scores
from cirlab.interference import InterferenceConfig, interfere_batch, interfere_backward
from cirlab.losses import (
    StudyCase,
    TripletConfig,
    cross_entropy,
    label_smooth,
    oim_scores,
    study_case_loss,
)
from cirlab.nn import backward, forward, init_params
from cirlab.reproduce import ReproduceSettings, format_report, run_reproduction
from cirlab.tac import tac_init, tac_update
from cirlab.sampling import episode_rows
from cirlab.trainer import TrainConfig, train
from oracles import batch_all_triplets, grad_check, one_batch_loss


def _passline(n, msg):
    print(f"criterion {n}: PASS — {msg}")


# ---------------------------------------------------------------- 1


def test_criterion_01_blend_identity():
    """Blend-then-subtract and residual-minus-pull forms agree to 1e-9
    relative over 1e4 random draws; zero blend reduces both exactly."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        d_out, d_in = rng.integers(1, 7, size=2)
        case = StudyCase(
            W=rng.standard_normal((d_out, d_in)),
            x=rng.standard_normal(d_in),
            y=rng.standard_normal(d_out),
            mu=rng.standard_normal(d_out),
            lam=float(rng.uniform(0.0, 1.0)),
        )
        _, form_a, form_b, _ = study_case_loss(case)
        worst = max(worst, abs(form_a - form_b) / max(abs(form_a), abs(form_b), 1e-300))
    assert worst < 1e-9

    for _ in range(100):
        case = StudyCase(
            W=rng.standard_normal((3, 4)),
            x=rng.standard_normal(4),
            y=rng.standard_normal(3),
            mu=rng.standard_normal(3),
            lam=0.0,
        )
        plain, form_a, form_b, _ = study_case_loss(case)
        assert form_a == plain and form_b == plain

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passline(1, f"max rel err {worst:.2e} over 10000 draws, zero-blend exact "
                 f"({elapsed:.2f}s)")


# ---------------------------------------------------------------- 2


def _triplet_closure(feats, labels, tac, icfg, tcfg):
    def closure(params):
        z, cache = forward(params, feats)
        blended, decoys = interfere_batch(
            z, labels, tac, icfg, np.random.default_rng(7)
        )
        res = one_batch_loss(z, blended, labels, tcfg)
        ga = res.grad_anchor.copy()
        if icfg.enabled and icfg.strength > 0.0:
            mask = decoys >= 0
            ga[mask] = interfere_backward(ga[mask], icfg.strength)
        return res.loss, backward(params, cache, ga + res.grad_other)
    return closure


def _min_abs_hinge(feats, labels, tac, icfg, tcfg, params):
    z, _ = forward(params, feats)
    blended, _ = interfere_batch(z, labels, tac, icfg, np.random.default_rng(7))
    za = blended
    d_blend = (
        np.sum(za * za, axis=1)[:, None]
        - 2.0 * za @ z.T
        + np.sum(z * z, axis=1)[None, :]
    )
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(len(labels), dtype=bool)
    hinges = []
    for a in range(len(labels)):
        for p in np.flatnonzero(same[a] & off[a]):
            for n in np.flatnonzero(~same[a]):
                hinges.append(tcfg.margin + d_blend[a, p] - d_blend[a, n])
    return float(np.min(np.abs(hinges)))


def test_criterion_02_gradient_suite():
    """Analytic gradients of every objective match central finite
    differences within 1e-4 on two-layer encoders."""
    start = time.monotonic()
    rng = np.random.default_rng(41)
    feats = rng.standard_normal((12, 5))
    labels = np.repeat(np.arange(4), 3).astype(np.int64)
    tac = tac_init(4, 3, momentum=0.5, seed=2)
    tcfg = TripletConfig(margin=0.37)
    results = {}

    for lam, enabled in ((0.0, True), (0.1, True), (0.5, True), (0.5, False)):
        icfg = InterferenceConfig(strength=lam, fraction=1.0, enabled=enabled)
        params = init_params([5, 6, 3], activation="tanh", seed=11)
        margin_gap = _min_abs_hinge(feats, labels, tac, icfg, tcfg, params)
        assert margin_gap > 1e-3, "picked batch must avoid hinge boundaries"
        err = grad_check(params, _triplet_closure(feats, labels, tac, icfg, tcfg))
        results[f"triplet lam={lam} {'on' if enabled else 'off'}"] = err

    def oim_closure(params):
        z, cache = forward(params, feats)
        logits = oim_scores(tac, z, 0.7)
        targets = label_smooth(labels, 4, 0.1)
        loss, glog = cross_entropy(logits, targets, with_grads=True)
        return loss, backward(params, cache, (glog @ tac.table) / 0.7)

    params = init_params([5, 6, 3], activation="tanh", seed=12)
    results["oim"] = grad_check(params, oim_closure)

    head_w = rng.standard_normal((4, 3)) * 0.5

    def ce_closure(params):
        z, cache = forward(params, feats)
        logits = z @ head_w.T
        targets = label_smooth(labels, 4, 0.0)
        loss, glog = cross_entropy(logits, targets, with_grads=True)
        return loss, backward(params, cache, glog @ head_w)

    params = init_params([5, 6, 3], activation="tanh", seed=13)
    results["cross_entropy"] = grad_check(params, ce_closure)

    case = StudyCase(
        W=rng.standard_normal((3, 4)),
        x=rng.standard_normal(4),
        y=rng.standard_normal(3),
        mu=rng.standard_normal(3),
        lam=0.35,
    )
    _, _, _, grad_w = study_case_loss(case)
    eps = 1e-6
    fd = np.zeros_like(case.W)
    for i in range(case.W.shape[0]):
        for j in range(case.W.shape[1]):
            w_hi, w_lo = case.W.copy(), case.W.copy()
            w_hi[i, j] += eps
            w_lo[i, j] -= eps
            import dataclasses
            _, hi, _, _ = study_case_loss(dataclasses.replace(case, W=w_hi))
            _, lo, _, _ = study_case_loss(dataclasses.replace(case, W=w_lo))
            fd[i, j] = (hi - lo) / (2 * eps)
    results["study_case"] = float(
        np.max(np.abs(grad_w - fd)) / np.max(np.abs(grad_w))
    )

    worst = max(results.values())
    assert worst < 1e-4, results
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passline(2, f"max normalized grad error {worst:.2e} across "
                 f"{len(results)} objectives ({elapsed:.2f}s)")


# ---------------------------------------------------------------- 3


def test_criterion_03_zero_strength_bit_equivalence(tmp_path):
    """Five epochs with the blend enabled at zero strength checkpoint
    byte-identically to the run with it disabled."""
    start = time.monotonic()
    ds = gen_gaussian_mixture(
        GeneratorSpec(num_classes=12, samples_per_class=16, input_dim=8,
                      spread=0.5, center_scale=2.0, seed=5)
    )
    tr, va, _ = split_classes(ds, (0.5, 0.25, 0.25), seed=5)
    base = dict(
        loss_mode="triplet", epochs=5, iterations=40, seed=9,
        hidden_dims=(24,), embed_dim=8, learning_rate=0.001,
        p_classes=4, k_samples=4, eval_n_way=3, eval_q_queries=4,
        eval_episodes=10,
    )
    paths = {}
    for name, icfg in (
        ("on", InterferenceConfig(strength=0.0, enabled=True)),
        ("off", InterferenceConfig(strength=0.5, enabled=False)),
    ):
        params, tac, _ = train(tr, va, TrainConfig(interference=icfg, **base))
        paths[name] = tmp_path / f"{name}.ckpt"
        save_checkpoint(params, tac, str(paths[name]))
    assert paths["on"].read_bytes() == paths["off"].read_bytes()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passline(3, f"5-epoch checkpoints byte-identical ({elapsed:.2f}s)")


# ---------------------------------------------------------------- 4


def test_criterion_04_table_ema_law():
    """Against a stationary batch mean, the table gap shrinks by exactly
    (1 - momentum) per update."""
    start = time.monotonic()
    rng = np.random.default_rng(3)
    for momentum in (0.1, 0.5, 0.9):
        tac = tac_init(3, 4, momentum=momentum, seed=8)
        target = rng.standard_normal(4)
        feats = np.tile(target, (5, 1))
        labels = np.zeros(5, dtype=np.int64)
        gap0 = np.linalg.norm(tac.table[0] - target)
        for t in range(1, 9):
            tac = tac_update(tac, feats, labels)
            gap = np.linalg.norm(tac.table[0] - target)
            expected = (1.0 - momentum) ** t * gap0
            assert abs(gap - expected) <= 1e-6 * max(expected, 1e-12), (
                momentum, t, gap, expected
            )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passline(4, f"gap follows (1-momentum)^t for momentum in (0.1, 0.5, 0.9) "
                 f"({elapsed:.2f}s)")


# ---------------------------------------------------------------- 5


def _brute_triplet(features, blended, labels, cfg):
    n = len(labels)
    total, count, active = 0.0, 0, 0
    for a in range(n):
        for p in range(n):
            if p == a or labels[p] != labels[a]:
                continue
            for m in range(n):
                if labels[m] == labels[a]:
                    continue
                d_ap = np.sum((blended[a] - features[p]) ** 2)
                d_an = np.sum((blended[a] - features[m]) ** 2)
                if not cfg.squared:
                    d_ap, d_an = np.sqrt(d_ap), np.sqrt(d_an)
                h = cfg.margin + d_ap - d_an
                count += 1
                if h > 0:
                    total += h
                    active += 1
    denom = count if cfg.reduction == "mean_all" else max(active, 1)
    return (total / denom if count else 0.0), count


def _brute_ap(q, q_label, gallery, g_labels):
    d = np.sqrt(np.sum((gallery - q) ** 2, axis=1))
    order = sorted(range(len(d)), key=lambda i: (d[i], i))
    hits, precisions = 0, []
    for rank, idx in enumerate(order, start=1):
        if g_labels[idx] == q_label:
            hits += 1
            precisions.append(hits / rank)
    return float(np.mean(precisions))


def test_criterion_05_oracle_equivalence():
    """Vectorized losses and retrieval metrics equal brute-force oracles."""
    start = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(3, 9))
        labels = rng.integers(0, 3, size=b).astype(np.int64)
        feats = rng.standard_normal((b, 4))
        blended = feats + 0.3 * rng.standard_normal((b, 4))
        cfg = TripletConfig(
            margin=float(rng.uniform(0.1, 1.0)),
            reduction="mean_all" if rng.integers(2) else "mean_nonzero",
            squared=bool(rng.integers(2)),
        )
        res = one_batch_loss(feats, blended, labels, cfg)
        oracle_loss, oracle_count = _brute_triplet(feats, blended, labels, cfg)
        assert res.num_triplets == oracle_count
        worst = max(worst, abs(res.loss - oracle_loss))
    assert worst <= 1e-6

    for p in (2, 3, 5):
        for k in (2, 3, 4):
            labels = np.repeat(np.arange(p), k).astype(np.int64)
            feats = rng.standard_normal((p * k, 3))
            res = one_batch_loss(feats, feats, labels, TripletConfig())
            assert res.num_triplets == p * k * (k - 1) * k * (p - 1)
            assert len(batch_all_triplets(labels)) == res.num_triplets

    map_worst = 0.0
    for _ in range(200):
        n_g = int(rng.integers(2, 9))
        g_labels = rng.integers(0, 3, size=n_g).astype(np.int64)
        queries = rng.standard_normal((3, 3))
        q_labels = np.array([g_labels[rng.integers(n_g)] for _ in range(3)],
                            dtype=np.int64)
        gallery = rng.standard_normal((n_g, 3))
        got, got1 = retrieval_scores(queries, q_labels, gallery, g_labels)
        want = float(np.mean([
            _brute_ap(queries[i], q_labels[i], gallery, g_labels)
            for i in range(3)
        ]))
        assert got == want
        d = np.sqrt(((gallery[None] - queries[:, None]) ** 2).sum(-1))
        nearest = [min(range(n_g), key=lambda j: (d[i, j], j)) for i in range(3)]
        want1 = float(np.mean([g_labels[nearest[i]] == q_labels[i]
                               for i in range(3)]))
        assert got1 == want1
        map_worst = max(map_worst, abs(got - want))

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passline(5, f"loss/mAP/rank-1 match brute force exactly "
                 f"(worst {max(worst, map_worst):.1e}) ({elapsed:.2f}s)")


# ---------------------------------------------------------------- 6-8


@pytest.fixture(scope="module")
def benchmark_matrix(tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix")
    start = time.monotonic()
    # every output is byte-identical across thread counts (tests/test_golden.py
    # checks 1 and 2 against one digest set), and two halve the wall time
    report = run_reproduction(str(out), settings=ReproduceSettings(), threads=2)
    elapsed = time.monotonic() - start
    assert report.ok, report.failures
    return report, elapsed


def test_criterion_06_overfitting_reduction(benchmark_matrix):
    """Across seeds, the blend keeps validation accuracy at least as high
    while strictly shrinking the train-validation gap."""
    report, elapsed = benchmark_matrix
    assert elapsed < 600.0
    cir = report.aggregates["cir"]
    base = report.aggregates["no_reg"]
    assert cir["val_acc"][0] >= base["val_acc"][0]
    assert cir["gap"][0] < base["gap"][0]
    _passline(6, f"val {cir['val_acc'][0]:.4f} >= {base['val_acc'][0]:.4f}, "
                 f"gap {cir['gap'][0]:.4f} < {base['gap'][0]:.4f} "
                 f"({elapsed:.0f}s for the matrix)")


def test_criterion_07_noise_control(benchmark_matrix):
    """Magnitude-matched gaussian noise does not match the blend."""
    report, _ = benchmark_matrix
    cir = report.aggregates["cir"]["val_acc"][0]
    noise = report.aggregates["noise"]["val_acc"][0]
    assert cir >= noise
    _passline(7, f"cir val {cir:.4f} >= noise val {noise:.4f}")


def test_criterion_08_geometry_expansion(benchmark_matrix):
    """Seed-averaged inter/intra distance ratio grows under the blend."""
    report, _ = benchmark_matrix
    cir = report.aggregates["cir"]["ratio"][0]
    base = report.aggregates["no_reg"]["ratio"][0]
    assert cir > base
    _passline(8, f"inter/intra {cir:.4f} > {base:.4f}")


def test_readme_shows_the_default_matrix_report(benchmark_matrix):
    """README's outcome block is the default matrix's report, verbatim."""
    report, _ = benchmark_matrix
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert format_report(report) in readme.read_text(encoding="utf-8")


# ---------------------------------------------------------------- 9


def test_criterion_09_chance_and_separable():
    """An untrained encoder scores chance on signal-free data and 1.0 on
    trivially separable data."""
    start = time.monotonic()
    flat = gen_gaussian_mixture(
        GeneratorSpec(num_classes=10, samples_per_class=30, input_dim=16,
                      spread=1.0, center_scale=0.0, seed=21)
    )
    params = init_params([16, 32, 8], activation="relu", seed=4)
    res = episodic_accuracy(
        forward(params, flat.features)[0],
        episode_rows(flat.labels, 5, 1, 15, 600, master_seed=17),
    )
    sigma = res.ci95 / 1.96
    assert abs(res.mean - 0.20) <= 3.0 * sigma, (res.mean, sigma)

    separable = gen_gaussian_mixture(
        GeneratorSpec(num_classes=10, samples_per_class=30, input_dim=16,
                      spread=0.01, center_scale=5.0, seed=22)
    )
    params = init_params([16, 8], activation="identity", seed=4)
    res_sep = episodic_accuracy(
        forward(params, separable.features)[0],
        episode_rows(separable.labels, 5, 1, 15, 600, master_seed=17),
    )
    assert res_sep.mean == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passline(9, f"chance {res.mean:.4f} within 3 sigma of 0.20; separable "
                 f"{res_sep.mean:.1f} ({elapsed:.2f}s)")


# ---------------------------------------------------------------- 10


def test_criterion_10_byte_identical_reruns(tmp_path, monkeypatch):
    """Repeating train and eval invocations with identical inputs yields
    byte-identical checkpoints, CSVs, and manifests."""
    cfg_text = (
        "epochs = 2\niterations = 15\nhidden_dims = 16\nembed_dim = 8\n"
        "learning_rate = 0.001\np_classes = 4\nk_samples = 3\n"
        "eval_n_way = 2\neval_q_queries = 3\neval_episodes = 10\n"
        "lambda = 0.5\ngamma = 0.5\n"
    )
    snapshots = {}
    for attempt in ("a", "b"):
        d = tmp_path / attempt
        d.mkdir()
        monkeypatch.chdir(d)
        assert entrypoint([
            "gen", "--classes", "8", "--per-class", "12", "--dim", "6",
            "--seed", "3", "--split", "0.5,0.25,0.25", "-o", "ds.cird",
        ]) == 0
        (d / "run.cfg").write_text(cfg_text)
        assert entrypoint([
            "train", "-c", "run.cfg", "-d", "ds.train.cird",
            "--val", "ds.val.cird", "-o", "m.ckpt",
        ]) == 0
        assert entrypoint([
            "eval", "m.ckpt", "-d", "ds.test.cird", "--way", "2",
            "--queries", "3", "--episodes", "40", "--seed", "9",
            "-o", "metrics.csv",
        ]) == 0
        snapshots[attempt] = {
            name: (d / name).read_bytes()
            for name in ("m.ckpt", "m.ckpt.log.csv", "m.ckpt.manifest",
                         "metrics.csv", "metrics.csv.manifest")
        }
    assert snapshots["a"] == snapshots["b"]
    _passline(10, "train+eval reruns byte-identical across "
                  f"{len(snapshots['a'])} output files")
