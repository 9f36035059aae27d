"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; the
desk-scale trend check (criterion 8) dominates the runtime.
"""

import csv
import inspect
import time
from dataclasses import replace

import numpy as np
import pytest

from fsml.checkpoint import dump_params
from fsml.config import parse_config
from fsml.data import Batch, EpisodeSpec, SplitSpec, SyntheticSpec, gen_synthetic, split_classes
from fsml.evaluate import (
    AblationAssets,
    AblationGrid,
    ci95,
    evaluate_fewshot,
    format_mean_ci,
    run_ablation,
    write_ablation_csv,
)
from fsml.meta import MetaTestConfig, TrainConfig, meta_test, meta_train_episodic, meta_train_pretrain
from fsml.nn import DropoutSpec, build_conv4, dropblock_gamma, make_dropout_mask, partition_params
from fsml.oracle import brute_force_dropout_expectation, gate_bilevel, gate_gradients
from fsml.rng import Rng
from fsml.tensor import Tape
from fsml.nn import forward

CONV_TAGS = ("conv1", "conv2", "conv3", "conv4")


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _state(widths, extent, n_classes, seed, head="cosine", **kw):
    net = build_conv4(widths, (1, extent, extent), n_classes, head, Rng(seed).derive("net-init"))
    return net, partition_params(net, CONV_TAGS)


# ---------------------------------------------------------------------------


def test_c1_gradient_gate():
    t0 = time.perf_counter()
    r = gate_gradients(n_seeds=20, eps=1e-5, threshold=1e-4)
    dt = time.perf_counter() - t0
    _line(1, r.passed and dt < 60.0,
          f"gradient gate worst rel err {r.worst:.3e} < 1e-4 over 20 seeds in {dt:.1f}s ({r.detail})")


def test_c2_bilevel_gate():
    t0 = time.perf_counter()
    r = gate_bilevel(n_families=20, threshold=1e-5)
    dt = time.perf_counter() - t0
    _line(2, r.passed and dt < 30.0,
          f"bilevel gate worst rel err {r.worst:.3e} < 1e-5 over 20 families in {dt:.1f}s")


def test_c3_dropout_unbiasedness():
    rng = Rng(17).derive("acceptance-unbiasedness")
    x = rng.normal_array((12,))
    worst = 0.0
    for keep_prob in (0.3, 0.7, 0.9):
        expect = brute_force_dropout_expectation(x, keep_prob)
        worst = max(worst, float(np.abs(expect - x).max()))
    _line(3, worst <= 1e-12,
          f"brute-force dropout expectation (n=12) max deviation {worst:.2e} <= 1e-12")


def test_c4_dropblock_statistics():
    rng = Rng(23).derive("acceptance-dropblock")
    kept7 = 0.0
    kept1 = 0.0
    spec7 = DropoutSpec("dropblock", 0.9, frozenset({"conv1"}), "meta_training", block_size=7)
    spec1 = DropoutSpec("dropblock", 0.9, frozenset({"conv1"}), "meta_training", block_size=1)
    for _ in range(10_000):
        kept7 += float((make_dropout_mask(spec7, (1, 28, 28), rng, np.float64).values > 0).mean())
        kept1 += float((make_dropout_mask(spec1, (1, 28, 28), rng, np.float64).values > 0).mean())
    kept7 /= 10_000
    kept1 /= 10_000
    gamma = dropblock_gamma(0.9, 7, 7)
    ok = 0.85 <= kept7 <= 0.95 and 0.895 <= kept1 <= 0.905 and abs(gamma - 0.1) < 1e-15
    _line(4, ok,
          f"dropblock kept fraction b=7 {kept7:.4f} in [0.85,0.95], b=1 {kept1:.4f} in "
          f"[0.895,0.905], gamma(0.9,7,7)={gamma!r}")


def test_c5_degenerate_equalities():
    view = gen_synthetic(SyntheticSpec(8, 6, image_extent=16, cluster_std=0.1,
                                       class_separation=2.0, seed=5))
    checks = []

    # keep_prob=1 masks are all-ones for every kind
    for kind, block in (("standard", 1), ("spatial", 1), ("dropblock", 3)):
        spec = DropoutSpec(kind, 1.0, frozenset({"conv1"}), "meta_training", block_size=block)
        m = make_dropout_mask(spec, (2, 8, 8), Rng(0), np.float32)
        checks.append(np.array_equal(m.values, np.ones((2, 8, 8), np.float32)))

    # keep_prob=1 training is bitwise the no-dropout training
    unit = DropoutSpec("standard", 1.0, frozenset({"conv3", "conv4"}), "meta_training")
    cfg = TrainConfig(meta_lr=0.05, meta_epochs=2, batch_size=16, seed=9)
    net_a, part_a = _state((2, 2, 2, 2), 16, 8, 9)
    net_b, part_b = _state((2, 2, 2, 2), 16, 8, 9)
    state_a = meta_train_pretrain(view, net_a, part_a, cfg)
    state_b = meta_train_pretrain(view, net_b, part_b, replace(cfg, meta_dropout=unit))
    blob_a = dump_params({pid: t.data for pid, t in net_a.params().items()})
    blob_b = dump_params({pid: t.data for pid, t in net_b.params().items()})
    checks.append(blob_a == blob_b)

    # a meta_training-stage spec never fires at meta-test or eval
    live = DropoutSpec("standard", 0.5, frozenset({"conv3", "conv4"}), "meta_training")
    state_a.meta_dropout = live
    x = view.images[:4]
    plain = forward(net_a, x, "eval", "meta_testing", (), Rng(1), Tape()).data
    masked = forward(net_a, x, "eval", "meta_testing", state_a.specs(), Rng(1), Tape()).data
    checks.append(np.array_equal(plain, masked))
    support = Batch(view.images[[0, 6, 12]], np.array([0, 1, 2]))
    mcfg = MetaTestConfig(Q=4, finetune_steps=3, finetune_lr=0.1)
    adapted_with = meta_test(state_a, support, mcfg, Rng(4))
    state_a.meta_dropout = None
    adapted_without = meta_test(state_a, support, mcfg, Rng(4))
    checks.append(dump_params(adapted_with.network.values()) ==
                  dump_params(adapted_without.network.values()))

    # freeze_meta leaves every meta parameter bitwise unchanged
    w_before = state_a.network.values()
    w_after = meta_test(state_a, support, mcfg, Rng(7)).network.values()
    checks.append(all(np.array_equal(w_after[pid], w_before[pid]) for pid in state_a.partition.meta_ids))

    # same seed, same config: identical checkpoints and identical reports
    net_c, part_c = _state((2, 2, 2, 2), 16, 8, 9)
    meta_train_pretrain(view, net_c, part_c, cfg)
    checks.append(dump_params({p: t.data for p, t in net_c.params().items()}) ==
                  dump_params({p: t.data for p, t in net_a.params().items()}))
    espec = EpisodeSpec(C=3, K=1, Q_query=2)
    rep_a = evaluate_fewshot(state_a, view, espec, mcfg, n_episodes=20, seed=11)
    rep_b = evaluate_fewshot(state_a, view, espec, mcfg, n_episodes=20, seed=11)
    checks.append(rep_a.to_json() == rep_b.to_json())

    _line(5, all(checks),
          "bitwise degeneracies: kp=1 masks/training, wrong-stage inertness, "
          f"freeze_meta, seed determinism ({sum(checks)}/{len(checks)} held)")


def test_c6_protocol_fidelity():
    sig_default = inspect.signature(evaluate_fewshot).parameters["n_episodes"].default
    cfg_default = parse_config({
        "regime": "pretrain_finetune",
        "dataset": {"synthetic": {"n_classes": 6, "samples_per_class": 4}},
        "split": {"base": 4, "val": 0, "novel": 2},
        "network": {"widths": [2, 2, 2, 2], "head": "linear"},
        "partition": {"meta_tags": ["conv1", "conv2", "conv3", "conv4"]},
        "episode": {"C": 2, "K": 1},
    }).meta_test.Q

    view = gen_synthetic(SyntheticSpec(6, 4, image_extent=16, cluster_std=0.1,
                                       class_separation=2.0, seed=2))
    net, part = _state((2, 2, 2, 2), 16, 6, 3)
    state = meta_train_pretrain(view, net, part, TrainConfig(meta_epochs=0, batch_size=8))
    report = evaluate_fewshot(state, view, EpisodeSpec(C=3, K=1, Q_query=2),
                              MetaTestConfig(finetune_steps=0))
    n_default_ok = sig_default == 600 and cfg_default == 600 and \
        MetaTestConfig().Q == 600 and report.n_episodes == 600 and \
        len(report.per_episode_acc) == 600

    n = 600
    lift = np.sqrt((n - 1) / n)
    values = 0.5 + lift * np.tile([1.0, -1.0], n // 2)
    assert abs(np.std(values, ddof=1) - 1.0) < 1e-12
    _, hw = ci95(values)
    ci_ok = abs(hw - 0.080017) < 1e-4

    fmt_ok = format_mean_ci(0.6271, 0.0087) == "62.71 ± 0.87"
    _line(6, n_default_ok and ci_ok and fmt_ok,
          f"default episodes 600, ci95(600 unit-std values)={hw:.6f} within 1e-4 of "
          f"0.080017, formatting '62.71 ± 0.87' reproduced")


def test_c7_chance_level():
    view = gen_synthetic(SyntheticSpec(10, 10, image_extent=16, cluster_std=0.1,
                                       class_separation=2.0, seed=6))
    net, part = _state((2, 2, 2, 2), 16, 10, 8)
    state = meta_train_pretrain(view, net, part, TrainConfig(meta_epochs=0))
    report = evaluate_fewshot(state, view, EpisodeSpec(C=5, K=1, Q_query=8),
                              MetaTestConfig(finetune_steps=0), seed=1)
    gap = abs(report.mean_acc - 0.2)
    _line(7, gap <= 3.0 * report.ci95,
          f"untrained 5-way accuracy {report.mean_acc * 100:.2f}% within "
          f"{3 * report.ci95 * 100:.2f}pp of chance 20%")


# ---------------------------------------------------------------------------
# criterion 8: desk-scale directional experiment

C8_WIDTHS = (4, 8, 8, 8)


def _c8_build_net(regime, seed):
    net = build_conv4(C8_WIDTHS, (1, 32, 32), 64, "cosine", Rng(seed).derive("net-init"))
    return net, partition_params(net, CONV_TAGS)


@pytest.mark.slow
def test_c8_desk_scale_trend(tmp_path):
    t0 = time.perf_counter()
    ds = gen_synthetic(SyntheticSpec(100, 20, image_extent=32, cluster_std=0.1,
                                     class_separation=5.0, seed=0))
    base, _, novel = split_classes(ds, SplitSpec.from_counts(100, 64, 16, 20))
    assets = AblationAssets(
        base_view=base,
        novel_view=novel,
        build_net=_c8_build_net,
        train_cfg=TrainConfig(meta_lr=0.2, meta_epochs=12, batch_size=64, momentum=0.0,
                              meta_dropout=DropoutSpec("dropblock", 0.9, frozenset({"conv3", "conv4"}),
                                                       "meta_training", block_size=3)),
        mtest_cfg=MetaTestConfig(Q=600, finetune_steps=5, finetune_lr=1.0,
                                 task_dropout=DropoutSpec("standard", 0.9, frozenset({"conv4"}), "meta_testing")),
        espec=EpisodeSpec(C=5, K=1, Q_query=4),
    )
    grid = AblationGrid(arms=("none", "M", "D", "M&D"), kinds=("dropblock",),
                        placements=(frozenset({"conv3", "conv4"}),), batch_sizes=(64,))
    rows = run_ablation(grid, assets, seeds=range(10))
    csv_path = tmp_path / "ablation.csv"
    write_ablation_csv(rows, csv_path)
    dt = time.perf_counter() - t0

    failed = [r for r in rows if r.report is None]
    by_arm = {}
    for r in rows:
        if r.report is not None:
            by_arm.setdefault(r.cell.arm, []).append(r.report.mean_acc)
    means = {arm: float(np.mean(a)) for arm, a in by_arm.items()}
    with open(csv_path, newline="") as fh:
        data_rows = list(csv.reader(fh))[1:]
    csv_arms = {row[1] for row in data_rows}

    ok = (not failed
          and set(means) == {"none", "M", "D", "M&D"}
          and all(len(v) == 10 for v in by_arm.values())
          and means["M"] >= means["none"] - 0.01
          and csv_arms == {"none", "M", "D", "M&D"}
          and dt < 600.0)
    summary = ", ".join(f"{arm} {means.get(arm, float('nan')) * 100:.2f}%"
                        for arm in ("none", "M", "D", "M&D"))
    _line(8, ok,
          f"desk-scale 5-way 1-shot over 10 seeds: {summary}; M - none = "
          f"{(means.get('M', 0) - means.get('none', 0)) * 100:+.2f}pp (>= -1.0pp), "
          f"{len(failed)} failures, {dt:.0f}s < 600s")


# ---------------------------------------------------------------------------
# criterion 9: episodic trainer degenerates to the pretrain trainer


class _FullBatchDist:
    """Every sample() yields the whole view, in dataset order, twice."""

    def __init__(self, view):
        self.batch = Batch(view.images, view.labels)

    def sample(self, rng):
        return self.batch, self.batch


def test_c9_regime_reduction():
    view = gen_synthetic(SyntheticSpec(6, 8, image_extent=16, cluster_std=0.1,
                                       class_separation=2.0, seed=4))
    epochs = 5
    net_p, part_p = _state((2, 2, 2, 2), 16, 6, 13)
    pre = meta_train_pretrain(view, net_p, part_p, TrainConfig(
        meta_lr=0.05, meta_epochs=epochs, batch_size=view.n_samples, seed=13))
    net_e, part_e = _state((2, 2, 2, 2), 16, 6, 13)
    epi = meta_train_episodic(_FullBatchDist(view), net_e, part_e, TrainConfig(
        M=1, inner_steps=0, meta_lr=0.05, meta_epochs=epochs, seed=13))
    pre_losses = np.array([e["meta_loss"] for e in pre.log])
    epi_losses = np.array([e["meta_loss"] for e in epi.log])
    worst = float(np.abs(pre_losses - epi_losses).max())
    _line(9, pre_losses.shape == (epochs,) and worst < 1e-6,
          f"episodic(M=1, inner_steps=0, full batch) matches pretrain losses, "
          f"max gap {worst:.2e} < 1e-6 over {epochs} epochs")
