"""Confidence intervals, report formatting, episode evaluation, ablation grid."""

import csv
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from fsml import evaluate as evaluate_module
from fsml import ops
from fsml.data import EpisodeSpec, SyntheticSpec, gen_synthetic, sample_episode, split_classes, SplitSpec
from fsml.errors import ContractError
from fsml.evaluate import (
    AblationAssets,
    AblationCell,
    AblationGrid,
    EvalReport,
    ci95,
    evaluate_fewshot,
    format_mean_ci,
    placement_label,
    run_ablation,
    run_cell,
    write_ablation_csv,
)
from fsml.meta import KnowledgeState, MetaTestConfig, TrainConfig, meta_test, meta_test_prefix, meta_train_pretrain
from fsml.nn import (
    MODE_EVAL,
    STAGE_META_TESTING,
    STAGE_META_TRAINING,
    DropoutSpec,
    build_conv4,
    forward,
    partition_params,
)
from fsml.rng import Rng

CONV_TAGS = frozenset({"conv1", "conv2", "conv3", "conv4"})


def frozen_unit_std_values(n=600, mean=0.5):
    # alternating +/- sqrt((n-1)/n) around the mean has sample std exactly 1
    offs = math.sqrt((n - 1) / n)
    vals = np.full(n, mean)
    vals[0::2] += offs
    vals[1::2] -= offs
    return vals


# ---------------------------------------------------------------------------
# ci95 and formatting


def test_ci95_constant_values():
    mean, hw = ci95(np.full(40, 0.5))
    assert mean == 0.5
    assert hw == 0.0


def test_ci95_single_value_convention():
    mean, hw = ci95(np.array([0.73]))
    assert mean == pytest.approx(0.73)
    assert hw == 0.0


def test_ci95_two_values():
    mean, hw = ci95(np.array([0.0, 1.0]))
    assert mean == 0.5
    # 1.96 * std(ddof=1) / sqrt(2) = 1.96 * 0.70711 / 1.41421
    assert hw == pytest.approx(0.98, abs=1e-10)


def test_ci95_600_values_unit_std():
    vals = frozen_unit_std_values(600)
    assert np.std(vals, ddof=1) == pytest.approx(1.0, abs=1e-12)
    _, hw = ci95(vals)
    assert hw == pytest.approx(1.96 / math.sqrt(600), abs=1e-12)
    assert abs(hw - 0.080017) < 1e-4


def test_ci95_empty_rejected():
    with pytest.raises(ContractError):
        ci95(np.array([]))


def test_ci95_halfwidth_scales_inverse_sqrt_n():
    rng = Rng(17)
    full = rng.uniform_array((600,))
    _, hw_full = ci95(full)
    _, hw_a = ci95(full[:300])
    _, hw_b = ci95(full[300:])
    for hw_half in (hw_a, hw_b):
        ratio = hw_half / hw_full
        assert abs(ratio - math.sqrt(2.0)) < 0.25 * math.sqrt(2.0)


def test_format_mean_ci_table_style():
    assert format_mean_ci(0.62713, 0.0087) == "62.71 ± 0.87"
    assert format_mean_ci(1.0, 0.0) == "100.00 ± 0.00"
    assert format_mean_ci(0.2, 0.005) == "20.00 ± 0.50"


def test_report_summary_and_json_deterministic():
    rep = EvalReport(n_episodes=2, mean_acc=0.62713, ci95=0.0087, seed=3,
                     config_hash="abc", per_episode_acc=(0.6, 0.65))
    assert rep.summary() == "62.71 ± 0.87"
    assert rep.to_json() == rep.to_json()
    assert rep.to_json().endswith("\n")
    assert '"config_hash": "abc"' in rep.to_json()


# ---------------------------------------------------------------------------
# evaluation


def eval_fixture(seed=0):
    ds = gen_synthetic(SyntheticSpec(
        n_classes=10, samples_per_class=8, image_extent=16,
        cluster_std=0.05, class_separation=2.0, seed=3))
    _, _, novel = split_classes(ds, SplitSpec.from_counts(10, 4, 2, 4))
    net = build_conv4((2, 2, 2, 2), (1, 16, 16), 4, "cosine", Rng(seed))
    state = KnowledgeState(net, partition_params(net, CONV_TAGS), seed=seed)
    return state, novel


def test_evaluate_report_shape():
    state, novel = eval_fixture()
    rep = evaluate_fewshot(state, novel, EpisodeSpec(C=2, K=1, Q_query=3), MetaTestConfig(Q=3),
                           n_episodes=12, seed=5, config_hash="h")
    assert rep.n_episodes == 12
    assert len(rep.per_episode_acc) == 12
    assert all(0.0 <= a <= 1.0 for a in rep.per_episode_acc)
    assert rep.mean_acc == pytest.approx(np.mean(rep.per_episode_acc))
    assert rep.seed == 5 and rep.config_hash == "h"


def test_evaluate_deterministic():
    state, novel = eval_fixture()
    spec = EpisodeSpec(C=3, K=1, Q_query=3)
    mcfg = MetaTestConfig(Q=3, finetune_steps=10, finetune_lr=2.0)
    a = evaluate_fewshot(state, novel, spec, mcfg, n_episodes=8, seed=1)
    b = evaluate_fewshot(state, novel, spec, mcfg, n_episodes=8, seed=1)
    assert a == b
    c = evaluate_fewshot(state, novel, spec, mcfg, n_episodes=8, seed=2)
    assert a.per_episode_acc != c.per_episode_acc


def test_evaluate_parallel_equals_serial():
    state, novel = eval_fixture()
    spec = EpisodeSpec(C=2, K=1, Q_query=3)
    serial = evaluate_fewshot(state, novel, spec, MetaTestConfig(Q=3), n_episodes=10, seed=4, jobs=1)
    parallel = evaluate_fewshot(state, novel, spec, MetaTestConfig(Q=3), n_episodes=10, seed=4, jobs=2)
    assert serial == parallel


def test_evaluate_does_not_mutate_state():
    state, novel = eval_fixture()
    before = {k: v.copy() for k, v in state.network.values().items()}
    evaluate_fewshot(state, novel, EpisodeSpec(C=2, K=1, Q_query=2),
                     MetaTestConfig(Q=2, finetune_steps=3, finetune_lr=0.5), n_episodes=4, seed=0)
    after = state.network.values()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_evaluate_untrained_near_chance():
    # fresh head, no finetuning: accuracy should hover at 1/C
    state, novel = eval_fixture(seed=9)
    spec = EpisodeSpec(C=4, K=1, Q_query=6)
    rep = evaluate_fewshot(state, novel, spec,
                           MetaTestConfig(Q=6, finetune_steps=0), n_episodes=60, seed=2)
    assert abs(rep.mean_acc - 0.25) <= max(3.0 * rep.ci95, 0.05)


def test_evaluate_rejects_bad_episode_count():
    state, novel = eval_fixture()
    with pytest.raises(ContractError):
        evaluate_fewshot(state, novel, EpisodeSpec(C=2, K=1, Q_query=2), MetaTestConfig(Q=2),
                         n_episodes=0)


# ---------------------------------------------------------------------------
# the query-feature cache


@pytest.fixture(scope="module")
def trained_32px():
    """A briefly pretrained Conv-4 on 32x32 images, and a novel view of 7 x 9 = 63 images."""
    ds = gen_synthetic(SyntheticSpec(
        n_classes=15, samples_per_class=9, image_extent=32,
        cluster_std=0.1, class_separation=5.0, seed=7))
    base, _, novel = split_classes(ds, SplitSpec.from_counts(15, 8, 0, 7))
    net = build_conv4((4, 8, 8, 8), (1, 32, 32), 8, "cosine", Rng(7))
    state = meta_train_pretrain(base, net, partition_params(net, CONV_TAGS),
                                TrainConfig(meta_lr=0.2, meta_epochs=4, batch_size=16, seed=7))
    return state, novel


@pytest.mark.parametrize("chunk", [20, 15, 6])
@pytest.mark.parametrize("cut", [3, 5])
def test_chunked_embedding_rows_equal_any_forward_of_that_many_images(trained_32px, chunk, cut):
    # the cache rests on this: a row's bits depend on the batch size, not on
    # which images share the batch or where the row sits in it
    state, novel = trained_32px
    assert novel.n_samples % chunk != 0
    feats = evaluate_module._embed(state.network, novel.images, cut, chunk)
    assert feats.shape[0] == novel.n_samples
    rng = Rng(chunk * 10 + cut)
    batches = [np.array(rng.choice(novel.n_samples, chunk)) for _ in range(4)]
    batches.append(np.arange(novel.n_samples - 1, novel.n_samples - 1 - chunk, -1))
    for idx in batches:
        rows = forward(state.network, novel.images[idx], MODE_EVAL, STAGE_META_TESTING, stop=cut).data
        assert rows.dtype == feats.dtype
        assert np.array_equal(rows, feats[idx])


def reference_episodes(state, view, espec, mcfg, n_episodes, seed):
    """Each episode without the cache: meta_test, then a full forward of the query images.

    Returns the per-episode accuracies and query logits.
    """
    accs, logits = [], []
    for i in range(n_episodes):
        ep_rng = Rng(seed).derive(f"eval-episode-{i}")
        episode = sample_episode(view, espec, ep_rng.derive("sample"))
        adapted = meta_test(state, episode.support, mcfg, ep_rng)
        out = forward(adapted.network, episode.query.x, MODE_EVAL, STAGE_META_TESTING).data
        accs.append(float((np.argmax(out, axis=1) == episode.query.y).mean()))
        logits.append(out)
    return tuple(accs), logits


def _task_drop(place):
    return DropoutSpec("standard", 0.7, frozenset({place}), STAGE_META_TESTING, 1)


_FROZEN = MetaTestConfig(Q=12, finetune_steps=3, finetune_lr=1.0)
# case -> (meta tags, meta-test config, jobs, expected cut)
CACHE_CASES = {
    "frozen": (CONV_TAGS, _FROZEN, 1, 5),
    "task dropout on conv4": (CONV_TAGS, replace(_FROZEN, task_dropout=_task_drop("conv4")), 1, 5),
    "task dropout on flatten": (CONV_TAGS, replace(_FROZEN, task_dropout=_task_drop("flatten")), 1, 5),
    "conv4 is task knowledge": (CONV_TAGS - {"conv4"}, _FROZEN, 1, 3),
    "unfrozen": (CONV_TAGS, replace(_FROZEN, freeze_meta=False, finetune_lr=0.1), 1, 0),
    "jobs=2": (CONV_TAGS, replace(_FROZEN, task_dropout=_task_drop("conv4")), 2, 5),
}


@pytest.mark.parametrize("case", list(CACHE_CASES))
def test_cached_evaluate_equals_full_query_forwards(trained_32px, case, monkeypatch):
    tags, mcfg, jobs, cut = CACHE_CASES[case]
    trained, novel = trained_32px
    state = KnowledgeState(trained.network, partition_params(trained.network, tags), seed=7)
    assert meta_test_prefix(state, mcfg) == cut
    logits = []

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        if "start" in kwargs:  # the forward that classifies an episode's query
            logits.append(out.data)
        return out

    monkeypatch.setattr(evaluate_module, "forward", recording_forward)
    # query sets of 20, 15 and 6 images; at 6, rows from larger batches differ.
    # One episode reads fewer query images than the 63 of the view, so it skips the cache
    for espec in (EpisodeSpec(C=5, K=1, Q_query=4), EpisodeSpec(C=3, K=2, Q_query=5),
                  EpisodeSpec(C=2, K=1, Q_query=3)):
        for n in (12, 1):
            logits.clear()
            report = evaluate_fewshot(state, novel, espec, mcfg, n_episodes=n, seed=3, jobs=jobs)
            ref_accs, ref_logits = reference_episodes(state, novel, espec, mcfg, n, seed=3)
            assert report.per_episode_acc == ref_accs
            if jobs == 1:
                assert len(logits) == n
                assert all(np.array_equal(a, b) for a, b in zip(logits, ref_logits))


def test_frozen_evaluate_embeds_each_image_once(trained_32px, monkeypatch):
    calls = []
    conv2d = ops.conv2d

    def counting_conv2d(*args, **kwargs):
        calls.append(1)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(ops, "conv2d", counting_conv2d)
    state, novel = trained_32px
    espec = EpisodeSpec(C=5, K=1, Q_query=4)
    n = 7
    evaluate_fewshot(state, novel, espec, _FROZEN, n_episodes=n, seed=1)
    # 4 convs per chunk of C * Q_query images, plus the support prefix of each
    # episode; without the cache each query forward adds 4 more per episode
    assert len(calls) == 4 * math.ceil(novel.n_samples / 20) + 4 * n


def test_small_frozen_evaluate_skips_the_cache(trained_32px, monkeypatch):
    calls = []
    conv2d = ops.conv2d

    def counting_conv2d(*args, **kwargs):
        calls.append(1)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(ops, "conv2d", counting_conv2d)
    state, novel = trained_32px
    espec = EpisodeSpec(C=5, K=1, Q_query=4)
    n = 2
    assert n * espec.C * espec.Q_query < novel.n_samples
    evaluate_fewshot(state, novel, espec, _FROZEN, n_episodes=n, seed=1)
    # no embedding of the view: per episode, the support prefix and the query forward
    assert len(calls) == 8 * n


# ---------------------------------------------------------------------------
# placement labels


def test_placement_labels():
    assert placement_label(frozenset({"conv4"})) == "on group 4"
    assert placement_label(frozenset({"conv3", "conv4"})) == "on group 3&4"
    assert placement_label(frozenset({"flatten"})) == "on last flatten layer"
    assert placement_label(frozenset({"conv1", "conv2"})) == "on conv1&conv2"


# ---------------------------------------------------------------------------
# ablation grid


def _ablation_build_net(seed):
    # module-level so ProcessPoolExecutor can pickle the assets
    net = build_conv4((2, 2, 2, 2), (1, 16, 16), 4, "cosine", Rng(seed))
    return net, partition_params(net, CONV_TAGS)


def ablation_fixture(n_episodes=4):
    ds = gen_synthetic(SyntheticSpec(
        n_classes=8, samples_per_class=6, image_extent=16,
        cluster_std=0.05, class_separation=2.0, seed=11))
    base, _, novel = split_classes(ds, SplitSpec.from_counts(8, 4, 0, 4))
    template = DropoutSpec("dropblock", 0.9, frozenset({"conv3", "conv4"}),
                           STAGE_META_TRAINING, block_size=1)
    task_drop = DropoutSpec("standard", 0.9, frozenset({"conv4"}), STAGE_META_TESTING, 1)
    assets = AblationAssets(
        base_view=base, novel_view=novel, build_net=_ablation_build_net,
        train_cfg=TrainConfig(meta_lr=0.05, meta_epochs=1, batch_size=8),
        mtest_cfg=MetaTestConfig(Q=2, finetune_steps=1, finetune_lr=0.1),
        espec=EpisodeSpec(C=2, K=1, Q_query=2),
        n_episodes=n_episodes, meta_dropout_template=template, task_dropout=task_drop,
    )
    return assets


def test_grid_four_arms_one_placement():
    grid = AblationGrid(batch_sizes=(8,))
    cells = grid.cells()
    assert len(cells) == 4
    assert [c.arm for c in cells] == ["none", "M", "D", "M&D"]


def test_grid_placement_axis_multiplies_cells():
    grid = AblationGrid(
        placements=(frozenset({"conv4"}), frozenset({"conv3", "conv4"}), frozenset({"flatten"})),
        batch_sizes=(8,))
    assert len(grid.cells()) == 12


def test_grid_rejects_unknown_arm():
    with pytest.raises(ContractError):
        AblationGrid(arms=("none", "X"))


def test_run_ablation_all_cells_and_csv(tmp_path):
    assets = ablation_fixture()
    grid = AblationGrid(kinds=("standard",), batch_sizes=(8,))
    rows = run_ablation(grid, assets, seeds=(0, 1))
    assert len(rows) == 8
    assert all(r.report is not None for r in rows), [r.error for r in rows]

    path = tmp_path / "table.csv"
    write_ablation_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    header, data = parsed[0], parsed[1:]
    assert header == ["regime", "arm", "kind", "placement", "batch_size", "seed",
                      "n_episodes", "mean_acc", "ci95", "error"]
    # 8 per-seed rows plus 4 per-cell aggregates
    assert len(data) == 12
    agg = [r for r in data if r[5] == "mean(2)"]
    assert len(agg) == 4
    assert {r[1] for r in agg} == {"none", "M", "D", "M&D"}
    assert all(r[3] == "on group 3&4" for r in data)


def test_ablation_cell_failure_is_isolated():
    assets = ablation_fixture()
    # batch_size larger than the base view only breaks those cells
    grid = AblationGrid(kinds=("standard",), batch_sizes=(8, 10_000))
    rows = run_ablation(grid, assets, seeds=(0,))
    ok = [r for r in rows if r.report is not None]
    failed = [r for r in rows if r.report is None]
    assert len(ok) == 4 and len(failed) == 4
    assert all("batch_size" in r.error for r in failed)


def test_ablation_failed_rows_survive_csv(tmp_path):
    assets = ablation_fixture()
    grid = AblationGrid(arms=("none",), kinds=("standard",), batch_sizes=(10_000,))
    rows = run_ablation(grid, assets, seeds=(0,))
    path = tmp_path / "fail.csv"
    write_ablation_csv(rows, path)
    with open(path, newline="") as fh:
        data = list(csv.reader(fh))[1:]
    assert len(data) == 1
    assert data[0][9] != ""
    assert data[0][7] == ""


def test_arm_none_equals_m_with_keep_prob_one():
    assets = ablation_fixture()
    assets = replace(assets) if hasattr(assets, "__dataclass_fields__") else assets
    assets.meta_dropout_template = DropoutSpec(
        "standard", 1.0, frozenset({"conv3", "conv4"}), STAGE_META_TRAINING, 1)
    base_cell = AblationCell("none", "standard", frozenset({"conv3", "conv4"}), 8, "pretrain_finetune")
    m_cell = AblationCell("M", "standard", frozenset({"conv3", "conv4"}), 8, "pretrain_finetune")
    a = run_cell(base_cell, assets, seed=0)
    b = run_cell(m_cell, assets, seed=0)
    assert a == b


def test_run_cell_missing_template_refused():
    assets = ablation_fixture()
    assets.meta_dropout_template = None
    cell = AblationCell("M", "standard", frozenset({"conv4"}), 8, "pretrain_finetune")
    with pytest.raises(ContractError):
        run_cell(cell, assets, seed=0)


def test_run_ablation_parallel_equals_serial():
    assets = ablation_fixture(n_episodes=2)
    grid = AblationGrid(arms=("none", "M"), kinds=("standard",), batch_sizes=(8,))
    serial = run_ablation(grid, assets, seeds=(0,), jobs=1)
    parallel = run_ablation(grid, assets, seeds=(0,), jobs=2)
    assert [(r.cell, r.seed, r.report) for r in serial] == \
        [(r.cell, r.seed, r.report) for r in parallel]


def test_one_blas_thread_sets_bundled_openblas_to_one_thread():
    # in a child process, so this test process keeps its own thread count
    script = """
import ctypes, glob, os
import numpy as np
from fsml.evaluate import one_blas_thread
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_ if libs else None
one_blas_thread()
print(get() if get else "none")
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout.split()
    if out == ["none"]:
        pytest.skip("numpy does not bundle scipy-openblas here; one_blas_thread is a no-op")
    assert out == ["1"]
