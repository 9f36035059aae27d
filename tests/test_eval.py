"""Confidence intervals, report formatting, episode evaluation, ablation grid."""

import csv
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import make_golden_digests
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
from fsml.meta import (
    KnowledgeState,
    MetaTestConfig,
    TrainConfig,
    adaptation_cut,
    meta_test,
    meta_test_prefix,
    meta_train_pretrain,
)
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
from fsml.tensor import Tensor

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
    """A Conv-4 pretrained on 32x32 images until it learns, and a novel view of 7 x 9 = 63 images."""
    state, novel = make_golden_digests.trained_state()
    # a network still at the uniform-guess loss would leave every accuracy read here at chance
    assert state.log[-1]["meta_loss"] < math.log(state.network.n_classes)
    return state, novel


@pytest.mark.parametrize("chunk", [20, 15, 6])
@pytest.mark.parametrize("cut", [6, 10])
def test_chunked_embedding_rows_equal_any_forward_of_that_many_images(trained_32px, chunk, cut):
    # the cache rests on this: a row's bits depend on the batch size, not on
    # which images share the batch or, where the position probe passes, where
    # the row sits in it
    state, novel = trained_32px
    assert novel.n_samples % chunk != 0
    feats = evaluate_module._embed(state.network, novel.images, cut, chunk)
    assert feats.shape[0] == novel.n_samples
    probe_passes = evaluate_module._position_free(state.network, novel.images[:chunk], cut)
    rng = Rng(chunk * 10 + cut)
    batches = [np.array(rng.choice(novel.n_samples, chunk)) for _ in range(4)]
    batches.append(np.arange(novel.n_samples - 1, novel.n_samples - 1 - chunk, -1))
    for idx in batches:
        rows = forward(state.network, novel.images[idx], MODE_EVAL, STAGE_META_TESTING, stop=cut).data
        assert rows.dtype == feats.dtype
        # where a row's bits move with its position, the probe must report it
        assert np.array_equal(rows, feats[idx]) or not probe_passes


@pytest.mark.parametrize("moved_row", [None, 0, -1])
def test_the_position_probe_fails_a_forward_that_changes_one_position(trained_32px, monkeypatch, moved_row):
    state, novel = trained_32px

    def forward_that_moves(net, batch, *args, **kwargs):
        # every row a function of its own image alone, but for the one at `moved_row`
        out = Tensor(batch + 1)
        if moved_row is not None:
            out.data[moved_row] += 1
        return out

    monkeypatch.setattr(evaluate_module, "forward", forward_that_moves)
    read = np.arange(1, novel.n_samples, 2)  # the rows some episode reads, sorted
    for chunk in (5, 20):
        assert evaluate_module._position_free(state.network, novel.images[:chunk], 10) == (moved_row is None)
        feats, cut = evaluate_module._cache(state.network, novel.images, read, 10, chunk)
        assert cut == (10 if moved_row is None else 0)
        if moved_row is None:  # the rows read, at their view rows; the others zero
            assert np.array_equal(feats[read], novel.images[read] + 1)
            assert not feats[::2].any()
        else:
            assert feats is novel.images


def reference_episodes(state, view, espec, mcfg, n_episodes, seed):
    """Each episode without the cache: meta_test, then a full forward of the query images.

    Returns the per-episode accuracies, query logits and adapted head values.
    """
    accs, logits, heads = [], [], []
    with ops.one_blas_thread():  # as evaluate_fewshot runs its forwards
        for i in range(n_episodes):
            ep_rng = Rng(seed).derive(f"eval-episode-{i}")
            episode = sample_episode(view, espec, ep_rng.derive("sample"))
            adapted = meta_test(state, episode.support, mcfg, ep_rng)
            out = forward(adapted.network, episode.query.x, MODE_EVAL, STAGE_META_TESTING).data
            accs.append(float((np.argmax(out, axis=1) == episode.query.y).mean()))
            logits.append(out)
            heads.append(head_values(adapted.network))
    return tuple(accs), logits, heads


def head_values(net, episode=None):
    """The head's parameter arrays by id; with `episode`, that slice of a head holding one per episode."""
    return {pid: t.data if episode is None else t.data[episode] for pid, t in net.head.params().items()}


def _task_drop(place):
    return DropoutSpec("standard", 0.7, frozenset({place}), STAGE_META_TESTING, 1)


_FROZEN = MetaTestConfig(Q=12, finetune_steps=3, finetune_lr=1.0)
# case -> (meta tags, meta-test config, jobs, expected cuts: the points 2k, the input of layer k, or 2k + 1, what
# layer k's mask sees, of the query cache (meta_test_prefix) and the support cache (adaptation_cut))
CACHE_CASES = {
    "frozen": (CONV_TAGS, _FROZEN, 1, 10, 10),
    "task dropout on conv4": (CONV_TAGS, replace(_FROZEN, task_dropout=_task_drop("conv4")), 1, 10, 7),
    "task dropout on flatten": (CONV_TAGS, replace(_FROZEN, task_dropout=_task_drop("flatten")), 1, 10, 9),
    "conv4 is task knowledge": (CONV_TAGS - {"conv4"}, _FROZEN, 1, 6, 6),
    "unfrozen": (CONV_TAGS, replace(_FROZEN, freeze_meta=False, finetune_lr=0.1), 1, 0, 0),
    "jobs=2": (CONV_TAGS, replace(_FROZEN, task_dropout=_task_drop("conv4")), 2, 10, 7),
    "task dropout on conv3": (CONV_TAGS, replace(_FROZEN, task_dropout=_task_drop("conv3")), 1, 10, 5),
    "dropblock on conv4": (CONV_TAGS, replace(_FROZEN, task_dropout=DropoutSpec(
        "dropblock", 0.7, frozenset({"conv4"}), STAGE_META_TESTING, 3)), 1, 10, 7),
    "jobs=2, task dropout on conv3": (CONV_TAGS, replace(_FROZEN, task_dropout=_task_drop("conv3")), 2, 10, 5),
}


@pytest.mark.parametrize("case", list(CACHE_CASES))
def test_cached_evaluate_equals_full_query_forwards(trained_32px, case, monkeypatch, tmp_path):
    tags, mcfg, jobs, cut, support_cut = CACHE_CASES[case]
    trained, novel = trained_32px
    state = KnowledgeState(trained.network, partition_params(trained.network, tags), seed=7)
    assert meta_test_prefix(state, mcfg) == cut
    assert adaptation_cut(state, mcfg) == support_cut
    logits, heads = [], []  # of the stack being run, in the process that runs it
    accuracy, accuracies = evaluate_module._accuracy, evaluate_module._accuracies

    def recording_accuracy(rows, query_y):  # every path scores each episode's query logits here
        logits.append(rows)
        return accuracy(rows, query_y)

    def recording_meta_test(*args, **kwargs):  # every stack adapts here; its head holds one slice per episode
        adapted = meta_test(*args, **kwargs)
        n_stacked = len(next(iter(adapted.network.head.params().values())).data)
        heads.extend(head_values(adapted.network, e) for e in range(n_stacked))
        return adapted

    def recording_accuracies(indices, episodes, *args):  # every stack runs here, in a pool worker when jobs > 1
        logits.clear()
        heads.clear()
        accs = accuracies(indices, episodes, *args)
        *_, (_, query_cut), (_, cached_support_cut) = args
        record = (list(indices), logits, heads, (query_cut, cached_support_cut))
        (tmp_path / f"stack-{indices[0]:03d}.pkl").write_bytes(pickle.dumps(record))
        return accs

    monkeypatch.setattr(evaluate_module, "_accuracy", recording_accuracy)
    monkeypatch.setattr(evaluate_module, "meta_test", recording_meta_test)
    monkeypatch.setattr(evaluate_module, "_accuracies", recording_accuracies)
    # query sets of 20, 15, 6 and 15 images; at 6, rows from larger batches differ.
    # Support sets of 5, 6, 2 and 10 images.  Each cache holds the images
    # that some episode reads, from 1 to 12 episodes, with a padded last
    # chunk wherever their count is no multiple of the set size
    for espec in (EpisodeSpec(C=5, K=1, Q_query=4), EpisodeSpec(C=3, K=2, Q_query=5),
                  EpisodeSpec(C=2, K=1, Q_query=3), EpisodeSpec(C=5, K=2, Q_query=3)):
        for n in (12, 2, 1):
            for path in tmp_path.glob("stack-*.pkl"):
                path.unlink()
            report = evaluate_fewshot(state, novel, espec, mcfg, n_episodes=n, seed=3, jobs=jobs)
            ref_accs, ref_logits, ref_heads = reference_episodes(state, novel, espec, mcfg, n, seed=3)
            assert report.per_episode_acc == ref_accs
            if jobs > 1 and multiprocessing.get_start_method() != "fork":
                continue  # the workers do not inherit the recording functions
            stacks = [pickle.loads(path.read_bytes()) for path in sorted(tmp_path.glob("stack-*.pkl"))]
            assert [i for indices, *_ in stacks for i in indices] == list(range(n))
            # each cache holds its cut, or falls back to point 0 where the position probe fails
            query_cut, cached_support_cut = stacks[0][3]
            assert query_cut in (cut, 0) and cached_support_cut in (support_cut, 0)
            got_logits = [rows for _, stack_logits, _, _ in stacks for rows in stack_logits]
            assert len(got_logits) == n
            assert all(np.array_equal(a, b) for a, b in zip(got_logits, ref_logits))
            got_heads = [head for _, _, stack_heads, _ in stacks for head in stack_heads]
            assert len(got_heads) == n
            for got, want in zip(got_heads, ref_heads):
                assert got.keys() == want.keys()
                assert all(got[pid].tobytes() == want[pid].tobytes() for pid in want)


def test_a_failed_position_probe_gives_the_same_report_uncached(trained_32px, monkeypatch):
    state, novel = trained_32px
    espec = EpisodeSpec(C=5, K=1, Q_query=4)
    n = 13
    mcfg = replace(_FROZEN, task_dropout=_task_drop("conv4"))
    cached = evaluate_fewshot(state, novel, espec, mcfg, n_episodes=n, seed=1)
    calls = count_convs(monkeypatch)
    monkeypatch.setattr(evaluate_module, "_position_free", lambda *args: False)
    assert evaluate_fewshot(state, novel, espec, mcfg, n_episodes=n, seed=1) == cached
    # no probe ran a conv: per episode, the support forward up to conv4's
    # mask and the query forward up to the head, each of its own images
    assert len(calls) == 8 * n


@pytest.mark.parametrize("stack", [1, 5])
def test_stacks_of_any_size_give_the_same_report(trained_32px, monkeypatch, stack):
    state, novel = trained_32px
    espec = EpisodeSpec(C=5, K=1, Q_query=4)
    mcfgs = (replace(_FROZEN, task_dropout=_task_drop("conv4")), replace(_FROZEN, freeze_meta=False, finetune_lr=0.1))
    wholes = [evaluate_fewshot(state, novel, espec, mcfg, n_episodes=12, seed=2) for mcfg in mcfgs]
    monkeypatch.setattr(evaluate_module, "_STACK", stack)
    monkeypatch.setattr(evaluate_module, "_CONV_STACK_FLOATS", 1 << 40)  # conv stacks of `stack` too
    assert [evaluate_fewshot(state, novel, espec, mcfg, n_episodes=12, seed=2) for mcfg in mcfgs] == wholes


# case -> (meta-test config, n_episodes, stack size, expected meta_test calls)
META_TEST_CALL_CASES = {
    "stackable, cached": (_FROZEN, 12, 5, 3),
    "stackable, cached, one stack": (_FROZEN, 12, 100, 1),
    # conv1 reads 5 images of 32x32 a step: 6 episodes hold 30,720 floats, 7 would hold 35,840
    "unfrozen": (replace(_FROZEN, freeze_meta=False, finetune_lr=0.1), 12, 100, 2),
    # conv4 reads 5 maps of 8x4x4 a step, so 51 episodes fit; _STACK caps them at 5
    "conv3 task dropout": (replace(_FROZEN, task_dropout=_task_drop("conv3")), 7, 5, 2),
    "short": (_FROZEN, 2, 5, 2),
}


@pytest.mark.parametrize("case", list(META_TEST_CALL_CASES))
def test_evaluate_makes_one_meta_test_call_per_stack(trained_32px, monkeypatch, case):
    mcfg, n, stack, want = META_TEST_CALL_CASES[case]
    state, novel = trained_32px
    espec = EpisodeSpec(C=5, K=1, Q_query=4)  # 20 query images an episode, against 63 in the view
    assert (case == "short") == (n * espec.C * espec.Q_query < novel.n_samples)
    stacks = []

    def counting_meta_test(state, supports, mcfg, rngs, **kwargs):
        stacks.append(len(rngs))
        return meta_test(state, supports, mcfg, rngs, **kwargs)

    monkeypatch.setattr(evaluate_module, "_STACK", stack)
    monkeypatch.setattr(evaluate_module, "meta_test", counting_meta_test)
    evaluate_fewshot(state, novel, espec, mcfg, n_episodes=n, seed=1)
    assert len(stacks) == want
    assert sum(stacks) == n


def count_convs(monkeypatch) -> list:
    """A list that gains one item per ops.conv2d call from here on."""
    calls = []
    conv2d = ops.conv2d

    def counting_conv2d(*args, **kwargs):
        calls.append(1)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(ops, "conv2d", counting_conv2d)
    return calls


def passing_probe(monkeypatch) -> None:
    """Run the position probe, convs and all, and take its pass whatever the kernel gives."""
    probe = evaluate_module._position_free
    monkeypatch.setattr(evaluate_module, "_position_free", lambda *args: probe(*args) or True)


def read_rows(view, espec, n, seed):
    """The sorted view rows that n episodes of an evaluate read as support, and as query."""
    episodes = [sample_episode(view, espec, Rng(seed).derive(f"eval-episode-{i}").derive("sample")) for i in range(n)]
    return tuple(np.unique([getattr(e, name) for e in episodes]) for name in ("support_idx", "query_idx"))


def cache_convs(n_read, chunk):
    """The convs of a cache of `n_read` 32x32 images up to point 10 or 7, in chunks of `chunk`.

    The probe's plain forward and its two chunks, then the chunks of what is
    read (the last padded); `_embed` runs as many chunks in one forward as
    hold 2^15 floats, four convs a forward.
    """
    per_group = max(1, evaluate_module._CONV_STACK_FLOATS // (chunk * 32 * 32))
    return 4 * (1 + math.ceil(2 / per_group) + math.ceil(math.ceil(n_read / chunk) / per_group))


_ESPEC = EpisodeSpec(C=5, K=1, Q_query=4)  # support sets of 5 and query sets of 20 images


def test_an_unfrozen_query_forward_reads_a_cache_sized_group(trained_32px, monkeypatch):
    # stacks of 6 episodes whose query sets hold 20 images of 1x32x32, 20,480 floats: one episode a forward
    state, novel = trained_32px
    mcfg = replace(_FROZEN, freeze_meta=False, finetune_lr=0.1)
    inputs = []  # the input of each query forward

    def recording_forward(net, batch, *args, **kwargs):
        inputs.append(np.asarray(batch))
        return forward(net, batch, *args, **kwargs)

    monkeypatch.setattr(evaluate_module, "forward", recording_forward)
    evaluate_fewshot(state, novel, _ESPEC, mcfg, n_episodes=12, seed=1)
    assert max(x.size for x in inputs) <= evaluate_module._CONV_STACK_FLOATS
    assert [len(x) for x in inputs] == [20] * 12


def test_frozen_evaluate_embeds_each_image_once(trained_32px, monkeypatch):
    passing_probe(monkeypatch)
    calls = count_convs(monkeypatch)
    state, novel = trained_32px
    n = 7
    support, query = read_rows(novel, _ESPEC, n, seed=1)
    evaluate_fewshot(state, novel, _ESPEC, _FROZEN, n_episodes=n, seed=1)
    # each image read is embedded once per cache, and no episode runs a conv;
    # without the caches each episode adds 4 for its support and 4 for its query
    assert len(support) <= n * 5 < novel.n_samples
    assert len(calls) == cache_convs(len(query), 20) + cache_convs(len(support), 5)


def test_frozen_evaluate_embeds_the_support_sets_once(trained_32px, monkeypatch):
    passing_probe(monkeypatch)
    calls = count_convs(monkeypatch)
    state, novel = trained_32px
    n = 13
    support, query = read_rows(novel, _ESPEC, n, seed=1)
    for mcfg in (_FROZEN, replace(_FROZEN, task_dropout=_task_drop("conv4"))):
        calls.clear()
        evaluate_fewshot(state, novel, _ESPEC, mcfg, n_episodes=n, seed=1)
        # up to point 10 or up to conv4's mask (point 7), four convs a
        # forward; a chunk of 5 images holds 5,120 floats, so a group holds 6
        assert len(calls) == cache_convs(len(query), 20) + cache_convs(len(support), 5)


def test_task_dropout_on_conv4_costs_four_convs_per_episode(trained_32px, monkeypatch):
    state, novel = trained_32px
    n = 7
    support, query = read_rows(novel, _ESPEC, n, seed=1)
    mcfg = replace(_FROZEN, finetune_steps=5, task_dropout=_task_drop("conv4"))
    probe = evaluate_module._position_free
    for support_cached in (True, False):
        # the query probe passes; the support probe passes, or fails and leaves the support uncached
        monkeypatch.setattr(evaluate_module, "_position_free",
                            lambda net, first, cut: (len(first) != 5 or support_cached) and (probe(net, first, cut) or True))
        calls = count_convs(monkeypatch)
        evaluate_fewshot(state, novel, _ESPEC, mcfg, n_episodes=n, seed=1)
        # an uncached support forward runs conv4 up to its mask once, not on each of the 5 steps
        support_convs = cache_convs(len(support), 5) if support_cached else 4 * n
        assert len(calls) == cache_convs(len(query), 20) + support_convs


def test_a_short_frozen_evaluate_embeds_only_the_images_it_reads(trained_32px, monkeypatch):
    passing_probe(monkeypatch)
    state, novel = trained_32px
    n = 2
    assert n * _ESPEC.C * _ESPEC.Q_query < novel.n_samples
    support, query = read_rows(novel, _ESPEC, n, seed=1)
    embedded = []  # the images of each _embed call
    embed = evaluate_module._embed

    def recording_embed(net, images, cut, chunk):
        embedded.append(images)
        return embed(net, images, cut, chunk)

    monkeypatch.setattr(evaluate_module, "_embed", recording_embed)
    calls = count_convs(monkeypatch)
    evaluate_fewshot(state, novel, _ESPEC, _FROZEN, n_episodes=n, seed=1)
    # the query cache, then the support cache, each a probe of two chunks and then the images read
    assert [len(images) for images in embedded] == [2 * 20, len(query), 2 * 5, len(support)]
    assert np.array_equal(embedded[1], novel.images[query]) and len(query) <= n * 20 < novel.n_samples
    assert np.array_equal(embedded[3], novel.images[support])
    assert len(calls) == cache_convs(len(query), 20) + cache_convs(len(support), 5)


@pytest.mark.parametrize("failing", ["query", "support"])
def test_a_probe_that_fails_for_one_cache_skips_only_that_cache(trained_32px, monkeypatch, failing):
    state, novel = trained_32px
    n = 13
    mcfg = replace(_FROZEN, task_dropout=_task_drop("conv4"))  # a query cache at point 10, a support cache at 7
    want = evaluate_fewshot(state, novel, _ESPEC, mcfg, n_episodes=n, seed=1).to_json()
    failing_chunk = {"query": 20, "support": 5}[failing]
    probe, cache = evaluate_module._position_free, evaluate_module._cache
    passed, cuts = {}, {}  # by chunk size: what the real probe gave, and the cache's point

    def one_sided_probe(net, first, cut):
        passed[len(first)] = len(first) != failing_chunk and probe(net, first, cut)
        return passed[len(first)]

    def recording_cache(net, images, read, cut, chunk):
        feats, cuts[chunk] = cache(net, images, read, cut, chunk)
        return feats, cuts[chunk]

    monkeypatch.setattr(evaluate_module, "_position_free", one_sided_probe)
    monkeypatch.setattr(evaluate_module, "_cache", recording_cache)
    assert evaluate_fewshot(state, novel, _ESPEC, mcfg, n_episodes=n, seed=1).to_json() == want
    assert cuts[failing_chunk] == 0
    other = 25 - failing_chunk
    assert cuts[other] == ({20: 10, 5: 7}[other] if passed[other] else 0)


# ---------------------------------------------------------------------------
# placement labels


def test_placement_labels():
    assert placement_label(frozenset({"conv4"})) == "on group 4"
    assert placement_label(frozenset({"conv3", "conv4"})) == "on group 3&4"
    assert placement_label(frozenset({"flatten"})) == "on last flatten layer"
    assert placement_label(frozenset({"conv1", "conv2"})) == "on conv1&conv2"


# ---------------------------------------------------------------------------
# ablation grid


def _ablation_build_net(regime, seed):
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
        train_cfg=TrainConfig(meta_lr=0.05, meta_epochs=1, batch_size=8, meta_dropout=template),
        mtest_cfg=MetaTestConfig(Q=n_episodes, finetune_steps=1, finetune_lr=0.1, task_dropout=task_drop),
        espec=EpisodeSpec(C=2, K=1, Q_query=2),
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


@pytest.mark.parametrize("axis, values", [("kinds", ("standard", "gaussian")), ("regimes", ("episodic", "transductive"))])
def test_grid_rejects_an_unknown_kind_or_regime(axis, values):
    with pytest.raises(ContractError, match=rf"unknown ablation {axis} \['{values[1]}'\]"):
        AblationGrid(**{axis: values})


@pytest.mark.parametrize("axis", ["arms", "kinds", "placements", "batch_sizes", "regimes"])
def test_grid_rejects_an_empty_axis(axis):
    # any empty axis would make a grid of no cells: a run that writes only a CSV header
    with pytest.raises(ContractError, match=rf"ablation axes \['{axis}'\] are empty"):
        AblationGrid(**{axis: ()})


@pytest.mark.parametrize("batch_sizes", [(0,), (8, -1)])
def test_grid_rejects_a_batch_size_below_one(batch_sizes):
    with pytest.raises(ContractError, match="batch_sizes must be >= 1"):
        AblationGrid(batch_sizes=batch_sizes)


def test_grid_rejects_an_empty_placement():
    with pytest.raises(ContractError, match="placement must name at least one layer tag"):
        AblationGrid(placements=(frozenset({"conv4"}), frozenset()))


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
    assets.train_cfg = replace(assets.train_cfg, meta_dropout=DropoutSpec(
        "standard", 1.0, frozenset({"conv3", "conv4"}), STAGE_META_TRAINING, 1))
    base_cell = AblationCell("none", "standard", frozenset({"conv3", "conv4"}), 8, "pretrain_finetune")
    m_cell = AblationCell("M", "standard", frozenset({"conv3", "conv4"}), 8, "pretrain_finetune")
    a = run_cell(base_cell, assets, seed=0)
    b = run_cell(m_cell, assets, seed=0)
    assert a == b


def test_run_cell_missing_template_refused():
    assets = ablation_fixture()
    assets.train_cfg = replace(assets.train_cfg, meta_dropout=None)
    cell = AblationCell("M", "standard", frozenset({"conv4"}), 8, "pretrain_finetune")
    with pytest.raises(ContractError):
        run_cell(cell, assets, seed=0)


@pytest.mark.parametrize("arm, cfg_name, template", [("M", "train_cfg", "meta_dropout"),
                                                     ("D", "mtest_cfg", "task_dropout")])
def test_run_ablation_refuses_a_missing_template_before_any_training(monkeypatch, arm, cfg_name, template):
    assets = ablation_fixture()
    setattr(assets, cfg_name, replace(getattr(assets, cfg_name), **{template: None}))
    calls = []
    monkeypatch.setattr(evaluate_module, "meta_train", lambda *args: calls.append(args))
    with pytest.raises(ContractError, match=rf"arm '{arm}' needs {cfg_name}.{template}"):
        run_ablation(AblationGrid(arms=("none", arm), kinds=("standard",), batch_sizes=(8,)), assets, seeds=(0, 1))
    assert calls == []


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_a_named_error(jobs):
    state, novel = eval_fixture()
    with pytest.raises(ContractError, match=f"jobs must be >= 1, got {jobs}"):
        evaluate_fewshot(state, novel, EpisodeSpec(C=2, K=1, Q_query=2), MetaTestConfig(Q=2), n_episodes=2, jobs=jobs)
    assets = ablation_fixture(n_episodes=2)
    with pytest.raises(ContractError, match=f"jobs must be >= 1, got {jobs}"):
        run_ablation(AblationGrid(arms=("none",), kinds=("standard",), batch_sizes=(8,)), assets, seeds=(0,),
                     jobs=jobs)


def test_run_ablation_parallel_equals_serial():
    assets = ablation_fixture(n_episodes=2)
    grid = AblationGrid(arms=("none", "M"), kinds=("standard",), batch_sizes=(8,))
    serial = run_ablation(grid, assets, seeds=(0,), jobs=1)
    parallel = run_ablation(grid, assets, seeds=(0,), jobs=2)
    assert [(r.cell, r.seed, r.report) for r in serial] == \
        [(r.cell, r.seed, r.report) for r in parallel]


def test_one_blas_thread_sets_bundled_openblas_to_one_thread():
    # in a child process that starts at 2 threads, so this test process keeps its own count
    script = """
import ctypes, glob, os
import numpy as np
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
if not libs:
    print("none")
    raise SystemExit
lib = ctypes.CDLL(libs[0])
get = lib.scipy_openblas_get_num_threads64_
lib.scipy_openblas_set_num_threads64_(2)
import fsml
from fsml import evaluate, meta, ops
print("import", get())
with ops.one_blas_thread():
    print("scoped", get())
print("after-scope", get())
ds = fsml.gen_synthetic(fsml.SyntheticSpec(n_classes=4, samples_per_class=4, image_extent=16,
                                           cluster_std=0.05, class_separation=2.0, seed=1))
forward = meta.forward
def spy(*args, **kwargs):
    print("inside", get())
    if fail:
        raise RuntimeError("raised inside the call")
    return forward(*args, **kwargs)
meta.forward = evaluate.forward = spy
fail = False
net = fsml.build_conv4((2, 2, 2, 2), (1, 16, 16), 4, "cosine", fsml.Rng(0))
partition = fsml.partition_params(net, ("conv1", "conv2", "conv3", "conv4"))
state = fsml.meta_train_pretrain(ds, net, partition, fsml.TrainConfig(meta_lr=0.05, batch_size=16))
print("after pretrain", get())
mcfg = fsml.MetaTestConfig(finetune_steps=1)
espec = fsml.EpisodeSpec(C=2, K=1, Q_query=2)
fsml.meta_test(state, fsml.sample_episode(ds, espec, fsml.Rng(1)).support, mcfg, fsml.Rng(2))
print("after meta_test", get())
fsml.evaluate_fewshot(state, ds, espec, mcfg, n_episodes=2)
print("after evaluate_fewshot", get())
fail = True
try:
    fsml.meta_train_pretrain(ds, net, partition, fsml.TrainConfig(meta_lr=0.05, batch_size=16))
except RuntimeError:
    print("after raising pretrain", get())
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ops.__file__))}
    lines = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                           env=env).stdout.splitlines()
    if lines == ["none"]:
        pytest.skip("numpy does not bundle scipy-openblas here; one_blas_thread is a no-op")
    inside = [line for line in lines if line.startswith("inside")]
    assert len(inside) > 4 and set(inside) == {"inside 1"}
    assert [line for line in lines if not line.startswith("inside")] == [
        "import 2", "scoped 1", "after-scope 2", "after pretrain 2", "after meta_test 2",
        "after evaluate_fewshot 2", "after raising pretrain 2"]
