"""The stacked meta-test: E episodes adapted on one tape equal E runs of meta_test, bit for bit.

meta_test's list form rests on one premise: np.matmul on [E, m, k] stacks,
the batched GEMMs of a conv whose kernel carries an episode axis, and the
axis sums of the stacked ops, give each slice the bits of the unstacked op
on that slice.  The comparisons here start both paths from the same cached
query features (the images, where nothing is cached), so they test that
premise alone, not the row invariance of the query cache (see
tests/test_eval.py).  Every config stacks: head-only adaptation, the whole
backbone adapting, task dropout in the backbone, and conv4 as task
knowledge.  A stack of one episode equals the one-episode form too, and
a stack's query forward in groups of any number of episodes equals its
forward over the whole stack.

A stack draws its random numbers once: each mask kind, each head kind and
the episode plan, drawn for E streams as one array, equal E draws of one
stream each.  The tripwires rerun the comparisons, the cache tests of
tests/test_eval.py and tests/test_fast_paths.py under other OpenBLAS
kernels, and the stacked-draw tests with numpy's SIMD dispatch capped below
AVX-512.
"""

import copy
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from numpy._core import _multiarray_umath

from fsml import data, evaluate, ops
from fsml.data import Dataset, EpisodeSpec, SyntheticSpec, gen_synthetic, sample_episode, sample_plan
from fsml.errors import ContractError, SamplingError
from fsml.meta import KnowledgeState, MetaTestConfig, meta_test, meta_test_prefix, step_start
from fsml.nn import (
    MODE_EVAL,
    STAGE_META_TESTING,
    DropoutSpec,
    build_conv4,
    forward,
    init_cosine_head,
    init_linear_head,
    make_dropout_mask,
    partition_params,
)
from fsml.rng import Rng

CONV_TAGS = frozenset({"conv1", "conv2", "conv3", "conv4"})
ESPEC = EpisodeSpec(C=5, K=1, Q_query=4)
_FROZEN = MetaTestConfig(Q=6, finetune_steps=3, finetune_lr=1.0)


def _task_drop(kind, place, block=1):
    return DropoutSpec(kind, 0.7, frozenset({place}), STAGE_META_TESTING, block)


_UNFROZEN = replace(_FROZEN, freeze_meta=False, finetune_lr=0.1)
# case -> (head kind, meta-test config, meta tags)
ONE_EPISODE_CASES = {
    f"{head}, {name}": (head, mcfg, tags)
    for head in ("cosine", "linear")
    for name, mcfg, tags in (
        ("unfrozen", _UNFROZEN, CONV_TAGS),
        ("unfrozen, dropout on conv2", replace(_UNFROZEN, task_dropout=_task_drop("standard", "conv2")), CONV_TAGS),
        ("unfrozen, dropblock on conv3", replace(_UNFROZEN, task_dropout=_task_drop("dropblock", "conv3", 3)),
         CONV_TAGS),
        ("conv4 is task knowledge", _FROZEN, CONV_TAGS - {"conv4"}),
        ("frozen, dropout on conv3", replace(_FROZEN, task_dropout=_task_drop("standard", "conv3")), CONV_TAGS),
        ("frozen", _FROZEN, CONV_TAGS),
    )
}

# case -> (head kind, meta-test config, task_l2): the steps run only the head
_HEAD_ONLY_CASES = {
    "cosine": ("cosine", _FROZEN, 0.0),
    "cosine, standard dropout on conv4": ("cosine", replace(_FROZEN, task_dropout=_task_drop("standard", "conv4")), 0.0),
    "cosine, dropblock on conv4": ("cosine", replace(_FROZEN, task_dropout=_task_drop("dropblock", "conv4", 3)), 0.0),
    "cosine, spatial dropout on conv4": ("cosine", replace(_FROZEN, task_dropout=_task_drop("spatial", "conv4")), 0.0),
    "cosine, dropout on flatten": ("cosine", replace(_FROZEN, task_dropout=_task_drop("standard", "flatten")), 0.0),
    "cosine, dropout on the logits": ("cosine", replace(_FROZEN, task_dropout=_task_drop("standard", "head")), 0.0),
    "linear, ridge": ("linear", _FROZEN, 0.01),
    "linear, dropout on conv4": ("linear", replace(_FROZEN, task_dropout=_task_drop("standard", "conv4")), 0.0),
}
# case -> (head kind, meta-test config, task_l2, meta tags, episodes in the stack)
STACK_CASES = {
    **{case: (*args, CONV_TAGS, 6) for case, args in _HEAD_ONLY_CASES.items()},
    **{f"{case}, E={e}": (head, mcfg, 0.0, tags, e)
       for case, (head, mcfg, tags) in ONE_EPISODE_CASES.items() for e in (2, 5)},
}


def _state_and_view(head, task_l2, tags=CONV_TAGS):
    view = gen_synthetic(SyntheticSpec(n_classes=6, samples_per_class=8, image_extent=32,
                                       cluster_std=0.1, class_separation=5.0, seed=2))
    net = build_conv4((4, 8, 8, 8), (1, 32, 32), 6, head, Rng(5))
    for pid, t in net.params().items():  # away from the relu kink of zero biases
        if pid.endswith(".bias"):
            t.data = (0.05 * Rng(6).derive(pid).normal_array(t.shape)).astype(np.float32)
    return KnowledgeState(net, partition_params(net, tags), task_l2=task_l2), view


def _episode(index, view, espec, seed):
    rng = evaluate._episode_rng(seed, index)
    return sample_episode(view, espec, rng.derive("sample")), rng


def _slice(stacked: np.ndarray, like: np.ndarray, e: int) -> np.ndarray:
    """Episode e's slice of a stacked parameter, or the parameter itself where the stack shares it."""
    return stacked[e] if stacked.ndim == like.ndim + 1 else stacked


def stacked_mismatches(head, mcfg, task_l2, tags, n_episodes, seed=3) -> list[str]:
    """Where meta_test on a stack and per-episode meta_test differ.

    Both are compared on their query logits from the same cached features, and on every parameter slice.
    """
    state, view = _state_and_view(head, task_l2, tags)
    cut = meta_test_prefix(state, mcfg)
    feats = evaluate._embed(state.network, view.images, 0, cut, ESPEC.C * ESPEC.Q_query) if cut else view.images
    episodes, rngs = zip(*(_episode(i, view, ESPEC, seed) for i in range(n_episodes)))
    problems = []
    with ops.one_blas_thread():
        stacked = meta_test(state, [episode.support for episode in episodes], mcfg, list(rngs))
        queries = np.concatenate([feats[episode.query_idx] for episode in episodes])
        logits = forward(stacked.network, queries, MODE_EVAL, STAGE_META_TESTING, start=cut).data
        got = stacked.network.params()
        for e, (episode, rng) in enumerate(zip(episodes, rngs)):
            adapted = meta_test(state, episode.support, mcfg, rng)
            want = forward(adapted.network, feats[episode.query_idx], MODE_EVAL, STAGE_META_TESTING, start=cut).data
            if logits[e].tobytes() != want.tobytes():
                problems.append(f"episode {e}: query logits")
            for pid, t in adapted.network.params().items():
                if _slice(got[pid].data, t.data, e).tobytes() != t.data.tobytes():
                    problems.append(f"episode {e}: {pid}")
    return problems


@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacked_adaptation_equals_meta_test_per_episode(case):
    assert stacked_mismatches(*STACK_CASES[case]) == []


def one_episode_mismatches(head, mcfg, tags, n_episodes=3, seed=3) -> list[str]:
    """Where meta_test on a stack of one episode and on that episode alone differ: parameters and query logits."""
    state, view = _state_and_view(head, 0.0, tags)
    problems = []
    with ops.one_blas_thread():
        for e in range(n_episodes):
            episode, rng = _episode(e, view, ESPEC, seed)
            stacked = meta_test(state, [episode.support], mcfg, [rng])
            adapted = meta_test(state, episode.support, mcfg, rng)
            logits = forward(stacked.network, episode.query.x, MODE_EVAL, STAGE_META_TESTING).data
            want = forward(adapted.network, episode.query.x, MODE_EVAL, STAGE_META_TESTING).data
            if logits.shape != (1, *want.shape) or logits[0].tobytes() != want.tobytes():
                problems.append(f"episode {e}: query logits")
            got = stacked.network.params()
            for pid, t in adapted.network.params().items():
                if _slice(got[pid].data, t.data, 0).tobytes() != t.data.tobytes():
                    problems.append(f"episode {e}: {pid}")
    return problems


@pytest.mark.parametrize("case", list(ONE_EPISODE_CASES))
def test_a_stack_of_one_equals_meta_test_on_one_episode(case):
    assert one_episode_mismatches(*ONE_EPISODE_CASES[case]) == []


# case -> (meta-test config, meta tags): the query forward runs the whole backbone, conv4 or only the head
GROUPED_CASES = {
    "unfrozen": (_UNFROZEN, CONV_TAGS),
    "frozen, dropout on conv4": (replace(_FROZEN, task_dropout=_task_drop("standard", "conv4")), CONV_TAGS),
    "frozen, dropblock on conv3": (replace(_FROZEN, task_dropout=_task_drop("dropblock", "conv3", 3)), CONV_TAGS),
    "conv4 is task knowledge": (_FROZEN, CONV_TAGS - {"conv4"}),
}


@pytest.mark.parametrize("head", ["cosine", "linear"])
@pytest.mark.parametrize("case", list(GROUPED_CASES))
def test_a_grouped_query_forward_equals_the_whole_stack_forward(monkeypatch, case, head):
    # groups of 1, 2, 3 and 7 of a 7-episode stack: the query logits keep their bytes
    mcfg, tags = GROUPED_CASES[case]
    state, view = _state_and_view(head, 0.0, tags)
    cut, chunk, n = meta_test_prefix(state, mcfg), ESPEC.C * ESPEC.Q_query, 7
    feats = evaluate._embed(state.network, view.images, 0, cut, chunk) if cut else view.images
    episodes, rngs = zip(*(_episode(i, view, ESPEC, 3) for i in range(n)))
    queries = np.concatenate([feats[episode.query_idx] for episode in episodes])
    with ops.one_blas_thread():
        stacked = meta_test(state, [episode.support for episode in episodes], mcfg, list(rngs))
        whole = forward(stacked.network, queries, MODE_EVAL, STAGE_META_TESTING, start=cut).data
        for group in (1, 2, 3, 7):
            monkeypatch.setattr(evaluate, "_CONV_STACK_FLOATS", group * chunk * int(np.prod(feats.shape[1:])))
            grouped = evaluate._grouped_forward(stacked.network, queries, cut, 2 * len(state.network.layers), chunk)
            assert grouped.tobytes() == whole.tobytes(), group


_CHILD = """
import json
import test_stacking as t
print(json.dumps({
    "stacked": {case: t.stacked_mismatches(*args) for case, args in t.STACK_CASES.items()},
    "one episode": {case: t.one_episode_mismatches(*args) for case, args in t.ONE_EPISODE_CASES.items()},
}))
"""


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Prescott"])
def test_stacking_premise_holds_on_other_openblas_kernels(core):
    # the kernel is forced in the child's environment only; this process keeps its own
    if ops._openblas() is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    tests_dir = os.path.dirname(__file__)
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(ops.__file__)), tests_dir])}
    out = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True, env=env,
                         check=True, timeout=300).stdout.strip().splitlines()[-1]
    assert json.loads(out) == {"stacked": {case: [] for case in STACK_CASES},
                               "one episode": {case: [] for case in ONE_EPISODE_CASES}}


# ---------------------------------------------------------------------------
# stacked draws: one draw over E streams equals E draws of one stream each


def _streams(n=7, label="stack"):
    return [Rng(seed).derive(label) for seed in range(n)]


# case -> (spec, one episode's activation shape)
MASK_DRAW_CASES = {
    "standard, conv map": (_task_drop("standard", "conv4"), (5, 8, 4, 4)),
    "standard, flat": (_task_drop("standard", "flatten"), (5, 33)),
    "spatial, batch": (_task_drop("spatial", "conv4"), (5, 8, 4, 4)),
    "spatial, one sample": (_task_drop("spatial", "conv4"), (8, 4, 4)),
    "dropblock, batch": (_task_drop("dropblock", "conv3", 3), (5, 8, 8, 8)),
    "dropblock, one sample": (_task_drop("dropblock", "conv3", 3), (8, 5, 5)),
    "keep_prob 1": (replace(_task_drop("standard", "conv4"), keep_prob=1.0), (5, 8, 4, 4)),
}


@pytest.mark.parametrize("case", list(MASK_DRAW_CASES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_stacked_mask_equals_each_episode_drawn_alone(case, dtype):
    spec, shape = MASK_DRAW_CASES[case]
    stack, alone = _streams(), _streams()
    got = make_dropout_mask(spec, shape, stack, dtype).values
    assert got.shape == (len(stack), *shape) and got.dtype == dtype
    for row, rng in zip(got, alone):
        assert row.tobytes() == make_dropout_mask(spec, shape, rng, dtype).values.tobytes()
    assert [r.next_u64() for r in stack] == [r.next_u64() for r in alone]


@pytest.mark.parametrize("head", ["cosine", "linear"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_stacked_head_init_equals_each_episode_drawn_alone(head, dtype):
    def init(rng):
        if head == "cosine":
            return init_cosine_head(5, 33, rng, 10.0, dtype)
        return init_linear_head(5, 33, rng, dtype)

    stack, alone = _streams(), _streams()
    got = init(stack).params()
    for e, rng in enumerate(alone):
        for pid, t in init(rng).params().items():
            assert got[pid].shape == (len(stack), *t.shape)
            assert got[pid].data[e].tobytes() == t.data.tobytes()
    assert [r.next_u64() for r in stack] == [r.next_u64() for r in alone]


def _uneven_view():
    """9 classes of 4 to 7 images: a 4-way episode with 1 shot and 3 queries may read every image of class 0."""
    ds = gen_synthetic(SyntheticSpec(n_classes=9, samples_per_class=7, image_extent=16, seed=4))
    keep = np.ones(ds.n_samples, dtype=bool)
    keep[[0, 1, 2, 15, 30, 31, 50]] = False
    view = Dataset(ds.images[keep], ds.labels[keep], ds.n_classes, name="uneven")
    assert len({len(view.class_indices(c)) for c in range(view.n_classes)}) == 4
    return view


_UNEVEN_SPEC = EpisodeSpec(C=4, K=1, Q_query=3)


def plan_mismatches(view, espec, streams) -> list[int]:
    """The rows where sample_plan and sample_episode on a copy of that row's stream differ."""
    alone = [copy.copy(r) for r in streams]
    support, query = sample_plan(view, espec, streams)
    assert support.shape == (len(streams), espec.C * espec.K) and query.shape == (len(streams), espec.C * espec.Q_query)
    mismatches = []
    for e, rng in enumerate(alone):
        episode = sample_episode(view, espec, rng)
        if not (np.array_equal(support[e], episode.support_idx) and np.array_equal(query[e], episode.query_idx)):
            mismatches.append(e)
    return mismatches


def test_the_plan_equals_sample_episode_row_by_row():
    view = _uneven_view()
    assert plan_mismatches(view, _UNEVEN_SPEC, _streams(200, "sample")) == []
    assert plan_mismatches(view, EpisodeSpec(C=9, K=2, Q_query=2), _streams(50, "sample")) == []


_M = (1 << 64) - 1
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _unxorshift(z: int, shift: int) -> int:
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def _unmix(z: int) -> int:
    """The state whose splitmix64 finalizer gives z."""
    z = (_unxorshift(z, 31) * pow(_MIX2, -1, 1 << 64)) & _M
    z = (_unxorshift(z, 27) * pow(_MIX1, -1, 1 << 64)) & _M
    return _unxorshift(z, 30)


def rejecting_stream(draw: int) -> Rng:
    """A stream whose draw `draw` (from 0) is 2^64 - 1, which randint(n) rejects for every n but a power of two."""
    return Rng(_unmix(_M) - (draw + 1) * 0x9E3779B97F4A7C15)


@pytest.mark.parametrize("draw", [0, _UNEVEN_SPEC.C], ids=["class draw", "pool draw"])
def test_an_episode_with_a_rejected_draw_is_sampled_on_its_own(draw, monkeypatch):
    view = _uneven_view()
    probe = rejecting_stream(draw)
    assert [probe.next_u64() for _ in range(draw + 1)][-1] == _M
    calls = []

    def counting_sample_episode(*args):
        calls.append(args)
        return sample_episode(*args)

    monkeypatch.setattr(data, "sample_episode", counting_sample_episode)
    streams = _streams(5, "sample")
    streams.insert(2, rejecting_stream(draw))
    assert plan_mismatches(view, _UNEVEN_SPEC, streams) == []
    assert len(calls) == 1  # the rejecting row's; the references call sample_episode directly


def test_the_plan_raises_as_sample_episode_does():
    view = _uneven_view()
    with pytest.raises(SamplingError, match="has 4 samples, episode needs 5"):
        sample_plan(view, EpisodeSpec(C=9, K=1, Q_query=4), _streams(3))
    with pytest.raises(SamplingError, match="episode needs 10 classes"):
        sample_plan(view, EpisodeSpec(C=10, K=1, Q_query=1), _streams(3))


# every stacked draw against the one-stream draws
_STACKED_DRAW_TESTS = [
    "test_rng.py::test_stacked_rows_equal_each_stream_drawn_alone",
    *(f"test_stacking.py::{name}" for name in (
        "test_a_stacked_mask_equals_each_episode_drawn_alone",
        "test_a_stacked_head_init_equals_each_episode_drawn_alone",
        "test_the_plan_equals_sample_episode_row_by_row",
        "test_an_episode_with_a_rejected_draw_is_sampled_on_its_own",
    )),
]


# the grouped query forward and the tests of the view caches, of their shared
# trunk and of the training fast paths, each bitwise against a plain path, and the evaluate, training and ablate digests recorded for
# each kernel, rerun whole in a child under another kernel
_KERNEL_TESTS = [
    "test_stacking.py::test_a_grouped_query_forward_equals_the_whole_stack_forward",
    *(f"test_eval.py::{name}" for name in (
        "test_chunked_embedding_rows_equal_any_forward_of_that_many_images",
        "test_the_position_probe_fails_a_forward_that_changes_one_position",
        "test_cached_evaluate_equals_full_query_forwards",
        "test_a_failed_position_probe_gives_the_same_report_uncached",
        "test_stacks_of_any_size_give_the_same_report",
        "test_evaluate_makes_one_meta_test_call_per_stack",
        "test_frozen_evaluate_embeds_each_image_once",
        "test_frozen_evaluate_embeds_the_support_sets_once",
        "test_task_dropout_on_conv4_costs_four_convs_per_episode",
        "test_a_short_frozen_evaluate_embeds_only_the_images_it_reads",
        "test_a_probe_that_fails_for_one_cache_skips_only_that_cache",
        "test_an_embed_continued_from_any_point_equals_one_embed",
        "test_a_frozen_evaluate_runs_conv1_on_the_images_read_once_and_on_the_probes",
        "test_the_trunk_gives_the_bytes_of_separate_caches_and_of_no_cache",
        "test_a_trunk_that_reaches_a_cut_is_that_cache",
    )),
    "test_fast_paths.py",
    "test_golden.py::test_evaluate_reports_keep_their_digests",
    "test_golden.py::test_trainings_keep_their_digests",
    "test_golden.py::test_ablate_csv_keeps_its_digest",
    *_STACKED_DRAW_TESTS,
]


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Prescott"])
def test_cache_and_fast_path_tests_pass_on_other_openblas_kernels(core):
    # the kernel is forced in the child's environment only; this process keeps its own
    if ops._openblas() is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    tests_dir = os.path.dirname(__file__)
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": os.path.dirname(os.path.dirname(ops.__file__))}
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *_KERNEL_TESTS],
                           capture_output=True, text=True, env=env, cwd=tests_dir, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]


# numpy dispatches log, cos and sin, which Box-Muller runs, on CPU features and not on the OpenBLAS kernel
_BELOW_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_stacked_draws_and_digests_hold_without_avx512_dispatch():
    # the targets are disabled in the child's environment only; this process keeps its own
    features = _multiarray_umath.__cpu_features__
    if not all(t in _multiarray_umath.__cpu_dispatch__ and features.get(t) for t in _BELOW_AVX512):
        pytest.skip(f"numpy dispatches to none of {_BELOW_AVX512} here")
    tests_dir = os.path.dirname(__file__)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(_BELOW_AVX512),
           "PYTHONPATH": os.path.dirname(os.path.dirname(ops.__file__))}
    tests = [*_STACKED_DRAW_TESTS, *(f"test_golden.py::{name}" for name in (
        "test_evaluate_reports_keep_their_digests", "test_trainings_keep_their_digests",
        "test_ablate_csv_keeps_its_digest"))]
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                           capture_output=True, text=True, env=env, cwd=tests_dir, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]


# ---------------------------------------------------------------------------
# what a stack holds


def test_step_start_is_the_first_layer_with_parameters_each_adaptation_step_runs():
    state, _ = _state_and_view("cosine", 0.0)
    tags = {name: state.network.layers[step_start(state, mcfg)].tag for name, mcfg in (
        ("frozen", _FROZEN),
        ("conv4 dropout", replace(_FROZEN, task_dropout=_task_drop("standard", "conv4"))),
        ("conv3 dropout", replace(_FROZEN, task_dropout=_task_drop("standard", "conv3"))),
        ("unfrozen", _UNFROZEN),
        ("unfrozen, conv3 dropout", replace(_UNFROZEN, task_dropout=_task_drop("standard", "conv3"))),
    )}
    assert tags == {"frozen": "head", "conv4 dropout": "head", "conv3 dropout": "conv4",
                    "unfrozen": "conv1", "unfrozen, conv3 dropout": "conv1"}
    conv4_task, _ = _state_and_view("cosine", 0.0, tags=CONV_TAGS - {"conv4"})
    assert conv4_task.network.layers[step_start(conv4_task, _FROZEN)].tag == "conv4"


def test_a_stack_copies_what_adapts_and_shares_what_does_not():
    state, view = _state_and_view("cosine", 0.0)
    episodes, rngs = zip(*(_episode(i, view, ESPEC, 0) for i in range(3)))
    mcfg = replace(_FROZEN, task_dropout=_task_drop("standard", "conv3"), finetune_steps=0)
    params = meta_test(state, [e.support for e in episodes], mcfg, list(rngs)).network.params()
    trained = state.network.params()
    # conv3 runs before the cut, once per episode; conv4 runs in every step, frozen
    assert params["conv3.weight"].shape == trained["conv3.weight"].shape
    assert params["conv4.weight"].shape == (3, *trained["conv4.weight"].shape)
    assert not params["conv4.weight"].data.flags.writeable
    assert params["head.class_vectors"].shape[0] == 3
    unfrozen = meta_test(state, [e.support for e in episodes], replace(_UNFROZEN, finetune_steps=0), list(rngs))
    assert all(t.shape[0] == 3 and t.data.flags.writeable for t in unfrozen.network.params().values())


def test_meta_test_refuses_stacks_that_do_not_stack():
    state, view = _state_and_view("cosine", 0.0)
    five_way, rng = _episode(0, view, ESPEC, 0)
    three_way, rng3 = _episode(2, view, EpisodeSpec(C=3, K=1, Q_query=4), 0)
    for mcfg in (_FROZEN, _UNFROZEN):
        with pytest.raises(ContractError, match="one class count"):
            meta_test(state, [five_way.support, three_way.support], mcfg, [rng, rng3])
