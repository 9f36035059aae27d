"""The stacked meta-test: E episodes adapted on one tape equal E runs of meta_test, bit for bit.

meta_test's list form rests on one premise: np.matmul on [E, m, k] stacks,
and the axis sums of the head ops, give each slice the bits of the 2-D op on
that slice.  The comparisons here start both paths from the same cached query
features, so they test that premise alone, not the row invariance of the
query cache (see tests/test_eval.py).  A stack of one episode runs in every
config, the ones that do not stack included, and equals the one-episode
form there too.  The tripwire reruns both comparisons under other OpenBLAS
kernels.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from fsml import evaluate, ops
from fsml.data import EpisodeSpec, SyntheticSpec, gen_synthetic, sample_episode
from fsml.errors import ContractError
from fsml.meta import KnowledgeState, MetaTestConfig, meta_test, meta_test_prefix, stackable
from fsml.nn import MODE_EVAL, STAGE_META_TESTING, DropoutSpec, build_conv4, forward, partition_params
from fsml.rng import Rng

CONV_TAGS = frozenset({"conv1", "conv2", "conv3", "conv4"})
ESPEC = EpisodeSpec(C=5, K=1, Q_query=4)
_FROZEN = MetaTestConfig(Q=6, finetune_steps=3, finetune_lr=1.0)


def _task_drop(kind, place, block=1):
    return DropoutSpec(kind, 0.7, frozenset({place}), STAGE_META_TESTING, block)


# case -> (head kind, meta-test config, task_l2)
STACK_CASES = {
    "cosine": ("cosine", _FROZEN, 0.0),
    "cosine, standard dropout on conv4": ("cosine", replace(_FROZEN, task_dropout=_task_drop("standard", "conv4")), 0.0),
    "cosine, dropblock on conv4": ("cosine", replace(_FROZEN, task_dropout=_task_drop("dropblock", "conv4", 3)), 0.0),
    "cosine, spatial dropout on conv4": ("cosine", replace(_FROZEN, task_dropout=_task_drop("spatial", "conv4")), 0.0),
    "cosine, dropout on flatten": ("cosine", replace(_FROZEN, task_dropout=_task_drop("standard", "flatten")), 0.0),
    "cosine, dropout on the logits": ("cosine", replace(_FROZEN, task_dropout=_task_drop("standard", "head")), 0.0),
    "linear, ridge": ("linear", _FROZEN, 0.01),
    "linear, dropout on conv4": ("linear", replace(_FROZEN, task_dropout=_task_drop("standard", "conv4")), 0.0),
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


def stacked_mismatches(head, mcfg, task_l2, n_episodes=6, seed=3) -> list[str]:
    """Where meta_test on a stack and per-episode meta_test differ on the same cached query features."""
    state, view = _state_and_view(head, task_l2)
    assert stackable(state, mcfg)
    cut = meta_test_prefix(state, mcfg)
    feats = evaluate._embed(state.network, view.images, cut, ESPEC.C * ESPEC.Q_query)
    episodes, rngs = zip(*(_episode(i, view, ESPEC, seed) for i in range(n_episodes)))
    problems = []
    with ops.one_blas_thread():
        stacked = meta_test(state, [episode.support for episode in episodes], mcfg, list(rngs))
        queries = np.concatenate([feats[episode.query_idx] for episode in episodes])
        logits = forward(stacked.network, queries, MODE_EVAL, STAGE_META_TESTING, start=cut).data
        heads = stacked.network.head.params()
        for e, (episode, rng) in enumerate(zip(episodes, rngs)):
            adapted = meta_test(state, episode.support, mcfg, rng)
            want = forward(adapted.network, feats[episode.query_idx], MODE_EVAL, STAGE_META_TESTING, start=cut).data
            if logits[e].tobytes() != want.tobytes():
                problems.append(f"episode {e}: query logits")
            for pid, t in adapted.network.head.params().items():
                if heads[pid].data[e].tobytes() != t.data.tobytes():
                    problems.append(f"episode {e}: {pid}")
    return problems


@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacked_adaptation_equals_meta_test_per_episode(case):
    assert stacked_mismatches(*STACK_CASES[case]) == []


_UNFROZEN = replace(_FROZEN, freeze_meta=False, finetune_lr=0.1)
# case -> (head kind, meta-test config, meta tags); none of them stacks
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
                one = got[pid].data[0] if pid in stacked.network.head.params() else got[pid].data
                if one.tobytes() != t.data.tobytes():
                    problems.append(f"episode {e}: {pid}")
    return problems


@pytest.mark.parametrize("case", list(ONE_EPISODE_CASES))
def test_a_stack_of_one_equals_meta_test_on_one_episode(case):
    head, mcfg, tags = ONE_EPISODE_CASES[case]
    state, _ = _state_and_view(head, 0.0, tags)
    assert not stackable(state, mcfg) or case.endswith(", frozen")
    assert one_episode_mismatches(head, mcfg, tags) == []


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
    if ops._openblas_threads() is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    tests_dir = os.path.dirname(__file__)
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(ops.__file__)), tests_dir])}
    out = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True, env=env,
                         check=True, timeout=300).stdout.strip().splitlines()[-1]
    assert json.loads(out) == {"stacked": {case: [] for case in STACK_CASES},
                               "one episode": {case: [] for case in ONE_EPISODE_CASES}}


# ---------------------------------------------------------------------------
# which meta-tests stack


def test_stackable_needs_a_frozen_backbone_and_nothing_but_the_head_to_adapt():
    state, _ = _state_and_view("cosine", 0.0)
    assert stackable(state, _FROZEN)
    assert stackable(state, replace(_FROZEN, task_dropout=_task_drop("standard", "conv4")))
    # the frozen conv4 would run on every episode's rows at once, changing its GEMM's row count
    assert not stackable(state, replace(_FROZEN, task_dropout=_task_drop("standard", "conv3")))
    assert not stackable(state, replace(_FROZEN, freeze_meta=False))
    conv4_task, _ = _state_and_view("cosine", 0.0, tags=CONV_TAGS - {"conv4"})
    assert not stackable(conv4_task, _FROZEN)


def test_meta_test_refuses_stacks_that_do_not_stack():
    state, view = _state_and_view("cosine", 0.0)
    episodes, rngs = zip(*(_episode(i, view, ESPEC, 0) for i in range(2)))
    with pytest.raises(ContractError, match="freeze_meta"):
        meta_test(state, [e.support for e in episodes], replace(_FROZEN, freeze_meta=False), list(rngs))
    three_way, rng = _episode(2, view, EpisodeSpec(C=3, K=1, Q_query=4), 0)
    with pytest.raises(ContractError, match="one class count"):
        meta_test(state, [episodes[0].support, three_way.support], _FROZEN, [rngs[0], rng])
