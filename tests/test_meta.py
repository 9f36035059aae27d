"""Meta/task knowledge separation, both training regimes, meta-test adaptation."""

import logging
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from fsml import meta as meta_module
from fsml import ops
from fsml.checkpoint import dump_params
from fsml.data import Batch, EpisodeDistribution, EpisodeSpec, SyntheticSpec, gen_synthetic, sample_episode
from fsml.errors import ConfigurationError, ContractError
from fsml.evaluate import evaluate_fewshot
from fsml.meta import (
    KnowledgeState,
    MetaTestConfig,
    Sgd,
    TrainConfig,
    analytic_meta_gradient,
    apply_meta_dropout,
    inner_adapt,
    meta_test,
    meta_train,
    meta_train_episodic,
    meta_train_pretrain,
)
from fsml.nn import (
    MODE_EVAL,
    MODE_TRAIN,
    STAGE_META_TESTING,
    STAGE_META_TRAINING,
    DropoutSpec,
    build_conv4,
    forward,
    partition_params,
)
from fsml.rng import Rng
from fsml.tensor import Tape, backward

CONV_TAGS = frozenset({"conv1", "conv2", "conv3", "conv4"})


def make_state(seed=0, n_classes=4, head_kind="cosine", **kw):
    net = build_conv4((2, 2, 2, 2), (1, 16, 16), n_classes, head_kind, Rng(seed))
    return KnowledgeState(net, partition_params(net, CONV_TAGS), seed=seed, **kw)


def toy_view(n_classes=4, per_class=8, seed=0):
    return gen_synthetic(SyntheticSpec(
        n_classes=n_classes, samples_per_class=per_class, image_extent=16,
        cluster_std=0.1, class_separation=2.0, seed=seed))


def toy_batch(state, n=8, seed=0):
    rng = Rng(seed)
    x = rng.uniform_array((n, 1, 16, 16)).astype(np.float32)
    y = np.arange(n, dtype=np.int64) % state.network.n_classes
    return Batch(x, y)


def mdrop(kp=0.5, places=("conv3", "conv4"), kind="standard", block=1):
    return DropoutSpec(kind, kp, frozenset(places), STAGE_META_TRAINING, block)


# ---------------------------------------------------------------------------
# configs and state


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(M=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(inner_lr=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(meta_epochs=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(loss="hinge")


def test_meta_test_config_validation():
    with pytest.raises(ConfigurationError):
        MetaTestConfig(Q=0)
    with pytest.raises(ConfigurationError):
        MetaTestConfig(finetune_steps=-1)
    with pytest.raises(ConfigurationError):
        MetaTestConfig(task_dropout=mdrop())  # wrong stage for meta-test dropout


def test_state_partition_must_cover_network():
    net = build_conv4((2, 2, 2, 2), (1, 16, 16), 3, "linear", Rng(0))
    part = partition_params(net, CONV_TAGS)
    bad = type(part)(part.meta_tags, part.meta_ids[:-1], part.task_ids)
    with pytest.raises(ConfigurationError):
        KnowledgeState(net, bad)


def test_state_clone_independent():
    state = make_state()
    before = state.network.values()
    twin = state.clone()
    next(iter(twin.network.params().values())).data += 5.0
    after = state.network.values()
    assert all(np.array_equal(before[k], after[k]) for k in before)


# ---------------------------------------------------------------------------
# meta-dropout registration


def test_apply_meta_dropout_on_meta_tags():
    state = make_state()
    apply_meta_dropout(state, mdrop(places=("conv4",)))
    assert state.meta_dropout is not None


def test_apply_meta_dropout_rejects_task_placement():
    state = make_state()
    with pytest.raises(ConfigurationError):
        apply_meta_dropout(state, mdrop(places=("head",)))


def test_apply_meta_dropout_rejects_flatten_outside_meta():
    # flatten is not a meta tag under the conv-only partition
    state = make_state()
    with pytest.raises(ConfigurationError):
        apply_meta_dropout(state, mdrop(places=("flatten",)))


def test_apply_meta_dropout_rejects_wrong_stage():
    state = make_state()
    bad = DropoutSpec("standard", 0.5, frozenset({"conv4"}), STAGE_META_TESTING, 1)
    with pytest.raises(ConfigurationError):
        apply_meta_dropout(state, bad)


def test_registered_spec_inert_on_eval_forward():
    state = make_state()
    x = Rng(3).uniform_array((2, 1, 16, 16)).astype(np.float32)
    plain = forward(state.network, x, MODE_EVAL, STAGE_META_TESTING).data
    apply_meta_dropout(state, mdrop())
    gated = forward(state.network, x, MODE_EVAL, STAGE_META_TESTING, state.specs(), Rng(9)).data
    assert np.array_equal(plain, gated)


# ---------------------------------------------------------------------------
# inner adaptation


def test_inner_adapt_zero_steps_identity():
    state = make_state()
    before = state.network.values()
    theta = inner_adapt(state, toy_batch(state), steps=0, lr=0.1)
    assert set(theta) == set(state.partition.task_ids)
    after = state.network.values()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_inner_adapt_zero_steps_consumes_no_rng():
    state = make_state(meta_dropout=mdrop())
    rng = Rng(11)
    inner_adapt(state, toy_batch(state), steps=0, lr=0.1, rng=rng)
    assert rng.next_u64() == Rng(11).next_u64()


def test_inner_adapt_leaves_meta_bitwise():
    state = make_state()
    before = {pid: state.network.params()[pid].data.copy() for pid in state.partition.meta_ids}
    inner_adapt(state, toy_batch(state), steps=5, lr=0.1)
    after = state.network.params()
    assert all(np.array_equal(before[pid], after[pid].data) for pid in before)


def test_inner_adapt_moves_task_params():
    state = make_state()
    before = {pid: state.network.params()[pid].data.copy() for pid in state.partition.task_ids}
    inner_adapt(state, toy_batch(state), steps=3, lr=0.5)
    after = state.network.params()
    assert any(not np.array_equal(before[pid], after[pid].data) for pid in before)


def test_inner_adapt_reduces_support_loss():
    state = make_state(n_classes=3)
    batch = toy_batch(state, n=9, seed=4)

    def loss_now():
        logits = forward(state.network, batch.x, MODE_EVAL, STAGE_META_TESTING)
        from fsml import ops
        return ops.softmax_cross_entropy(logits, batch.y).item()

    start = loss_now()
    inner_adapt(state, batch, steps=20, lr=0.5)
    assert loss_now() < start


def test_inner_adapt_contracts():
    state = make_state()
    with pytest.raises(ContractError):
        inner_adapt(state, toy_batch(state), steps=-1, lr=0.1)
    empty = Batch(np.zeros((0, 1, 16, 16), np.float32), np.zeros(0, np.int64))
    with pytest.raises(ContractError):
        inner_adapt(state, empty, steps=1, lr=0.1)


def test_analytic_meta_gradient_covers_all_params():
    state = make_state()
    grads, loss = analytic_meta_gradient(state, toy_batch(state))
    assert isinstance(loss, float)
    for pid in state.network.params():
        assert pid in grads


# ---------------------------------------------------------------------------
# episodic regime


def episodic_setup(seed=0, meta_dropout=None, **overrides):
    view = toy_view(n_classes=5, per_class=6, seed=1)
    dist = EpisodeDistribution(view, EpisodeSpec(C=3, K=1, Q_query=2))
    net = build_conv4((2, 2, 2, 2), (1, 16, 16), 3, "cosine", Rng(seed))
    part = partition_params(net, CONV_TAGS)
    cfg = TrainConfig(M=4, inner_steps=2, inner_lr=0.1, meta_lr=0.05,
                      meta_epochs=3, seed=seed, meta_dropout=meta_dropout, **overrides)
    return dist, net, part, cfg


def test_episodic_logs_one_entry_per_epoch():
    dist, net, part, cfg = episodic_setup()
    state = meta_train_episodic(dist, net, part, cfg)
    assert len(state.log) == 3
    for i, entry in enumerate(state.log):
        assert entry["epoch"] == i
        assert np.isfinite(entry["meta_loss"])
        assert entry["task_loss"] is not None
        assert entry["wall_ms"] >= 0


def test_episodic_deterministic():
    a = meta_train_episodic(*episodic_setup(seed=2))
    b = meta_train_episodic(*episodic_setup(seed=2))
    va, vb = a.network.values(), b.network.values()
    assert all(np.array_equal(va[k], vb[k]) for k in va)
    assert [e["meta_loss"] for e in a.log] == [e["meta_loss"] for e in b.log]


def test_episodic_moves_meta_params():
    dist, net, part, cfg = episodic_setup()
    init = {pid: net.params()[pid].data.copy() for pid in part.meta_ids}
    state = meta_train_episodic(dist, net, part, cfg)
    final = state.network.values()
    assert any(not np.array_equal(init[pid], final[pid]) for pid in init)


def test_episodic_keep_prob_one_bitwise_equal_to_none():
    plain = meta_train_episodic(*episodic_setup(seed=3))
    gated = meta_train_episodic(*episodic_setup(seed=3, meta_dropout=mdrop(kp=1.0)))
    va, vb = plain.network.values(), gated.network.values()
    assert all(np.array_equal(va[k], vb[k]) for k in va)


def test_episodic_dropout_changes_trajectory():
    plain = meta_train_episodic(*episodic_setup(seed=3))
    gated = meta_train_episodic(*episodic_setup(seed=3, meta_dropout=mdrop(kp=0.5)))
    va, vb = plain.network.values(), gated.network.values()
    assert any(not np.array_equal(va[k], vb[k]) for k in va)


# ---------------------------------------------------------------------------
# pretrain regime


def pretrain_setup(seed=0, meta_dropout=None, **overrides):
    view = toy_view(n_classes=4, per_class=6, seed=2)
    net = build_conv4((2, 2, 2, 2), (1, 16, 16), 4, "linear", Rng(seed))
    part = partition_params(net, CONV_TAGS)
    kw = dict(meta_lr=0.05, meta_epochs=3, batch_size=8, seed=seed, meta_dropout=meta_dropout)
    kw.update(overrides)
    return view, net, part, TrainConfig(**kw)


def test_pretrain_zero_epochs_is_initialization():
    view, net, part, cfg = pretrain_setup(meta_epochs=0)
    init = {k: v.copy() for k, v in net.values().items()}
    state = meta_train_pretrain(view, net, part, cfg)
    final = state.network.values()
    assert all(np.array_equal(init[k], final[k]) for k in init)
    assert state.log == []


def test_pretrain_deterministic():
    a = meta_train_pretrain(*pretrain_setup(seed=5))
    b = meta_train_pretrain(*pretrain_setup(seed=5))
    va, vb = a.network.values(), b.network.values()
    assert all(np.array_equal(va[k], vb[k]) for k in va)


def test_pretrain_keep_prob_one_bitwise_equal_to_none():
    plain = meta_train_pretrain(*pretrain_setup(seed=6))
    gated = meta_train_pretrain(*pretrain_setup(seed=6, meta_dropout=mdrop(kp=1.0)))
    va, vb = plain.network.values(), gated.network.values()
    assert all(np.array_equal(va[k], vb[k]) for k in va)


def test_pretrain_loss_decreases_on_separable_set():
    view, net, part, cfg = pretrain_setup(
        seed=7, meta_epochs=10, meta_lr=0.01, batch_size=24)
    state = meta_train_pretrain(view, net, part, cfg)
    losses = [e["meta_loss"] for e in state.log]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def separable_pretrain(meta_lr):
    view = gen_synthetic(SyntheticSpec(
        n_classes=4, samples_per_class=8, image_extent=16, cluster_std=0.1, class_separation=5.0, seed=2))
    net = build_conv4((8, 8, 8, 8), (1, 16, 16), 4, "cosine", Rng(7))
    cfg = TrainConfig(meta_lr=meta_lr, meta_epochs=8, batch_size=8, seed=7)
    return meta_train_pretrain(view, net, partition_params(net, CONV_TAGS), cfg)


def test_plateau_is_named_in_one_warning(caplog):
    # TrainConfig refuses a zero rate; at 1e-12 no parameter moves a bit
    with caplog.at_level(logging.WARNING, logger="fsml"):
        state = separable_pretrain(1e-12)
    records = [r for r in caplog.records if r.name == "fsml"]
    assert len(records) == 1 and records[0].levelno == logging.WARNING
    message = records[0].getMessage()
    assert "seed 7" in message and f"{state.log[-1]['meta_loss']:.4f}" in message and "ln 4" in message
    assert state.log[-1]["meta_loss"] >= math.log(4)
    assert all(set(entry) == {"epoch", "meta_loss", "task_loss", "wall_ms"} for entry in state.log)


@pytest.mark.parametrize("regime", ["pretrain_finetune", "episodic"])
def test_plateau_warning_names_the_training_cell(caplog, regime):
    view = gen_synthetic(SyntheticSpec(
        n_classes=4, samples_per_class=8, image_extent=16, cluster_std=0.1, class_separation=5.0, seed=2))
    n_classes = 4 if regime == "pretrain_finetune" else 2
    net = build_conv4((8, 8, 8, 8), (1, 16, 16), n_classes, "cosine", Rng(7))
    spec = mdrop(kp=0.9)
    cfg = TrainConfig(meta_lr=1e-12, meta_epochs=2, batch_size=8, meta_dropout=spec, seed=3)
    with caplog.at_level(logging.WARNING, logger="fsml"):
        meta_train(regime, view, EpisodeSpec(C=2, K=1, Q_query=2), net, partition_params(net, CONV_TAGS), cfg)
    messages = [r.getMessage() for r in caplog.records if r.name == "fsml"]
    assert len(messages) == 1
    assert messages[0].startswith("seed 3: last epoch's meta_loss")
    # an episodic run reads M and inner_steps, never batch_size
    cell = "batch 8" if regime == "pretrain_finetune" else "M 1, inner_steps 0"
    assert messages[0].endswith(f"({regime}, {cell}, meta-dropout {spec.kind} on conv3&conv4)")
    with caplog.at_level(logging.WARNING, logger="fsml"):
        caplog.clear()
        separable_pretrain(1e-12)
    assert caplog.records[-1].getMessage().endswith("(pretrain_finetune, batch 8, no meta-dropout)")


def test_episodic_plateau_warning_names_m_and_inner_steps(caplog):
    view = gen_synthetic(SyntheticSpec(
        n_classes=4, samples_per_class=8, image_extent=16, cluster_std=0.1, class_separation=5.0, seed=2))
    net = build_conv4((8, 8, 8, 8), (1, 16, 16), 2, "cosine", Rng(7))
    cfg = TrainConfig(M=3, inner_steps=2, inner_lr=1e-12, meta_lr=1e-12, meta_epochs=2, batch_size=5, seed=4)
    with caplog.at_level(logging.WARNING, logger="fsml"):
        meta_train("episodic", view, EpisodeSpec(C=2, K=1, Q_query=2), net, partition_params(net, CONV_TAGS), cfg)
    messages = [r.getMessage() for r in caplog.records if r.name == "fsml"]
    assert len(messages) == 1
    assert messages[0].endswith("(episodic, M 3, inner_steps 2, no meta-dropout)")
    assert "batch" not in messages[0]


def test_learning_run_logs_no_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="fsml"):
        state = separable_pretrain(0.05)
    assert state.log[-1]["meta_loss"] < math.log(4)
    assert not [r for r in caplog.records if r.name == "fsml"]


def test_pretrain_batch_size_guard():
    view, net, part, cfg = pretrain_setup(batch_size=1000)
    with pytest.raises(ConfigurationError):
        meta_train_pretrain(view, net, part, cfg)


def test_pretrain_head_width_guard():
    view, _, _, cfg = pretrain_setup()
    net = build_conv4((2, 2, 2, 2), (1, 16, 16), 7, "linear", Rng(0))
    part = partition_params(net, CONV_TAGS)
    with pytest.raises(ConfigurationError):
        meta_train_pretrain(view, net, part, cfg)


# ---------------------------------------------------------------------------
# pretraining is the meta-training loop over mini-batches


def reference_pretrain(view, net, part, cfg):
    """Plain supervised training: per sorted mini-batch, one taped forward, backward and Sgd over all ids.

    Returns the checkpoint bytes and the per-epoch mean loss.
    """
    state = KnowledgeState(net, part, loss=cfg.loss, task_l2=cfg.task_l2, seed=cfg.seed)
    if cfg.meta_dropout is not None:
        apply_meta_dropout(state, cfg.meta_dropout)
    shuffle_rng = Rng(cfg.seed).derive("pretrain-shuffle")
    mask_rng = Rng(cfg.seed).derive("dropout-masks")
    opt = Sgd(tuple(net.params()), cfg.meta_lr, cfg.momentum)
    epoch_losses = []
    for _ in range(cfg.meta_epochs):
        order = list(range(view.n_samples))
        shuffle_rng.shuffle(order)
        losses = []
        for start in range(0, view.n_samples, cfg.batch_size):
            idx = np.array(sorted(order[start : start + cfg.batch_size]))
            tape = Tape()
            logits = forward(net, view.images[idx], MODE_TRAIN, STAGE_META_TRAINING, state.specs(), mask_rng, tape)
            loss = meta_module._data_loss(state, logits, view.labels[idx])
            opt.step({pid: t.data for pid, t in net.params().items()}, backward(tape, loss))
            losses.append(loss.item())
        epoch_losses.append(float(np.mean(np.asarray(losses, dtype=np.float64))))
    return dump_params(net.values()), epoch_losses


# case -> (head, TrainConfig overrides); the 24-image view leaves a last batch of 4 at batch 10
PRETRAIN_CASES = {
    "no dropout": ("linear", dict(batch_size=8)),
    "dropblock on conv3/conv4, momentum 0.9, partial batch": ("linear", dict(
        batch_size=10, momentum=0.9, meta_dropout=mdrop(kp=0.8, kind="dropblock", block=3))),
    "standard dropout, cosine head, one batch": ("cosine", dict(
        batch_size=24, momentum=0.5, meta_dropout=mdrop(kp=0.7, places=("conv2",)))),
}


@pytest.mark.parametrize("case", list(PRETRAIN_CASES))
def test_pretrain_equals_plain_supervised_loop(case):
    head, overrides = PRETRAIN_CASES[case]
    # 32x32 images, so that conv4 maps are 4x4 and fit a dropblock of 3
    view = gen_synthetic(SyntheticSpec(n_classes=4, samples_per_class=6, image_extent=32,
                                       cluster_std=0.1, class_separation=2.0, seed=2))
    cfg = TrainConfig(meta_lr=0.1, meta_epochs=4, seed=9, **overrides)
    runs = []
    for train in (meta_train_pretrain, reference_pretrain):
        net = build_conv4((2, 2, 2, 2), (1, 32, 32), 4, head, Rng(9))
        runs.append(train(view, net, partition_params(net, CONV_TAGS), cfg))
    state, (ref_bytes, ref_losses) = runs
    assert dump_params(state.network.values()) == ref_bytes
    assert [e["meta_loss"] for e in state.log] == ref_losses


def test_meta_train_rejects_unknown_regime():
    view, net, part, cfg = pretrain_setup()
    with pytest.raises(ContractError, match="regime"):
        meta_train("transductive", view, EpisodeSpec(C=3, K=1, Q_query=2), net, part, cfg)


@pytest.mark.parametrize("inner_steps", [0, 2])
def test_task_loss_is_mean_inner_loss_or_meta_loss(inner_steps, monkeypatch):
    dist, net, part, cfg = episodic_setup(seed=1)
    cfg = replace(cfg, inner_steps=inner_steps)
    inner = []
    sgd_passes = meta_module._sgd_passes

    def recording_sgd_passes(*args):
        losses = sgd_passes(*args)
        inner.extend(losses)
        return losses

    monkeypatch.setattr(meta_module, "_sgd_passes", recording_sgd_passes)
    state = meta_train_episodic(dist, net, part, cfg)
    per_epoch = cfg.M * inner_steps
    assert len(inner) == cfg.meta_epochs * per_epoch
    for i, entry in enumerate(state.log):
        if inner_steps:
            chunk = np.asarray(inner[i * per_epoch : (i + 1) * per_epoch], dtype=np.float64)
            assert entry["task_loss"] == float(np.mean(chunk))
        else:
            assert entry["task_loss"] == entry["meta_loss"]


# ---------------------------------------------------------------------------
# meta-test


def adapted_pair(freeze=True, steps=4, task_dropout=None, seed=0):
    state = make_state(seed=seed, n_classes=6)
    support = Batch(
        Rng(seed + 100).uniform_array((6, 1, 16, 16)).astype(np.float32),
        np.repeat(np.arange(3, dtype=np.int64), 2),
    )
    cfg = MetaTestConfig(Q=4, freeze_meta=freeze, finetune_steps=steps,
                         finetune_lr=0.2, task_dropout=task_dropout)
    return state, meta_test(state, support, cfg, Rng(seed + 200))


def test_meta_test_reshapes_head_to_support_ways():
    state, adapted = adapted_pair()
    assert state.network.n_classes == 6
    assert adapted.network.n_classes == 3


def test_meta_test_freeze_leaves_meta_bitwise():
    state, adapted = adapted_pair(freeze=True, steps=6)
    before = state.network.values()
    after = adapted.network.values()
    assert all(np.array_equal(before[pid], after[pid]) for pid in state.partition.meta_ids)


def test_meta_test_unfrozen_moves_meta():
    state, adapted = adapted_pair(freeze=False, steps=6)
    before = state.network.values()
    after = adapted.network.values()
    assert any(not np.array_equal(before[pid], after[pid]) for pid in state.partition.meta_ids)


def test_meta_test_does_not_mutate_source_state():
    state = make_state(n_classes=6)
    before = {k: v.copy() for k, v in state.network.values().items()}
    support = Batch(Rng(1).uniform_array((4, 1, 16, 16)).astype(np.float32),
                    np.array([0, 0, 1, 1], dtype=np.int64))
    meta_test(state, support, MetaTestConfig(Q=2, finetune_steps=3, finetune_lr=0.5), Rng(2))
    after = state.network.values()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_meta_test_deterministic():
    _, a = adapted_pair(seed=9)
    _, b = adapted_pair(seed=9)
    va, vb = a.network.values(), b.network.values()
    assert all(np.array_equal(va[k], vb[k]) for k in va)


def test_meta_test_support_must_cover_classes():
    state = make_state(n_classes=5)
    # class 1 missing from support labels {0, 2}
    support = Batch(Rng(3).uniform_array((4, 1, 16, 16)).astype(np.float32),
                    np.array([0, 0, 2, 2], dtype=np.int64))
    with pytest.raises(ContractError):
        meta_test(state, support, MetaTestConfig(Q=1), Rng(0))


def test_meta_test_rejects_empty_support():
    state = make_state()
    empty = Batch(np.zeros((0, 1, 16, 16), np.float32), np.zeros(0, np.int64))
    with pytest.raises(ContractError):
        meta_test(state, empty, MetaTestConfig(Q=1), Rng(0))


def test_meta_test_task_dropout_changes_adaptation():
    td = DropoutSpec("standard", 0.5, frozenset({"conv4"}), STAGE_META_TESTING, 1)
    _, plain = adapted_pair(steps=6, seed=12)
    _, dropped = adapted_pair(steps=6, task_dropout=td, seed=12)
    va, vb = plain.network.values(), dropped.network.values()
    assert any(not np.array_equal(va[k], vb[k]) for k in va)


def test_meta_test_meta_dropout_never_fires():
    # a state carrying meta-training dropout adapts exactly like one without
    state_a = make_state(seed=21, n_classes=6, meta_dropout=mdrop(kp=0.3))
    state_b = make_state(seed=21, n_classes=6)
    support = Batch(Rng(50).uniform_array((6, 1, 16, 16)).astype(np.float32),
                    np.repeat(np.arange(3, dtype=np.int64), 2))
    cfg = MetaTestConfig(Q=2, finetune_steps=5, finetune_lr=0.2)
    a = meta_test(state_a, support, cfg, Rng(60))
    b = meta_test(state_b, support, cfg, Rng(60))
    va, vb = a.network.values(), b.network.values()
    assert all(np.array_equal(va[k], vb[k]) for k in va)


# ---------------------------------------------------------------------------
# adaptation runs its frozen prefix once


def reference_sgd_passes(state, batch, steps, lr, stage, specs, rng, param_ids):
    """The full forward, backward and update on every step, as the shortcut must compute it."""
    net = state.network
    opt = Sgd(param_ids, lr)
    losses = []
    for _ in range(steps):
        tape = Tape()
        logits = forward(net, batch.x, MODE_TRAIN, stage, specs, rng, tape)
        loss = meta_module._adapt_loss(state, logits, batch.y)
        opt.step({pid: t.data for pid, t in net.params().items()}, backward(tape, loss))
        losses.append(loss.item())
    return losses


def task_drop(place):
    return DropoutSpec("standard", 0.7, frozenset({place}), STAGE_META_TESTING, 1)


# case -> (meta-test config, expected cut: a point of the 6-layer Conv-4, 2k the input of layer k, 2k + 1 its mask)
PREFIX_CASES = {
    "frozen": (MetaTestConfig(Q=6, finetune_steps=4, finetune_lr=0.5), 10),
    "frozen, task dropout on conv4": (
        MetaTestConfig(Q=6, finetune_steps=4, finetune_lr=0.5,
                       task_dropout=task_drop("conv4")), 7),
    "frozen, standard dropout on flatten": (
        MetaTestConfig(Q=6, finetune_steps=4, finetune_lr=0.5,
                       task_dropout=task_drop("flatten")), 9),
    "unfrozen": (MetaTestConfig(Q=6, freeze_meta=False, finetune_steps=4, finetune_lr=0.1), 0),
}


@pytest.mark.parametrize("case", list(PREFIX_CASES))
def test_meta_test_prefix_shortcut_equals_full_passes(case, monkeypatch):
    mcfg, cut = PREFIX_CASES[case]
    state = meta_train_pretrain(*pretrain_setup(seed=4, meta_epochs=2, task_l2=0.01))
    novel = toy_view(n_classes=4, per_class=6, seed=5)
    espec = EpisodeSpec(C=3, K=2, Q_query=2)
    support = sample_episode(novel, espec, Rng(1)).support
    ids = state.partition.task_ids if mcfg.freeze_meta else state.partition.meta_ids + state.partition.task_ids
    specs = (mcfg.task_dropout,) if mcfg.task_dropout else ()
    assert meta_module._cut(state.network, ids, STAGE_META_TESTING, specs) == cut

    def run():
        adapted = meta_test(state, support, mcfg, Rng(2)).network.values()
        report = evaluate_fewshot(state, novel, espec, mcfg, n_episodes=6, seed=3)
        return adapted, report.per_episode_acc

    fast_values, fast_accs = run()
    # no shortcut: full forwards on every step, and full query forwards
    monkeypatch.setattr(meta_module, "_cut", lambda *args: 0)
    slow_values, slow_accs = run()
    assert fast_values.keys() == slow_values.keys()
    assert all(np.array_equal(fast_values[k], slow_values[k]) for k in fast_values)
    assert fast_accs == slow_accs


def test_episodic_inner_loop_prefix_shortcut_equals_full_passes(monkeypatch):
    # meta-dropout on conv3 and conv4 puts the cut at conv3's mask, point 5
    _, net, part, cfg = setup = episodic_setup(seed=4, meta_dropout=mdrop(kp=0.7))
    assert meta_module._cut(net, part.task_ids, STAGE_META_TRAINING, (cfg.meta_dropout,)) == 5
    fast = meta_train_episodic(*setup)
    monkeypatch.setattr(meta_module, "_sgd_passes", reference_sgd_passes)
    slow = meta_train_episodic(*episodic_setup(seed=4, meta_dropout=mdrop(kp=0.7)))
    va, vb = fast.network.values(), slow.network.values()
    assert all(np.array_equal(va[k], vb[k]) for k in va)
    assert [(e["meta_loss"], e["task_loss"]) for e in fast.log] == [(e["meta_loss"], e["task_loss"]) for e in slow.log]


def test_frozen_meta_test_runs_each_conv_once(monkeypatch):
    calls = []
    conv2d = ops.conv2d

    def counting_conv2d(*args, **kwargs):
        calls.append(1)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(ops, "conv2d", counting_conv2d)
    _, adapted = adapted_pair(freeze=True, steps=5)
    assert adapted.network.n_classes == 3
    assert len(calls) == 4


def test_task_dropout_on_conv4_runs_each_conv_once(monkeypatch):
    # conv4's conv, bias and relu come before its mask, so they run once, not on each of the 5 steps
    calls = []
    conv2d = ops.conv2d

    def counting_conv2d(*args, **kwargs):
        calls.append(1)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(ops, "conv2d", counting_conv2d)
    adapt = adapted_pair(freeze=True, steps=5, task_dropout=task_drop("conv4"))[1]
    assert adapt.network.n_classes == 3
    assert len(calls) == 4


def test_trained_and_adapted_states_pickle():
    states = {
        "pretrain": meta_train_pretrain(*pretrain_setup(seed=8)),
        "episodic": meta_train_episodic(*episodic_setup(seed=8)),
        "adapted": adapted_pair(steps=3)[1],
    }
    for name, state in states.items():
        twin = pickle.loads(pickle.dumps(state))
        va, vb = state.network.values(), twin.network.values()
        assert va.keys() == vb.keys(), name
        assert all(np.array_equal(va[k], vb[k]) for k in va), name
        assert twin.log == state.log, name
