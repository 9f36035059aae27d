"""The unified meta-learning core.

Everything trainable is split once, by layer tag, into meta-knowledge w (the
transferable backbone) and task-knowledge theta (the classifier head).  Both
training regimes run one meta-training loop and differ only in its task
source.  Per task, theta is reset from a persistent prototype and adapted on
the support set (inner loop, task ids only); the loss on the query set then
updates w and the prototype with the first-order gradient, i.e. the
query-loss gradient evaluated at (theta*, w) with theta* treated as a
constant.

* episodic: the tasks are M sampled episodes per meta-epoch.
* pretrain_finetune: the tasks are the shuffled mini-batches of the base
  classes, each its own support and query, with no inner step; this is plain
  mini-batch supervised training of all parameters.

Meta-dropout is a DropoutSpec with stage "meta_training" placed on meta
tags only; its masks fire during every meta-training forward (support and
query alike) and never at meta-test time.  Adaptation at meta-test runs the
same inner loop with a reshaped, freshly initialized head and, optionally,
ordinary dropout (stage "meta_testing") and frozen meta-knowledge.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .data import Batch, Dataset, EpisodeDistribution, EpisodeSpec
from .errors import ConfigurationError, ContractError
from .nn import (
    MODE_TRAIN,
    STAGE_META_TESTING,
    STAGE_META_TRAINING,
    DropoutSpec,
    Network,
    ParamPartition,
    forward,
    validate_specs,
)
from .rng import Rng, derive_rows
from .tensor import Tape, Tensor, backward

LOSS_KINDS = ("cross_entropy", "squared_error")

log = logging.getLogger("fsml")


@dataclass
class TrainConfig:
    """Shared knobs for both regimes.

    M is tasks per meta-epoch (episodic); batch_size is the mini-batch size
    (pretrain).
    """

    M: int = 1
    inner_steps: int = 0
    inner_lr: float = 0.01
    meta_lr: float = 0.01
    meta_epochs: int = 1
    batch_size: int = 32
    momentum: float = 0.0
    meta_dropout: DropoutSpec | None = None
    loss: str = "cross_entropy"
    task_l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.M < 1:
            raise ConfigurationError(f"M must be >= 1, got {self.M}")
        if self.inner_steps < 0 or self.meta_epochs < 0:
            raise ConfigurationError("inner_steps and meta_epochs cannot be negative")
        if self.inner_lr <= 0 or self.meta_lr <= 0:
            raise ConfigurationError("learning rates must be positive")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigurationError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.loss not in LOSS_KINDS:
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if self.task_l2 < 0:
            raise ConfigurationError(f"task_l2 cannot be negative, got {self.task_l2}")


@dataclass
class MetaTestConfig:
    """How a trained state adapts to one novel task."""

    Q: int = 600  # the episodes an evaluation runs: `fsml eval` and each ablation cell read it
    freeze_meta: bool = True
    finetune_steps: int = 0
    finetune_lr: float = 0.01
    task_dropout: DropoutSpec | None = None

    def __post_init__(self):
        if self.Q < 1:
            raise ConfigurationError(f"Q must be >= 1, got {self.Q}")
        if self.finetune_steps < 0:
            raise ConfigurationError(f"finetune_steps cannot be negative, got {self.finetune_steps}")
        if self.finetune_lr <= 0:
            raise ConfigurationError(f"finetune_lr must be positive, got {self.finetune_lr}")
        if self.task_dropout is not None and self.task_dropout.stage == STAGE_META_TRAINING:
            raise ConfigurationError("task_dropout must carry stage 'meta_testing' (or 'both')")


@dataclass
class KnowledgeState:
    """A network plus its partition, loss choice, and training history."""

    network: Network
    partition: ParamPartition
    loss: str = "cross_entropy"
    task_l2: float = 0.0
    meta_dropout: DropoutSpec | None = None
    seed: int = 0
    log: list = field(default_factory=list)

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        live = set(self.network.params())
        declared = set(self.partition.meta_ids) | set(self.partition.task_ids)
        if live != declared:
            raise ConfigurationError(f"partition ids {sorted(declared)} do not cover network ids {sorted(live)}")

    def specs(self) -> tuple[DropoutSpec, ...]:
        return (self.meta_dropout,) if self.meta_dropout is not None else ()

    def clone(self) -> "KnowledgeState":
        return KnowledgeState(
            network=self.network.clone(),
            partition=self.partition,
            loss=self.loss,
            task_l2=self.task_l2,
            meta_dropout=self.meta_dropout,
            seed=self.seed,
            log=list(self.log),
        )


def apply_meta_dropout(state: KnowledgeState, spec: DropoutSpec) -> KnowledgeState:
    """Register meta-dropout: meta-training stage only, meta placements only."""
    if spec.stage != STAGE_META_TRAINING:
        raise ConfigurationError(f"meta-dropout must carry stage 'meta_training', got {spec.stage!r}")
    task_hits = spec.placements - state.partition.meta_tags
    if task_hits:
        raise ConfigurationError(
            f"meta-dropout placements {sorted(task_hits)} target task-knowledge layers; "
            f"allowed tags: {sorted(state.partition.meta_tags)}"
        )
    validate_specs(state.network, (spec,))
    state.meta_dropout = spec
    return state


class Sgd:
    """Plain SGD with optional momentum; one velocity buffer per parameter id."""

    def __init__(self, param_ids, lr: float, momentum: float = 0.0):
        self.param_ids = tuple(param_ids)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity: dict[str, np.ndarray] = {}

    def step(self, values: dict[str, np.ndarray], grads: dict[str, Tensor]) -> None:
        """Update arrays in `values` (which may be live parameter data) in place."""
        for pid in self.param_ids:
            g = grads[pid].data
            if self.momentum:
                v = self._velocity.get(pid)
                v = g if v is None else self.momentum * v + g
                self._velocity[pid] = v
                g = v
            values[pid] -= (self.lr * g).astype(values[pid].dtype, copy=False)


def _data_loss(state: KnowledgeState, logits: Tensor, y: np.ndarray) -> Tensor:
    if state.loss == "cross_entropy":
        return ops.softmax_cross_entropy(logits, y)
    target = Tensor._result(np.asarray(y, dtype=logits.dtype), None, None)
    return ops.squared_error(logits, target)


def _adapt_loss(state: KnowledgeState, logits: Tensor, y: np.ndarray) -> Tensor:
    """Adaptation objective: data loss plus the task-head ridge term."""
    loss = _data_loss(state, logits, y)
    if state.task_l2 > 0:
        params = state.network.params()
        for pid in state.partition.task_ids:
            p = params[pid]
            zero = Tensor._result(np.zeros(p.shape, dtype=p.dtype), None, None)
            loss = ops.add(loss, ops.scale(ops.squared_error(p, zero), state.task_l2))
    return loss


def _cut(net: Network, param_ids, stage: str, specs) -> int:
    """The point (see `forward`) where the part of an adaptation forward that is the same on every pass ends.

    That part runs the leading layers that hold none of `param_ids` and carry
    no mask that fires at `stage`.  A layer that ends it by its mask alone
    runs up to that mask too (for a conv block: conv, bias and relu).  The
    head always stays after the cut, so every pass still records a loss on
    its tape.
    """
    updated = set(param_ids)
    masked = set()
    for spec in specs:
        if spec.active(MODE_TRAIN, stage) and spec.keep_prob < 1.0:
            masked |= spec.placements
    for k, layer in enumerate(net.layers[:-1]):
        if updated & layer.params().keys():
            return 2 * k
        if layer.tag in masked:
            return 2 * k + 1
    return 2 * (len(net.layers) - 1)


def _to_cut(net: Network, x: np.ndarray, stage: str, specs, rng, cut: int, start: int = 0) -> Tensor:
    """An adaptation forward on `x`, the activation at point `start`, up to point `cut` (`_cut`), off the tape.

    It draws no mask; with `start` == `cut` it runs nothing.
    """
    if start == cut:
        return Tensor(x)
    return forward(net, x, MODE_TRAIN, stage, specs, rng, start=start, stop=cut)


def _descend(state: KnowledgeState, x: Tensor, y: np.ndarray, cut: int, steps: int, lr: float,
             stage: str, specs, rng, param_ids) -> list[float]:
    """`steps` rounds of forward / backward / update on `param_ids`, from `x`, the activation at point `cut`, on.

    With a head that holds E heads, `x` is E episodes' rows in order, `y` is
    [E, B] and `rng` one rng per episode: one tape runs all E episodes.
    """
    net = state.network
    opt = Sgd(param_ids, lr)
    losses = []
    for _ in range(steps):
        tape = Tape()
        logits = forward(net, x, MODE_TRAIN, stage, specs, rng, tape, start=cut)
        loss = _adapt_loss(state, logits, y)
        grads = backward(tape, loss)
        live = {pid: t.data for pid, t in net.params().items()}
        opt.step(live, grads)
        losses.append(loss.item())
    net.bind(None)
    return losses


def _sgd_passes(
    state: KnowledgeState,
    batch: Batch,
    steps: int,
    lr: float,
    stage: str,
    specs,
    rng: Rng | None,
    param_ids,
) -> list[float]:
    """`steps` rounds of forward / backward / update on `param_ids` only.

    The part of the forward before the cut (`_cut`) runs once, off the tape;
    each pass runs the rest.  That part draws no mask, so the passes see the
    same values and the same random stream as full forwards would.
    """
    if steps == 0:
        return []
    cut = _cut(state.network, param_ids, stage, specs)
    x = _to_cut(state.network, batch.x, stage, specs, rng, cut)
    return _descend(state, x, batch.y, cut, steps, lr, stage, specs, rng, param_ids)


def inner_adapt(
    state: KnowledgeState,
    support: Batch,
    steps: int,
    lr: float,
    stage: str = STAGE_META_TRAINING,
    rng: Rng | None = None,
) -> dict[str, np.ndarray]:
    """Adapt the task head on a support set; meta parameters stay untouched.

    Returns the adapted task values (theta*).  steps == 0 returns the current
    values without consuming any randomness.
    """
    if steps < 0:
        raise ContractError(f"steps cannot be negative, got {steps}")
    if len(support.x) == 0:
        raise ContractError("support set is empty")
    if steps > 0:
        _sgd_passes(state, support, steps, lr, stage, state.specs(), rng, state.partition.task_ids)
    params = state.network.params()
    return {pid: params[pid].data.copy() for pid in state.partition.task_ids}


def analytic_meta_gradient(
    state: KnowledgeState,
    query: Batch,
    stage: str = STAGE_META_TRAINING,
    rng: Rng | None = None,
) -> tuple[dict[str, Tensor], float]:
    """First-order meta-gradient: d(query loss)/d(params) at the current values.

    The adapted theta* enters only through the current parameter values, so
    this is exactly the quantity the trainers descend.
    """
    tape = Tape()
    logits = forward(state.network, query.x, MODE_TRAIN, stage, state.specs(), rng, tape)
    loss = _data_loss(state, logits, query.y)
    return backward(tape, loss), loss.item()


@ops.one_blas_thread()
def _meta_train(net: Network, partition: ParamPartition, cfg: TrainConfig, regime: str, tasks) -> KnowledgeState:
    """The meta-training loop of `regime`; `tasks()` yields the (support, query) pairs of one meta-epoch.

    The task head restarts every task from a persistent prototype and adapts
    on the support set; the first-order meta-gradient of the query loss then
    updates the meta ids and the prototype, so the prototype is the
    meta-learned head initialization rather than a frozen draw.
    """
    state = KnowledgeState(net, partition, loss=cfg.loss, task_l2=cfg.task_l2, seed=cfg.seed)
    if cfg.meta_dropout is not None:
        apply_meta_dropout(state, cfg.meta_dropout)
    mask_rng = Rng(cfg.seed).derive("dropout-masks")
    params = net.params()
    prototype = {pid: params[pid].data.copy() for pid in partition.task_ids}
    meta_opt = Sgd(partition.meta_ids, cfg.meta_lr, cfg.momentum)
    proto_opt = Sgd(partition.task_ids, cfg.meta_lr, cfg.momentum)

    for epoch in range(cfg.meta_epochs):
        tick = time.perf_counter()
        meta_losses: list[float] = []
        task_losses: list[float] = []
        for support, query in tasks():
            if len(support.x) == 0:
                raise ContractError("support set is empty")
            net.load_values(prototype)
            task_losses.extend(_sgd_passes(
                state, support, cfg.inner_steps, cfg.inner_lr, STAGE_META_TRAINING,
                state.specs(), mask_rng, partition.task_ids,
            ))
            grads, loss_value = analytic_meta_gradient(state, query, STAGE_META_TRAINING, mask_rng)
            live = {pid: t.data for pid, t in net.params().items()}
            meta_opt.step(live, grads)
            proto_opt.step(prototype, grads)
            meta_losses.append(loss_value)
        meta_loss = float(np.mean(np.asarray(meta_losses, dtype=np.float64)))
        state.log.append({
            "epoch": epoch,
            "meta_loss": meta_loss,
            "task_loss": float(np.mean(np.asarray(task_losses, dtype=np.float64))) if task_losses else meta_loss,
            "wall_ms": (time.perf_counter() - tick) * 1e3,
        })
    # ln(classes) is the cross-entropy of a uniform guess: a run still there has not learned
    if cfg.loss == "cross_entropy" and state.log and state.log[-1]["meta_loss"] >= math.log(net.n_classes):
        spec = cfg.meta_dropout
        dropout = "no meta-dropout" if spec is None else \
            f"meta-dropout {spec.kind} on {'&'.join(sorted(spec.placements))}"
        log.warning(
            "seed %d: last epoch's meta_loss %.4f is still at or above ln %d = %.4f, the loss of a uniform guess "
            "(%s, %s, %s)",
            cfg.seed, state.log[-1]["meta_loss"], net.n_classes, math.log(net.n_classes), regime,
            f"M {cfg.M}, inner_steps {cfg.inner_steps}" if regime == "episodic" else f"batch {cfg.batch_size}",
            dropout,
        )
    net.load_values(prototype)
    net.bind(None)
    return state


def meta_train_episodic(
    dist: EpisodeDistribution,
    net: Network,
    partition: ParamPartition,
    cfg: TrainConfig,
) -> KnowledgeState:
    """Episodic regime: the tasks of a meta-epoch are cfg.M episodes drawn from `dist`."""
    data_rng = Rng(cfg.seed).derive("episodic-data")

    def episodes():
        for _ in range(cfg.M):
            yield dist.sample(data_rng)

    return _meta_train(net, partition, cfg, "episodic", episodes)


def meta_train_pretrain(
    train_view: Dataset,
    net: Network,
    partition: ParamPartition,
    cfg: TrainConfig,
) -> KnowledgeState:
    """Pretrain regime: the tasks are mini-batches, each its own support and query.

    With no inner step this is plain supervised mini-batch training of all
    parameters.  Batch membership is shuffled each epoch, but every batch is
    processed in ascending dataset order so that parallel or re-run
    trajectories never depend on shuffle layout within a batch.
    """
    if train_view.n_samples == 0:
        raise ContractError("training view is empty")
    if cfg.batch_size > train_view.n_samples:
        raise ConfigurationError(
            f"batch_size {cfg.batch_size} exceeds the {train_view.n_samples} available samples"
        )
    if net.n_classes != train_view.n_classes and cfg.loss == "cross_entropy":
        raise ConfigurationError(f"head has {net.n_classes} classes, view has {train_view.n_classes}")
    shuffle_rng = Rng(cfg.seed).derive("pretrain-shuffle")
    n = train_view.n_samples

    def batches():
        order = list(range(n))
        shuffle_rng.shuffle(order)
        for start in range(0, n, cfg.batch_size):
            idx = np.array(sorted(order[start : start + cfg.batch_size]))
            batch = Batch(train_view.images[idx], train_view.labels[idx])
            yield batch, batch

    return _meta_train(net, partition, replace(cfg, inner_steps=0), "pretrain_finetune", batches)


REGIMES = ("episodic", "pretrain_finetune")


def meta_train(
    regime: str,
    base_view: Dataset,
    espec: EpisodeSpec,
    net: Network,
    partition: ParamPartition,
    cfg: TrainConfig,
) -> KnowledgeState:
    """Train in `regime` on the base view: episodes of `espec`, or mini-batches."""
    if regime == "episodic":
        return meta_train_episodic(EpisodeDistribution(base_view, espec), net, partition, cfg)
    if regime == "pretrain_finetune":
        return meta_train_pretrain(base_view, net, partition, cfg)
    raise ContractError(f"unknown regime {regime!r}")


def _n_way(support: Batch) -> int:
    """The class count of a support set whose labels cover 0..n-1, n >= 2."""
    if len(support.x) == 0:
        raise ContractError("support set is empty")
    labels = np.asarray(support.y, dtype=np.int64)
    n_way = int(labels.max()) + 1 if labels.size else 0
    present = set(int(v) for v in labels)
    missing = sorted(set(range(n_way)) - present)
    if missing or n_way < 2:
        raise ContractError(f"support must cover classes 0..{max(n_way - 1, 1)}, missing {missing}")
    return n_way


def _test_specs(state: KnowledgeState, cfg: MetaTestConfig) -> tuple[DropoutSpec, ...]:
    return state.specs() + ((cfg.task_dropout,) if cfg.task_dropout is not None else ())


@ops.one_blas_thread()
def meta_test(state: KnowledgeState, support, cfg: MetaTestConfig, rng, start: int = 0) -> KnowledgeState:
    """Adapt a trained state to one novel task, or to E at once; returns a new state.

    The head is reshaped to the task's class count and freshly initialized;
    with freeze_meta only task ids move, so meta-knowledge stays bitwise
    intact.  Meta-dropout never fires here (wrong stage); cfg.task_dropout is
    the ordinary-dropout knob for the adaptation forwards.

    Given E support sets and a list of E rngs instead of one of each, one
    tape adapts all E episodes, in every config.  The returned head holds E
    heads, and every other layer the adaptation steps run with parameters
    (from `step_start` on) holds E slices of them: copies of the trained ones where
    they adapt, a read-only broadcast where they do not.  Slice e of every
    parameter is bitwise that of meta_test(state, support[e], cfg, rng[e]):
    each episode draws its head init and its masks from its own streams (the
    stack draws its heads once, and each mask once per step, as one array
    over the episodes' streams), its support forward up to the adaptation
    cut runs on its own, and every GEMM after the cut is one slice of a
    batched matmul with that episode's own shape.  The layers before the cut keep their one set of parameters.  The
    episodes must share one class count and one support size.  The support
    sets are read once, in order, and none is kept, so a generator holds one
    episode's images at a time.

    `start` is the point (see `forward`) that every support `x` sits at: 0
    for images, or the adaptation cut (`adaptation_cut`) for rows that an
    eval-mode forward up to it gave, which then skip the support forward.
    """
    one = isinstance(rng, Rng)
    supports, rngs = ([support], [rng]) if one else (support, list(rng))
    adapted = state.clone()
    net, ids = adapted.network, _adapted_ids(adapted.partition, cfg)
    specs = _test_specs(adapted, cfg)
    validate_specs(net, specs)
    cut = _cut(net, ids, STAGE_META_TESTING, specs)
    mask_rngs = derive_rows(rngs, "adapt-masks")
    ways, xs, ys = set(), [], []
    for episode_support, mask_rng in zip(supports, mask_rngs):
        ways.add(_n_way(episode_support))
        if cfg.finetune_steps > 0:
            xs.append(_to_cut(net, episode_support.x, STAGE_META_TESTING, specs, mask_rng, cut, start).data)
        ys.append(episode_support.y)
    if len(ys) != len(rngs):
        raise ContractError(f"{len(ys)} support sets for {len(rngs)} rngs")
    if len(ways) != 1 or len({len(y) for y in ys}) != 1:
        raise ContractError("stacked episodes need one class count and one support size")

    def form(items, stack=list):  # one episode's item as it is, or E of them stacked
        return items[0] if one else stack(items)

    net.reshape_head(ways.pop(), form(derive_rows(rngs, "head-init")))
    if not one:
        e = len(rngs)
        for layer in net.layers[_step_start(net, cut) : -1]:
            for pid, t in layer.params().items():
                t.data = np.stack([t.data] * e) if pid in ids else np.broadcast_to(t.data, (e, *t.shape))
    if cfg.finetune_steps > 0:
        _descend(adapted, Tensor(form(xs, np.concatenate)), form(ys, np.stack), cut, cfg.finetune_steps,
                 cfg.finetune_lr, STAGE_META_TESTING, specs, form(mask_rngs), ids)
    return adapted


def adaptation_cut(state: KnowledgeState, cfg: MetaTestConfig) -> int:
    """The point up to which meta_test runs each support set once, before its steps (`_cut`)."""
    return _cut(state.network, _adapted_ids(state.partition, cfg), STAGE_META_TESTING, _test_specs(state, cfg))


def step_start(state: KnowledgeState, cfg: MetaTestConfig) -> int:
    """The index of the first layer with parameters that each adaptation step of meta_test runs.

    It is the head's index when the steps run nothing else with parameters.
    """
    return _step_start(state.network, adaptation_cut(state, cfg))


def _step_start(net: Network, cut: int) -> int:
    """The index of the first layer with parameters that runs after point `cut`."""
    return next(i for i in range((cut + 1) // 2, len(net.layers)) if net.layers[i].params())


def _adapted_ids(partition: ParamPartition, cfg: MetaTestConfig) -> tuple[str, ...]:
    """The ids meta_test updates: the task head, and the backbone too unless frozen."""
    return partition.task_ids if cfg.freeze_meta else partition.meta_ids + partition.task_ids


def meta_test_prefix(state: KnowledgeState, cfg: MetaTestConfig) -> int:
    """The point up to which an eval-mode forward gives the same output before and after meta_test.

    The layers before it hold none of the ids meta_test updates, and an
    eval-mode forward draws no mask, so their output on an image is the same
    for the trained state and for every state meta_test returns from it.  It
    is `_cut` with no mask, so it is even; 0 without freeze_meta.
    """
    return _cut(state.network, _adapted_ids(state.partition, cfg), STAGE_META_TESTING, ())
