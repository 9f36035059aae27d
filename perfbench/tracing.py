"""Per-layer timing of fsml, installed from outside the package.

`install` replaces public functions of fsml with wrappers that record a span
(name, start, end, parent span, phase) around each call.  Several modules
import functions by name (meta and evaluate take `forward`, `backward`,
`meta_test`, `sample_episode` from their home modules), so a function is
rebound in every fsml module that holds it, which is where its callers look
it up.  Backward time per op is taken by wrapping the backward closure of the
tape node that the op records.  Spans stay in memory; `per_layer` turns them
into the per-layer figures once the run is over.

Wrappers only time and count: they pass arguments and results through
untouched, so traced and untraced runs compute the same bytes.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

CONV_TAGS = ("conv1", "conv2", "conv3", "conv4")
ELEMENTWISE_OPS = ("maxpool2", "relu", "bias_add", "mul")


class Tracer:
    """Spans and counters; records only while `enabled`, tagged with `phase`."""

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.spans: list[list] = []  # [name, start, end, parent index or -1, phase]
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.conv_tag = None  # tag of the conv block being applied
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[(self.phase, name)] += value

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            self.samples[(self.phase, name)].append(value)

    def aggregate(self, phase: str) -> dict[str, list[float]]:
        """name -> [busy seconds, self seconds, calls] over the spans of one phase."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for idx, (name, start, end, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                agg = out[name]
                agg[0] += end - start
                agg[1] += end - start - child_time[idx]
                agg[2] += 1
        return out


def _rebind(original, wrapper) -> None:
    """Replace `original` in every fsml module that binds it, under any name."""
    for name, module in list(sys.modules.items()):
        if name == "fsml" or name.startswith("fsml."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _wrap_function(tracer: Tracer, original, name: str, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        out = tracer.call(name, original, *args, **kwargs)
        if after is not None and tracer.enabled:
            after(args, out)
        return out

    _rebind(original, wrapper)


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, after=None):
    original = getattr(cls, attr)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        out = tracer.call(name, original, self, *args, **kwargs)
        if after is not None and tracer.enabled:
            after(self, args, out)
        return out

    setattr(cls, attr, wrapper)


def _wrap_op(tracer: Tracer, original, qualname: str, per_conv_tag: bool = False):
    """Time the forward call, and the backward closure of the tape node it records."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        name = f"{qualname}.{tracer.conv_tag}" if per_conv_tag else qualname
        out = tracer.call(name + ".fwd", original, *args, **kwargs)
        if tracer.enabled and out.tape is not None:
            node = out.tape.nodes[out.node_id]
            inner = node.backward
            node.backward = lambda g: tracer.call(name + ".bwd", inner, g)
        return out

    _rebind(original, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the fsml functions the per-layer metrics are taken from."""
    from fsml import data, evaluate, meta, nn, ops, rng, tensor

    _wrap_op(tracer, ops.conv2d, "ops.conv2d", per_conv_tag=True)
    for op in ELEMENTWISE_OPS + ("softmax_cross_entropy",):
        _wrap_op(tracer, getattr(ops, op), f"ops.{op}")
    _wrap_op(tracer, nn.cosine_logits, "nn.cosine_logits")

    block_apply = nn.Conv3x3Block.apply

    def apply_with_tag(block, x, inject):
        outer, tracer.conv_tag = tracer.conv_tag, block.tag
        try:
            return block_apply(block, x, inject)
        finally:
            tracer.conv_tag = outer

    nn.Conv3x3Block.apply = apply_with_tag

    def count_kept(args, mask):
        tracer.count("mask.kept", float((mask.values != 0).sum()))
        tracer.count("mask.total", float(mask.values.size))

    _wrap_function(tracer, nn.make_dropout_mask, "nn.make_dropout_mask", after=count_kept)
    _wrap_function(tracer, nn.forward, "nn.forward")

    def count_computed(args, grads):
        tracer.count("grads.computed", float(sum(g.data.size for _, g in grads.items())))

    _wrap_function(tracer, tensor.backward, "tensor.backward", after=count_computed)

    def count_used(opt, args, _):
        grads = args[1]
        tracer.count("grads.used", float(sum(grads[pid].data.size for pid in opt.param_ids)))

    _wrap_method(tracer, meta.Sgd, "step", "meta.Sgd.step", after=count_used)

    def epoch_times(args, state):
        for entry in state.log:
            tracer.sample("epoch_s", entry["wall_ms"] / 1e3)

    _wrap_function(tracer, meta.meta_train_pretrain, "meta.meta_train_pretrain", after=epoch_times)
    _wrap_function(tracer, meta.meta_test, "meta.meta_test")
    _wrap_method(tracer, meta.KnowledgeState, "clone", "meta.KnowledgeState.clone")
    _wrap_method(tracer, nn.Network, "clone", "nn.Network.clone")
    _wrap_method(tracer, rng.Rng, "shuffle", "rng.Rng.shuffle")
    _wrap_method(tracer, rng.Rng, "uniform_array", "rng.Rng.uniform_array")
    _wrap_function(tracer, data.sample_episode, "data.sample_episode")
    _wrap_function(tracer, data.gen_synthetic, "data.gen_synthetic")
    _wrap_function(tracer, data.split_classes, "data.split_classes")
    _wrap_function(tracer, evaluate.evaluate_fewshot, "evaluate.evaluate_fewshot")


# (metric, unit); all figures are per timed round except the set-up layers,
# which are per set-up
PER_LAYER = (
    [(f"ops.conv2d.{tag}.{d}_s", "s") for tag in CONV_TAGS for d in ("fwd", "bwd")]
    + [("ops.conv2d.calls", "count")]
    + [(f"ops.{op}.{d}_s", "s") for op in ELEMENTWISE_OPS for d in ("fwd", "bwd")]
    + [
        ("nn.make_dropout_mask.s", "s"),
        ("nn.make_dropout_mask.calls", "count"),
        ("nn.make_dropout_mask.kept_fraction", "ratio"),
        ("ops.softmax_cross_entropy.fwd_s", "s"),
        ("ops.softmax_cross_entropy.bwd_s", "s"),
        ("nn.cosine_logits.fwd_s", "s"),
        ("nn.cosine_logits.bwd_s", "s"),
        ("tensor.backward.self_s", "s"),
        ("tensor.backward.calls", "count"),
        ("tensor.backward.grads_used_ratio", "ratio"),
        ("meta.meta_test.s", "s"),
        ("meta.meta_test.calls", "count"),
        ("meta.KnowledgeState.clone.s", "s"),
        ("nn.Network.clone.s", "s"),
        ("nn.forward.self_s", "s"),
        ("nn.forward.calls", "count"),
        ("data.sample_episode.s", "s"),
        ("meta.meta_train_pretrain.epoch_s", "s"),
        ("meta.Sgd.step.s", "s"),
        ("rng.Rng.shuffle.s", "s"),
        ("rng.Rng.uniform_array.s", "s"),
        ("evaluate.evaluate_fewshot.s", "s"),
        ("data.gen_synthetic.s", "s"),
        ("data.split_classes.s", "s"),
    ]
)
SETUP_LAYERS = ("data.gen_synthetic", "data.split_classes")


def per_layer(tracer: Tracer, n_setups: int, n_rounds: int) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric from the recorded spans.

    Busy times and call counts are divided by the number of traced rounds (or
    set-ups, for SETUP_LAYERS).  A ratio with nothing behind it reads 1: no
    mask drawn means nothing dropped, no gradient computed means none wasted.
    """
    rounds = tracer.aggregate("round")
    setups = tracer.aggregate("setup")
    counters = tracer.counters

    def ratio(num: str, den: str) -> float:
        d = counters[("round", den)]
        return counters[("round", num)] / d if d else 1.0

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        layer, _, quantity = metric.rpartition(".")
        if layer in SETUP_LAYERS:
            values[metric] = setups[layer][0] / n_setups
            continue
        span = {"fwd_s": layer + ".fwd", "bwd_s": layer + ".bwd"}.get(quantity, layer)
        if quantity in ("s", "fwd_s", "bwd_s"):
            values[metric] = rounds[span][0] / n_rounds
        elif quantity == "self_s":
            values[metric] = rounds[span][1] / n_rounds
        elif quantity == "calls":
            names = [f"{layer}.{tag}.fwd" for tag in CONV_TAGS] if layer == "ops.conv2d" else [layer]
            values[metric] = sum(rounds[n][2] for n in names) / n_rounds
    values["nn.make_dropout_mask.kept_fraction"] = ratio("mask.kept", "mask.total")
    values["tensor.backward.grads_used_ratio"] = ratio("grads.used", "grads.computed")
    epochs = tracer.samples[("round", "epoch_s")]
    values["meta.meta_train_pretrain.epoch_s"] = statistics.median(epochs) if epochs else 0.0
    return {metric: (values[metric], unit) for metric, unit in PER_LAYER}
