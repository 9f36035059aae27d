"""Networks, heads, and the dropout mask family.

A Network is an ordered list of tagged layers ending in exactly one head.
Tags ("conv1".."conv4", "flatten", "head") are the unit of two things:

* the parameter partition: tags named meta-knowledge vs. the task head, and
* dropout placement: a DropoutSpec lists the tags whose activations it masks.

Masks are applied to the post-activation value of a tagged layer (for conv
blocks that is the relu output, before pooling) and are drawn fresh on every
forward pass.  Whether a spec fires at all is decided by the stage gate in
forward(): mode must be "train" and the spec's stage must match the caller's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigurationError, ContractError, DimensionError
from .ops import _mT, _trace
from .rng import Rng, normal_rows, uniform_rows
from .tensor import Tape, Tensor

MODE_TRAIN = "train"
MODE_EVAL = "eval"
STAGE_META_TRAINING = "meta_training"
STAGE_META_TESTING = "meta_testing"
STAGE_BOTH = "both"

_KINDS = ("standard", "spatial", "dropblock")
_HEADS = ("linear", "cosine")
_STAGES = (STAGE_META_TRAINING, STAGE_META_TESTING, STAGE_BOTH)
_COSINE_EPS = 1e-8


def cosine_logits(features: Tensor, class_vectors: Tensor, scale: float) -> Tensor:
    """scale * cosine similarity between feature rows and class vectors.

    Features [B, d] against vectors [C, d] give [B, C]; per episode,
    [E, B, d] against [E, C, d] give [E, B, C].  Norms are guarded with a
    1e-8 additive epsilon.  The backward pass is the exact derivative of this
    guarded function: the d|f|/df term needs the true unit vector, and an
    all-zero row (where that direction is undefined) has zero cosine against
    everything, so its norm term vanishes anyway.
    """
    fd, vd = features.data, class_vectors.data
    if fd.ndim not in (2, 3) or vd.ndim != fd.ndim or fd.shape[:-2] != vd.shape[:-2]:
        raise DimensionError(f"need [B,d] features and [C,d] vectors, or [E,B,d] and [E,C,d], "
                             f"got {features.shape}, {class_vectors.shape}")
    if fd.shape[-1] != vd.shape[-1]:
        raise DimensionError(f"feature dim {fd.shape[-1]} != class vector dim {vd.shape[-1]}")
    s = float(scale)
    raw_nf = np.sqrt((fd * fd).sum(axis=-1, keepdims=True))
    raw_nv = np.sqrt((vd * vd).sum(axis=-1, keepdims=True))
    nf = raw_nf + _COSINE_EPS
    nv = raw_nv + _COSINE_EPS
    fh = fd / nf
    vh = vd / nv
    fu = fd / np.where(raw_nf == 0, 1.0, raw_nf)
    vu = vd / np.where(raw_nv == 0, 1.0, raw_nv)
    cos = fh @ _mT(vh)
    out = (s * cos).astype(fd.dtype)

    def grad_features(g):
        gs = g * s
        return ((gs @ vh - (gs * cos).sum(axis=-1, keepdims=True) * fu) / nf).astype(fd.dtype)

    def grad_vectors(g):
        gs = g * s
        return ((_mT(gs) @ fh - (gs * cos).sum(axis=-2)[..., None] * vu) / nv).astype(vd.dtype)

    return _trace("cosine_logits", out, (features, class_vectors), (grad_features, grad_vectors))


# ---------------------------------------------------------------------------
# dropout specs and masks


@dataclass(frozen=True)
class DropoutSpec:
    """What to drop, where, and during which stage.

    kind: "standard" (i.i.d. units), "spatial" (whole channels) or "dropblock"
    (contiguous squares).  block_size is only meaningful for dropblock and
    must stay 1 otherwise.
    """

    kind: str
    keep_prob: float
    placements: frozenset[str]
    stage: str
    block_size: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown dropout kind {self.kind!r}")
        if not (0.0 < self.keep_prob <= 1.0):
            raise ConfigurationError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        object.__setattr__(self, "placements", frozenset(self.placements))
        if not self.placements:
            raise ConfigurationError("placements must name at least one layer tag")
        if self.stage not in _STAGES:
            raise ConfigurationError(f"unknown stage {self.stage!r}")
        if self.kind == "dropblock":
            if self.block_size < 1 or self.block_size % 2 == 0:
                raise ConfigurationError(f"block_size must be odd and positive, got {self.block_size}")
        elif self.block_size != 1:
            raise ConfigurationError(f"block_size is a dropblock knob, not valid for kind {self.kind!r}")

    def active(self, mode: str, stage: str) -> bool:
        return mode == MODE_TRAIN and (self.stage == stage or self.stage == STAGE_BOTH)


@dataclass(frozen=True)
class Mask:
    """Multiplicative dropout mask; values are 0 or the survivor rescale."""

    values: np.ndarray

    def apply(self, x: Tensor) -> Tensor:
        return ops.mul(x, Tensor._result(self.values, None, None))


def dropblock_gamma(keep_prob: float, block_size: int, feat: int) -> float:
    """Seed probability for dropblock centers on a feat x feat map.

    gamma = ((1 - keep_prob) / block_size^2) * (feat^2 / (feat - block_size + 1)^2)

    Each seed zeroes block_size^2 units and seeds live in the (feat-b+1)^2
    region where a block fits, so the expected dropped fraction works out to
    1 - keep_prob.
    """
    if not (0.0 < keep_prob <= 1.0):
        raise ConfigurationError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if block_size < 1 or block_size % 2 == 0:
        raise ConfigurationError(f"block_size must be odd and positive, got {block_size}")
    if block_size > feat:
        raise DimensionError(f"block_size {block_size} exceeds feature extent {feat}")
    return _seed_rate(keep_prob, block_size, feat, feat)


def _seed_rate(keep_prob: float, block_size: int, h: int, w: int) -> float:
    valid = (h - block_size + 1) * (w - block_size + 1)
    return ((1.0 - keep_prob) / (block_size * block_size)) * (h * w / valid)


def _dropblock_values(keep_prob: float, block: int, shape, rngs, dtype: np.dtype) -> np.ndarray:
    """Dropblock values [E, B, C, H, W] for a [B, C, H, W] map from each of E rngs, equal to B draws of one sample each.

    The E*B samples are then drawn as one batch.  A seed at (ci, cj) drops
    [ci, ci+block) x [cj, cj+block), which fits by construction, so the
    dropped units are the seed map dilated by ORs of flat shifts 1..block-1,
    then w, 2w, .., (block-1)w: the last block-1 rows and columns hold no
    seed, so no shift reaches the next row or map.  Survivors are rescaled
    per sample, and a sample whose draw drops every unit is kept whole.
    """
    b, c, h, w = shape
    if block > min(h, w):
        raise ConfigurationError(f"block_size {block} exceeds feature extent {min(h, w)}")
    vh, vw = h - block + 1, w - block + 1
    dropped = np.zeros((len(rngs) * b, c, h, w), dtype=bool)
    dropped[:, :, :vh, :vw] = uniform_rows(rngs, (b, c, vh, vw)).reshape(-1, c, vh, vw) < _seed_rate(
        keep_prob, block, h, w)
    for step in (1, w):  # along each row, then down each column
        source, dropped = dropped.reshape(-1), dropped.copy()
        for s in range(step, block * step, step):
            dropped.reshape(-1)[s:] |= source[:-s]
    kept = c * h * w - np.count_nonzero(dropped, axis=(1, 2, 3))
    values = ~dropped * (c * h * w / np.maximum(kept, 1)).astype(dtype)[:, None, None, None]
    values[kept == 0] = 1
    return values.reshape(len(rngs), *shape)


def make_dropout_mask(spec: DropoutSpec, shape: tuple[int, ...], rng, dtype=np.float32) -> Mask:
    """Draw one mask for an activation of `shape`.

    standard accepts any shape and draws every unit independently.  spatial
    and dropblock take one sample's [C, H, W] map, or a batch [B, C, H, W]
    whose mask, and the rng state it leaves, equal B per-sample draws in
    order.  A dropblock sample takes C*(H-b+1)*(W-b+1) draws, one per seed
    site, and is kept whole if its draw drops every unit.  keep_prob == 1
    short-circuits to all-ones without touching the rng, so a disabled spec
    can never perturb later draws.

    Given a list of E rngs instead of one, the stack draws once: the mask is
    [E, *shape], and row e, with the state rngs[e] is left in, is what
    rngs[e] alone would give.
    """
    shape = tuple(int(d) for d in shape)
    dt = np.dtype(dtype)
    rngs = (rng,) if rng is None or isinstance(rng, Rng) else rng
    rows = (len(rngs), *shape)
    if spec.keep_prob == 1.0:
        values = np.ones(rows, dtype=dt)
    elif spec.kind == "standard":
        u = uniform_rows(rngs, shape)
        values = (u < spec.keep_prob).astype(dt) * dt.type(1.0 / spec.keep_prob)
    elif len(shape) not in (3, 4):
        raise ConfigurationError(f"{spec.kind} dropout needs a [C,H,W] or [B,C,H,W] activation, got shape {shape}")
    elif spec.kind == "spatial":
        keep = uniform_rows(rngs, shape[:-2]) < spec.keep_prob
        values = np.zeros(rows, dtype=dt)
        values[keep] = dt.type(1.0 / spec.keep_prob)
    else:
        batch = shape if len(shape) == 4 else (1, *shape)
        values = _dropblock_values(spec.keep_prob, spec.block_size, batch, rngs, dt).reshape(rows)
    return Mask(values if rngs is rng else values[0])


# ---------------------------------------------------------------------------
# layers


class _Layer:
    """A tagged layer in two parts, split at its dropout mask.

    `apply(x, inject)` runs `before_mask`, hands that activation to
    `inject(tag, h)`, which masks it, and runs `after_mask` on the result;
    with `inject` None it stops before the mask and returns the activation
    the mask would see.  Everything after the mask is parameter-free.
    """

    def apply(self, x: Tensor, inject) -> Tensor:
        h = self.before_mask(x)
        return h if inject is None else self.after_mask(inject(self.tag, h))

    def after_mask(self, h: Tensor) -> Tensor:
        return h


def _episode_rows(x: Tensor, param: Tensor) -> Tensor:
    """Rows [E*B, d] as [E, B, d] for a head whose `param` carries a leading episode axis; else `x`."""
    if param.data.ndim == 2:
        return x
    e = param.shape[0]
    return ops.reshape(x, (e, x.shape[0] // e, x.shape[1]))


class Conv3x3Block(_Layer):
    """conv 3x3 (stride 1, pad 1) -> relu -> [mask] -> maxpool 2x2.

    It may hold E blocks at once, weight [E, c_out, c_in, 3, 3] and bias
    [E, c_out]: it then reads its [E*B, c_in, h, w] input as E episodes of B
    images, and returns their E*B maps in order.
    """

    def __init__(self, tag: str, weight: Tensor, bias: Tensor):
        self.tag = tag
        self.weight = weight
        self.bias = bias

    def params(self):
        return {f"{self.tag}.weight": self.weight, f"{self.tag}.bias": self.bias}

    def before_mask(self, x: Tensor) -> Tensor:
        return ops.relu(ops.bias_add(ops.conv2d(x, self.weight, stride=1, pad=1), self.bias))

    def after_mask(self, h: Tensor) -> Tensor:
        return ops.maxpool2(h)

    def shapes(self, in_shape):
        c, h, w = in_shape
        co, ci = self.weight.shape[-4:-2]
        if ci != c:
            raise ConfigurationError(f"layer {self.tag} expects {ci} channels, gets {c}")
        if h % 2 or w % 2:
            raise ConfigurationError(f"layer {self.tag} pools an odd extent {h}x{w}")
        return (co, h, w), (co, h // 2, w // 2)

    def clone(self):
        return Conv3x3Block(self.tag, self.weight.copy(), self.bias.copy())


class Flatten(_Layer):
    def __init__(self, tag: str = "flatten"):
        self.tag = tag

    def params(self):
        return {}

    def before_mask(self, x: Tensor) -> Tensor:
        return ops.reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))

    def shapes(self, in_shape):
        d = int(np.prod(in_shape))
        return (d,), (d,)

    def clone(self):
        return Flatten(self.tag)


class Linear(_Layer):
    """x @ weight (+ bias); weight is [in, out].

    As a head it may hold E heads at once, weight [E, in, out] and bias
    [E, out]: it then reads its [E*B, in] input as E episodes of B rows and
    returns [E, B, out].
    """

    def __init__(self, tag: str, weight: Tensor, bias: Tensor | None = None):
        self.tag = tag
        self.weight = weight
        self.bias = bias

    def params(self):
        out = {f"{self.tag}.weight": self.weight}
        if self.bias is not None:
            out[f"{self.tag}.bias"] = self.bias
        return out

    def before_mask(self, x: Tensor) -> Tensor:
        y = ops.matmul(_episode_rows(x, self.weight), self.weight)
        return y if self.bias is None else ops.bias_add(y, self.bias)

    def shapes(self, in_shape):
        n_in, n_out = self.weight.shape[-2:]
        if len(in_shape) != 1 or in_shape[0] != n_in:
            raise ConfigurationError(f"layer {self.tag} expects ({n_in},), gets {in_shape}")
        return (n_out,), (n_out,)

    def clone(self):
        return Linear(self.tag, self.weight.copy(), None if self.bias is None else self.bias.copy())


class CosineHead(_Layer):
    """Logits are scale * cos(feature, class vector); no bias anywhere.

    It may hold E heads at once, class vectors [E, C, d]: it then reads its
    [E*B, d] input as E episodes of B rows and returns [E, B, C].
    """

    def __init__(self, class_vectors: Tensor, scale: float, tag: str = "head"):
        self.tag = tag
        self.class_vectors = class_vectors
        self.scale = float(scale)

    def params(self):
        return {f"{self.tag}.class_vectors": self.class_vectors}

    def before_mask(self, x: Tensor) -> Tensor:
        v = self.class_vectors
        return cosine_logits(_episode_rows(x, v), v, self.scale)

    def shapes(self, in_shape):
        n_classes, d = self.class_vectors.shape[-2:]
        if len(in_shape) != 1 or in_shape[0] != d:
            raise ConfigurationError(f"head expects ({d},), gets {in_shape}")
        return (n_classes,), (n_classes,)

    def clone(self):
        return CosineHead(self.class_vectors.copy(), self.scale, self.tag)


def _draw(rows, rng, shape) -> np.ndarray:
    """`rows` (uniform_rows or normal_rows) of `shape` from one Rng, or [E, *shape] from a list of E rngs."""
    return rows((rng,), shape)[0] if isinstance(rng, Rng) else rows(rng, shape)


def _kaiming_uniform(rng, shape, fan_in: int, dtype) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return ((_draw(uniform_rows, rng, shape) * 2.0 - 1.0) * limit).astype(dtype)


def _unit_rows(rng, shape, dtype) -> np.ndarray:
    v = _draw(normal_rows, rng, shape)
    return (v / (np.sqrt((v * v).sum(axis=-1, keepdims=True)) + _COSINE_EPS)).astype(dtype)


def init_linear_head(n_classes: int, in_dim: int, rng, dtype=np.float32) -> Linear:
    """A Linear head with Kaiming-uniform weights and zero bias; from a list of E rngs, E heads in one draw."""
    w = _kaiming_uniform(rng, (in_dim, n_classes), in_dim, dtype)
    return Linear("head", Tensor(w), Tensor(np.zeros((*w.shape[:-2], n_classes), dtype=dtype)))


def init_cosine_head(n_classes: int, in_dim: int, rng, scale: float, dtype=np.float32) -> CosineHead:
    """A CosineHead with random unit class vectors; from a list of E rngs, E heads in one draw."""
    return CosineHead(Tensor(_unit_rows(rng, (n_classes, in_dim), dtype)), scale)


# ---------------------------------------------------------------------------
# network


class Network:
    """Ordered tagged layers; the last layer must be the single head."""

    def __init__(self, layers: list, input_shape: tuple[int, ...]):
        tags = [layer.tag for layer in layers]
        if len(set(tags)) != len(tags):
            raise ConfigurationError(f"duplicate layer tags: {tags}")
        if tags.count("head") != 1 or tags[-1] != "head":
            raise ConfigurationError("network needs exactly one head, as the final layer")
        self.layers = layers
        self.input_shape = tuple(int(d) for d in input_shape)
        self._mask_shapes: dict[str, tuple[int, ...]] = {}
        self._in_shapes: list[tuple[int, ...]] = []
        shape = self.input_shape
        for layer in layers:
            self._in_shapes.append(shape)
            mask_shape, shape = layer.shapes(shape)
            self._mask_shapes[layer.tag] = mask_shape
        self.head_in_dim = int(np.prod(self._in_shapes[-1]))

    @property
    def tags(self) -> frozenset[str]:
        return frozenset(layer.tag for layer in self.layers)

    @property
    def head(self):
        return self.layers[-1]

    @property
    def n_classes(self) -> int:
        return self._mask_shapes["head"][0]

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for layer in self.layers:
            out.update(layer.params())
        return out

    def mask_shape(self, tag: str) -> tuple[int, ...]:
        return self._mask_shapes[tag]

    def in_shape(self, k: int) -> tuple[int, ...]:
        """The shape of one sample's input to layer k."""
        return self._in_shapes[k]

    def bind(self, tape: Tape | None) -> None:
        for pid, t in self.params().items():
            if tape is None:
                t.tape = None
                t.node_id = None
            else:
                tape.watch(pid, t)

    def values(self) -> dict[str, np.ndarray]:
        return {pid: t.data.copy() for pid, t in self.params().items()}

    def load_values(self, values: dict[str, np.ndarray], ids=None) -> None:
        params = self.params()
        for pid in ids if ids is not None else values.keys():
            params[pid].data = values[pid].copy()

    def clone(self) -> "Network":
        return Network([layer.clone() for layer in self.layers], self.input_shape)

    def reshape_head(self, n_classes: int, rng) -> None:
        """Swap in a freshly initialized head with `n_classes` outputs.

        Given a list of rngs instead of one, the new head holds one such
        initialization per rng, stacked on a leading episode axis and drawn
        as one array over the stack, slice e bitwise that of rng e alone.
        """
        old = self.head
        dtype = next(iter(old.params().values())).dtype
        if isinstance(old, CosineHead):
            self.layers[-1] = init_cosine_head(n_classes, self.head_in_dim, rng, old.scale, dtype)
        elif isinstance(old, Linear):
            self.layers[-1] = init_linear_head(n_classes, self.head_in_dim, rng, dtype)
        else:
            raise ConfigurationError(f"cannot reshape head of type {type(old).__name__}")
        self._mask_shapes["head"] = (n_classes,)


@dataclass(frozen=True)
class Conv4Spec:
    """A Conv-4's architecture: the widths of its four conv blocks, its head kind, and a cosine head's scale."""

    widths: tuple[int, int, int, int]
    head: str
    cosine_scale: float = 10.0

    def __post_init__(self):
        if len(self.widths) != 4 or any(x < 1 for x in self.widths):
            raise ConfigurationError(f"widths must be four positive ints, got {self.widths}")
        if self.head not in _HEADS:
            raise ConfigurationError(f"unknown head kind {self.head!r}")


def build_conv4(
    widths: tuple[int, int, int, int],
    input_shape: tuple[int, int, int],
    n_classes: int,
    head_kind: str,
    rng: Rng,
    cosine_scale: float = Conv4Spec.cosine_scale,
    dtype=np.float32,
) -> Network:
    """Four conv blocks, flatten, one head.  Spatial extents must divide by 16; `Conv4Spec` checks the rest."""
    spec = Conv4Spec(tuple(int(x) for x in widths), head_kind, cosine_scale)
    if len(input_shape) != 3:
        raise ConfigurationError(f"input_shape must be (c, h, w), got {input_shape}")
    c, h, w = (int(x) for x in input_shape)
    if h % 16 or w % 16 or h == 0 or w == 0:
        raise ConfigurationError(f"input extents must be positive multiples of 16, got {h}x{w}")
    if n_classes < 2:
        raise ConfigurationError(f"need at least 2 classes, got {n_classes}")

    layers = []
    c_in = c
    for i, c_out in enumerate(spec.widths, start=1):
        tag = f"conv{i}"
        layer_rng = rng.derive(f"init-{tag}")
        weight = Tensor(_kaiming_uniform(layer_rng, (c_out, c_in, 3, 3), c_in * 9, dtype))
        layers.append(Conv3x3Block(tag, weight, Tensor(np.zeros(c_out, dtype=dtype))))
        c_in = c_out
    layers.append(Flatten())
    feat_dim = spec.widths[3] * (h // 16) * (w // 16)
    head_rng = rng.derive("init-head")
    if spec.head == "cosine":
        layers.append(init_cosine_head(n_classes, feat_dim, head_rng, spec.cosine_scale, dtype))
    else:
        layers.append(init_linear_head(n_classes, feat_dim, head_rng, dtype))
    return Network(layers, (c, h, w))


# ---------------------------------------------------------------------------
# forward pass with stage-gated masking


def validate_specs(net: Network, specs) -> None:
    """Static checks: placement tags exist, dropblock fits the feature maps."""
    for spec in specs:
        missing = spec.placements - net.tags
        if missing:
            raise ConfigurationError(f"placement tags {sorted(missing)} not in network tags {sorted(net.tags)}")
        if spec.kind == "dropblock":
            for tag in spec.placements:
                shape = net.mask_shape(tag)
                if len(shape) != 3:
                    raise ConfigurationError(f"dropblock placed on non-spatial activation {tag!r} {shape}")
                if spec.block_size > min(shape[1], shape[2]):
                    raise ConfigurationError(
                        f"block_size {spec.block_size} exceeds {tag!r} extent {min(shape[1], shape[2])}"
                    )


def forward(
    net: Network,
    batch,
    mode: str,
    stage: str,
    specs=(),
    rng=None,
    tape: Tape | None = None,
    start: int = 0,
    stop: int | None = None,
) -> Tensor:
    """Run the network from point `start` to point `stop` on a batch and return the output.

    A point is a position in the forward of an n-layer network: point 2k is
    the input of layer k, and point 2k + 1 is the activation that layer k's
    mask sees (for a conv block, its relu output).  By default the forward
    runs from point 0, a [B, *input_shape] batch, to point 2n, the logits.
    From an odd `start` it begins with that layer's mask; to an odd `stop` it
    runs that layer up to its mask.  A spec's masks fire only when mode ==
    "train" and its stage matches `stage`; everything else is a pure function
    of the parameters.  Masks are drawn from `rng` per forward pass, one draw
    per (spec, layer) for the whole batch, which for the spatial kinds equals
    one [C,H,W] draw per sample in batch order.

    For a network whose head holds E heads, the batch is E episodes' rows in
    order and `rng` may be a list of E rngs: each episode's masks are then
    drawn from its own rng, as its own forward would draw them, and each
    (spec, layer) draws the whole stack's masks at once.
    """
    if mode not in (MODE_TRAIN, MODE_EVAL):
        raise ContractError(f"unknown mode {mode!r}")
    if stage not in (STAGE_META_TRAINING, STAGE_META_TESTING):
        raise ContractError(f"unknown stage {stage!r}")
    n = len(net.layers)
    stop = 2 * n if stop is None else stop
    if not 0 <= start < stop <= 2 * n:
        raise ContractError(f"point range [{start}, {stop}) is not a non-empty range of the points 0..{2 * n}")
    first = net.layers[start // 2]
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    in_shape = net.mask_shape(first.tag) if start % 2 else net.in_shape(start // 2)
    if x.data.ndim != len(in_shape) + 1 or x.shape[1:] != in_shape:
        raise DimensionError(f"batch shape {x.shape} does not match input shape {in_shape} of point {start}")
    validate_specs(net, specs)
    active = [s for s in specs if s.active(mode, stage)]
    if rng is None and any(s.keep_prob < 1.0 for s in active):
        raise ContractError("active dropout specs need an rng")
    net.bind(tape)

    def draw(spec: DropoutSpec, tag: str, t: Tensor) -> Mask:
        if rng is None or isinstance(rng, Rng):
            return make_dropout_mask(spec, t.shape, rng, t.dtype)
        # the head's output carries the episode axis; every other activation holds the episodes' rows
        shape = t.shape[1:] if tag == net.head.tag else (t.shape[0] // len(rng), *t.shape[1:])
        return Mask(make_dropout_mask(spec, shape, rng, t.dtype).values.reshape(t.shape))

    def inject(tag: str, t: Tensor) -> Tensor:
        for spec in active:
            if tag in spec.placements and spec.keep_prob < 1.0:
                t = draw(spec, tag, t).apply(t)
        return t

    out = x if start % 2 == 0 else first.after_mask(inject(first.tag, x))
    for layer in net.layers[(start + 1) // 2 : stop // 2]:
        out = layer.apply(out, inject)
    return out if stop % 2 == 0 else net.layers[stop // 2].apply(out, None)


# ---------------------------------------------------------------------------
# parameter partition


@dataclass(frozen=True)
class ParamPartition:
    """Which parameter ids are transferable meta-knowledge vs. the task head."""

    meta_tags: frozenset[str]
    meta_ids: tuple[str, ...]
    task_ids: tuple[str, ...]

    def __post_init__(self):
        overlap = set(self.meta_ids) & set(self.task_ids)
        if overlap:
            raise ConfigurationError(f"parameter ids in both partitions: {sorted(overlap)}")


def partition_params(net: Network, meta_tags) -> ParamPartition:
    """Split the registry by layer tag.  The head is task knowledge, always."""
    meta_tags = frozenset(meta_tags)
    if "head" in meta_tags:
        raise ConfigurationError("the head is task knowledge; it cannot be tagged as meta")
    unknown = meta_tags - net.tags
    if unknown:
        raise ConfigurationError(f"meta tags {sorted(unknown)} not in network tags {sorted(net.tags)}")
    meta_ids, task_ids = [], []
    for layer in net.layers:
        ids = sorted(layer.params().keys())
        (meta_ids if layer.tag in meta_tags else task_ids).extend(ids)
    return ParamPartition(meta_tags, tuple(meta_ids), tuple(task_ids))
