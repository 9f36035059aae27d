"""Bitwise guards for the training fast paths.

Each fast path (one mask draw per batch, quadrant maxpool, slice-copy
im2col, bit-masked relu) must give the bytes of the straightforward code it
replaced, which is kept here as the reference: per-sample mask draws with a
loop over block centres, argmax pooling over a reshaped window, im2col from
a sliding-window view, and np.where.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fsml import ops
from fsml.nn import (
    MODE_TRAIN,
    STAGE_META_TRAINING,
    DropoutSpec,
    Mask,
    build_conv4,
    forward,
    make_dropout_mask,
)
from fsml.rng import Rng
from fsml.tensor import Tape, Tensor, backward


def reference_mask(spec, shape, rng, dtype, resamples=None):
    """One sample's [C, H, W] spatial or dropblock mask, drawn as fsml once did."""
    dt = np.dtype(dtype)
    c, h, w = shape
    if spec.kind == "spatial":
        keep = rng.uniform_array((c,)) < spec.keep_prob
        values = np.zeros(shape, dtype=dt)
        values[keep] = dt.type(1.0 / spec.keep_prob)
        return values
    block = spec.block_size
    valid = (h - block + 1) * (w - block + 1)
    gamma = ((1.0 - spec.keep_prob) / (block * block)) * (h * w / valid)
    for attempt in range(2):
        keep = np.ones(shape, dtype=dt)
        centers = rng.uniform_array((c, h - block + 1, w - block + 1)) < gamma
        for ch, ci, cj in zip(*np.nonzero(centers)):
            keep[ch, ci : ci + block, cj : cj + block] = 0.0
        kept = int(np.count_nonzero(keep))
        if kept:
            return keep * dt.type(keep.size / kept)
        if resamples is not None:
            resamples.append(attempt)
    return np.ones(shape, dtype=dt)


MASK_CASES = [
    ("dropblock", 0.7, 1, (3, 5, 7)),
    ("dropblock", 0.9, 3, (8, 8, 8)),
    ("dropblock", 0.5, 3, (2, 5, 7)),
    # gamma 0.8 and one centre per map: most draws drop everything
    ("dropblock", 0.2, 3, (1, 3, 3)),
    ("spatial", 0.6, 1, (4, 3, 3)),
]


@pytest.mark.parametrize("kind,keep_prob,block,chw", MASK_CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_mask_equals_per_sample_draws(kind, keep_prob, block, chw, dtype):
    spec = DropoutSpec(kind, keep_prob, frozenset({"conv1"}), STAGE_META_TRAINING, block_size=block)
    resamples = []
    for seed in range(12):
        for bsz in (1, 5, 32):
            rng, ref_rng = Rng(seed), Rng(seed)
            got = make_dropout_mask(spec, (bsz, *chw), rng, dtype).values
            want = np.stack([reference_mask(spec, chw, ref_rng, dtype, resamples) for _ in range(bsz)])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (seed, bsz)
            assert rng.next_u64() == ref_rng.next_u64(), (seed, bsz)
            one = make_dropout_mask(spec, chw, Rng(seed), dtype).values
            assert one.tobytes() == reference_mask(spec, chw, Rng(seed), dtype).tobytes()
    if keep_prob == 0.2:
        assert 0 in resamples and 1 in resamples  # resampled, and kept whole after two empty draws


def test_rng_advance_moves_by_draws():
    rng = Rng(4)
    rng.advance(10)
    skipped = Rng(4)
    skipped.u64_array(10)
    assert rng.next_u64() == skipped.next_u64()
    rng.advance(-11)
    assert rng.next_u64() == Rng(4).next_u64()


def test_train_forward_with_batched_masks_equals_per_sample_masks():
    net = build_conv4((4, 8, 8, 8), (1, 32, 32), 10, "cosine", Rng(3))
    specs = (
        DropoutSpec("dropblock", 0.9, frozenset({"conv3", "conv4"}), STAGE_META_TRAINING, block_size=3),
        DropoutSpec("spatial", 0.8, frozenset({"conv2"}), STAGE_META_TRAINING),
        DropoutSpec("standard", 0.9, frozenset({"flatten"}), STAGE_META_TRAINING),
    )
    x = Rng(5).normal_array((32, 1, 32, 32)).astype(np.float32)
    y = np.arange(32) % 10

    def reference_forward(rng, tape):
        net.bind(tape)

        def inject(tag, t):
            for spec in specs:
                if tag not in spec.placements:
                    continue
                if spec.kind == "standard":
                    mask = make_dropout_mask(spec, t.shape, rng, t.dtype)
                else:
                    mask = Mask(np.stack([reference_mask(spec, t.shape[1:], rng, t.dtype) for _ in range(t.shape[0])]))
                t = mask.apply(t)
            return t

        out = Tensor(x)
        for layer in net.layers:
            out = layer.apply(out, inject)
        return out

    rng, ref_rng = Rng(7), Rng(7)
    for _ in range(3):  # consecutive forwards share the mask stream
        tape, ref_tape = Tape(), Tape()
        logits = forward(net, x, MODE_TRAIN, STAGE_META_TRAINING, specs, rng, tape)
        grads = backward(tape, ops.softmax_cross_entropy(logits, y))
        ref_logits = reference_forward(ref_rng, ref_tape)
        ref_grads = backward(ref_tape, ops.softmax_cross_entropy(ref_logits, y))
        assert logits.data.tobytes() == ref_logits.data.tobytes()
        assert grads.keys() == ref_grads.keys()
        for pid in grads:
            assert grads[pid].data.tobytes() == ref_grads[pid].data.tobytes(), pid
    assert rng.next_u64() == ref_rng.next_u64()


def node_grads(out, g):
    """The gradients the tape node of `out` hands its inputs for output gradient g."""
    return out.tape.nodes[out.node_id].backward(g)


def watched(*arrays):
    tape = Tape()
    tensors = [Tensor(a) for a in arrays]
    for i, t in enumerate(tensors):
        tape.watch(f"in{i}", t)
    return tensors


def reference_maxpool2(xd, g):
    """Forward and input gradient of a batched 2x2 max pool, by argmax over each window."""
    bsz, c, h, w = xd.shape
    win = xd.reshape(bsz, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(bsz, c, h // 2, w // 2, 4)
    idx = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    gwin = np.zeros((bsz, c, h // 2, w // 2, 4), dtype=g.dtype)
    np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
    dx = gwin.reshape(bsz, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(bsz, c, h, w)
    return out, dx


@pytest.mark.parametrize("shape", [(3, 4, 6), (2, 3, 8, 4), (32, 8, 16, 16)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool2_equals_argmax_pooling(shape, dtype):
    rng = np.random.default_rng(11)
    x = rng.integers(-2, 3, size=shape).astype(dtype)  # many ties within a window
    zeros = x == 0
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)  # signed-zero ties
    g = rng.standard_normal(tuple(shape[:-2]) + (shape[-2] // 2, shape[-1] // 2)).astype(dtype)
    g[rng.random(g.shape) < 0.2] = -0.0
    (t,) = watched(x)
    out = ops.maxpool2(t)
    (dx,) = node_grads(out, g)
    batched = len(shape) == 4
    want_out, want_dx = reference_maxpool2(x if batched else x[None], g if batched else g[None])
    if not batched:
        want_out, want_dx = want_out[0], want_dx[0]
    assert out.data.dtype == want_out.dtype and dx.dtype == want_dx.dtype
    assert out.data.tobytes() == want_out.tobytes()
    assert dx.tobytes() == want_dx.tobytes()


def test_maxpool2_takes_the_first_nan_like_argmax():
    x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
    x[0, 0, 0, 1] = np.nan  # after a smaller number
    x[0, 1, 1, 1] = np.nan  # last in its window
    x[1, 2, 2:, 2:] = np.nan  # a whole window
    x[1, 0, 0, 0] = np.nan  # first, before a larger number
    out = ops.maxpool2(Tensor._result(x, None, None))
    want, _ = reference_maxpool2(x, np.zeros((2, 3, 2, 2)))
    assert out.data.tobytes() == want.tobytes()


def reference_conv2d(xd, kd, stride, pad, g):
    """Forward and both gradients of a batched conv, im2col from a sliding-window view."""
    bsz, c_in, h, w = xd.shape
    c_out, _, kh, kw = kd.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(bsz * oh * ow, c_in * kh * kw)
    kmat = kd.reshape(c_out, -1)
    out = np.ascontiguousarray((cols @ kmat.T).reshape(bsz, oh, ow, c_out).transpose(0, 3, 1, 2))
    gm = g.transpose(0, 2, 3, 1).reshape(bsz * oh * ow, c_out)
    dcols = (gm @ kmat).reshape(bsz, oh, ow, c_in, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, :, :, :, i, j]
    dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
    return out, dx, (gm.T @ cols).reshape(kd.shape)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("c_in", [1, 8])
@pytest.mark.parametrize("batched", [False, True])
def test_conv2d_equals_sliding_window_im2col(stride, pad, c_in, batched):
    rng = np.random.default_rng(12)
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((4, c_in, 9, 8) if batched else (c_in, 9, 8)).astype(dtype)
        k = rng.standard_normal((5, c_in, 3, 3)).astype(dtype)
        xt, kt = watched(x, k)
        out = ops.conv2d(xt, kt, stride=stride, pad=pad)
        g = rng.standard_normal(out.shape).astype(dtype)
        dx, dk = node_grads(out, g)
        want_out, want_dx, want_dk = reference_conv2d(
            x if batched else x[None], k, stride, pad, g if batched else g[None]
        )
        if not batched:
            want_out, want_dx = want_out[0], want_dx[0]
        assert out.data.tobytes() == want_out.tobytes()
        assert dx.shape == want_dx.shape and dx.tobytes() == want_dx.tobytes()
        assert dk.tobytes() == want_dk.tobytes()


def test_relu_equals_where():
    x = np.random.default_rng(13).standard_normal((4, 3, 6, 6)).astype(np.float32)
    x[x < -1.0] = -0.0
    x[0, 0, 0, :3] = (np.nan, np.inf, -np.inf)
    out = ops.relu(Tensor._result(x, None, None))
    want = np.where(x > 0, x, 0)
    assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()
