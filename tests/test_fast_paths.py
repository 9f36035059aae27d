"""Bitwise guards for the training fast paths.

Each fast path (one mask draw per batch, quadrant maxpool and its backward
into strided views, slice-copy im2col, channels-last col2im, bit-masked
relu) must give the bytes of the straightforward code it replaced, which is
kept here as the reference: per-sample mask draws with a loop over block
centres, argmax pooling over a reshaped window, a backward through a
(4, ...) quadrant buffer and one transposed copy, im2col from a
sliding-window view, col2im over the transposed NCHW taps, and np.where.
A dropblock sample takes one draw, and a draw that drops every unit leaves
its sample whole, so a batch draw moves the rng by exactly one draw per
seed site of the batch.  The dilation of a stack's dropblock seeds by flat
shifts equals the block x block window ORs it replaced.
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
    _dropblock_values,
    _seed_rate,
    build_conv4,
    forward,
    make_dropout_mask,
)
from fsml.rng import Rng, uniform_rows
from fsml.tensor import Tape, Tensor, backward


def reference_mask(spec, shape, rng, dtype, empties=None):
    """One sample's [C, H, W] spatial or dropblock mask from one draw, with a loop over block centres.

    A dropblock draw that drops every unit leaves the sample whole; with
    `empties`, each such draw appends its sample's values there.
    """
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
    keep = np.ones(shape, dtype=dt)
    centers = rng.uniform_array((c, h - block + 1, w - block + 1)) < gamma
    for ch, ci, cj in zip(*np.nonzero(centers)):
        keep[ch, ci : ci + block, cj : cj + block] = 0.0
    kept = int(np.count_nonzero(keep))
    if kept:
        return keep * dt.type(keep.size / kept)
    values = np.ones(shape, dtype=dt)
    if empties is not None:
        empties.append(values)
    return values


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
    empties = []
    for seed in range(12):
        for bsz in (1, 5, 32):
            rng, ref_rng = Rng(seed), Rng(seed)
            got = make_dropout_mask(spec, (bsz, *chw), rng, dtype).values
            want = np.stack([reference_mask(spec, chw, ref_rng, dtype, empties) for _ in range(bsz)])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (seed, bsz)
            assert rng.next_u64() == ref_rng.next_u64(), (seed, bsz)
            one = make_dropout_mask(spec, chw, Rng(seed), dtype).values
            assert one.tobytes() == reference_mask(spec, chw, Rng(seed), dtype).tobytes()
    if keep_prob == 0.2:
        # empty draws happen, and got == want kept each such sample whole, all ones
        assert empties and all(np.all(v == 1) for v in empties)


def _sample_kinds(spec, chw, seed, n):
    """Per draw of Rng(seed), one sample each: "empty" drops every unit, "some" drops some, "none" none."""
    rng, kinds = Rng(seed), []
    for _ in range(n):
        empties = []
        values = reference_mask(spec, chw, rng, np.float32, empties)
        kinds.append("empty" if empties else "some" if np.any(values == 0) else "none")
    return kinds


@pytest.mark.parametrize("pos", [0, 2, 4], ids=["first", "middle", "last"])
def test_a_batch_draw_moves_the_stream_by_its_seed_sites(pos):
    # four seed sites on a 4x4 map, each dropping a 3x3 block: all four drop every unit
    spec = DropoutSpec("dropblock", 0.05, frozenset({"conv1"}), STAGE_META_TRAINING, block_size=3)
    (c, h, w), bsz = (1, 4, 4), 5
    want = ["empty" if i == pos else "some" for i in range(bsz)]
    seed = next(s for s in range(10_000) if _sample_kinds(spec, (c, h, w), s, bsz) == want)
    rng = Rng(seed)
    values = make_dropout_mask(spec, (bsz, c, h, w), rng, np.float32).values
    assert np.all(values[pos] == 1)
    assert all(np.any(values[i] == 0) for i in range(bsz) if i != pos)
    skipped = Rng(seed)
    skipped.u64_array(bsz * c * (h - 2) * (w - 2))
    assert rng.next_u64() == skipped.next_u64()


def window_dropblock_values(keep_prob, block, shape, rngs, dtype):
    """Dropblock values [E, B, C, H, W] with the seed map dilated by block x block ORs of shifted windows."""
    b, c, h, w = shape
    vh, vw = h - block + 1, w - block + 1
    seeds = uniform_rows(rngs, (b, c, vh, vw)).reshape(-1, c, vh, vw) < _seed_rate(keep_prob, block, h, w)
    dropped = np.zeros((len(seeds), c, h, w), dtype=bool)
    for i in range(block):
        for j in range(block):
            dropped[:, :, i : i + vh, j : j + vw] |= seeds
    kept = c * h * w - np.count_nonzero(dropped, axis=(1, 2, 3))
    values = ~dropped * (c * h * w / np.maximum(kept, 1)).astype(dtype)[:, None, None, None]
    values[kept == 0] = 1
    return values.reshape(len(rngs), *shape)


# (block, [B, C, H, W]): square and non-square maps, block 1, 3 and 5, and a block as wide or tall as the map
DILATION_CASES = [
    (3, (32, 8, 8, 8)),
    (3, (32, 8, 4, 4)),
    (1, (3, 3, 5, 7)),
    (3, (3, 2, 5, 7)),
    (5, (2, 3, 7, 5)),
    (3, (4, 2, 6, 3)),
    (5, (2, 1, 5, 5)),
    (3, (5, 2, 3, 9)),
]


@pytest.mark.parametrize("block,shape", DILATION_CASES)
@pytest.mark.parametrize("episodes", [1, 2, 4])
@pytest.mark.parametrize("keep_prob", [0.3, 0.7, 0.95])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropblock_dilation_by_flat_shifts_equals_window_ors(block, shape, episodes, keep_prob, dtype):
    for seed in range(3):
        rngs = [Rng(seed).derive(f"episode-{e}") for e in range(episodes)]
        ref_rngs = [Rng(seed).derive(f"episode-{e}") for e in range(episodes)]
        got = _dropblock_values(keep_prob, block, shape, rngs, np.dtype(dtype))
        want = window_dropblock_values(keep_prob, block, shape, ref_rngs, np.dtype(dtype))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), seed
        assert [r.next_u64() for r in rngs] == [r.next_u64() for r in ref_rngs]


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


def reference_maxpool2_backward(xd, g):
    """The input gradient of a batched 2x2 max pool through a (4, ...) quadrant buffer and one transposed copy."""
    bsz, c, h, w = xd.shape
    win = xd.reshape(bsz, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(bsz, c, h // 2, w // 2, 4)
    idx = np.argmax(win, axis=-1)
    dquads = np.empty((4, bsz, c, h // 2, w // 2), dtype=g.dtype)
    for q in range(4):
        dquads[q] = np.where(idx == q, g, 0)
    return dquads.reshape(2, 2, bsz, c, h // 2, w // 2).transpose(2, 3, 4, 0, 5, 1).reshape(bsz, c, h, w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool2_backward_equals_quadrant_buffer(dtype):
    rng = np.random.default_rng(14)
    for shape in ((1, 1, 2, 2), (5, 4, 8, 6), (32, 4, 32, 32)):
        x = rng.integers(-1, 2, size=shape).astype(dtype)  # ties within most windows
        zeros = x == 0
        x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)  # +0.0 and -0.0 tie
        x[rng.random(shape) < 0.1] = np.nan  # NaN wins over a number, the first NaN over a later one
        g = rng.standard_normal((*shape[:2], shape[2] // 2, shape[3] // 2)).astype(dtype)
        g[rng.random(g.shape) < 0.2] = -0.0
        g[rng.random(g.shape) < 0.05] = np.nan
        t = Tensor._result(x, None, None)  # Tensor() refuses NaN
        Tape().watch("x", t)
        (dx,) = node_grads(ops.maxpool2(t), g)
        want = reference_maxpool2_backward(x, g)
        assert dx.dtype == want.dtype and dx.shape == want.shape
        assert dx.tobytes() == want.tobytes(), shape


def reference_conv2d(xd, kd, stride, pad, g):
    """Forward and both gradients of a batched conv.

    im2col from a sliding-window view; col2im adds the transposed NCHW taps
    of dcols into a padded NCHW buffer.
    """
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


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("c_in", [1, 8])
@pytest.mark.parametrize("bsz", [1, 5, 32])
def test_conv2d_backward_equals_nchw_col2im(stride, pad, c_in, bsz):
    rng = np.random.default_rng(15)
    x = rng.standard_normal((bsz, c_in, 10, 9)).astype(np.float32)
    k = rng.standard_normal((8, c_in, 3, 3)).astype(np.float32)
    xt, kt = watched(x, k)
    out = ops.conv2d(xt, kt, stride=stride, pad=pad)
    g = rng.standard_normal(out.shape).astype(np.float32)
    dx, dk = node_grads(out, g)
    _, want_dx, want_dk = reference_conv2d(x, k, stride, pad, g)
    assert dx.shape == want_dx.shape and dx.tobytes() == want_dx.tobytes()
    assert dk.shape == want_dk.shape and dk.tobytes() == want_dk.tobytes()
