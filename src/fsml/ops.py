"""Differentiable operations.

Conventions: feature maps are channel-first ([C, H, W], batched [B, C, H, W]);
conv is cross-correlation (no kernel flip).  There is no general broadcasting —
the only shape-bending op is bias_add, which broadcasts a per-feature or
per-channel vector over the remaining axes.

The head ops (matmul, bias_add, softmax_cross_entropy, and nn.cosine_logits)
also take every operand with one leading episode axis [E, ...]: slice e of
the result, and of each gradient, is the op on slice e of the operands, and
the loss is the sum of the E per-episode losses.  conv2d and bias_add take
that axis on their parameters alone: the feature maps stay [E*B, C, H, W],
E episodes' B images in order, and episode e's images meet kernel and bias
slice e.  Every GEMM of a stacked op is one slice of a batched matmul with
the shape of that episode's own GEMM, so slice e keeps the bits of the
unstacked op.  One tape then runs E independent networks.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

from .errors import DimensionError
from .tensor import Tape, Tensor

__all__ = [
    "add",
    "bias_add",
    "conv2d",
    "matmul",
    "maxpool2",
    "mul",
    "relu",
    "reshape",
    "scale",
    "softmax_cross_entropy",
    "squared_error",
]


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise DimensionError("operands live on different tapes")
            tape = t.tape
    return tape


def _trace(op: str, out_data: np.ndarray, parents: tuple[Tensor, ...], grad_fns, prepare=None) -> Tensor:
    """Wrap `out_data`, recording a node if any parent is on a tape.

    grad_fns[i] maps the output gradient to parent i's gradient; None marks a
    parent treated as a constant (e.g. dropout masks, targets).  With
    `prepare`, every grad_fn receives prepare(g) in place of g, made once per
    backward of the node and dropped after it.
    """
    tape = _tape_of(*parents)
    if tape is None:
        return Tensor._result(out_data, None, None)
    tracked = [(p.node_id, fn) for p, fn in zip(parents, grad_fns) if p.tape is not None and fn is not None]
    input_ids = tuple(nid for nid, _ in tracked)
    fns = [fn for _, fn in tracked]

    def node_backward(g):
        if prepare is not None:
            g = prepare(g)
        return [fn(g) for fn in fns]

    nid = tape.record(op, input_ids, node_backward)
    return Tensor._result(out_data, tape, nid)


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, its calls typed; None for any other BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            config, corename = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        config.argtypes = corename.argtypes = []
        config.restype = corename.restype = ctypes.c_char_p
        return lib
    return None


def blas_build() -> dict:
    """The numpy version, and the build and run-time kernel of numpy's bundled OpenBLAS.

    The last two are None for any other BLAS.  Result bytes are the same for
    the same seed, numpy, OpenBLAS build and kernel; a different kernel can
    change the last bits of a GEMM.
    """
    lib = _openblas()
    return {
        "numpy_version": np.__version__,
        "openblas_config": None if lib is None else lib.scipy_openblas_get_config64_().decode(),
        "openblas_corename": None if lib is None else lib.scipy_openblas_get_corename64_().decode(),
    }


def set_blas_threads(n: int) -> int:
    """Run the bundled OpenBLAS on `n` threads; returns the count before, or `n` for any other BLAS."""
    lib = _openblas()
    if lib is None:
        return n
    before = lib.scipy_openblas_get_num_threads64_()
    if before != n:
        lib.scipy_openblas_set_num_threads64_(n)
    return before


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread inside the block, then restore the caller's count.

    fsml's GEMMs are small, so a second BLAS thread buys little and burns a
    second core, or oversubscribes the cores when processes run side by
    side.  The thread count changes no result byte.  A no-op for any other
    BLAS; also usable as a decorator.
    """
    before = set_blas_threads(1)
    try:
        yield
    finally:
        set_blas_threads(before)


def _mT(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix in `a`: a view with the last two axes swapped."""
    return a.swapaxes(-1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [m, k] @ [k, n] -> [m, n], or per episode [E, m, k] @ [E, k, n] -> [E, m, n]."""
    nd = a.data.ndim
    if nd not in (2, 3) or b.data.ndim != nd or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul needs [m,k] @ [k,n] or [E,m,k] @ [E,k,n], got {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd
    return _trace("matmul", out, (a, b), (lambda g: g @ _mT(bd), lambda g: _mT(ad) @ g))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors (scalars included)."""
    if a.shape != b.shape:
        raise DimensionError(f"add needs matching shapes, got {a.shape} + {b.shape}")
    return _trace("add", a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a bias vector: [B,n]+[n], [B,C,H,W]+[C] or [C,H,W]+[C].

    Per episode: [E,B,n]+[E,n], or [E*B,C,H,W]+[E,C], where episode e's B
    maps get bias slice e.
    """
    nd = x.data.ndim
    if b.data.ndim == 2 and nd == 3 and x.shape[0] == b.shape[0] and x.shape[2] == b.shape[1]:
        out = x.data + b.data[:, None, :]
        return _trace("bias_add", out, (x, b), (lambda g: g, lambda g: g.sum(axis=1)))
    if b.data.ndim == 2 and nd == 4 and x.shape[0] % b.shape[0] == 0 and x.shape[1] == b.shape[1]:
        episodes = (b.shape[0], -1, *x.shape[1:])
        out = (x.data.reshape(episodes) + b.data[:, None, :, None, None]).reshape(x.shape)
        return _trace("bias_add", out, (x, b), (lambda g: g, lambda g: g.reshape(episodes).sum(axis=(1, 3, 4))))
    if b.data.ndim != 1:
        raise DimensionError(f"bias must be a vector, or [E, n] on [E, B, n] or [E*B, n, H, W], "
                             f"got shape {b.shape} on {x.shape}")
    if nd == 2 and x.shape[1] == b.shape[0]:
        out = x.data + b.data
        reduce_axes = (0,)
    elif nd == 4 and x.shape[1] == b.shape[0]:
        out = x.data + b.data[:, None, None]
        reduce_axes = (0, 2, 3)
    elif nd == 3 and x.shape[0] == b.shape[0]:
        out = x.data + b.data[:, None, None]
        reduce_axes = (1, 2)
    else:
        raise DimensionError(f"bias_add cannot align {x.shape} with {b.shape}")
    return _trace("bias_add", out, (x, b), (lambda g: g, lambda g: g.sum(axis=reduce_axes)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors (used for dropout masks)."""
    if a.shape != b.shape:
        raise DimensionError(f"mul needs matching shapes, got {a.shape} * {b.shape}")
    ad, bd = a.data, b.data
    return _trace("mul", ad * bd, (a, b), (lambda g: g * bd, lambda g: g * ad))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _trace("scale", x.data * s, (x,), (lambda g: g * s,))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(d) for d in shape)
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    in_shape = x.shape
    return _trace("reshape", x.data.reshape(shape), (x,), (lambda g: g.reshape(in_shape),))


_UINTS = {np.dtype(t).itemsize: np.dtype(t) for t in (np.uint16, np.uint32, np.uint64)}


def _bits(a: np.ndarray) -> np.ndarray:
    """The same memory as unsigned integers of the same width."""
    return a.view(_UINTS[a.dtype.itemsize])


def _bit_mask(flags: np.ndarray, like: np.ndarray) -> np.ndarray:
    """All ones where `flags`, all zeros elsewhere, as `like`'s unsigned bits.

    `bits & mask` is np.where(flags, a, 0) bit for bit, signed zeros and NaNs
    included, and many times faster than np.where on a random mask.
    """
    return np.negative(flags, dtype=_UINTS[like.dtype.itemsize])


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at 0 is taken as 0."""
    mask = x.data > 0
    out = np.empty_like(x.data)
    np.bitwise_and(_bits(x.data), _bit_mask(mask, x.data), out=_bits(out))
    return _trace("relu", out, (x,), (lambda g: g * mask,))


def _as_batched(x: Tensor, min_rank: int):
    if x.data.ndim == min_rank:
        return x.data[None], True
    if x.data.ndim == min_rank + 1:
        return x.data, False
    raise DimensionError(f"expected rank {min_rank} or {min_rank + 1}, got shape {x.shape}")


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of [C,H,W] (or [B,C,H,W]) with kernel [c_out,C,kh,kw].

    Per episode, [E*B,C,H,W] with kernel [E,c_out,C,kh,kw] correlates
    episode e's B images with kernel slice e: one im2col over all E*B images,
    then one batched matmul whose slice e is episode e's own GEMM.  Output
    spatial extent follows h' = floor((h + 2*pad - kh) / stride) + 1.
    Differentiable in both the input and the kernel.
    """
    if stride < 1 or pad < 0:
        raise DimensionError(f"need stride >= 1 and pad >= 0, got {stride}, {pad}")
    if kernel.data.ndim not in (4, 5):
        raise DimensionError(f"kernel must be [c_out,c_in,kh,kw] or [E,c_out,c_in,kh,kw], got {kernel.shape}")
    xd, squeeze = _as_batched(x, 3)
    bsz, c_in, h, w = xd.shape
    *episodes, c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise DimensionError(f"kernel expects {kc} input channels, input has {c_in}")
    if episodes and bsz % episodes[0]:
        raise DimensionError(f"{bsz} images do not split into {episodes[0]} episodes")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise DimensionError(f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1

    # im2col: row (b, y, x) of cols holds the window at output (y, x) in (c, i, j)
    # order, filled by one strided copy per tap from a padded channels-last copy;
    # with E episodes, cols and kmat are [E, rows, k] and [E, c_out, k]
    xt = np.zeros((bsz, h + 2 * pad, w + 2 * pad, c_in), dtype=xd.dtype)
    xt[:, pad : pad + h, pad : pad + w] = xd.transpose(0, 2, 3, 1)
    cols = np.empty((bsz, oh, ow, c_in, kh, kw), dtype=xd.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[..., i, j] = xt[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
    cols = cols.reshape(*episodes, -1, c_in * kh * kw)
    kmat = kernel.data.reshape(*episodes, c_out, -1)
    out = (cols @ _mT(kmat)).reshape(bsz, oh, ow, c_out).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out)

    kshape = kernel.shape

    def out_grad_rows(g):
        # the [(E,) rows, c_out] matrix of the output gradient, shared by both gradients
        gb = g[None] if squeeze else g
        return gb.transpose(0, 2, 3, 1).reshape(*episodes, -1, c_out)

    def grad_x(gm):
        # col2im: add the taps in (i, j) order into a padded channels-last buffer
        dcols = (gm @ kmat).reshape(bsz, oh, ow, c_in, kh, kw)
        dxt = np.zeros((bsz, h + 2 * pad, w + 2 * pad, c_in), dtype=gm.dtype)
        for i in range(kh):
            for j in range(kw):
                dxt[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[..., i, j]
        dx = np.ascontiguousarray(dxt[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2))
        return dx[0] if squeeze else dx

    def grad_k(gm):
        return (_mT(gm) @ cols).reshape(kshape)

    return _trace("conv2d", out[0] if squeeze else out, (x, kernel), (grad_x, grad_k), out_grad_rows)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 non-overlapping max pool; ties route the gradient to the lowest flat index."""
    xd, squeeze = _as_batched(x, 3)
    bsz, c, h, w = xd.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2 needs even spatial extents, got {h}x{w}")
    # the four quadrants, contiguous, in window order (0,0),(0,1),(1,0),(1,1),
    # which is monotone in the flat index; a later quadrant wins only when
    # strictly larger (or NaN over a number), so the first hit wins as with argmax
    quads = np.ascontiguousarray(xd.reshape(bsz, c, h // 2, 2, w // 2, 2).transpose(3, 5, 0, 1, 2, 4))
    quads = quads.reshape(4, bsz, c, h // 2, w // 2)
    out = quads[0].copy()
    out_bits, quad_bits = _bits(out), _bits(quads)
    # the backward index, built only for an input on a tape
    idx = None if x.tape is None else np.zeros(out.shape, dtype=np.uint8)
    for q in (1, 2, 3):
        take = ~(quads[q] <= out) & (out == out)
        out_bits ^= (out_bits ^ quad_bits[q]) & _bit_mask(take, out)  # out = where(take, quads[q], out)
        if idx is not None:
            np.maximum(idx, take.view(np.uint8) * np.uint8(q), out=idx)  # q only grows: the last take wins

    def grad_x(g):
        gb = g[None] if squeeze else g
        dx = np.empty((bsz, c, h, w), dtype=g.dtype)
        # each quadrant's gradient goes straight to its strided view of dx
        dx_quads = _bits(dx).reshape(bsz, c, h // 2, 2, w // 2, 2)
        g_bits = _bits(gb)
        for q in range(4):
            np.bitwise_and(g_bits, _bit_mask(idx == q, gb), out=dx_quads[:, :, :, q // 2, :, q % 2])
        return dx[0] if squeeze else dx

    return _trace("maxpool2", out[0] if squeeze else out, (x,), (grad_x,))


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target].

    `targets` are plain class indices [B]; they are data, not a differentiable
    operand.  Per episode, logits [E, B, C] and targets [E, B] give the sum
    of the E batch means.  Computed via the log-sum-exp shift so large logits
    stay finite.
    """
    if logits.data.ndim not in (2, 3):
        raise DimensionError(f"logits must be [B, C] or [E, B, C], got {logits.shape}")
    t = np.asarray(targets)
    if t.shape != logits.shape[:-1]:
        raise DimensionError(f"targets must be {list(logits.shape[:-1])}, got {list(t.shape)}")
    if t.size and (t.min() < 0 or t.max() >= logits.shape[-1]):
        raise IndexError(f"target out of range for {logits.shape[-1]} classes")
    t = t.astype(np.int64)
    z = logits.data
    bsz = z.shape[-2]
    # the index of each target logit
    picked = (np.arange(bsz), t) if t.ndim == 1 else (np.arange(len(t))[:, None], np.arange(bsz), t)
    m = z.max(axis=-1, keepdims=True)
    shifted = z - m
    lse = m + np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = z - lse
    loss = np.asarray(-logp[picked].mean(axis=-1).sum(), dtype=z.dtype)
    softmax = np.exp(logp)

    def grad_logits(g):
        d = softmax.copy()
        d[picked] -= 1.0
        return (g * d / bsz).astype(z.dtype)

    return _trace("softmax_cross_entropy", loss, (logits,), (grad_logits,))


def squared_error(pred: Tensor, target: Tensor) -> Tensor:
    """0.5 * sum of squared differences, as a scalar."""
    if pred.shape != target.shape:
        raise DimensionError(f"squared_error needs matching shapes, got {pred.shape} vs {target.shape}")
    r = pred.data - target.data
    out = np.asarray(0.5 * np.sum(r * r), dtype=pred.data.dtype)
    return _trace("squared_error", out, (pred, target), (lambda g: g * r, lambda g: -g * r))
