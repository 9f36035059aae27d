"""Dense tensors plus a recording tape for reverse-mode differentiation.

A Tensor is a numpy array with an optional handle into a Tape.  Ops (see
ops.py) compute forward values eagerly; when an operand lives on a tape, the
op appends one node holding the input handles and a closure that maps the
output gradient to input gradients.  The tape is append-only, so node order
is already topological and backward() is a single reverse sweep that visits
each node exactly once.

Precision policy: training paths run in float32, verification paths (finite
differences, oracle gates) in float64.  Ops preserve the dtype of their
operands; nothing here silently upcasts.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError

Array = np.ndarray


class Tensor:
    """Immutable-by-convention value; `data` is only reassigned between forwards."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.tape: Tape | None = None
        self.node_id: int | None = None

    @staticmethod
    def _result(data: Array, tape: "Tape | None", node_id: int | None) -> "Tensor":
        # internal fast path for op outputs: skips the finiteness scan
        t = object.__new__(Tensor)
        t.data = data
        t.tape = tape
        t.node_id = node_id
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def copy(self) -> "Tensor":
        return Tensor._result(self.data.copy(), None, None)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class _Node:
    __slots__ = ("op", "inputs", "backward")

    def __init__(self, op: str, inputs: tuple[int, ...], backward):
        self.op = op
        self.inputs = inputs
        # backward: grad_out -> list of per-input gradient arrays (None = skip)
        self.backward = backward


class Tape:
    """Append-only record of one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []
        # param id -> (node id, shape, dtype); filled by watch()
        self.watched: dict[str, tuple[int, tuple[int, ...], np.dtype]] = {}

    def record(self, op: str, inputs: tuple[int, ...], backward) -> int:
        self.nodes.append(_Node(op, inputs, backward))
        return len(self.nodes) - 1

    def watch(self, param_id: str, tensor: Tensor) -> int:
        """Register a parameter as a leaf so backward() will report its gradient."""
        nid = self.record(f"param:{param_id}", (), None)
        tensor.tape = self
        tensor.node_id = nid
        self.watched[param_id] = (nid, tensor.shape, tensor.data.dtype)
        return nid


def backward(tape: Tape, loss: Tensor) -> dict[str, Tensor]:
    """Reverse sweep from `loss`; returns gradients for every watched parameter.

    Parameters the loss does not depend on get zero gradients of the right
    shape, so optimizers never need a missing-key branch.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise ContractError("loss tensor does not belong to this tape")
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    grads: list[Array | None] = [None] * len(tape.nodes)
    grads[loss.node_id] = np.ones_like(loss.data)
    for nid in range(loss.node_id, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.backward is None:
            continue
        for input_id, contrib in zip(node.inputs, node.backward(g)):
            if contrib is None:
                continue
            if grads[input_id] is None:
                grads[input_id] = contrib
            else:
                grads[input_id] = grads[input_id] + contrib
        grads[nid] = None  # free activations as soon as they are consumed
    out = {}
    for pid, (nid, shape, dtype) in tape.watched.items():
        g = grads[nid]
        if g is None:
            g = np.zeros(shape, dtype=dtype)
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {pid!r}")
        out[pid] = Tensor._result(g, None, None)
    return out


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor, eps: float) -> Tensor:
    """Central-difference gradient of a scalar function, element by element.

    Runs entirely in float64 no matter what dtype `x` carries; this is the
    independent check the analytic backward pass is gated against, so it must
    not share code with it.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    base = x.data.astype(np.float64)
    grad = np.zeros_like(base)
    flat_grad = grad.reshape(-1)
    for i in range(base.size):
        plus = base.copy()
        plus.reshape(-1)[i] += eps
        minus = base.copy()
        minus.reshape(-1)[i] -= eps
        f_plus = f(Tensor._result(plus, None, None))
        f_minus = f(Tensor._result(minus, None, None))
        if f_plus.size != 1 or f_minus.size != 1:
            raise ContractError("finite_diff_grad needs a scalar-valued function")
        flat_grad[i] = (f_plus.item() - f_minus.item()) / (2.0 * eps)
    return Tensor._result(grad, None, None)
