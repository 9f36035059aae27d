"""Independent oracles and the check gates built on them.

Nothing in here may share numerical code with the paths it checks: the linear
solver is hand-rolled Gaussian elimination, expectations are enumerated, and
derivatives come from central differences.  The gates are what `fsml
oracle-check` runs; each returns its worst observed error so regressions show
up as numbers, not just booleans.

The bilevel fixture is a ridge regression task family: features are a linear
map phi = X w^T of the inputs (w is the meta-knowledge), the inner problem is

    theta* = argmin_theta 0.5*|phi theta - y|^2 + 0.5*lam*|theta|^2
           = (phi^T phi + lam I)^{-1} phi^T y,

and the meta-loss is the un-regularized squared error on the query split.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ops
from .data import Batch
from .errors import ConditioningError, ContractError, DimensionError
from .meta import KnowledgeState, TrainConfig, analytic_meta_gradient, inner_adapt
from .nn import (
    MODE_TRAIN,
    STAGE_META_TRAINING,
    DropoutSpec,
    Linear,
    Network,
    build_conv4,
    dropblock_gamma,
    forward,
    make_dropout_mask,
    partition_params,
)
from .rng import Rng
from .tensor import Tape, Tensor, backward, finite_diff_grad


def gaussian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting (float64)."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise DimensionError(f"need square a and matching b, got {a.shape}, {b.shape}")
    scale = np.abs(a).max()
    if scale == 0:
        raise ConditioningError("system matrix is all zeros")
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) < 1e-12 * scale:
            raise ConditioningError(f"pivot {a[pivot, col]:.3e} too small at column {col}")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= factors[:, None] * a[col, col:]
        b[col + 1 :] -= factors * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


# ---------------------------------------------------------------------------
# ridge task family


@dataclass(frozen=True)
class RidgeTask:
    """One support/query regression task for the bilevel fixture."""

    x_support: np.ndarray  # [n_s, d_in]
    y_support: np.ndarray  # [n_s]
    x_query: np.ndarray  # [n_q, d_in]
    y_query: np.ndarray  # [n_q]
    lam: float


def make_ridge_task(rng: Rng, d_in: int = 4, n_support: int = 30, n_query: int = 20,
                    lam: float = 1.0, noise_std: float = 0.1) -> RidgeTask:
    true_map = rng.normal_array((d_in,))
    xs = rng.normal_array((n_support, d_in))
    xq = rng.normal_array((n_query, d_in))
    ys = xs @ true_map + noise_std * rng.normal_array((n_support,))
    yq = xq @ true_map + noise_std * rng.normal_array((n_query,))
    return RidgeTask(xs, ys, xq, yq, lam)


def closed_form_inner(task: RidgeTask, w: np.ndarray) -> np.ndarray:
    """theta* = (phi^T phi + lam I)^{-1} phi^T y with phi = X w^T."""
    phi = task.x_support @ w.T
    d = phi.shape[1]
    theta = gaussian_solve(phi.T @ phi + task.lam * np.eye(d), phi.T @ task.y_support)
    return theta


def query_loss(task: RidgeTask, w: np.ndarray, theta: np.ndarray) -> float:
    r = task.x_query @ w.T @ theta - task.y_query
    return float(0.5 * np.sum(r * r))


def fd_meta_gradient(task: RidgeTask, w: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of the query loss in w, with theta* held fixed.

    theta* is solved once, at the unperturbed w, which makes this the exact
    quantity a first-order trainer descends (no d theta*/d w term).
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    theta = closed_form_inner(task, np.asarray(w, dtype=np.float64))
    grad = np.zeros_like(w, dtype=np.float64)
    flat = grad.reshape(-1)
    base = np.asarray(w, dtype=np.float64)
    for i in range(base.size):
        plus = base.copy()
        plus.reshape(-1)[i] += eps
        minus = base.copy()
        minus.reshape(-1)[i] -= eps
        flat[i] = (query_loss(task, plus, theta) - query_loss(task, minus, theta)) / (2 * eps)
    return grad


def ridge_network(w: np.ndarray, theta: np.ndarray) -> tuple[Network, KnowledgeState]:
    """The task family expressed in network form: Linear features, Linear head.

    Weight layouts: the feature layer holds w^T ([d_in, d_feat]) and the head
    holds theta as a column, so forward(x) = (x w^T) theta exactly.
    """
    feat = Linear("conv1", Tensor(np.asarray(w, dtype=np.float64).T.copy()))
    head = Linear("head", Tensor(np.asarray(theta, dtype=np.float64)[:, None].copy()))
    net = Network([feat, head], input_shape=(w.shape[1],))
    partition = partition_params(net, {"conv1"})
    state = KnowledgeState(net, partition, loss="squared_error", task_l2=0.0)
    return net, state


# ---------------------------------------------------------------------------
# exhaustive dropout expectation


def brute_force_dropout_expectation(activation: np.ndarray, keep_prob: float) -> np.ndarray:
    """E[mask * activation / keep_prob] by enumerating all 2^n unit masks.

    Exact (up to float64 rounding), which is the point: it must reproduce the
    activation itself if inverted-scaling dropout is unbiased.  Refuses n > 12
    to keep the enumeration honest and fast.
    """
    flat = np.asarray(activation, dtype=np.float64).reshape(-1)
    n = flat.size
    if n > 12:
        raise ContractError(f"brute force enumeration capped at 12 units, got {n}")
    if not (0.0 < keep_prob <= 1.0):
        raise ContractError(f"keep_prob must be in (0, 1], got {keep_prob}")
    expect = np.zeros(n)
    for bits in itertools.product((0, 1), repeat=n):
        kept = np.asarray(bits, dtype=np.float64)
        k = int(kept.sum())
        prob = keep_prob**k * (1.0 - keep_prob) ** (n - k)
        expect += prob * (kept * flat / keep_prob)
    return expect.reshape(np.asarray(activation).shape)


# ---------------------------------------------------------------------------
# gates


@dataclass
class GateResult:
    name: str
    worst: float
    threshold: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.worst < self.threshold

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"[{status}] {self.name}: worst {self.worst:.3e} (threshold {self.threshold:.0e}) {self.detail}"


def _rel_err(got: np.ndarray, want: np.ndarray, atol: float = 1e-5) -> float:
    """Worst entrywise error, relative wherever |want| dominates atol.

    Central differences at eps=1e-5 on an O(1) scalar carry ~1e-11 of
    truncation and roundoff, so entries smaller than atol are compared on
    the atol scale instead of dividing that noise by a vanishing gradient.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.abs(want), atol)
    return float((np.abs(got - want) / denom).max())


def _op_cases(rng: Rng):
    """(name, scalar function of one packed float64 tensor) pairs for every op."""
    c = Tensor(rng.normal_array((3, 5)))
    kernel_x = Tensor(rng.normal_array((2, 6, 7)))
    pool_x = Tensor(rng.normal_array((2, 4, 6)))
    vecs = Tensor(rng.normal_array((4, 6)))
    feats = Tensor(rng.normal_array((3, 6)))
    targets = np.array([1, 0, 3])
    y = Tensor(rng.normal_array((3, 4)))
    weights = {
        "matmul": (4, 3), "add": (3, 5), "bias_add": (5,), "mul": (3, 5),
        "scale": (3, 5), "reshape": (3, 5), "relu": (3, 5),
        "conv2d": (3, 2, 3, 3), "maxpool2": (2, 4, 6),
        "softmax_cross_entropy": (3, 4), "squared_error": (3, 4),
        "cosine_logits_features": (3, 6), "cosine_logits_vectors": (4, 6),
        # the head ops with a leading axis of 2 episodes
        "matmul_stacked": (2, 4, 3), "matmul_stacked_right": (2, 3, 5), "bias_add_stacked": (2, 5),
        "softmax_cross_entropy_stacked": (2, 3, 4),
        "cosine_logits_features_stacked": (2, 3, 6), "cosine_logits_vectors_stacked": (2, 4, 6),
        # conv2d and bias_add with the episode axis on their parameters: 2 episodes of 2 maps
        "conv2d_stacked_input": (4, 2, 5, 5), "conv2d_stacked_kernel": (2, 3, 2, 3, 3),
        "bias_add_stacked_maps": (2, 3),
    }
    # drawn from their own stream, so the operands of the cases above do not move
    srng = rng.derive("stacked")
    c_stacked = Tensor(srng.normal_array((2, 3, 5)))
    a_stacked = Tensor(srng.normal_array((2, 4, 3)))
    x_stacked = Tensor(srng.normal_array((2, 3, 5)))
    vecs_stacked = Tensor(srng.normal_array((2, 4, 6)))
    feats_stacked = Tensor(srng.normal_array((2, 3, 6)))
    targets_stacked = np.array([[1, 0, 3], [2, 2, 0]])
    crng = rng.derive("stacked-conv")
    conv_x_stacked = Tensor(crng.normal_array((4, 2, 5, 5)))
    kernel_stacked = Tensor(crng.normal_array((2, 3, 2, 3, 3)))
    maps_stacked = Tensor(crng.normal_array((4, 3, 2, 2)))

    def total(t: Tensor) -> Tensor:
        # reduce any output to a scalar through a fixed random weighting
        wsum = Tensor(np.full(t.shape, 0.37, dtype=np.float64) if t.size > 1 else np.ones(t.shape))
        return ops.squared_error(t, wsum)

    from .nn import cosine_logits

    cases = {
        "matmul": lambda v: total(ops.matmul(v, c)),
        "add": lambda v: total(ops.add(v, c)),
        "bias_add": lambda v: total(ops.bias_add(c, v)),
        "mul": lambda v: total(ops.mul(v, c)),
        "scale": lambda v: total(ops.scale(v, -1.7)),
        "reshape": lambda v: total(ops.reshape(v, (5, 3))),
        "relu": lambda v: total(ops.relu(v)),
        "conv2d": lambda v: total(ops.conv2d(kernel_x, v, stride=2, pad=1)),
        "maxpool2": lambda v: total(ops.maxpool2(v)),
        "softmax_cross_entropy": lambda v: ops.softmax_cross_entropy(v, targets),
        "squared_error": lambda v: ops.squared_error(v, y),
        "cosine_logits_features": lambda v: total(cosine_logits(v, vecs, 10.0)),
        "cosine_logits_vectors": lambda v: total(cosine_logits(feats, v, 10.0)),
        "matmul_stacked": lambda v: total(ops.matmul(v, c_stacked)),
        "matmul_stacked_right": lambda v: total(ops.matmul(a_stacked, v)),
        "bias_add_stacked": lambda v: total(ops.bias_add(x_stacked, v)),
        "softmax_cross_entropy_stacked": lambda v: ops.softmax_cross_entropy(v, targets_stacked),
        "cosine_logits_features_stacked": lambda v: total(cosine_logits(v, vecs_stacked, 10.0)),
        "cosine_logits_vectors_stacked": lambda v: total(cosine_logits(feats_stacked, v, 10.0)),
        "conv2d_stacked_input": lambda v: total(ops.conv2d(v, kernel_stacked, stride=1, pad=1)),
        "conv2d_stacked_kernel": lambda v: total(ops.conv2d(conv_x_stacked, v, stride=1, pad=1)),
        "bias_add_stacked_maps": lambda v: total(ops.bias_add(maps_stacked, v)),
    }
    return weights, cases


def _taped_grad(fn, x: Tensor) -> np.ndarray:
    tape = Tape()
    leaf = Tensor(x.data.copy())
    tape.watch("x", leaf)
    loss = fn(leaf)
    return backward(tape, loss)["x"].data


def gate_gradients(n_seeds: int = 20, eps: float = 1e-5, threshold: float = 1e-4) -> GateResult:
    """Analytic gradients vs. central differences for every op and a full Conv-4."""
    worst = 0.0
    culprit = ""
    for seed in range(n_seeds):
        rng = Rng(seed).derive("gradient-gate")
        weights, cases = _op_cases(rng)
        for name, fn in cases.items():
            x = Tensor(rng.normal_array(weights[name]))
            analytic = _taped_grad(fn, x)
            numeric = finite_diff_grad(fn, x, eps).data
            err = _rel_err(analytic, numeric)
            if err > worst:
                worst, culprit = err, name
    # whole-network composition: loss of a Conv-4 on a small batch, one seed a time
    for seed in range(n_seeds):
        rng = Rng(seed).derive("gradient-gate-conv4")
        net = build_conv4((2, 3, 2, 2), (1, 16, 16), 3, "cosine", rng, dtype=np.float64)
        # zero-init biases put pre-activations exactly on the relu kink, where
        # central differences straddle the subgradient; test at a generic point
        for pid, t in net.params().items():
            if pid.endswith(".bias"):
                t.data = 0.05 * rng.normal_array(t.shape)
        batch = rng.normal_array((2, 1, 16, 16))
        labels = np.array([seed % 3, (seed + 1) % 3])
        params = net.params()
        for pid in params:
            def net_loss(v: Tensor, pid=pid) -> Tensor:
                saved = params[pid].data
                params[pid].data = v.data
                try:
                    logits = forward(net, batch, "eval", STAGE_META_TRAINING)
                    return ops.softmax_cross_entropy(logits, labels)
                finally:
                    params[pid].data = saved
            tape = Tape()
            net.bind(tape)
            logits = forward(net, batch, MODE_TRAIN, STAGE_META_TRAINING, tape=tape)
            loss = ops.softmax_cross_entropy(logits, labels)
            analytic = backward(tape, loss)[pid].data
            numeric = finite_diff_grad(net_loss, params[pid], eps).data
            err = _rel_err(analytic, numeric)
            if err > worst:
                worst, culprit = err, f"conv4:{pid}"
    return GateResult("gradient-vs-finite-difference", worst, threshold, f"worst case {culprit}")


def gate_bilevel(n_families: int = 20, threshold: float = 1e-5) -> GateResult:
    """Trainer meta-gradient vs. finite differences on ridge task families."""
    worst = 0.0
    for seed in range(n_families):
        rng = Rng(seed).derive("bilevel-gate")
        d_in, d_feat = 4, 6
        task = make_ridge_task(rng, d_in=d_in)
        w = rng.normal_array((d_feat, d_in))
        theta = closed_form_inner(task, w)
        net, state = ridge_network(w, theta)
        grads, _ = analytic_meta_gradient(state, Batch(task.x_query, task.y_query[:, None]))
        analytic = grads["conv1.weight"].data.T  # layer stores w^T
        numeric = fd_meta_gradient(task, w)
        worst = max(worst, _rel_err(analytic, numeric))
    return GateResult("bilevel-meta-gradient", worst, threshold, f"{n_families} ridge families")


def gate_inner_solver(threshold: float = 1e-6) -> GateResult:
    """Gradient-descent inner loop vs. the closed form, run to convergence."""
    rng = Rng(7).derive("inner-solver-gate")
    task = make_ridge_task(rng, d_in=4)
    w = rng.normal_array((5, 4))
    want = closed_form_inner(task, w)
    net, state = ridge_network(w, np.zeros(5))
    state.task_l2 = task.lam
    got = inner_adapt(
        state, Batch(task.x_support, task.y_support[:, None]),
        steps=10_000, lr=1e-3, stage=STAGE_META_TRAINING,
    )["head.weight"][:, 0]
    return GateResult("inner-adapt-vs-closed-form", _rel_err(got, want), threshold, "10k GD steps")


def gate_dropout_unbiasedness(threshold: float = 1e-12) -> GateResult:
    """Exhaustive E[mask * x] == x for standard inverted-scaling dropout."""
    rng = Rng(3).derive("unbiasedness-gate")
    worst = 0.0
    for keep_prob in (0.3, 0.7, 0.9):
        x = rng.normal_array((10,))
        expect = brute_force_dropout_expectation(x, keep_prob)
        worst = max(worst, float(np.abs(expect - x).max()))
    return GateResult("dropout-unbiasedness", worst, threshold, "2^10 masks, keep 0.3/0.7/0.9")


def gate_dropblock_stats(n_masks: int = 10_000) -> GateResult:
    """Mean kept fraction of dropblock masks lands near keep_prob."""
    spec = DropoutSpec("dropblock", 0.9, frozenset({"conv1"}), STAGE_META_TRAINING, block_size=7)
    rng = Rng(11).derive("dropblock-gate")
    kept = 0.0
    # batches of 1,000 draw the masks of 1,000 one-sample draws; the kept
    # fractions are summed one by one, in order, as those draws would be
    for first in range(0, n_masks, 1000):
        values = make_dropout_mask(spec, (min(1000, n_masks - first), 1, 28, 28), rng, np.float64).values
        for fraction in (values > 0).mean(axis=(1, 2, 3)):
            kept += float(fraction)
    mean_kept = kept / n_masks
    worst = abs(mean_kept - 0.9)
    result = GateResult("dropblock-kept-fraction", worst, 0.05, f"mean kept {mean_kept:.4f} on 28x28")
    gamma = dropblock_gamma(0.9, 7, 7)
    if abs(gamma - 0.1) > 1e-15:
        result.worst = abs(gamma - 0.1)
        result.detail = f"gamma(0.9,7,7) = {gamma!r}, expected 0.1"
    return result


def run_all_gates() -> list[GateResult]:
    return [
        gate_gradients(),
        gate_bilevel(),
        gate_inner_solver(),
        gate_dropout_unbiasedness(),
        gate_dropblock_stats(),
    ]
