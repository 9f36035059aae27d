"""Reverse-mode tape: per-op gradients vs central differences, tape invariants."""

import numpy as np
import pytest

from fsml import ops
from fsml.errors import ContractError
from fsml.rng import Rng
from fsml.tensor import Tape, Tensor, backward, finite_diff_grad


def rel_err(got, want, atol=1e-6):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float((np.abs(got - want) / np.maximum(np.abs(want), atol)).max())


def taped_grad(fn, x_data):
    """Gradient of scalar fn at x via the tape."""
    tape = Tape()
    x = Tensor(np.asarray(x_data, dtype=np.float64))
    tape.watch("x", x)
    grads = backward(tape, fn(x))
    return grads["x"].data


def check_op(fn, x_data, eps=1e-6, tol=1e-6):
    analytic = taped_grad(fn, x_data)
    numeric = finite_diff_grad(lambda t: fn(t), Tensor(np.asarray(x_data, dtype=np.float64)), eps).data
    assert rel_err(analytic, numeric) < tol


def test_square_at_three():
    g = taped_grad(lambda x: ops.mul(x, x), np.array(3.0))
    assert g == pytest.approx(6.0)


def test_constant_loss_zero_grads():
    tape = Tape()
    x = Tensor(Rng(0).normal_array((4,)))
    tape.watch("x", x)
    # loss value never varies with x, so every gradient entry is zero
    loss = ops.squared_error(ops.scale(x, 0.0), Tensor(np.zeros(4)))
    grads = backward(tape, loss)
    assert not grads["x"].data.any()


def test_matmul_grad():
    rng = Rng(1)
    b = Tensor(rng.normal_array((3, 2)))
    check_op(lambda x: ops.squared_error(ops.matmul(x, b), Tensor(np.zeros((4, 2)))),
             rng.normal_array((4, 3)))


def test_matmul_grad_right_operand():
    rng = Rng(2)
    a = Tensor(rng.normal_array((4, 3)))
    check_op(lambda x: ops.squared_error(ops.matmul(a, x), Tensor(np.zeros((4, 2)))),
             rng.normal_array((3, 2)))


def test_add_and_scale_grad():
    rng = Rng(3)
    y = Tensor(rng.normal_array((5,)))
    check_op(lambda x: ops.squared_error(ops.scale(ops.add(x, y), 2.5), Tensor(np.zeros(5))),
             rng.normal_array((5,)))


def test_bias_add_grad():
    rng = Rng(4)
    x = Tensor(rng.normal_array((3, 4)))
    check_op(lambda b: ops.squared_error(ops.bias_add(x, b), Tensor(np.zeros((3, 4)))),
             rng.normal_array((4,)))


def test_relu_grad_away_from_zero():
    # keep inputs off the kink
    x = Rng(5).normal_array((20,))
    x = np.where(np.abs(x) < 0.1, 0.5, x)
    check_op(lambda t: ops.squared_error(ops.relu(t), Tensor(np.zeros(20))), x)


def test_relu_subgradient_at_zero_is_zero():
    g = taped_grad(lambda t: ops.relu(t), np.array([0.0]))
    assert g[0] == 0.0


def test_conv2d_grad_both_operands():
    rng = Rng(6)
    x_data = rng.normal_array((1, 8, 8))
    k_data = rng.normal_array((2, 1, 3, 3))
    target = Tensor(np.zeros((2, 8, 8)))
    k = Tensor(k_data)
    check_op(lambda t: ops.squared_error(ops.conv2d(t, k, 1, 1), target), x_data, tol=1e-5)
    x = Tensor(x_data)
    check_op(lambda t: ops.squared_error(ops.conv2d(x, t, 1, 1), target), k_data, tol=1e-5)


def test_maxpool2_grad_is_argmax_indicator():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)

    def total(t):
        return ops.squared_error(ops.maxpool2(t), Tensor(np.zeros((1, 2, 2))))

    g = taped_grad(total, x)
    # gradient lands only on per-window maxima
    mask = np.zeros_like(x)
    mask[0, 1::2, 1::2] = 1.0
    assert ((g != 0) == (mask != 0)).all()


def test_maxpool2_tie_breaks_to_lowest_flat_index():
    x = np.zeros((1, 2, 2))

    def total(t):
        return ops.scale(ops.reshape(ops.maxpool2(t), (1,)), 1.0)

    tape = Tape()
    t = Tensor(x)
    tape.watch("x", t)
    out = ops.maxpool2(t)
    loss = ops.squared_error(out, Tensor(np.full((1, 1, 1), -1.0)))
    g = backward(tape, loss)["x"].data
    nz = np.flatnonzero(g)
    assert list(nz) == [0]


def test_softmax_cross_entropy_grad():
    rng = Rng(7)
    check_op(lambda t: ops.softmax_cross_entropy(t, np.array([0, 2, 1])),
             rng.normal_array((3, 4)), tol=1e-5)


def test_softmax_grad_rows_sum_to_zero():
    rng = Rng(8)
    g = taped_grad(lambda t: ops.softmax_cross_entropy(t, np.array([1, 0])),
                   rng.normal_array((2, 5)))
    assert np.abs(g.sum(axis=1)).max() < 1e-12


def test_stacked_matmul_grad_both_operands():
    # one leading episode axis: [E, m, k] @ [E, k, n]
    rng = Rng(11)
    a = Tensor(rng.normal_array((2, 4, 3)))
    b = Tensor(rng.normal_array((2, 3, 5)))
    zero = Tensor(np.zeros((2, 4, 5)))
    check_op(lambda x: ops.squared_error(ops.matmul(x, b), zero), a.data)
    check_op(lambda x: ops.squared_error(ops.matmul(a, x), zero), b.data)


def test_stacked_bias_add_grad_both_operands():
    rng = Rng(12)
    x = Tensor(rng.normal_array((2, 3, 4)))
    b = Tensor(rng.normal_array((2, 4)))
    target = Tensor(rng.normal_array((2, 3, 4)))
    check_op(lambda t: ops.squared_error(ops.bias_add(t, b), target), x.data)
    check_op(lambda t: ops.squared_error(ops.bias_add(x, t), target), b.data)


def test_stacked_conv2d_grad_both_operands():
    # E = 2 episodes of 3 images, kernel [E, c_out, c_in, kh, kw]
    rng = Rng(15)
    x = Tensor(rng.normal_array((6, 2, 5, 5)))
    k = Tensor(rng.normal_array((2, 3, 2, 3, 3)))
    target = Tensor(rng.normal_array((6, 3, 5, 5)))
    check_op(lambda t: ops.squared_error(ops.conv2d(t, k, 1, 1), target), x.data, tol=1e-5)
    check_op(lambda t: ops.squared_error(ops.conv2d(x, t, 1, 1), target), k.data, tol=1e-5)
    # slice e of the output is episode e's images under kernel slice e
    out = ops.conv2d(x, k, 1, 1).data
    for e in range(2):
        want = ops.conv2d(Tensor(x.data[3 * e : 3 * e + 3]), Tensor(k.data[e]), 1, 1).data
        assert np.allclose(out[3 * e : 3 * e + 3], want, rtol=1e-12, atol=1e-12)


def test_stacked_bias_add_on_feature_maps_grad_both_operands():
    # [E*B, C, H, W] + [E, C]: episode e's B maps get bias slice e
    rng = Rng(16)
    x = Tensor(rng.normal_array((6, 4, 3, 2)))
    b = Tensor(rng.normal_array((3, 4)))
    target = Tensor(rng.normal_array((6, 4, 3, 2)))
    check_op(lambda t: ops.squared_error(ops.bias_add(t, b), target), x.data)
    check_op(lambda t: ops.squared_error(ops.bias_add(x, t), target), b.data)
    out = ops.bias_add(x, b).data
    assert np.array_equal(out[2:4], x.data[2:4] + b.data[1][:, None, None])


def test_stacked_conv_ops_reject_images_that_do_not_split_into_episodes():
    from fsml.errors import DimensionError

    with pytest.raises(DimensionError, match="episodes"):
        ops.conv2d(Tensor(np.zeros((5, 2, 4, 4))), Tensor(np.zeros((2, 3, 2, 3, 3))), 1, 1)
    with pytest.raises(DimensionError):
        ops.bias_add(Tensor(np.zeros((5, 4, 3, 3))), Tensor(np.zeros((2, 4))))


def test_stacked_softmax_cross_entropy_is_the_sum_of_episode_losses():
    rng = Rng(13)
    logits = rng.normal_array((3, 4, 5))
    targets = np.array([[0, 4, 1, 1], [2, 3, 0, 4], [1, 1, 2, 0]])
    check_op(lambda t: ops.softmax_cross_entropy(t, targets), logits, tol=1e-5)
    per_episode = [ops.softmax_cross_entropy(Tensor(logits[e]), targets[e]).item() for e in range(3)]
    assert ops.softmax_cross_entropy(Tensor(logits), targets).item() == pytest.approx(sum(per_episode), rel=1e-12)


def test_stacked_cosine_logits_grad_both_operands():
    from fsml.nn import cosine_logits

    rng = Rng(14)
    feats = Tensor(rng.normal_array((2, 3, 6)))
    vecs = Tensor(rng.normal_array((2, 4, 6)))
    zero = Tensor(np.zeros((2, 3, 4)))
    check_op(lambda t: ops.squared_error(cosine_logits(t, vecs, 10.0), zero), feats.data, tol=1e-5)
    check_op(lambda t: ops.squared_error(cosine_logits(feats, t, 10.0), zero), vecs.data, tol=1e-5)


def test_stacked_head_ops_reject_mismatched_episode_axes():
    from fsml.errors import DimensionError
    from fsml.nn import cosine_logits

    with pytest.raises(DimensionError):
        ops.matmul(Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((3, 3, 5))))
    with pytest.raises(DimensionError):
        ops.matmul(Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((3, 5))))
    with pytest.raises(DimensionError):
        ops.bias_add(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4))))
    with pytest.raises(DimensionError):
        ops.softmax_cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(3, dtype=np.int64))
    with pytest.raises(DimensionError):
        cosine_logits(Tensor(np.zeros((2, 3, 6))), Tensor(np.zeros((4, 6))), 10.0)


def test_reshape_grad_passthrough():
    rng = Rng(9)
    check_op(lambda t: ops.squared_error(ops.reshape(t, (6,)), Tensor(np.zeros(6))),
             rng.normal_array((2, 3)))


def test_composed_network_grad():
    # conv -> relu -> flatten -> linear -> cross entropy, per-op eps=1e-5
    rng = Rng(10)
    k_data = rng.normal_array((2, 1, 3, 3))
    w_data = rng.normal_array((2 * 4 * 4, 3)) * 0.3
    x = Tensor(rng.normal_array((2, 1, 8, 8)))
    y = np.array([0, 2])

    def loss_from(k_arr, w_arr, tape=None):
        k = Tensor(k_arr)
        w = Tensor(w_arr)
        if tape is not None:
            tape.watch("k", k)
            tape.watch("w", w)
        h = ops.relu(ops.conv2d(x, k, 2, 1))
        flat = ops.reshape(h, (2, 2 * 4 * 4))
        return ops.softmax_cross_entropy(ops.matmul(flat, w), y), tape

    tape = Tape()
    loss, tape = loss_from(k_data, w_data, tape)
    grads = backward(tape, loss)
    for name, arr in (("k", k_data), ("w", w_data)):
        def f(t, name=name):
            if name == "k":
                return loss_from(t.data, w_data)[0]
            return loss_from(k_data, t.data)[0]
        numeric = finite_diff_grad(f, Tensor(arr), 1e-5).data
        assert rel_err(grads[name].data, numeric, atol=1e-5) < 1e-4


def test_backward_visits_each_node_once():
    tape = Tape()
    x = Tensor(np.array([2.0]))
    tape.watch("x", x)
    # diamond: x feeds two branches that rejoin
    a = ops.scale(x, 3.0)
    b = ops.mul(x, x)
    loss = ops.squared_error(ops.add(a, b), Tensor(np.zeros(1)))
    g = backward(tape, loss)["x"].data
    # d/dx 0.5(3x + x^2)^2 = (3x + x^2)(3 + 2x) at x=2 -> 10 * 7
    assert g[0] == pytest.approx(70.0)


def test_backward_same_tape_deterministic():
    def run():
        tape = Tape()
        x = Tensor(Rng(11).normal_array((3, 3)))
        tape.watch("x", x)
        loss = ops.squared_error(ops.matmul(x, x), Tensor(np.eye(3)))
        return backward(tape, loss)["x"].data

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_gradients_container_contract():
    tape = Tape()
    x = Tensor(np.array([1.0]))
    tape.watch("x", x)
    grads = backward(tape, ops.squared_error(x, Tensor(np.zeros(1))))
    assert "x" in grads
    assert "y" not in grads
    with pytest.raises(KeyError):
        grads["y"]


def test_backward_rejects_nonscalar_loss():
    tape = Tape()
    x = Tensor(np.ones((2, 2)))
    tape.watch("x", x)
    out = ops.scale(x, 2.0)
    with pytest.raises(ContractError):
        backward(tape, out)


def test_finite_diff_requires_scalar_output():
    with pytest.raises(ContractError):
        finite_diff_grad(lambda t: ops.scale(t, 1.0), Tensor(np.ones(3)), 1e-6)


def test_finite_diff_linear_exact():
    a = Rng(12).normal_array((5,))

    def f(t):
        return ops.squared_error(ops.mul(t, Tensor(a)), ops.mul(t, Tensor(a - 1.0)))

    # f = 0.5 sum((a x - (a-1) x)^2) = 0.5 sum(x^2); grad = x
    x = Rng(13).normal_array((5,))
    g = finite_diff_grad(f, Tensor(x), 1e-6).data
    assert rel_err(g, x) < 1e-7


def test_finite_diff_sum_of_squares():
    def f(t):
        return ops.squared_error(t, Tensor(np.zeros(2)))

    g = finite_diff_grad(f, Tensor(np.array([1.0, 2.0])), 1e-6).data
    assert np.abs(g - np.array([1.0, 2.0])).max() < 1e-8


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ContractError):
        finite_diff_grad(lambda t: ops.squared_error(t, t), Tensor(np.ones(2)), 0.0)
