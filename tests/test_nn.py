"""Conv-4 construction, cosine head, dropout masks, stage gating, partition."""

import math

import numpy as np
import pytest

from fsml.errors import ConfigurationError, ContractError, DimensionError
from fsml.nn import (
    MODE_EVAL,
    MODE_TRAIN,
    STAGE_META_TESTING,
    STAGE_META_TRAINING,
    DropoutSpec,
    build_conv4,
    cosine_logits,
    dropblock_gamma,
    forward,
    make_dropout_mask,
    partition_params,
    validate_specs,
)
from fsml.rng import Rng
from fsml.tensor import Tensor
from fsml import ops


def small_net(head_kind="linear", n_classes=5, seed=0):
    return build_conv4((8, 8, 8, 8), (1, 32, 32), n_classes, head_kind, Rng(seed))


# ---------------------------------------------------------------------------
# construction


def test_conv4_shapes():
    net = small_net()
    # four pools halve 32 down to 2, so the flat feature is 8 * 2 * 2
    assert net.mask_shape("conv4") == (8, 4, 4)
    assert net.mask_shape("flatten") == (32,)
    params = net.params()
    assert params["head.weight"].shape == (32, 5)
    assert params["head.bias"].shape == (5,)
    assert params["conv1.weight"].shape == (8, 1, 3, 3)


def test_conv4_tags():
    net = small_net()
    assert net.tags == frozenset({"conv1", "conv2", "conv3", "conv4", "flatten", "head"})


def test_conv4_param_counts_linear_vs_cosine():
    lin = small_net("linear").params()
    cos = small_net("cosine").params()
    lin_total = sum(v.size for v in lin.values())
    cos_total = sum(v.size for v in cos.values())
    # identical except the cosine head drops the bias vector
    assert lin_total - cos_total == 5
    assert "head.bias" not in cos
    assert cos["head.class_vectors"].shape == (5, 32)


def test_conv4_rejects_bad_extent():
    with pytest.raises(ConfigurationError):
        build_conv4((8, 8, 8, 8), (1, 24, 24), 5, "linear", Rng(0))


def test_conv4_rejects_bad_widths():
    with pytest.raises(ConfigurationError):
        build_conv4((8, 8, 8), (1, 32, 32), 5, "linear", Rng(0))


def test_conv4_rejects_one_class():
    with pytest.raises(ConfigurationError):
        build_conv4((4, 4, 4, 4), (1, 32, 32), 1, "linear", Rng(0))


def test_conv4_rejects_unknown_head():
    with pytest.raises(ConfigurationError):
        build_conv4((4, 4, 4, 4), (1, 32, 32), 5, "mlp", Rng(0))


def test_conv4_init_deterministic():
    a = small_net(seed=3).values()
    b = small_net(seed=3).values()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    c = small_net(seed=4).values()
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_conv4_biases_zero_head_vectors_unit():
    net = small_net("cosine")
    vals = net.values()
    for i in range(1, 5):
        assert not vals[f"conv{i}.bias"].any()
    norms = np.linalg.norm(vals["head.class_vectors"], axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_zero_input_zero_head_uniform_softmax():
    net = small_net("linear")
    net.params()["head.weight"].data[:] = 0.0
    x = np.zeros((2, 1, 32, 32), dtype=np.float32)
    logits = forward(net, x, MODE_EVAL, STAGE_META_TESTING)
    assert not logits.data.any()
    loss = ops.softmax_cross_entropy(logits, np.array([0, 3]))
    assert abs(loss.item() - math.log(5)) < 1e-6


def test_forward_rejects_wrong_batch_shape():
    net = small_net()
    with pytest.raises(DimensionError):
        forward(net, np.zeros((2, 1, 16, 16), dtype=np.float32), MODE_EVAL, STAGE_META_TESTING)


MASKED_SPECS = (
    DropoutSpec("standard", 0.7, frozenset({"conv2", "flatten"}), STAGE_META_TRAINING),
    DropoutSpec("dropblock", 0.8, frozenset({"conv4"}), STAGE_META_TRAINING, block_size=3),
)


def assert_splits_at_points_bitwise(net, points):
    # the forward to each point and the forward on from it draw the masks of
    # the full forward, in its order, in train mode, and none in eval mode
    x = Rng(4).uniform_array((3, 1, 32, 32)).astype(np.float32)
    for mode in (MODE_EVAL, MODE_TRAIN):
        full_rng = Rng(9)
        full = forward(net, x, mode, STAGE_META_TRAINING, MASKED_SPECS, full_rng)
        next_draw = full_rng.next_u64()  # where the full forward leaves the mask stream
        for point in points:
            rng = Rng(9)
            h = forward(net, x, mode, STAGE_META_TRAINING, MASKED_SPECS, rng, stop=point)
            layer = net.layers[point // 2]
            assert h.shape[1:] == (net.mask_shape(layer.tag) if point % 2 else net.in_shape(point // 2))
            rest = forward(net, h, mode, STAGE_META_TRAINING, MASKED_SPECS, rng, start=point)
            assert np.array_equal(rest.data, full.data), (mode, point)
            assert rng.next_u64() == next_draw, (mode, point)


def test_forward_layer_range_splits_the_network_bitwise():
    # point 2k is layer k's input: a cut between any two layers
    net = small_net("cosine")
    assert_splits_at_points_bitwise(net, range(2, 2 * len(net.layers), 2))


def test_forward_cut_at_a_mask_splits_a_train_forward_bitwise():
    # point 2k + 1 is what layer k's mask sees: masks on conv2, conv4 and
    # flatten, a cut at any layer's mask
    net = small_net("cosine")
    n = len(net.layers)
    assert_splits_at_points_bitwise(net, range(1, 2 * n, 2))
    x = np.zeros((2, 1, 32, 32), dtype=np.float32)
    for start, stop in ((4, 4), (5, 3), (-1, 6), (0, 2 * n + 1)):
        with pytest.raises(ContractError, match="point range"):
            forward(net, x, MODE_EVAL, STAGE_META_TESTING, start=start, stop=stop)


def test_forward_checks_the_batch_against_the_start_layer():
    net = small_net()
    image = np.zeros((2, 1, 32, 32), dtype=np.float32)
    with pytest.raises(DimensionError, match="point 6"):
        forward(net, image, MODE_EVAL, STAGE_META_TESTING, start=6)
    with pytest.raises(DimensionError, match="point 8"):
        forward(net, np.zeros((2, 8, 4, 4), dtype=np.float32), MODE_EVAL, STAGE_META_TESTING, start=8)
    with pytest.raises(DimensionError, match="point 7"):
        forward(net, np.zeros((2, 8, 2, 2), dtype=np.float32), MODE_EVAL, STAGE_META_TESTING, start=7)


def test_reshape_head_changes_class_count():
    net = small_net("cosine")
    net.reshape_head(3, Rng(77))
    assert net.n_classes == 3
    x = np.zeros((1, 1, 32, 32), dtype=np.float32)
    assert forward(net, x, MODE_EVAL, STAGE_META_TESTING).shape == (1, 3)


# ---------------------------------------------------------------------------
# cosine head


def test_cosine_logit_of_own_class_vector():
    v = np.array([[0.6, 0.8], [1.0, 0.0]])
    logits = cosine_logits(Tensor(np.array([[0.6, 0.8]])), Tensor(v), scale=10.0)
    assert logits.data[0, 0] == pytest.approx(10.0, rel=1e-5)


def test_cosine_orthogonal_is_zero():
    v = np.array([[1.0, 0.0]])
    logits = cosine_logits(Tensor(np.array([[0.0, 2.0]])), Tensor(v), scale=7.0)
    assert abs(logits.data[0, 0]) < 1e-6


def test_cosine_scale_invariant_argmax():
    rng = Rng(15)
    v = rng.normal_array((5, 8))
    f = rng.normal_array((3, 8))
    a = cosine_logits(Tensor(f), Tensor(v), 10.0).data.argmax(axis=1)
    b = cosine_logits(Tensor(3.0 * f), Tensor(v), 10.0).data.argmax(axis=1)
    assert np.array_equal(a, b)


def test_cosine_zero_feature_guarded():
    v = Rng(16).normal_array((4, 6))
    logits = cosine_logits(Tensor(np.zeros((2, 6))), Tensor(v), 10.0)
    assert np.isfinite(logits.data).all()
    assert np.abs(logits.data).max() < 1e-5


# ---------------------------------------------------------------------------
# dropblock gamma


def test_gamma_keep_prob_one():
    assert dropblock_gamma(1.0, 3, 8) == 0.0


def test_gamma_block_one_reduces_to_bernoulli():
    for feat in (4, 9, 28):
        assert dropblock_gamma(0.8, 1, feat) == pytest.approx(0.2)


def test_gamma_block_covers_whole_map():
    # keep_prob .9, block 7 on a 7x7 map: (0.1/49) * (49/1) = 0.1 exactly
    assert dropblock_gamma(0.9, 7, 7) == pytest.approx(0.1, abs=1e-15)


def test_gamma_28x28():
    want = (0.1 / 49.0) * (784.0 / 484.0)
    assert dropblock_gamma(0.9, 7, 28) == pytest.approx(want, abs=1e-15)
    assert dropblock_gamma(0.9, 7, 28) == pytest.approx(0.0033057851239669416)


def test_gamma_validation():
    with pytest.raises(ConfigurationError):
        dropblock_gamma(0.0, 3, 8)
    with pytest.raises(ConfigurationError):
        dropblock_gamma(0.9, 4, 8)
    with pytest.raises(DimensionError):
        dropblock_gamma(0.9, 9, 8)


# ---------------------------------------------------------------------------
# dropout specs and masks


def spec(kind="standard", kp=0.9, places=("conv4",), stage=STAGE_META_TRAINING, block=1):
    return DropoutSpec(kind, kp, frozenset(places), stage, block)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        spec(kind="gauss")
    with pytest.raises(ConfigurationError):
        spec(kp=0.0)
    with pytest.raises(ConfigurationError):
        spec(kp=1.2)
    with pytest.raises(ConfigurationError):
        spec(places=())
    with pytest.raises(ConfigurationError):
        spec(stage="training")
    with pytest.raises(ConfigurationError):
        spec(kind="dropblock", block=4)
    with pytest.raises(ConfigurationError):
        spec(kind="standard", block=3)


def test_mask_keep_prob_one_all_ones_no_rng_use():
    rng = Rng(20)
    mask = make_dropout_mask(spec(kp=1.0), (3, 4, 4), rng)
    assert (mask.values == 1.0).all()
    # short-circuit must not consume randomness
    assert rng.next_u64() == Rng(20).next_u64()


def test_standard_mask_values_and_unbiasedness():
    s = spec(kind="standard", kp=0.7)
    rng = Rng(21)
    x = Rng(22).normal_array((6,))
    acc = np.zeros(6)
    n = 20000
    for _ in range(n):
        m = make_dropout_mask(s, (6,), rng, dtype=np.float64).values
        assert set(np.unique(m)) <= {0.0, 1.0 / 0.7}
        acc += m * x
    # inverted scaling keeps the expectation at x, within MC noise
    assert np.abs(acc / n - x).max() < 0.02 * max(1.0, np.abs(x).max())


def test_spatial_mask_constant_per_channel():
    s = spec(kind="spatial", kp=0.6)
    rng = Rng(23)
    for _ in range(50):
        m = make_dropout_mask(s, (4, 8, 8), rng, dtype=np.float64).values
        # each channel slice holds exactly one value: dropped or rescaled
        assert all(np.unique(m[c]).size == 1 for c in range(4))
        assert set(np.unique(m)) <= {0.0, 1.0 / 0.6}


def test_spatial_mask_needs_chw():
    with pytest.raises(ConfigurationError):
        make_dropout_mask(spec(kind="spatial", kp=0.5), (16,), Rng(0))


def test_dropblock_zeros_are_square_unions():
    s = spec(kind="dropblock", kp=0.7, block=3)
    rng = Rng(24)
    found_zero = False
    for _ in range(40):
        m = make_dropout_mask(s, (1, 12, 12), rng, dtype=np.float64).values[0]
        zeros = m == 0.0
        if not zeros.any():
            continue
        found_zero = True
        # every zero cell lies inside some fully-zero 3x3 square on the map
        for i, j in zip(*np.nonzero(zeros)):
            covered = False
            for r in range(max(0, i - 2), min(i, 9) + 1):
                for c in range(max(0, j - 2), min(j, 9) + 1):
                    if zeros[r : r + 3, c : c + 3].all():
                        covered = True
            assert covered, (i, j)
    assert found_zero


def test_dropblock_rescale_exact_per_draw():
    s = spec(kind="dropblock", kp=0.5, block=3)
    rng = Rng(25)
    for _ in range(30):
        m = make_dropout_mask(s, (1, 8, 8), rng, dtype=np.float64).values
        kept = np.count_nonzero(m)
        if kept:
            # survivors carry total/kept so the map mean stays 1
            assert m.sum() == pytest.approx(m.size)


def test_dropblock_kept_fraction_small_mc():
    s = spec(kind="dropblock", kp=0.9, block=7)
    rng = Rng(26)
    fracs = [
        (make_dropout_mask(s, (1, 28, 28), rng, dtype=np.float64).values != 0).mean()
        for _ in range(400)
    ]
    assert 0.85 <= float(np.mean(fracs)) <= 0.95


def test_mask_dtype_follows_request():
    m32 = make_dropout_mask(spec(kp=0.5), (8,), Rng(27), dtype=np.float32)
    m64 = make_dropout_mask(spec(kp=0.5), (8,), Rng(27), dtype=np.float64)
    assert m32.values.dtype == np.float32
    assert m64.values.dtype == np.float64


# ---------------------------------------------------------------------------
# forward-pass gating


def test_eval_mode_ignores_rng_state():
    net = small_net()
    x = Rng(30).normal_array((2, 1, 32, 32)).astype(np.float32)
    s = spec(kind="standard", kp=0.5, places=("conv3",))
    a = forward(net, x, MODE_EVAL, STAGE_META_TRAINING, (s,), Rng(1)).data
    b = forward(net, x, MODE_EVAL, STAGE_META_TRAINING, (s,), Rng(999)).data
    assert np.array_equal(a, b)


def test_keep_prob_one_bitwise_no_spec():
    net = small_net()
    x = Rng(31).normal_array((2, 1, 32, 32)).astype(np.float32)
    s = spec(kind="standard", kp=1.0, places=("conv2",))
    with_spec = forward(net, x, MODE_TRAIN, STAGE_META_TRAINING, (s,), Rng(5)).data
    without = forward(net, x, MODE_TRAIN, STAGE_META_TRAINING).data
    assert np.array_equal(with_spec, without)


def test_wrong_stage_spec_is_inert():
    net = small_net()
    x = Rng(32).normal_array((2, 1, 32, 32)).astype(np.float32)
    s = spec(kind="standard", kp=0.5, places=("conv4",), stage=STAGE_META_TRAINING)
    gated = forward(net, x, MODE_TRAIN, STAGE_META_TESTING, (s,), Rng(5)).data
    plain = forward(net, x, MODE_TRAIN, STAGE_META_TESTING).data
    assert np.array_equal(gated, plain)


def test_active_spec_changes_output():
    net = small_net()
    x = Rng(33).normal_array((2, 1, 32, 32)).astype(np.float32)
    s = spec(kind="standard", kp=0.5, places=("conv1",))
    masked = forward(net, x, MODE_TRAIN, STAGE_META_TRAINING, (s,), Rng(5)).data
    plain = forward(net, x, MODE_TRAIN, STAGE_META_TRAINING).data
    assert not np.array_equal(masked, plain)


def test_both_stage_fires_in_both():
    net = small_net()
    x = Rng(34).normal_array((1, 1, 32, 32)).astype(np.float32)
    s = spec(kind="standard", kp=0.5, places=("conv1",), stage="both")
    plain = forward(net, x, MODE_TRAIN, STAGE_META_TESTING).data
    masked = forward(net, x, MODE_TRAIN, STAGE_META_TESTING, (s,), Rng(6)).data
    assert not np.array_equal(masked, plain)


def test_active_spec_without_rng_rejected():
    net = small_net()
    x = np.zeros((1, 1, 32, 32), dtype=np.float32)
    s = spec(kind="standard", kp=0.5, places=("conv1",))
    with pytest.raises(ContractError):
        forward(net, x, MODE_TRAIN, STAGE_META_TRAINING, (s,))


def test_validate_specs_unknown_tag():
    net = small_net()
    with pytest.raises(ConfigurationError):
        validate_specs(net, (spec(places=("conv9",)),))


def test_validate_specs_dropblock_too_big():
    net = small_net()
    # conv4 activations are 4x4 pre-pool masks? placement extent is checked
    with pytest.raises(ConfigurationError):
        validate_specs(net, (spec(kind="dropblock", block=5, places=("conv4",)),))


def test_validate_specs_dropblock_on_flatten():
    net = small_net()
    with pytest.raises(ConfigurationError):
        validate_specs(net, (spec(kind="dropblock", block=1, places=("flatten",)),))


# ---------------------------------------------------------------------------
# partition


def test_partition_all_conv_meta():
    net = small_net()
    part = partition_params(net, {"conv1", "conv2", "conv3", "conv4"})
    assert set(part.task_ids) == {"head.weight", "head.bias"}
    assert len(part.meta_ids) == 8
    assert not set(part.meta_ids) & set(part.task_ids)
    assert set(part.meta_ids) | set(part.task_ids) == set(net.params())


def test_partition_empty_meta():
    net = small_net()
    part = partition_params(net, set())
    assert part.meta_ids == ()
    assert set(part.task_ids) == set(net.params())


def test_partition_rejects_head_tag():
    with pytest.raises(ConfigurationError):
        partition_params(small_net(), {"conv1", "head"})


def test_partition_rejects_unknown_tag():
    with pytest.raises(ConfigurationError):
        partition_params(small_net(), {"conv5"})
