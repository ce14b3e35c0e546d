"""Explanation methods and the map simplification pipeline."""

import numpy as np
import pytest

from apemkit.errors import InputShapeError, MethodInapplicableError
from apemkit.explain import (
    METHOD_NAMES,
    _SMOOTH_ROWS,
    RawAttribution,
    bilinear_resize,
    channel_sum,
    clamp_percentile,
    compute_map,
    gradient_map,
    lrp_epsilon_map,
    multiply_grayscale,
    nearest_rank_percentile,
    rescale_unit,
    simplify,
    smoothgrad_map,
)
from apemkit.netcore import Dense, Network, ReLU, forward, input_gradient

from conftest import random_dense_net, random_net


# ---------------------------------------------------------------------------
# SmoothGrad
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 10, 100])
def test_smoothgrad_sigma_zero_equals_gradient(n):
    net = random_net(1)
    rng = np.random.default_rng(2)
    image = rng.uniform(0, 1, (1, 8, 8))
    sg = smoothgrad_map(net, image, target=0, n=n, sigma=0.0).values
    g = gradient_map(net, image, target=0).values
    assert np.max(np.abs(sg - g)) <= 1e-12


def _noisy_gradient_loop(net, image, target, n, sigma, seed):
    # oracle: draw the same noise sequence from the same generator and
    # average individually computed gradient magnitudes in a plain loop
    noise_rng = np.random.default_rng(seed)
    acc = np.zeros_like(image)
    for _ in range(n):
        noisy = image + noise_rng.normal(0.0, sigma, size=image.shape)
        acc += np.abs(input_gradient(net, noisy, target))
    return acc / n


# n around the chunk size: one partial chunk, one full, full plus partial
@pytest.mark.parametrize("n", [1, _SMOOTH_ROWS - 1, _SMOOTH_ROWS, _SMOOTH_ROWS + 1,
                               2 * _SMOOTH_ROWS + 1])
def test_smoothgrad_equals_explicit_average_of_noisy_gradients(n):
    net = random_net(2)
    image = np.random.default_rng(5).uniform(0, 1, (1, 8, 8))
    got = smoothgrad_map(net, image, target=1, n=n, sigma=0.15, seed=42).values
    assert np.array_equal(got, _noisy_gradient_loop(net, image, 1, n, 0.15, 42))


@pytest.mark.parametrize("idx", [0, 1])
def test_smoothgrad_on_the_desk_model_equals_the_noisy_gradient_loop(desk_model, desk_test_set,
                                                                     idx):
    image = desk_test_set.images[idx]
    target = forward(desk_model, image).predicted_class
    got = smoothgrad_map(desk_model, image, n=100, sigma=0.2, seed=idx).values
    assert np.array_equal(got, _noisy_gradient_loop(desk_model, image, target, 100, 0.2, idx))


def test_smoothgrad_is_seed_deterministic():
    net = random_net(3)
    image = np.random.default_rng(1).uniform(0, 1, (1, 8, 8))
    a = smoothgrad_map(net, image, target=0, n=5, sigma=0.2, seed=9).values
    b = smoothgrad_map(net, image, target=0, n=5, sigma=0.2, seed=9).values
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# LRP
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_lrp_conservation_on_bias_free_nets(seed):
    # with epsilon=0 and no biases, each layer's relevance sum equals the
    # initial relevance (the target logit)
    net = random_net(seed, bias_free=True)
    rng = np.random.default_rng(seed + 30)
    image = rng.uniform(0.1, 1, (1, 8, 8))
    pred = forward(net, image).predicted_class
    _, sums = lrp_epsilon_map(net, image, target=pred, epsilon=0.0, return_layer_sums=True)
    logit = forward(net, image).logits[pred]
    for s in sums:
        assert abs(s - logit) < 1e-6 * max(1.0, abs(logit))


def test_lrp_single_dense_layer_hand_trace():
    # one linear layer, epsilon=0: relevance of input i is w[t,i]*x[i]
    w = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
    net = Network([Dense(w, np.zeros(2))], (3,))
    x = np.array([2.0, 1.0, 0.5])
    rel = lrp_epsilon_map(net, x, target=0, epsilon=0.0).values
    np.testing.assert_allclose(rel, [2.0, 2.0, -0.5], rtol=1e-12)
    assert abs(rel.sum() - forward(net, x).logits[0]) < 1e-12


def test_lrp_epsilon_shrinks_total_relevance():
    net = random_dense_net(9)
    x = np.random.default_rng(9).uniform(0.2, 1, 12)
    pred = forward(net, x).predicted_class
    logit = abs(forward(net, x).logits[pred])
    rel0 = np.abs(lrp_epsilon_map(net, x, target=pred, epsilon=0.0).values).sum()
    rel1 = np.abs(lrp_epsilon_map(net, x, target=pred, epsilon=1.0).values).sum()
    assert rel1 < rel0 + 1e-9
    assert logit > 0


def test_lrp_all_zero_input_gives_zero_map():
    net = random_net(4, bias_free=True)
    rel = lrp_epsilon_map(net, np.zeros((1, 8, 8)), target=0, epsilon=0.0).values
    np.testing.assert_array_equal(rel, np.zeros((1, 8, 8)))


# ---------------------------------------------------------------------------
# Grad-CAM plumbing
# ---------------------------------------------------------------------------


def test_bilinear_resize_identity_and_constant():
    g = np.random.default_rng(0).uniform(0, 1, (5, 7))
    np.testing.assert_allclose(bilinear_resize(g, 5, 7), g, rtol=1e-12)
    const = bilinear_resize(np.full((3, 3), 2.5), 9, 9)
    np.testing.assert_allclose(const, np.full((9, 9), 2.5), rtol=1e-12)


def test_bilinear_resize_linear_ramp_stays_linear():
    ramp = np.linspace(0, 1, 4)[None, :] * np.ones((4, 1))
    up = bilinear_resize(ramp, 4, 7)
    np.testing.assert_allclose(up[0], np.linspace(0, 1, 7), rtol=1e-12)


def test_gradcam_requires_a_conv_layer():
    net = random_dense_net(1)
    with pytest.raises(MethodInapplicableError):
        compute_map(net, np.zeros(12), "gradcam")


def test_gradcam_map_is_nonnegative_and_image_shaped():
    net = random_net(6)
    image = np.random.default_rng(6).uniform(0, 1, (1, 8, 8))
    cam = compute_map(net, image, "gradcam").values
    assert cam.shape == image.shape
    assert cam.min() >= 0


def test_guided_gradcam_is_product_of_parts():
    net = random_net(8)
    image = np.random.default_rng(8).uniform(0, 1, (1, 8, 8))
    pred = forward(net, image).predicted_class
    gg = compute_map(net, image, "guided_gradcam", target=pred).values
    guided = compute_map(net, image, "guided_backprop", target=pred).values
    cam = compute_map(net, image, "gradcam", target=pred).values
    np.testing.assert_allclose(gg, guided * cam, rtol=1e-12, atol=0)


def test_compute_map_rejects_unknown_method():
    net = random_net(0)
    with pytest.raises(MethodInapplicableError):
        compute_map(net, np.zeros((1, 8, 8)), "occlusion")


@pytest.mark.parametrize("method", METHOD_NAMES)
@pytest.mark.parametrize("target", [-1, 5])
def test_every_method_rejects_a_target_outside_the_classes(method, target):
    net = random_net(0)
    assert net.num_classes == 5
    with pytest.raises(InputShapeError, match="out of range"):
        compute_map(net, np.zeros((1, 8, 8)), method, target=target)


def test_all_methods_produce_image_shaped_maps(desk_model, desk_test_set):
    image = desk_test_set.images[0]
    for m in METHOD_NAMES:
        values = compute_map(desk_model, image, m, smooth_n=3).values
        assert values.shape == image.shape, m
        assert np.all(np.isfinite(values)), m


# ---------------------------------------------------------------------------
# Simplification pipeline
# ---------------------------------------------------------------------------


def test_nearest_rank_percentile_on_1_to_100():
    values = np.arange(1, 101, dtype=np.float64)
    assert nearest_rank_percentile(values, 99.0) == 99.0
    assert nearest_rank_percentile(values, 50.0) == 50.0
    assert nearest_rank_percentile(values, 100.0) == 100.0


def test_clamp_percentile_caps_top_values_only():
    values = np.arange(1, 101, dtype=np.float64).reshape(10, 10)
    clamped = clamp_percentile(values, 99.0)
    assert clamped.max() == 99.0
    assert (clamped != values).sum() == 1  # only the 100 got clamped


def test_channel_sum_single_channel_is_identity():
    m = np.random.default_rng(0).uniform(0, 1, (6, 6))
    np.testing.assert_array_equal(channel_sum(m), m)
    stacked = np.stack([m, 2 * m])
    np.testing.assert_allclose(channel_sum(stacked), 3 * m, rtol=1e-12)


def test_multiply_grayscale_uses_channel_mean():
    m = np.ones((4, 4))
    image = np.stack([np.full((4, 4), 0.2), np.full((4, 4), 0.6)])
    np.testing.assert_allclose(multiply_grayscale(m, image), np.full((4, 4), 0.4), rtol=1e-12)


def test_rescale_unit_affine_and_constant_cases():
    m = np.array([[2.0, 4.0], [6.0, 10.0]])
    out = rescale_unit(m)
    np.testing.assert_allclose(out, (m - 2) / 8, rtol=1e-12)
    np.testing.assert_array_equal(rescale_unit(np.full((3, 3), 7.0)), np.zeros((3, 3)))


def test_simplify_stages_compose_and_land_in_unit_interval():
    rng = np.random.default_rng(12)
    raw = RawAttribution(rng.uniform(0, 5, (1, 28, 28)))
    image = rng.uniform(0, 1, (1, 28, 28))
    for stage in (1, 2, 3):
        rmap = simplify(raw, image, stage=stage)
        assert rmap.stage == stage
        assert rmap.values.shape == (28, 28)
        assert rmap.values.min() >= 0 and rmap.values.max() <= 1

    # stage composition: stage 3 equals the hand-applied pipeline
    expected = rescale_unit(
        multiply_grayscale(clamp_percentile(channel_sum(raw.values)), image)
    )
    np.testing.assert_array_equal(simplify(raw, image, stage=3).values, expected)


def test_simplify_rejects_bad_stage_and_nonfinite_values():
    raw = RawAttribution(np.ones((1, 4, 4)))
    image = np.ones((1, 4, 4))
    with pytest.raises(InputShapeError):
        simplify(raw, image, stage=4)
    bad = RawAttribution(np.full((1, 4, 4), np.nan))
    with pytest.raises(InputShapeError):
        simplify(bad, image, stage=1)
