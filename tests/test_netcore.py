"""Network engine checks against independent oracles.

The forward oracle is a deliberately naive, loop-based evaluator written
separately from the vectorized engine; gradients are checked with central
finite differences.
"""

import itertools
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import apemkit
from apemkit.errors import InputShapeError, NumericError
from apemkit.netcore import (
    Conv2D,
    Dataset,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    _backward,
    _col2im,
    _im2col,
    _loss_seed,
    _trace_one,
    accuracy,
    certify_boxes,
    feature_map_gradient,
    forward,
    forward_logits_batch,
    guided_input_gradient,
    input_gradient,
    loss,
    softmax,
    train,
)

from conftest import random_dense_net, random_net


# ---------------------------------------------------------------------------
# Naive reference evaluator (the forward oracle)
# ---------------------------------------------------------------------------


def naive_forward(net, image):
    x = np.array(image, dtype=np.float64)
    for layer in net.layers:
        if layer.kind == "dense":
            v = x.reshape(-1)
            y = np.empty(layer.weight.shape[0])
            for o in range(layer.weight.shape[0]):
                acc = layer.bias[o]
                for i in range(layer.weight.shape[1]):
                    acc += layer.weight[o, i] * v[i]
                y[o] = acc
            x = y
        elif layer.kind == "conv2d":
            oc, ic, kh, kw = layer.weight.shape
            p, s = layer.padding, layer.stride
            c, h, w = x.shape
            xp = np.zeros((c, h + 2 * p, w + 2 * p))
            xp[:, p : p + h, p : p + w] = x
            oh = (h + 2 * p - kh) // s + 1
            ow = (w + 2 * p - kw) // s + 1
            y = np.empty((oc, oh, ow))
            for o in range(oc):
                for i in range(oh):
                    for j in range(ow):
                        acc = layer.bias[o]
                        for ci in range(ic):
                            for a in range(kh):
                                for b in range(kw):
                                    acc += layer.weight[o, ci, a, b] * xp[ci, i * s + a, j * s + b]
                        y[o, i, j] = acc
            x = y
        elif layer.kind == "relu":
            x = np.where(x > 0, x, 0.0)
        elif layer.kind == "maxpool2d":
            k, s = layer.size, layer.stride
            c, h, w = x.shape
            oh = (h - k) // s + 1
            ow = (w - k) // s + 1
            y = np.empty((c, oh, ow))
            for ci in range(c):
                for i in range(oh):
                    for j in range(ow):
                        y[ci, i, j] = x[ci, i * s : i * s + k, j * s : j * s + k].max()
            x = y
        elif layer.kind == "flatten":
            x = x.reshape(-1)
        else:  # pragma: no cover
            raise AssertionError(layer.kind)
    return x


@pytest.mark.parametrize("seed", range(8))
def test_forward_matches_naive_evaluator(seed):
    net = random_net(seed)
    rng = np.random.default_rng(seed + 100)
    image = rng.uniform(0, 1, (1, 8, 8))
    got = forward(net, image).logits
    want = naive_forward(net, image)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_matches_naive_on_strided_padded_conv():
    rng = np.random.default_rng(3)
    net = Network(
        [
            Conv2D(rng.normal(0, 0.5, (3, 2, 3, 3)), rng.normal(0, 0.1, 3), stride=2, padding=1),
            ReLU(),
            Flatten(),
            Dense(rng.normal(0, 0.5, (4, 3 * 5 * 5)), rng.normal(0, 0.1, 4)),
        ],
        (2, 9, 9),
    )
    image = rng.uniform(0, 1, (2, 9, 9))
    np.testing.assert_allclose(forward(net, image).logits, naive_forward(net, image), rtol=1e-12)


def _im2col_reference(layer, x):
    """Reference columns: a dense layer's flattened input as one column, a
    conv's by one 6-D sliding-window copy of the padded input."""
    if layer.kind == "dense":
        return x.reshape(len(x), -1, 1), ()
    b, c = x.shape[:2]
    kh, kw = layer.weight.shape[2:]
    p, s = layer.padding, layer.stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    oh, ow = win.shape[2:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, oh * ow), (oh, ow)


def _affine_cases(stride, padding):
    """(layer, x): convs over batch 1-5, channels 1-3 and kernels 1-3 by 1-3
    on a 7x6 input, then dense layers over batch 1-5 on a flat or 3-D input."""
    rng = np.random.default_rng(10 * stride + padding)
    for b, c, kh, kw in itertools.product(range(1, 6), range(1, 4), range(1, 4), range(1, 4)):
        layer = Conv2D(rng.normal(size=(2, c, kh, kw)), np.zeros(2), stride=stride,
                       padding=padding)
        yield layer, rng.normal(size=(b, c, 7, 6))
    for b, shape in itertools.product(range(1, 6), [(9,), (2, 7, 6)]):
        yield Dense(rng.normal(size=(3, int(np.prod(shape)))), np.zeros(3)), \
            rng.normal(size=(b, *shape))


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_im2col_equals_the_sliding_window_construction(stride, padding):
    for layer, x in _affine_cases(stride, padding):
        cols, shape = _im2col(layer, x)
        want, want_shape = _im2col_reference(layer, x)
        assert shape == want_shape
        assert cols.flags.c_contiguous
        assert np.array_equal(cols, want), (x.shape, layer.weight.shape)


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_col2im_is_the_adjoint_of_im2col(stride, padding):
    # <im2col(x), d> = <x, col2im(d)> for every x and d
    rng = np.random.default_rng(100 + 10 * stride + padding)
    for layer, x in _affine_cases(stride, padding):
        cols, _ = _im2col(layer, x)
        d = rng.normal(size=cols.shape)
        np.testing.assert_allclose(np.vdot(cols, d), np.vdot(x, _col2im(layer, d, x.shape)),
                                   rtol=1e-12)


def test_engine_calls_take_no_page_faults_once_the_cli_keeps_freed_heap():
    # glibc hands large freed blocks back to the kernel by default, so each
    # B=16 call faults about 850 pages in again; with the CLI's setting the
    # process reuses them. A fresh process, so no earlier test's heap counts.
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the allocator setting is glibc's mallopt")
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from apemkit.cli import keep_freed_heap
        from apemkit.netcore import build_desk_model, forward_logits_batch

        keep_freed_heap()
        net = build_desk_model()
        x = np.random.default_rng(0).uniform(0, 1, (16, 1, 28, 28))
        for _ in range(5):
            forward_logits_batch(net, x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            forward_logits_batch(net, x)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = str(Path(apemkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    faults = int(run.stdout.split()[-1])
    assert faults / 20 < 1, f"{faults} minor page faults in 20 calls"


def _assert_rows_equal_forward(net, images):
    # the epsilon search (batched rows) and the linear scan (forward) share
    # one evaluator, so a row's logits are bit-equal at any batch size
    batched = forward_logits_batch(net, images)
    for row, image in zip(batched, images):
        want = forward(net, image).logits
        assert np.array_equal(forward_logits_batch(net, image[None])[0], want)
        assert np.array_equal(row, want)


@pytest.mark.parametrize("seed", range(4))
def test_batched_forward_matches_per_sample_forward(seed):
    net = random_net(seed)
    rng = np.random.default_rng(seed + 400)
    _assert_rows_equal_forward(net, rng.uniform(0, 1, (13, 1, 8, 8)))


def test_batched_forward_dense_net_and_shape_rejection():
    net = random_dense_net(7)
    rng = np.random.default_rng(8)
    _assert_rows_equal_forward(net, rng.normal(size=(5, 12)))
    with pytest.raises(InputShapeError):
        forward_logits_batch(net, rng.normal(size=(5, 11)))


def test_batch_rows_equal_forward_exactly_on_desk_images(desk_model, desk_test_set):
    _assert_rows_equal_forward(desk_model, desk_test_set.images[:100])


@pytest.mark.parametrize("seed", range(3))
def test_certify_boxes_flags_do_not_depend_on_the_batch(seed):
    rng = np.random.default_rng(seed + 500)
    for net in (random_net(seed), random_dense_net(seed)):
        centres = rng.uniform(0, 1, (24,) + net.input_shape)
        widths = rng.choice([0.0, 1e-3, 1e-2, 1e-1], size=24)
        radii = widths.reshape((-1,) + (1,) * len(net.input_shape)) * rng.uniform(
            0, 1, centres.shape)
        lo, hi = centres - radii, centres + radii
        ref = forward(net, centres[0]).predicted_class
        flags = certify_boxes(net, lo, hi, ref)
        alone = [certify_boxes(net, lo[i:i + 1], hi[i:i + 1], ref)[0] for i in range(24)]
        assert flags.dtype == bool and list(flags) == alone
        assert flags.any() and not flags.all()
        # a certified box keeps the reference class at its centre
        assert all(forward(net, c).predicted_class == ref for c in centres[flags])


def test_certify_boxes_rejects_mismatched_bounds():
    net = random_dense_net(1)
    lo = np.zeros((2, 12))
    with pytest.raises(InputShapeError):
        certify_boxes(net, lo, np.zeros((3, 12)), 0)
    with pytest.raises(InputShapeError):
        certify_boxes(net, lo, np.zeros((2, 11)), 0)
    with pytest.raises(InputShapeError):
        certify_boxes(net, np.zeros((2, 11)), np.zeros((2, 11)), 0)


def test_only_the_epsilon_search_calls_forward_logits_batch(monkeypatch):
    # the benchmark's tracer counts every call through this name as search
    # rows, so the package's other entry points must reach the engine directly
    import apemkit.cli  # noqa: F401  (loads every module that might import the name)
    from apemkit import netcore
    from apemkit.explain import METHOD_NAMES, compute_map

    original = netcore.forward_logits_batch

    def refuse(*args, **kwargs):
        raise AssertionError("forward_logits_batch called outside the epsilon search")

    patched = 0
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "apemkit" and getattr(module, "forward_logits_batch", None) is original:
            monkeypatch.setattr(module, "forward_logits_batch", refuse)
            patched += 1
    assert patched >= 2  # netcore and apem at least

    net = random_net(5, n_classes=2)
    image = np.random.default_rng(5).uniform(0, 1, (1, 8, 8))
    forward(net, image)
    input_gradient(net, image, 1)
    guided_input_gradient(net, image, 1)
    feature_map_gradient(net, image, 1, 0)
    for method in METHOD_NAMES:
        compute_map(net, image, method, smooth_n=3)
    train(net, _blob_toy_dataset(20), epochs=1, lr=0.1, seed=0)


def test_trained_desk_model_matches_naive_evaluator(desk_model, desk_test_set):
    image = desk_test_set.images[0]
    pred = forward(desk_model, image)
    logits = naive_forward(desk_model, image)
    np.testing.assert_allclose(pred.logits, logits, rtol=1e-10)
    assert pred.predicted_class == int(np.argmax(logits))


# ---------------------------------------------------------------------------
# Gradients vs central finite differences
# ---------------------------------------------------------------------------


def fd_loss_gradient(net, image, label, h=1e-6):
    g = np.zeros_like(image)
    it = np.nditer(image, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        hi = image.copy()
        lo = image.copy()
        hi[idx] += h
        lo[idx] -= h
        g[idx] = (loss(forward(net, hi), label) - loss(forward(net, lo), label)) / (2 * h)
        it.iternext()
    return g


@pytest.mark.parametrize("seed", range(6))
def test_input_gradient_matches_finite_differences(seed):
    net = random_net(seed)
    rng = np.random.default_rng(seed + 50)
    image = rng.uniform(0.1, 0.9, (1, 8, 8))
    label = seed % 5
    exact = input_gradient(net, image, label)
    approx = fd_loss_gradient(net, image, label)
    denom = np.maximum(np.abs(exact), 1e-8)
    assert np.max(np.abs(exact - approx) / denom) < 1e-4


def test_input_gradient_dense_net_matches_finite_differences():
    net = random_dense_net(11)
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, 12)
    exact = input_gradient(net, x, 2)
    approx = fd_loss_gradient(net, x, 2)
    np.testing.assert_allclose(exact, approx, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("seed", range(3))
def test_weight_gradients_match_finite_differences(seed, h=1e-6):
    net = random_net(seed)
    image = np.random.default_rng(seed + 70).uniform(0.1, 0.9, (1, 8, 8))
    label = seed % 5
    logits, trace = _trace_one(net, image)
    grads = []
    _backward(net, trace, _loss_seed(logits, label)[None], grads=grads)
    assert [layer.kind for layer, _, _ in grads] == ["dense", "conv2d"]
    for layer, dw, db in grads:
        for param, exact in ((layer.weight, dw), (layer.bias, db)):
            assert exact.shape == param.shape
            approx = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                saved = param[idx]
                param[idx] = saved + h
                up = loss(forward(net, image), label)
                param[idx] = saved - h
                down = loss(forward(net, image), label)
                param[idx] = saved
                approx[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(exact, approx, rtol=1e-5, atol=1e-8)


def test_guided_gradient_zeros_negative_backward_signals():
    # one relu between two dense layers; guided backward must differ from
    # plain backward exactly where the incoming signal is negative
    w1 = np.array([[1.0, -1.0], [2.0, 0.5]])
    w2 = np.array([[1.0, -3.0], [0.5, 1.0]])
    net = Network([Dense(w1, np.zeros(2)), ReLU(), Dense(w2, np.zeros(2))], (2,))
    x = np.array([1.0, 0.5])
    plain = input_gradient(net, x, 0)
    guided = guided_input_gradient(net, x, 0)

    # replicate by hand: d = softmax - onehot, back through w2, clip at relu
    logits = forward(net, x).logits
    d = softmax(logits)
    d[0] -= 1.0
    back = w2.T @ d
    pre = w1 @ x
    plain_ref = w1.T @ (back * (pre > 0))
    guided_ref = w1.T @ (back * (pre > 0) * (back > 0))
    np.testing.assert_allclose(plain, plain_ref, rtol=1e-12)
    np.testing.assert_allclose(guided, guided_ref, rtol=1e-12)


def test_feature_map_gradient_matches_tail_replay_fd():
    net = random_net(7)
    rng = np.random.default_rng(7)
    image = rng.uniform(0, 1, (1, 8, 8))
    layer_index = 0
    acts, grad = feature_map_gradient(net, image, 2, layer_index)

    def tail_logit(a):
        return forward_logits_batch(net, a[None], start=layer_index + 1)[0, 2]

    h = 1e-6
    rng2 = np.random.default_rng(8)
    for _ in range(20):
        idx = tuple(rng2.integers(0, s) for s in acts.shape)
        hi = acts.copy()
        lo = acts.copy()
        hi[idx] += h
        lo[idx] -= h
        fd = (tail_logit(hi) - tail_logit(lo)) / (2 * h)
        assert abs(grad[idx] - fd) < 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# Layer behaviors
# ---------------------------------------------------------------------------


def _pool_net(size, stride, input_shape, weight):
    pool = MaxPool2D(size, stride)
    flat = int(np.prod(pool.output_shape(input_shape)))
    return Network([pool, Flatten(), Dense(weight.reshape(-1, flat), np.zeros(len(weight)))],
                   input_shape)


def test_maxpool_routes_gradient_to_first_maximum_on_ties():
    net = _pool_net(2, 2, (1, 2, 2), np.array([[2.0], [-1.0]]))
    x = np.ones((1, 2, 2))  # all-tied window
    np.testing.assert_array_equal(forward(net, x).logits, [2.0, -1.0])
    dx = input_gradient(net, x, 1)
    d = softmax(np.array([2.0, -1.0]))
    d[1] -= 1.0
    g = 2.0 * d[0] - 1.0 * d[1]  # dJ/d(pooled value)
    # first maximum in row-major order gets the whole gradient
    np.testing.assert_allclose(dx[0, 0, 0], g, rtol=1e-15)
    np.testing.assert_array_equal(dx[0].ravel()[1:], 0.0)


def test_maxpool_overlapping_stride():
    net = _pool_net(2, 1, (1, 3, 3), np.eye(4))
    x = np.arange(9, dtype=np.float64).reshape(1, 3, 3)
    np.testing.assert_array_equal(forward(net, x).logits, [4, 5, 7, 8])


def test_input_gradient_through_overlapping_maxpool_matches_finite_differences():
    rng = np.random.default_rng(21)
    net = Network(
        [
            Conv2D(rng.normal(0, 0.5, (2, 1, 3, 3)), rng.normal(0, 0.1, 2), padding=1),
            ReLU(),
            MaxPool2D(2, stride=1),
            Flatten(),
            Dense(rng.normal(0, 0.5, (3, 2 * 5 * 5)), rng.normal(0, 0.1, 3)),
        ],
        (1, 6, 6),
    )
    image = rng.uniform(0.1, 0.9, (1, 6, 6))
    # the case this covers: some activation is the maximum of several windows
    acts = np.maximum(feature_map_gradient(net, image, 0, 0)[0], 0.0)
    wins = np.lib.stride_tricks.sliding_window_view(acts, (2, 2), axis=(1, 2))
    first = wins.reshape(2, 5, 5, 4).argmax(axis=-1)
    winners = {(c, i + t // 2, j + t % 2) for (c, i, j), t in np.ndenumerate(first)}
    assert len(winners) < first.size
    for label in range(3):
        exact = input_gradient(net, image, label)
        approx = fd_loss_gradient(net, image, label)
        np.testing.assert_allclose(exact, approx, rtol=1e-5, atol=1e-8)


def test_softmax_is_shift_invariant_and_stable():
    z = np.array([1000.0, 1001.0, 999.0])
    p = softmax(z)
    assert np.all(np.isfinite(p)) and abs(p.sum() - 1) < 1e-12
    np.testing.assert_allclose(p, softmax(z - 1000.0), rtol=1e-12)


def test_predicted_class_ties_break_to_lowest_index():
    net = Network([Dense(np.zeros((3, 2)), np.zeros(3))], (2,))
    assert forward(net, np.array([0.3, 0.7])).predicted_class == 0


def test_network_rejects_mismatched_shapes():
    with pytest.raises(InputShapeError):
        Network([Dense(np.zeros((3, 5)), np.zeros(3))], (4,))
    net = random_net(0)
    with pytest.raises(InputShapeError):
        forward(net, np.zeros((1, 9, 9)))


def test_loss_is_negative_log_probability():
    net = random_dense_net(4)
    x = np.full(12, 0.5)
    pred = forward(net, x)
    assert abs(loss(pred, 1) + np.log(pred.probabilities[1])) < 1e-12


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _blob_toy_dataset(n=120, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    images = np.zeros((n, 1, 8, 8))
    for i, lbl in enumerate(labels):
        if lbl == 0:
            images[i, 0, 1:3, 1:3] = 1.0
        else:
            images[i, 0, 5:7, 5:7] = 1.0
        images[i, 0] = np.clip(images[i, 0] + rng.normal(0, 0.05, (8, 8)), 0, 1)
    return Dataset(images=images, labels=labels.astype(np.int64))


def test_train_is_deterministic_and_learns_separable_data():
    ds = _blob_toy_dataset()
    net1 = train(random_net(1, n_classes=2), ds, epochs=2, lr=0.1, seed=3)
    net2 = train(random_net(1, n_classes=2), ds, epochs=2, lr=0.1, seed=3)
    for a, b in zip(net1.layers, net2.layers):
        if hasattr(a, "weight"):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
    assert accuracy(net1, _blob_toy_dataset(seed=9)) > 0.95


def test_train_zero_epochs_returns_equal_weights_without_mutation():
    ds = _blob_toy_dataset(20)
    net = random_net(2, n_classes=2)
    before = [np.array(l.weight) for l in net.layers if hasattr(l, "weight")]
    out = train(net, ds, epochs=0, lr=0.1, seed=0)
    after = [l.weight for l in out.layers if hasattr(l, "weight")]
    for b, a in zip(before, after):
        np.testing.assert_array_equal(b, a)
    # the input network itself is never mutated either
    for b, l in zip(before, [l for l in net.layers if hasattr(l, "weight")]):
        np.testing.assert_array_equal(b, l.weight)


def test_train_rejects_a_label_outside_the_classes_before_any_step(monkeypatch):
    from apemkit import netcore

    def refuse(*args):
        raise AssertionError("an SGD step ran")

    monkeypatch.setattr(netcore, "_sgd_step", refuse)
    net = random_net(2, n_classes=2)
    for bad, message in (([0, 1, 1, 12, 0, 7], "label 12 of sample 3"),
                         ([0, -1, 1, 0, 1, 0], "label -1 of sample 1")):
        ds = Dataset(images=_blob_toy_dataset(6).images, labels=np.array(bad))
        with pytest.raises(InputShapeError, match=message):
            train(net, ds, epochs=1, lr=0.1, seed=0)


def test_train_rejects_images_of_another_shape_before_any_step(monkeypatch):
    from apemkit import netcore

    def refuse(*args):
        raise AssertionError("an SGD step ran")

    monkeypatch.setattr(netcore, "_sgd_step", refuse)
    ds = Dataset(images=np.zeros((4, 1, 10, 10)), labels=np.zeros(4, dtype=np.int64))
    with pytest.raises(InputShapeError, match=r"\(1, 10, 10\) do not match network input"):
        train(random_net(2, n_classes=2), ds, epochs=1, lr=0.1, seed=0)


def test_train_raises_on_non_finite_loss():
    ds = _blob_toy_dataset(30)
    net = random_net(3, n_classes=2)
    net.layers[-1].weight[:] = 1e308  # forces logit overflow on step one
    with pytest.raises(NumericError):
        train(net, ds, epochs=1, lr=0.1, seed=0)
