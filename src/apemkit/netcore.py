"""Minimal feed-forward network engine.

Five layer kinds (dense, conv2d, relu, maxpool2d, flatten), single-sample
forward/backward in float64, exact input gradients, and a plain SGD trainer.
Networks are immutable after construction: forward/backward never mutate
layer state, so concurrent reads are safe.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    InputShapeError,
    MethodInapplicableError,
    NumericError,
    UnsupportedArchitectureError,
)

# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Dense:
    kind = "dense"

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        # weight: (out, in), bias: (out,)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise InputShapeError("dense weight must be (out, in) with matching bias")

    def output_shape(self, input_shape):
        if int(np.prod(input_shape)) != self.weight.shape[1]:
            raise InputShapeError(
                f"dense expects {self.weight.shape[1]} inputs, got shape {input_shape}"
            )
        return (self.weight.shape[0],)

    def forward(self, x):
        x = x.reshape(-1)
        return self.weight @ x + self.bias, x

    def backward(self, dy, cache, guided=False):
        x = cache
        dx = self.weight.T @ dy
        dw = np.outer(dy, x)
        return dx, {"weight": dw, "bias": dy.copy()}


class Conv2D:
    kind = "conv2d"

    def __init__(self, weight: np.ndarray, bias: np.ndarray, stride: int = 1, padding: int = 0):
        # weight: (out_c, in_c, kh, kw), bias: (out_c,)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weight.ndim != 4 or self.bias.shape != (self.weight.shape[0],):
            raise InputShapeError("conv2d weight must be (out_c, in_c, kh, kw)")
        if stride < 1:
            raise InputShapeError("conv2d stride must be >= 1")
        self.stride = int(stride)
        self.padding = int(padding)

    def output_shape(self, input_shape):
        c, h, w = input_shape
        oc, ic, kh, kw = self.weight.shape
        if c != ic:
            raise InputShapeError(f"conv2d expects {ic} channels, got {c}")
        oh = (h + 2 * self.padding - kh) // self.stride + 1
        ow = (w + 2 * self.padding - kw) // self.stride + 1
        if oh < 1 or ow < 1:
            raise InputShapeError("conv2d kernel larger than padded input")
        return (oc, oh, ow)

    def _im2col(self, x):
        c, h, w = x.shape
        oc, ic, kh, kw = self.weight.shape
        p, s = self.padding, self.stride
        xp = np.pad(x, ((0, 0), (p, p), (p, p))) if p else x
        oh = (h + 2 * p - kh) // s + 1
        ow = (w + 2 * p - kw) // s + 1
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        windows = windows[:, ::s, ::s]  # (c, oh, ow, kh, kw)
        cols = windows.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, oh * ow)
        return np.ascontiguousarray(cols), (oh, ow)

    def forward(self, x):
        cols, (oh, ow) = self._im2col(x)
        wmat = self.weight.reshape(self.weight.shape[0], -1)
        y = (wmat @ cols + self.bias[:, None]).reshape(-1, oh, ow)
        return y, (x.shape, cols)

    def backward(self, dy, cache, guided=False):
        x_shape, cols = cache
        oc, ic, kh, kw = self.weight.shape
        dy_mat = dy.reshape(oc, -1)
        wmat = self.weight.reshape(oc, -1)
        dw = (dy_mat @ cols.T).reshape(self.weight.shape)
        db = dy_mat.sum(axis=1)
        dcols = wmat.T @ dy_mat  # (ic*kh*kw, oh*ow)
        dx = self._col2im(dcols, x_shape, dy.shape[1:])
        return dx, {"weight": dw, "bias": db}

    def _col2im(self, dcols, x_shape, out_hw):
        c, h, w = x_shape
        oc, ic, kh, kw = self.weight.shape
        p, s = self.padding, self.stride
        oh, ow = out_hw
        dxp = np.zeros((c, h + 2 * p, w + 2 * p))
        dcols = dcols.reshape(c, kh, kw, oh, ow)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + s * oh : s, j : j + s * ow : s] += dcols[:, i, j]
        return dxp[:, p : p + h, p : p + w] if p else dxp


class ReLU:
    kind = "relu"

    def output_shape(self, input_shape):
        return tuple(input_shape)

    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, dy, cache, guided=False):
        mask = cache > 0
        if guided:
            mask = mask & (dy > 0)
        return dy * mask, None


class MaxPool2D:
    kind = "maxpool2d"

    def __init__(self, size: int = 2, stride: int | None = None):
        if size < 1:
            raise InputShapeError("maxpool2d size must be >= 1")
        self.size = int(size)
        self.stride = int(stride) if stride is not None else int(size)
        if self.stride < 1:
            raise InputShapeError("maxpool2d stride must be >= 1")

    def output_shape(self, input_shape):
        c, h, w = input_shape
        oh = (h - self.size) // self.stride + 1
        ow = (w - self.size) // self.stride + 1
        if oh < 1 or ow < 1:
            raise InputShapeError("maxpool2d window larger than input")
        return (c, oh, ow)

    def forward(self, x):
        k, s = self.size, self.stride
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]
        c, oh, ow = windows.shape[:3]
        flat = windows.reshape(c, oh, ow, k * k)
        # argmax over the flattened window takes the first maximum in
        # row-major order, which fixes the gradient routing on ties
        idx = np.argmax(flat, axis=-1)
        y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        return y, (x.shape, idx)

    def backward(self, dy, cache, guided=False):
        x_shape, idx = cache
        k, s = self.size, self.stride
        c, oh, ow = dy.shape
        dx = np.zeros(x_shape)
        ci, oi, oj = np.meshgrid(
            np.arange(c), np.arange(oh), np.arange(ow), indexing="ij"
        )
        ri = oi * s + idx // k
        rj = oj * s + idx % k
        np.add.at(dx, (ci.ravel(), ri.ravel(), rj.ravel()), dy.ravel())
        return dx, None


class Flatten:
    kind = "flatten"

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)

    def forward(self, x):
        return x.reshape(-1), x.shape

    def backward(self, dy, cache, guided=False):
        return dy.reshape(cache), None


LAYER_KINDS = ("dense", "conv2d", "relu", "maxpool2d", "flatten")
_PARAM_LAYERS = (Dense, Conv2D)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class Network:
    """Ordered layer list with a fixed input shape.

    Shapes are validated at construction: every layer must compose with the
    previous one and the final layer must be dense.
    """

    def __init__(self, layers, input_shape):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        if not self.layers:
            raise InputShapeError("network needs at least one layer")
        for layer in self.layers:
            if layer.kind not in LAYER_KINDS:
                raise UnsupportedArchitectureError(f"unsupported layer kind: {layer.kind!r}")
        if self.layers[-1].kind != "dense":
            raise UnsupportedArchitectureError("final layer must be dense (class logits)")
        shape = self.input_shape
        self.layer_shapes = [shape]
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self.layer_shapes.append(shape)
        self.num_classes = int(shape[0])

    def copy(self):
        return copy.deepcopy(self)

    def conv_layer_indices(self):
        return [i for i, l in enumerate(self.layers) if l.kind == "conv2d"]


def build_desk_model(image_size: int = 28, n_classes: int = 10, seed: int = 0) -> Network:
    """2 conv + 1 dense CNN sized for small grayscale images."""
    rng = np.random.default_rng(seed)
    if image_size % 4 != 0:
        raise ConfigError(f"image_size must be divisible by 4, got {image_size}")
    c1, c2 = 8, 16
    w1 = rng.normal(0, np.sqrt(2.0 / 9), size=(c1, 1, 3, 3))
    w2 = rng.normal(0, np.sqrt(2.0 / (c1 * 9)), size=(c2, c1, 3, 3))
    flat = c2 * (image_size // 4) ** 2
    w3 = rng.normal(0, np.sqrt(1.0 / flat), size=(n_classes, flat))
    layers = [
        Conv2D(w1, np.zeros(c1), stride=1, padding=1),
        ReLU(),
        MaxPool2D(2),
        Conv2D(w2, np.zeros(c2), stride=1, padding=1),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(w3, np.zeros(n_classes)),
    ]
    return Network(layers, (1, image_size, image_size))


@dataclass(frozen=True)
class Prediction:
    logits: np.ndarray
    probabilities: np.ndarray
    predicted_class: int
    confidence: float


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits)
    e = np.exp(z)
    return e / e.sum()


def _check_input(net: Network, image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.shape != net.input_shape:
        raise InputShapeError(
            f"input shape {image.shape} does not match network input {net.input_shape}"
        )
    return image


def _forward_trace(net: Network, image: np.ndarray):
    """Run all layers, returning (logits, per-layer outputs, caches)."""
    x = image
    outputs = []
    caches = []
    for layer in net.layers:
        x, cache = layer.forward(x)
        outputs.append(x)
        caches.append(cache)
    return x, outputs, caches


def forward(net: Network, image: np.ndarray) -> Prediction:
    image = _check_input(net, image)
    logits, _, _ = _forward_trace(net, image)
    probs = softmax(logits)
    pred = int(np.argmax(probs))  # first maximum: lowest-index tie-break
    return Prediction(
        logits=logits,
        probabilities=probs,
        predicted_class=pred,
        confidence=float(probs[pred]),
    )


def forward_logits_batch(net: Network, images: np.ndarray, start: int = 0) -> np.ndarray:
    """Logits for a batch of images (B, *input_shape) -> (B, n_classes).

    Vectorized across the batch; used by the epsilon search to evaluate
    many points along a perturbation ray at once. With start > 0 the batch
    is taken as the activations entering layer `start` (callers that have
    already evaluated the leading layers).
    """
    x = np.asarray(images, dtype=np.float64)
    if start == 0 and x.shape[1:] != net.input_shape:
        raise InputShapeError(f"batch shape {x.shape[1:]} != input shape {net.input_shape}")
    b = x.shape[0]
    for layer in net.layers[start:]:
        if layer.kind == "dense":
            x = x.reshape(b, -1) @ layer.weight.T + layer.bias
        elif layer.kind == "conv2d":
            p, s = layer.padding, layer.stride
            kh, kw = layer.weight.shape[2:]
            xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
            win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
            win = win[:, :, ::s, ::s]  # (b, c, oh, ow, kh, kw)
            y = np.tensordot(win, layer.weight, axes=([1, 4, 5], [1, 2, 3]))
            x = y.transpose(0, 3, 1, 2) + layer.bias[None, :, None, None]
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "maxpool2d":
            k, s = layer.size, layer.stride
            win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
            x = win[:, :, ::s, ::s].max(axis=(-2, -1))
        elif layer.kind == "flatten":
            x = x.reshape(b, -1)
        else:  # pragma: no cover
            raise UnsupportedArchitectureError(f"unknown layer kind {layer.kind!r}")
    return x


def loss(pred: Prediction, label: int) -> float:
    """Cross-entropy -log p(label)."""
    if not 0 <= label < len(pred.probabilities):
        raise InputShapeError(f"label {label} out of range for {len(pred.probabilities)} classes")
    with np.errstate(divide="ignore"):
        return float(-np.log(pred.probabilities[label]))


def _backward_from_logits(net, caches, dlogits, guided=False):
    dy = dlogits
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        dy, _ = layer.backward(dy, cache, guided=guided)
    return dy


def _loss_seed(logits: np.ndarray, label: int) -> np.ndarray:
    """dJ/dlogits of the cross-entropy at class `label`: softmax minus one-hot."""
    d = softmax(logits)
    d[label] -= 1.0
    return d


def _gradient(net: Network, image: np.ndarray, label: int, guided: bool) -> np.ndarray:
    image = _check_input(net, image)
    if not 0 <= label < net.num_classes:
        raise InputShapeError(f"label {label} out of range for {net.num_classes} classes")
    logits, _, caches = _forward_trace(net, image)
    return _backward_from_logits(net, caches, _loss_seed(logits, label), guided=guided)


def input_gradient(net: Network, image: np.ndarray, label: int) -> np.ndarray:
    """Exact dJ/dx for cross-entropy loss J at class `label`."""
    return _gradient(net, image, label, guided=False)


def guided_input_gradient(net: Network, image: np.ndarray, label: int) -> np.ndarray:
    """As input_gradient, but relu layers also zero negative backward signals."""
    return _gradient(net, image, label, guided=True)


def feature_map_gradient(net: Network, image: np.ndarray, class_index: int, layer_index: int):
    """Activation of a conv layer and d(logit of class_index)/d(activation).

    The differentiated quantity is the raw class score, not the loss.
    Callers computing class-activation maps pass the predicted class.
    """
    image = _check_input(net, image)
    if not 0 <= layer_index < len(net.layers) or net.layers[layer_index].kind != "conv2d":
        raise MethodInapplicableError(f"layer {layer_index} is not a conv2d layer")
    if not 0 <= class_index < net.num_classes:
        raise InputShapeError(f"class {class_index} out of range")
    _, outputs, caches = _forward_trace(net, image)
    dy = np.zeros(net.num_classes)
    dy[class_index] = 1.0
    for i in range(len(net.layers) - 1, layer_index, -1):
        dy, _ = net.layers[i].backward(dy, caches[i], guided=False)
    return outputs[layer_index], dy


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    images: np.ndarray  # (n, c, h, w) in [0, 1]
    labels: np.ndarray  # (n,) int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise InputShapeError("image/label counts differ")
        if not np.isfinite(self.images).all():
            raise InputShapeError("pixel values must be finite")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise InputShapeError("pixel values must lie in [0, 1]")

    def __len__(self):
        return len(self.images)


def _sgd_step(net, image, label, lr):
    logits, _, caches = _forward_trace(net, image)
    m = np.max(logits)
    j = float(np.log(np.exp(logits - m).sum()) + m - logits[label])
    dy = _loss_seed(logits, label)
    grads = []
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        dy, g = layer.backward(dy, cache, guided=False)
        grads.append((layer, g))
    for layer, g in grads:
        if g is not None:
            layer.weight -= lr * g["weight"]
            layer.bias -= lr * g["bias"]
    return j


def train(net: Network, dataset: Dataset, epochs: int, lr: float, seed: int) -> Network:
    """Plain per-sample SGD on cross-entropy. Deterministic given seed."""
    if len(dataset) == 0:
        raise InputShapeError("cannot train on an empty dataset")
    out = net.copy()
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        for i in order:
            j = _sgd_step(out, dataset.images[i], int(dataset.labels[i]), lr)
            if not np.isfinite(j):
                raise NumericError(
                    f"non-finite loss {j} at epoch {epoch}, sample {int(i)}; "
                    f"try a smaller learning rate (lr={lr})"
                )
    return out


def accuracy(net: Network, dataset: Dataset) -> float:
    if len(dataset) == 0:
        raise InputShapeError("empty dataset")
    hits = sum(
        forward(net, img).predicted_class == int(lbl)
        for img, lbl in zip(dataset.images, dataset.labels)
    )
    return hits / len(dataset)
