"""Minimal feed-forward network engine.

Five layer kinds (dense, conv2d, relu, maxpool2d, flatten), which hold only
their parameters, and one batched float64 forward/backward over (B, ...)
arrays that every function here runs on, single images at B=1: predictions,
exact input gradients, LRP's activations, the interval bounds of the epsilon
search's segment certificate and a plain SGD trainer. A row's result does
not depend on the batch it is in. Only the SGD step mutates layers, so
concurrent reads are safe.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

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


class Layer:
    """A layer kind. `params` names its hyperparameters, constructor keywords
    and attributes alike; an affine kind first takes a weight and a bias."""

    params: tuple[str, ...] = ()
    affine = False

    def hyperparameters(self) -> dict:
        return {name: getattr(self, name) for name in self.params}


class Dense(Layer):
    kind, affine = "dense", True

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


class Conv2D(Layer):
    kind, params, affine = "conv2d", ("stride", "padding"), True

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


class ReLU(Layer):
    kind = "relu"

    def output_shape(self, input_shape):
        return tuple(input_shape)


class MaxPool2D(Layer):
    kind, params = "maxpool2d", ("size", "stride")

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


class Flatten(Layer):
    kind = "flatten"

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)


LAYERS = {cls.kind: cls for cls in (Dense, Conv2D, ReLU, MaxPool2D, Flatten)}


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
            if layer.kind not in LAYERS:
                raise UnsupportedArchitectureError(f"unsupported layer kind: {layer.kind!r}")
        if self.layers[-1].kind != "dense":
            raise UnsupportedArchitectureError("final layer must be dense (class logits)")
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
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


# ---------------------------------------------------------------------------
# Engine: one batched forward and backward over (B, ...)
# ---------------------------------------------------------------------------


def _im2col(layer: Dense | Conv2D, x: np.ndarray):
    """Columns of an affine layer's input and the output's spatial shape.

    A conv's (B, c, h, w) gives (B, c*kh*kw, oh*ow), one column per output
    pixel, built by one strided slice copy per kernel offset, the loop
    _col2im runs in reverse; at small B this costs less than one 6-D
    sliding-window copy. A dense layer's one column is its flattened input.
    """
    if layer.kind == "dense":
        return x.reshape(len(x), -1, 1), ()
    b, c, h, w = x.shape
    kh, kw = layer.weight.shape[2:]
    p, s = layer.padding, layer.stride
    xp = x
    if p:
        xp = np.zeros((b, c, h + 2 * p, w + 2 * p))
        xp[:, :, p : p + h, p : p + w] = x
    _, oh, ow = layer.output_shape(x.shape[1:])
    cols = np.empty((b, c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + s * oh : s, j : j + s * ow : s]
    return cols.reshape(b, c * kh * kw, oh * ow), (oh, ow)


def _col2im(layer: Dense | Conv2D, dcols: np.ndarray, x_shape) -> np.ndarray:
    """Adjoint of _im2col: adds every column entry back onto its input pixel."""
    if layer.kind == "dense":
        return dcols.reshape(x_shape)
    b, c, h, w = x_shape
    _, oh, ow = layer.output_shape(x_shape[1:])
    kh, kw = layer.weight.shape[2:]
    p, s = layer.padding, layer.stride
    dxp = np.zeros((b, c, h + 2 * p, w + 2 * p))
    dcols = dcols.reshape(b, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += dcols[:, :, i, j]
    return dxp[:, :, p : p + h, p : p + w] if p else dxp


def _pool_slices(layer: MaxPool2D, x: np.ndarray):
    """Views of x, one per window offset t = i*size + j: offset (i, j) of every window."""
    k, s = layer.size, layer.stride
    _, oh, ow = layer.output_shape(x.shape[1:])
    for i in range(k):
        for j in range(k):
            yield x[:, :, i : i + s * (oh - 1) + 1 : s, j : j + s * (ow - 1) + 1 : s]


def _unpool(layer: MaxPool2D, dy: np.ndarray, idx: np.ndarray, x_shape) -> np.ndarray:
    """Routes each window's dy to its first maximum."""
    dx = np.zeros(x_shape)
    for t, view in enumerate(_pool_slices(layer, dx)):
        view += np.where(idx == t, dy, 0.0)
    return dx


def _layer_forward(layer: Layer, x: np.ndarray, route: bool = False):
    """Output of one layer for the batch x, and with route the aux _backward
    needs: an affine layer's columns or a max-pool's first-maximum offsets."""
    b = x.shape[0]
    aux = None
    if layer.affine:
        # one matrix product per row: a row's output is bit-equal at any
        # batch size, which one product over the whole batch would not give
        cols, spatial = _im2col(layer, x)
        wmat = layer.weight.reshape(layer.weight.shape[0], -1)
        y = np.matmul(wmat, cols)
        y += layer.bias[:, None]  # in place, so the layer holds one output-sized array
        y = y.reshape(b, -1, *spatial)
        aux = cols if route else None
    elif layer.kind == "relu":
        y = np.maximum(x, 0.0)
    elif layer.kind == "maxpool2d":
        views = _pool_slices(layer, x)
        y = next(views)
        aux = np.zeros(y.shape, dtype=np.intp) if route else None
        for t, view in enumerate(views, 1):
            if route:
                aux[view > y] = t  # strict: a tie keeps the first maximum
            y = np.maximum(y, view)
    else:  # flatten
        y = x.reshape(b, -1)
    return y, aux


def _forward(net: Network, x: np.ndarray, start: int = 0, trace: list | None = None):
    """Logits (B, n_classes) of the batch x entering layer `start`.

    With a list for trace, appends (input, aux) per layer, where aux is all
    that _backward needs. Without one, no activation outlives its next layer.
    """
    for layer in net.layers[start:]:
        y, aux = _layer_forward(layer, x, trace is not None)
        if trace is not None:
            trace.append((x, aux))
        x = y
    return x


def _backward(net: Network, trace: list, dy: np.ndarray, guided=False, stop=0, grads=None):
    """Gradient at the input of layer `stop`, from dy (B, n_classes) at the logits.

    trace is _forward's from layer 0. With guided, relu layers also zero
    negative incoming signals. With a list for grads, appends
    (layer, dweight, dbias) summed over the batch for each affine layer.
    """
    for i in range(len(net.layers) - 1, stop - 1, -1):
        layer = net.layers[i]
        x, aux = trace[i]
        if layer.affine:
            dy = dy.reshape(len(x), layer.weight.shape[0], -1)
            wmat = layer.weight.reshape(layer.weight.shape[0], -1)
            if grads is not None:
                dw = np.matmul(dy, aux.transpose(0, 2, 1)).sum(axis=0)
                grads.append((layer, dw.reshape(layer.weight.shape), dy.sum(axis=2).sum(axis=0)))
            dy = _col2im(layer, np.matmul(wmat.T, dy), x.shape)
        elif layer.kind == "relu":
            mask = x > 0
            if guided:
                mask &= dy > 0
            dy = dy * mask
        elif layer.kind == "maxpool2d":
            dy = _unpool(layer, dy, aux, x.shape)
        else:  # flatten
            dy = dy.reshape(x.shape)
    return dy


def _trace_one(net: Network, image: np.ndarray):
    """Logits and trace of one checked image, run at B=1."""
    trace = []
    return _forward(net, image[None], trace=trace)[0], trace


def forward(net: Network, image: np.ndarray) -> Prediction:
    image = _check_input(net, image)
    logits = _forward(net, image[None])[0]
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

    The epsilon search's entry to the engine; nothing else in the package
    calls it, so its calls count the search's rows. Row i is bit-equal to
    forward(net, images[i]).logits. With start > 0 the batch is taken as
    the activations entering layer `start`.
    """
    x = np.asarray(images, dtype=np.float64)
    if start == 0 and x.shape[1:] != net.input_shape:
        raise InputShapeError(f"batch shape {x.shape[1:]} != input shape {net.input_shape}")
    return _forward(net, x, start)


def certify_boxes(net: Network, lo: np.ndarray, hi: np.ndarray,
                  reference_class: int) -> np.ndarray:
    """Flags (B,): True where no point of the box [lo[i], hi[i]] can move
    forward's prediction away from reference_class.

    Interval bound propagation (Gowal et al., 2018) over the stacked bounds
    [lo; hi]. An affine layer takes the centre through W plus the bias and
    the radius through |W|, stacked as 2B rows in one call; relu and
    max-pool are monotone, so they map the bounds. The last layer bounds
    each margin logit_ref - logit_c directly, with rows W[ref] - W[c] on the
    centre and |W[ref] - W[c]| on the radius, which is tighter than bounding
    the two logits apart. A box is certified when every margin's lower bound
    exceeds 2 * guard, where guard = 1e-6 * (1 + max_c |centre logit_c| +
    radius logit_c) bounds every logit in the box and dwarfs float64
    rounding, so the flag also holds for the logits forward computes. A
    row's flag does not depend on its batch.
    """
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    if lo.shape != hi.shape or lo.shape[1:] != net.input_shape:
        raise InputShapeError(f"box bounds {lo.shape}, {hi.shape} do not match "
                              f"input shape {net.input_shape}")
    b, bounds = len(lo), np.concatenate([lo, hi])
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        if not layer.affine:
            bounds, _ = _layer_forward(layer, bounds)
            continue
        w, bias = layer.weight, layer.bias
        if i == last:  # the logits, then the margins logit_ref - logit_c
            w = np.concatenate([w, w[reference_class] - w])
            bias = np.concatenate([bias, bias[reference_class] - bias])
        centre_radius = np.concatenate([bounds[:b] + bounds[b:], bounds[b:] - bounds[:b]]) / 2
        cols, spatial = _im2col(layer, centre_radius)
        w = w.reshape(w.shape[0], -1)
        centre = np.matmul(w, cols[:b])
        centre += bias[:, None]
        radius = np.matmul(np.abs(w), cols[b:])
        if i < last:
            bounds = np.concatenate([(centre - radius).reshape(b, -1, *spatial),
                                     (centre + radius).reshape(b, -1, *spatial)])
    n = net.num_classes
    centre, radius = centre[..., 0], radius[..., 0]
    guard = 1e-6 * (1.0 + (np.abs(centre[:, :n]) + radius[:, :n]).max(axis=1))
    margins = (centre[:, n:] - radius[:, n:])[:, np.arange(n) != reference_class]
    return np.all(margins > 2.0 * guard[:, None], axis=1)


def loss(pred: Prediction, label: int) -> float:
    """Cross-entropy -log p(label)."""
    if not 0 <= label < len(pred.probabilities):
        raise InputShapeError(f"label {label} out of range for {len(pred.probabilities)} classes")
    with np.errstate(divide="ignore"):
        return float(-np.log(pred.probabilities[label]))


def _loss_seed(logits: np.ndarray, label: int) -> np.ndarray:
    """dJ/dlogits of the cross-entropy at class `label`: softmax minus one-hot."""
    d = softmax(logits)
    d[label] -= 1.0
    return d


def _gradient(net: Network, image: np.ndarray, label: int, guided: bool) -> np.ndarray:
    image = _check_input(net, image)
    if not 0 <= label < net.num_classes:
        raise InputShapeError(f"label {label} out of range for {net.num_classes} classes")
    logits, trace = _trace_one(net, image)
    return _backward(net, trace, _loss_seed(logits, label)[None], guided=guided)[0]


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
    _, trace = _trace_one(net, image)
    dy = np.zeros((1, net.num_classes))
    dy[0, class_index] = 1.0
    grad = _backward(net, trace, dy, stop=layer_index + 1)
    return trace[layer_index + 1][0][0], grad[0]


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
    logits, trace = _trace_one(net, image)
    m = np.max(logits)
    j = float(np.log(np.exp(logits - m).sum()) + m - logits[label])
    grads = []
    _backward(net, trace, _loss_seed(logits, label)[None], grads=grads)
    for layer, dw, db in grads:
        layer.weight -= lr * dw
        layer.bias -= lr * db
    return j


def train(net: Network, dataset: Dataset, epochs: int, lr: float, seed: int) -> Network:
    """Plain per-sample SGD on cross-entropy. Deterministic given seed."""
    if len(dataset) == 0:
        raise InputShapeError("cannot train on an empty dataset")
    if dataset.images.shape[1:] != net.input_shape:
        raise InputShapeError(f"images of shape {dataset.images.shape[1:]} do not match "
                              f"network input {net.input_shape}")
    bad = np.flatnonzero((dataset.labels < 0) | (dataset.labels >= net.num_classes))
    if bad.size:
        i = int(bad[0])
        raise InputShapeError(f"label {int(dataset.labels[i])} of sample {i} out of range "
                              f"for {net.num_classes} classes")
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
