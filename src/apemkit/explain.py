"""Explanation methods and the map simplification pipeline.

Six methods produce raw attributions with the input image's shape:
plain gradient, SmoothGrad, LRP (epsilon rule), Guided Backpropagation,
Grad-CAM and Guided Grad-CAM. The simplification pipeline turns a raw
attribution into a single-channel map in [0, 1] through up to three
stages: channel sum, 99th-percentile clamp, grayscale-image multiply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputShapeError, MethodInapplicableError
from .netcore import (
    Network,
    _backward,
    _check_input,
    _col2im,
    _forward,
    _loss_seed,
    _trace_one,
    _unpool,
    feature_map_gradient,
    forward,
    guided_input_gradient,
    input_gradient,
)

# noisy SmoothGrad copies per forward/backward call. On 16 desk images, 4, 8
# and 16 copies took the same time within noise (medians 0.81, 0.79 and
# 0.79 s over five runs, bit-equal maps), while max RSS grew from 106 MB to
# 108.5 and 113 MB, so the smallest chunk is kept
_SMOOTH_ROWS = 4


@dataclass(frozen=True)
class RawAttribution:
    values: np.ndarray  # same shape as the input image
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RelevanceMap:
    """Single-channel map; after simplification all values lie in [0, 1]."""

    values: np.ndarray  # (h, w)
    stage: int  # number of simplification stages applied (1..3)


def _resolve_target(net, image, target):
    if target is None:
        return forward(net, image).predicted_class
    target = int(target)
    if not 0 <= target < net.num_classes:
        raise InputShapeError(f"target {target} out of range for {net.num_classes} classes")
    return target


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------


def gradient_map(net: Network, image: np.ndarray, target: int | None = None) -> RawAttribution:
    """|dJ/dx| interpreted as pixel relevance."""
    image = _check_input(net, image)
    target = _resolve_target(net, image, target)
    return RawAttribution(np.abs(input_gradient(net, image, target)))


def smoothgrad_map(
    net: Network,
    image: np.ndarray,
    target: int | None = None,
    n: int = 100,
    sigma: float = 0.2,
    seed: int = 0,
) -> RawAttribution:
    """Mean gradient magnitude over n Gaussian-perturbed copies of the image.

    The copies run through the engine _SMOOTH_ROWS at a time, each chunk's
    noise drawn as one array (the same stream as one draw per copy), and
    |gradient| is summed in copy order: bit-equal to a loop of
    input_gradient calls on the same noisy copies.
    """
    if n < 1:
        raise InputShapeError("smoothgrad needs n >= 1")
    if sigma < 0:
        raise InputShapeError("smoothgrad needs sigma >= 0")
    image = _check_input(net, image)
    target = _resolve_target(net, image, target)
    params = {"n": n, "sigma": sigma, "seed": seed}
    if sigma == 0:
        # the average of n identical gradients is the gradient itself;
        # computing it directly keeps the map bit-equal to gradient_map's
        return RawAttribution(np.abs(input_gradient(net, image, target)), params)
    rng = np.random.default_rng(seed)
    acc = np.zeros_like(image)
    for done in range(0, n, _SMOOTH_ROWS):
        noisy = image + rng.normal(0.0, sigma, size=(min(_SMOOTH_ROWS, n - done), *image.shape))
        trace = []
        logits = _forward(net, noisy, trace=trace)
        seeds = np.stack([_loss_seed(row, target) for row in logits])
        for g in _backward(net, trace, seeds):
            acc += np.abs(g)
    return RawAttribution(acc / n, params)


def guided_backprop_map(
    net: Network, image: np.ndarray, target: int | None = None
) -> RawAttribution:
    """|guided gradient|: relu layers drop negative backward signals."""
    image = _check_input(net, image)
    target = _resolve_target(net, image, target)
    return RawAttribution(np.abs(guided_input_gradient(net, image, target)))


def lrp_epsilon_map(
    net: Network,
    image: np.ndarray,
    target: int | None = None,
    epsilon: float = 1.0,
    return_layer_sums: bool = False,
):
    """Epsilon-rule relevance propagation from the target logit to the pixels.

    Dense/conv layers redistribute by contribution share with an epsilon
    stabilizer in the denominator; relu passes relevance through, maxpool
    routes winner-take-all, flatten reshapes.
    """
    if epsilon < 0:
        raise InputShapeError("lrp stabilizer epsilon must be >= 0")

    def share(rel, z):
        # rel / (z + epsilon * sign z) with sign 0 = 1, and 0 where that is 0
        denom = z + epsilon * np.where(z >= 0, 1.0, -1.0)
        return np.where(denom == 0, 0.0, rel.reshape(z.shape) / np.where(denom == 0, 1.0, denom))

    image = _check_input(net, image)
    logits, trace = _trace_one(net, image)
    target = int(np.argmax(logits)) if target is None else _resolve_target(net, image, target)

    rel = np.zeros_like(logits)
    rel[target] = logits[target]
    layer_sums = [float(rel.sum())]

    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        a, aux = trace[i]  # the layer's input and its im2col columns or max offsets
        if layer.kind == "dense":
            z = layer.weight * a.reshape(-1)[None, :]  # (out, in)
            factor = share(rel, z.sum(axis=1) + layer.bias)
            rel = (z * factor[:, None]).sum(axis=0).reshape(a.shape[1:])
        elif layer.kind == "conv2d":
            wmat = layer.weight.reshape(layer.weight.shape[0], -1)
            z_sum = trace[i + 1][0][0].reshape(wmat.shape[0], -1)  # the conv's output (oc, L)
            rcols = aux[0] * (wmat.T @ share(rel, z_sum))
            rel = _col2im(layer, rcols[None], a.shape)[0]
        elif layer.kind == "maxpool2d":
            rel = _unpool(layer, rel[None], aux, a.shape)[0]
        else:  # flatten; relu is the identity (inactive units hold zero already)
            rel = rel.reshape(a.shape[1:])
        layer_sums.append(float(rel.sum()))

    attribution = RawAttribution(rel, {"epsilon": epsilon})
    if return_layer_sums:
        return attribution, layer_sums
    return attribution


def bilinear_resize(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear interpolation (align corners); constant grids stay constant."""
    gh, gw = grid.shape
    if gh == 1 and gw == 1:
        return np.full((out_h, out_w), grid[0, 0])
    yi = np.linspace(0.0, gh - 1, out_h) if gh > 1 else np.zeros(out_h)
    xi = np.linspace(0.0, gw - 1, out_w) if gw > 1 else np.zeros(out_w)
    y0 = np.clip(np.floor(yi).astype(int), 0, max(gh - 2, 0))
    x0 = np.clip(np.floor(xi).astype(int), 0, max(gw - 2, 0))
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (yi - y0)[:, None]
    fx = (xi - x0)[None, :]
    a = grid[np.ix_(y0, x0)]
    b = grid[np.ix_(y0, x1)]
    c = grid[np.ix_(y1, x0)]
    d = grid[np.ix_(y1, x1)]
    return a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx + c * fy * (1 - fx) + d * fy * fx


def gradcam_map(net: Network, image: np.ndarray, target: int | None = None) -> RawAttribution:
    """Class-score gradient at the last conv feature map, channel-weighted."""
    image = _check_input(net, image)
    conv_indices = net.conv_layer_indices()
    if not conv_indices:
        raise MethodInapplicableError("gradcam needs at least one conv2d layer")
    target = _resolve_target(net, image, target)
    acts, grads = feature_map_gradient(net, image, target, conv_indices[-1])
    weights = grads.mean(axis=(1, 2))
    cam = np.maximum((weights[:, None, None] * acts).sum(axis=0), 0.0)
    upsampled = bilinear_resize(cam, image.shape[1], image.shape[2])
    return RawAttribution(np.broadcast_to(upsampled, image.shape).copy())


def guided_gradcam_map(
    net: Network, image: np.ndarray, target: int | None = None
) -> RawAttribution:
    """Elementwise product of guided backprop magnitude and the Grad-CAM map."""
    image = _check_input(net, image)
    target = _resolve_target(net, image, target)
    guided = guided_backprop_map(net, image, target).values
    cam = gradcam_map(net, image, target).values
    return RawAttribution(guided * cam)


# method name -> map function, in the order runs list them by default
_METHODS = {
    "gradient": gradient_map,
    "smoothgrad": smoothgrad_map,
    "lrp": lrp_epsilon_map,
    "guided_backprop": guided_backprop_map,
    "gradcam": gradcam_map,
    "guided_gradcam": guided_gradcam_map,
}
METHOD_NAMES = tuple(_METHODS)


def compute_map(
    net: Network,
    image: np.ndarray,
    method: str,
    target: int | None = None,
    smooth_n: int = 100,
    sigma: float = 0.2,
    lrp_epsilon: float = 1.0,
    seed: int = 0,
) -> RawAttribution:
    """Dispatch by method name; each method takes only its own parameters."""
    if method not in _METHODS:
        raise MethodInapplicableError(f"unknown explanation method {method!r}")
    params = {"smoothgrad": {"n": smooth_n, "sigma": sigma, "seed": seed},
              "lrp": {"epsilon": lrp_epsilon}}.get(method, {})
    return _METHODS[method](net, image, target, **params)


# ---------------------------------------------------------------------------
# Simplification pipeline
# ---------------------------------------------------------------------------


def channel_sum(values: np.ndarray) -> np.ndarray:
    if values.ndim == 2:
        return values.copy()
    return values.sum(axis=0)


def nearest_rank_percentile(values: np.ndarray, q: float = 99.0) -> float:
    flat = np.sort(values.ravel())
    rank = int(np.ceil(q / 100.0 * flat.size))
    return float(flat[max(rank, 1) - 1])


def clamp_percentile(map2d: np.ndarray, q: float = 99.0) -> np.ndarray:
    return np.minimum(map2d, nearest_rank_percentile(map2d, q))


def multiply_grayscale(map2d: np.ndarray, image: np.ndarray) -> np.ndarray:
    gray = image.mean(axis=0) if image.ndim == 3 else image
    if gray.shape != map2d.shape:
        raise InputShapeError(f"image spatial shape {gray.shape} != map shape {map2d.shape}")
    return map2d * gray


def rescale_unit(map2d: np.ndarray) -> np.ndarray:
    lo, hi = map2d.min(), map2d.max()
    if hi == lo:
        return np.zeros_like(map2d)  # constant maps carry no ranking information
    return (map2d - lo) / (hi - lo)


def simplify(raw: RawAttribution, image: np.ndarray, stage: int = 3) -> RelevanceMap:
    """Apply stages 1..stage, then rescale affinely to [0, 1]."""
    if stage not in (1, 2, 3):
        raise InputShapeError(f"stage must be 1, 2 or 3, got {stage}")
    if not np.all(np.isfinite(raw.values)):
        raise InputShapeError("raw attribution contains non-finite values")
    m = channel_sum(raw.values)
    if stage >= 2:
        m = clamp_percentile(m)
    if stage >= 3:
        m = multiply_grayscale(m, image)
    return RelevanceMap(values=rescale_unit(m), stage=stage)
