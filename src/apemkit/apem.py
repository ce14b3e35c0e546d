"""Adversarial-perturbation scoring of relevance maps.

A map's score for one image is the gap between the number of perturbation
steps needed to flip the prediction along the directed irrelevance ray and
along the directed relevance ray. The dataset-level measure is the mean of
those gaps. The perturbation direction is the per-pixel sign of the loss
gradient at the original image, computed once and never refreshed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputShapeError, ZeroMapError
from .explain import RelevanceMap
from .netcore import (
    Network,
    _check_input,
    forward,
    forward_logits_batch,
    input_gradient,
)


@dataclass(frozen=True)
class GapResult:
    eps_minus: int
    eps_plus: int
    gap: int
    capped_minus: bool
    capped_plus: bool


def normalize_l1(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if np.any(values < 0):
        raise InputShapeError("relevance map must be non-negative before l1 normalization")
    total = np.abs(values).sum()
    if total == 0:
        raise ZeroMapError("all-zero relevance map cannot be l1-normalized")
    return values / total


def irrelevance(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.min() < 0 or values.max() > 1:
        raise InputShapeError("irrelevance needs map values in [0, 1]")
    return 1.0 - values


def direct(r_norm: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Directed relevance: broadcast the single-channel map over the
    gradient's channels and multiply by sign(grad); sign(0) = 0."""
    if grad.shape[-2:] != r_norm.shape:
        raise InputShapeError(f"map shape {r_norm.shape} != gradient spatial {grad.shape[-2:]}")
    return r_norm * np.sign(grad)


def _margin_slope_net(net: Network, reference_class: int) -> Network:
    """Net whose logits bound how fast each margin logit_ref - logit_c moves.

    Every affine layer takes |W| and a zero bias; the last one takes rows
    |W[ref] - W[c]|. Fed |r_dir| * step, it returns per-class bounds L_c on
    the change of the margin per step along the ray, whatever the activation
    pattern, because relu, max-pool and clipping are 1-Lipschitz.
    """
    layers = []
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        if layer.affine:
            w = layer.weight
            w = np.abs(w[reference_class] - w) if i == last else np.abs(w)
            layer = type(layer)(w, np.zeros(w.shape[0]), **layer.hyperparameters())
        layers.append(layer)
    return Network(layers, net.input_shape)


# Each round evaluates a block of _BLOCK rows per ray, or 1 row after a skip;
# the rows of all rays are sliced into forward calls of at most _CALL_ROWS
# rows, because a row costs least in calls of 8-16 rows.
_BLOCK, _CALL_ROWS = 4, 16


def _check_search(net: Network, image, reference_class: int, step: float, cap: int):
    """The image as checked float64, after the checks every search shares."""
    if not (np.isfinite(step) and step > 0):
        raise InputShapeError(f"step must be finite and > 0, got {step}")
    if cap < 1:
        raise InputShapeError("cap must be >= 1")
    image = _check_input(net, image)
    if forward(net, image).predicted_class != reference_class:
        raise InputShapeError(
            f"reference class {reference_class} is not the prediction at the original image"
        )
    return image


def _sliced_logits(net: Network, xs: np.ndarray) -> np.ndarray:
    """Logits of the rows xs, in forward calls of at most _CALL_ROWS rows."""
    return np.concatenate([forward_logits_batch(net, xs[i:i + _CALL_ROWS])
                           for i in range(0, len(xs), _CALL_ROWS)])


def _search(net: Network, image: np.ndarray, reference_class: int, r_dirs: list[np.ndarray],
            step: float, cap: int, clip: bool) -> list[tuple[int, bool]]:
    """find_epsilon's (k, capped) for every ray in r_dirs, searched in lockstep.

    Each ray keeps its own start, block size and certificate. Each round
    stacks the next block of every live ray into one row array, sliced into
    forward calls. A row's logits do not depend on its batch, so every ray
    evaluates exactly the rows it would evaluate alone.
    """
    if not r_dirs:
        return []
    rays = np.stack(r_dirs)
    others = np.arange(net.num_classes) != reference_class
    slopes = _sliced_logits(_margin_slope_net(net, reference_class), np.abs(rays) * step)[:, others]
    found = [(cap, True)] * len(rays)
    live = {i: (1, _BLOCK) for i in range(len(rays))}  # ray: (start, block)
    while live:
        blocks = {i: np.arange(start, min(start + block - 1, cap) + 1)
                  for i, (start, block) in live.items()}
        ray_of_row = np.repeat(list(blocks), [len(ks) for ks in blocks.values()])
        k_steps = np.concatenate(list(blocks.values())) * step
        xs = image + rays[ray_of_row] * k_steps.reshape((-1,) + (1,) * image.ndim)
        logits = _sliced_logits(net, np.clip(xs, 0.0, 1.0) if clip else xs)
        next_live = {}
        for i, ks in blocks.items():
            z, logits = logits[:len(ks)], logits[len(ks):]
            flips = np.argmax(z, axis=1) != reference_class
            if flips.any():
                found[i] = int(ks[np.argmax(flips)]), False
                continue
            guard = 1e-6 * (1.0 + np.abs(z).max())
            room = (z[:, [reference_class]] - z)[:, others] - 2.0 * guard
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = np.where(room > 0, room / slopes[i], 0.0)  # room > 0, L_c = 0: inf
            uncertified = np.ceil(np.max(ks + reach.min(axis=1, initial=np.inf)))
            next_start = max(ks[-1] + 1, uncertified)
            if next_start <= cap:
                # after a skip, one row's certificate mostly reaches past what
                # a block would cover
                next_live[i] = int(next_start), 1 if uncertified > ks[-1] + 1 else _BLOCK
        live = next_live
    return found


def find_epsilon(
    net: Network,
    image: np.ndarray,
    reference_class: int,
    r_dir: np.ndarray,
    step: float = 1.0,
    cap: int = 10_000,
    clip: bool = False,
) -> tuple[int, bool]:
    """Smallest k in [1, cap] whose perturbation flips the prediction.

    Perturbed image is image + r_dir * (k * step), clipped to [0, 1] with
    clip. Scans k upward in batch-evaluated blocks and returns the first
    flipping k, so the result equals an exhaustive linear scan even when
    the flip predicate is non-monotone along the ray (transient flip
    pockets do occur). Returns (cap, True) if no k in [1, cap] flips.

    Steps that cannot flip are skipped. One pass through _margin_slope_net
    gives L_c, a bound on how much logit_ref - logit_c changes per step.
    An evaluated k_i with margins m_ic then certifies every
    k < k_i + min_c (m_ic - 2g) / L_c, where the guard
    g = 1e-6 * (1 + max|logits|) over k_i's block dwarfs float64 rounding
    in the logits. The next block starts at the first k no evaluated row
    certifies; past cap, the search returns (cap, True). A block is 4 rows,
    or 1 row after a skip.

    This is the one-ray case of the lockstep search that gaps() runs over
    all the rays of an image, whose rows are sliced into forward calls of
    at most 16 rows; both give each ray the same rows and the same result.
    """
    image = _check_search(net, image, reference_class, step, cap)
    if r_dir.shape != image.shape:
        raise InputShapeError(f"directed map shape {r_dir.shape} != image shape {image.shape}")
    return _search(net, image, reference_class, [r_dir], step, cap, clip)[0]


def find_epsilon_scan(
    net: Network,
    image: np.ndarray,
    reference_class: int,
    r_dir: np.ndarray,
    step: float = 1.0,
    cap: int = 10_000,
    clip: bool = False,
) -> tuple[int, bool]:
    """Exhaustive linear scan over k = 1..cap, one forward per k; the
    reference for find_epsilon's blocks and skips, on the same evaluator.
    O(cap) forward passes, use only at small caps."""
    image = _check_search(net, image, reference_class, step, cap)
    for k in range(1, cap + 1):
        x = image + r_dir * (k * step)
        if clip:
            x = np.clip(x, 0.0, 1.0)
        if forward(net, x).predicted_class != reference_class:
            return k, False
    return cap, True


def _ray_pair(rmap: RelevanceMap | np.ndarray, grad: np.ndarray):
    """Directed relevance and irrelevance rays of one final-stage map."""
    values = rmap.values if isinstance(rmap, RelevanceMap) else np.asarray(rmap)
    if not np.all(np.isfinite(values)):
        raise InputShapeError("gap needs a map with finite values")
    if values.min() < 0 or values.max() > 1:
        raise InputShapeError("gap needs a final-stage map with values in [0, 1]")
    return direct(normalize_l1(values), grad), direct(normalize_l1(irrelevance(values)), grad)


def _gap_result(minus: tuple[int, bool], plus: tuple[int, bool]) -> GapResult:
    return GapResult(minus[0], plus[0], plus[0] - minus[0], minus[1], plus[1])


def gap(
    net: Network,
    image: np.ndarray,
    reference_class: int,
    rmap: RelevanceMap | np.ndarray,
    step: float = 1.0,
    cap: int = 10_000,
    clip: bool = False,
) -> GapResult:
    """eps_plus - eps_minus for one image and one simplified map.

    The gradient sign is taken once at the original image with respect to
    the reference class (for misclassified samples callers pass the model's
    prediction). Relevance and irrelevance searches share that sign.
    """
    r_dir, ri_dir = _ray_pair(rmap, input_gradient(net, image, reference_class))
    return _gap_result(find_epsilon(net, image, reference_class, r_dir, step, cap, clip),
                       find_epsilon(net, image, reference_class, ri_dir, step, cap, clip))


def gaps(
    net: Network,
    image: np.ndarray,
    reference_class: int,
    maps: list[RelevanceMap | np.ndarray],
    step: float = 1.0,
    cap: int = 10_000,
    clip: bool = False,
) -> list[GapResult | None]:
    """gap() of every map of one image, None where a map (or its
    irrelevance) is all zero and the gap is undefined.

    The checks, the reference forward and the gradient sign are done once,
    and the 2 * len(maps) rays are searched in lockstep, so their blocks
    share forward calls. The results equal gap() on each map.
    """
    image = _check_search(net, image, reference_class, step, cap)
    grad = input_gradient(net, image, reference_class)
    pairs = []
    for rmap in maps:
        try:
            pairs.append(_ray_pair(rmap, grad))
        except ZeroMapError:
            pairs.append(None)
    rays = [ray for pair in pairs if pair is not None for ray in pair]
    found = iter(_search(net, image, reference_class, rays, step, cap, clip))
    return [None if pair is None else _gap_result(next(found), next(found))
            for pair in pairs]


def apem(gaps) -> float:
    """Arithmetic mean of the per-image gaps."""
    gaps = list(gaps)
    if not gaps:
        raise InputShapeError("apem needs at least one gap")
    values = [g.gap if isinstance(g, GapResult) else float(g) for g in gaps]
    return float(np.mean(values))


def gap_quartiles(gaps) -> tuple[float, float, float]:
    """(q1, median, q3) of the per-image gaps."""
    values = [g.gap if isinstance(g, GapResult) else float(g) for g in gaps]
    if not values:
        raise InputShapeError("no gaps")
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def shuffle_map(rmap: RelevanceMap | np.ndarray, seed: int | tuple[int, ...]) -> RelevanceMap:
    """Uniform random permutation of the pixel values (value multiset kept),
    drawn by np.random.default_rng(seed): seed is an int >= 0 or a tuple of them."""
    values = rmap.values if isinstance(rmap, RelevanceMap) else np.asarray(rmap)
    stage = rmap.stage if isinstance(rmap, RelevanceMap) else 3
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(values.ravel()).reshape(values.shape)
    return RelevanceMap(values=shuffled, stage=stage)
