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

from .errors import InputShapeError, NumericError, ZeroMapError
from .explain import RelevanceMap
from .netcore import (
    Network,
    _check_input,
    certify_boxes,
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


# The search's schedule (see find_epsilon). A ray's first segment has
# _FIRST_SEGMENT steps, and a certified segment doubles the next, up to
# _MAX_SEGMENT. Two rules follow a failed segment:
# (a) the next _HOLD certified segments keep their length; doubling resumes
#     after them;
# (b) a failed segment of more than _HALVE_ABOVE steps is retried at half its
#     length. One of _HALVE_ABOVE steps is followed by one exact block of
#     _BLOCK rows, and a shorter one by two, before the ray tries a segment
#     of _FIRST_SEGMENT steps again.
# Forward calls take at most _CALL_ROWS rows (a row costs least in calls of
# 8-16 rows); certificate calls at most _CALL_SEGMENTS segments, whose 2 * 4
# stacked bounds keep the call's temporaries below a 16-row forward's.
_BLOCK, _HOLD, _CALL_ROWS = 4, 2, 16
_FIRST_SEGMENT, _MAX_SEGMENT, _HALVE_ABOVE, _CALL_SEGMENTS = 4, 1024, 8, 4


def _check_search(net: Network, image, reference_class: int, step: float, cap: int):
    """The image as checked float64, after the checks every search shares."""
    if not (np.isfinite(step) and step > 0):
        raise InputShapeError(f"step must be finite and > 0, got {step}")
    if cap < 1:
        raise InputShapeError("cap must be >= 1")
    image = _check_input(net, image)
    if not np.all(np.isfinite(image)):
        raise InputShapeError("search needs an image with finite pixel values")
    if forward(net, image).predicted_class != reference_class:
        raise InputShapeError(
            f"reference class {reference_class} is not the prediction at the original image"
        )
    return image


def _check_ray(r_dir: np.ndarray, image: np.ndarray) -> None:
    if r_dir.shape != image.shape:
        raise InputShapeError(f"directed map shape {r_dir.shape} != image shape {image.shape}")
    if not np.all(np.isfinite(r_dir)):
        raise InputShapeError("search needs a directed map with finite values")


def _points(image: np.ndarray, rays: np.ndarray, ks: np.ndarray, step: float, clip: bool):
    """image + rays[i] * (ks[i] * step) for every i, clipped to [0, 1] with clip."""
    xs = image + rays * (ks * step).reshape((-1,) + (1,) * image.ndim)
    return np.clip(xs, 0.0, 1.0) if clip else xs


def _block_logits(net: Network, image: np.ndarray, rays: np.ndarray,
                  blocks: list[tuple[int, int, int]], step: float, clip: bool) -> list[np.ndarray]:
    """The logits of each exact block (ray, first, last): its rows
    image + rays[ray] * (k * step) for k = first..last, clipped with clip.

    The rows of all the blocks run in forward calls of at most _CALL_ROWS
    rows, and each call's rows are built from its own slice of the ks.
    """
    sizes = [last - first + 1 for _, first, last in blocks]
    of = np.repeat([ray for ray, _, _ in blocks], sizes)
    ks = np.concatenate([np.arange(first, last + 1) for _, first, last in blocks])
    logits = np.concatenate([
        forward_logits_batch(net, _points(image, rays[of[i:i + _CALL_ROWS]], ks[i:i + _CALL_ROWS],
                                          step, clip))
        for i in range(0, len(ks), _CALL_ROWS)])
    return np.split(logits, np.cumsum(sizes)[:-1])


def _certified(net: Network, image: np.ndarray, reference_class: int, rays: np.ndarray,
               segments: list[tuple[int, int, int]], step: float, clip: bool) -> np.ndarray:
    """Flags: True where no k in [first, last] flips the prediction along
    rays[ray], for each segment (ray, first, last), in certificate calls of
    at most _CALL_SEGMENTS segments, each call's boxes built from its own
    slice of the segments.

    The box between the end points holds every point of the segment exactly,
    because float +, * and clip are monotone in k.
    """
    flags = []
    for i in range(0, len(segments), _CALL_SEGMENTS):
        of, firsts, lasts = np.array(segments[i:i + _CALL_SEGMENTS]).T
        ends = (_points(image, rays[of], firsts, step, clip),
                _points(image, rays[of], lasts, step, clip))
        flags.append(certify_boxes(net, np.minimum(*ends), np.maximum(*ends), reference_class))
    return np.concatenate(flags)


def _pieces(recorded: dict[int, int], state: tuple, cap: int) -> list[tuple[int, int, int]]:
    """The pieces (first, last, steps) a ray at state takes in one round: a
    segment of `steps` steps, or an exact block where steps is 0.

    At a recorded start, the whole chain of recorded pieces from it, popped
    from recorded: each piece's last + 1 is the next one's first, up to cap.
    Anywhere else, the schedule's one piece.
    """
    start, steps, blocks_left, _ = state
    if start not in recorded:
        steps = 0 if blocks_left else steps
        return [(start, min(start + (steps or _BLOCK) - 1, cap), steps)]
    pieces = []
    while start <= cap and start in recorded:
        steps = recorded.pop(start)
        pieces.append((start, min(start + (steps or _BLOCK) - 1, cap), steps))
        start = pieces[-1][1] + 1
    return pieces


def _advance(state: tuple, first: int, last: int, steps: int, outcome, plan: dict[int, int],
             reference_class: int, cap: int, step: float):
    """The schedule's one transition: a ray's (next state, result) after
    its piece [first, last], an exact block (steps 0) whose rows' logits
    are outcome, or a segment whose certificate flag is outcome.

    The piece goes into plan when it ran or certified. The next state is
    None once the ray is done, and its result (k, capped) is then returned
    in place of None. Raises NumericError when a row of the block has
    non-finite logits and no earlier row of it flips.
    """
    _, next_steps, blocks_left, hold = state
    if not steps:
        plan[first] = 0
        ok = np.isfinite(outcome).all(axis=1)
        stops = (np.argmax(outcome, axis=1) != reference_class) | ~ok
        if stops.any():
            j = int(np.argmax(stops))
            if not ok[j]:
                raise NumericError(_non_finite(first + j, step))
            return None, (first + j, False)
        if last == cap:
            return None, (cap, True)
        return (last + 1, next_steps, max(blocks_left - 1, 0), hold), None
    steps = last - first + 1
    if outcome:
        plan[first] = steps
        if last == cap:
            return None, (cap, True)
        # doubles, or keeps its length while hold lasts (a)
        return (last + 1, steps if hold else min(2 * steps, _MAX_SEGMENT), 0,
                max(hold - 1, 0)), None
    if steps > _HALVE_ABOVE:
        return (first, steps // 2, 0, _HOLD), None
    return (first, _FIRST_SEGMENT, 1 + (steps < _HALVE_ABOVE), _HOLD), None  # (b)


def _search(net: Network, image: np.ndarray, reference_class: int, r_dirs: list[np.ndarray],
            step: float, cap: int, clip: bool, plans: list[dict[int, int]] | None = None
            ) -> tuple[list[tuple[int, bool]], list[dict[int, int]]]:
    """find_epsilon's (k, capped) for every ray in r_dirs, searched in
    lockstep, and the plan of each ray's search.

    Each ray keeps its own start and schedule. Each round stacks the exact
    blocks of all live rays into one row array, sliced into forward calls,
    and their segments into one batch, sliced into certificate calls. A
    row's logits and a segment's flag do not depend on their batch, so every
    ray evaluates exactly the rows and segments it would evaluate alone.

    A ray's plan maps the start of every segment that certified to its
    steps, and of every exact block that ran to 0. plans[i], if given, is
    ray i's plan from a previous search. A ray that reaches a recorded
    start takes the whole recorded chain from it in one round (see
    _pieces), then goes through the chain's pieces in order, by the same
    transition as the schedule's (_advance), up to its first flip, the cap
    or a failed segment. The pieces past that stop go back into the ray's
    recorded plan, unread: their rows and boxes were speculative. Anywhere
    else, and after a replayed segment fails, the schedule applies. So each
    ray takes the pieces, states and results of a replay that takes one
    recorded step per round, and the results do not depend on the plans:
    every k below the returned one is certified or evaluated. Raises
    NumericError when a row has non-finite logits and no earlier row of its
    ray flips; a row past the first flip never raises.
    """
    if not r_dirs:
        return [], []
    rays = np.stack(r_dirs)
    recorded = [{} for _ in rays] if plans is None else [dict(plan) for plan in plans]
    plans = [{} for _ in rays]
    found = [None] * len(rays)  # (k, capped), from the _advance that ends the ray
    # ray: (start, steps of its next segment, exact blocks to run before it,
    #       certified segments that keep their length)
    live = {i: (1, _FIRST_SEGMENT, 0, 0) for i in range(len(rays))}
    while live:
        taken = {i: _pieces(recorded[i], state, cap) for i, state in live.items()}
        blocks, segments = [], []
        for i, pieces in taken.items():
            for first, last, steps in pieces:
                (segments if steps else blocks).append((i, first, last))
        outcomes = {}  # (ray, first): a block's logits or a segment's flag
        if blocks:
            outcomes.update(zip([(i, first) for i, first, _ in blocks],
                                _block_logits(net, image, rays, blocks, step, clip)))
        if segments:
            outcomes.update(zip([(i, first) for i, first, _ in segments],
                                _certified(net, image, reference_class, rays, segments, step,
                                           clip)))
        next_live = {}
        for i, pieces in taken.items():
            state = live[i]
            for first, last, steps in pieces:
                if state is None or state[0] != first:  # stopped before this piece
                    recorded[i][first] = steps
                    continue
                state, found[i] = _advance(state, first, last, steps, outcomes[i, first],
                                           plans[i], reference_class, cap, step)
            if state is not None:
                next_live[i] = state
        live = next_live
    return found, plans


def _non_finite(k: int, step: float) -> str:
    return f"non-finite logits at k = {k} along a search ray (step {step})"


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
    clip. Scans k upward in certified segments and exact blocks of 4 rows
    and returns the first flipping k, so the result equals an exhaustive
    linear scan even when the flip predicate is non-monotone along the ray
    (transient flip pockets do occur). Returns (cap, True) if no k in
    [1, cap] flips.

    Steps that cannot flip are skipped by certifying whole segments
    [a, e] of k. The points of a segment lie in the box between its end
    points image + r_dir * (a * step) and image + r_dir * (e * step),
    clipped with clip, exactly, because float +, * and clip are monotone in
    k. One interval-bound pass (netcore.certify_boxes) certifies the box
    when every margin logit_ref - logit_c has a lower bound above 2 * g,
    where the guard g = 1e-6 * (1 + max|logit| in the box) dwarfs float64
    rounding in the logits, so no k in the segment flips. The first segment
    has 4 steps; a certified segment doubles the next, up to 1024 steps,
    except that the two certified segments after a failure keep their
    length. A failed segment of more than 8 steps is retried at half its
    length; one of 8 steps is followed by one exact block of 4 rows and a
    shorter one by two, and the ray then tries a 4-step segment again. Past
    cap, the search returns (cap, True).

    This is the one-ray case of the lockstep search that gaps() runs over
    all the rays of an image, whose rows are sliced into forward calls of
    at most 16 rows and its segments into certificate calls of at most 4;
    both give each ray the same rows, segments and result. ImageSearch
    replays a ray slot's previous plan instead, with the same result.
    Raises InputShapeError on a non-finite image or ray, and NumericError
    when a row before the first flip has non-finite logits (once k * step
    overflows, say).
    """
    image = _check_search(net, image, reference_class, step, cap)
    _check_ray(r_dir, image)
    return _search(net, image, reference_class, [r_dir], step, cap, clip)[0][0]


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
    reference for find_epsilon's blocks and skips, on the same evaluator,
    with the same NumericError at the first k whose logits are non-finite.
    O(cap) forward passes, use only at small caps."""
    image = _check_search(net, image, reference_class, step, cap)
    _check_ray(r_dir, image)
    for k in range(1, cap + 1):
        x = image + r_dir * (k * step)
        if clip:
            x = np.clip(x, 0.0, 1.0)
        pred = forward(net, x)
        if not np.all(np.isfinite(pred.logits)):
            raise NumericError(_non_finite(k, step))
        if pred.predicted_class != reference_class:
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
    image = _check_search(net, image, reference_class, step, cap)
    r_dir, ri_dir = _ray_pair(rmap, input_gradient(net, image, reference_class))
    return _gap_result(find_epsilon(net, image, reference_class, r_dir, step, cap, clip),
                       find_epsilon(net, image, reference_class, ri_dir, step, cap, clip))


class ImageSearch:
    """The gap searches of one image: the checks, the reference forward and
    the loss gradient are done once, on construction.

    Each ray slot (a map's position in gaps(), relevance or irrelevance)
    keeps the plan of its last search, which the slot's next search replays
    (see _search): a ray takes the plan's recorded chain in one round, one
    certificate batch and one row array, up to its first flip, the cap or
    a failed segment. A chain of similar maps, such as filter_map's
    original map and then its candidates, then skips the segments that
    failed on the previous map, in few and full engine calls. The results
    do not depend on the plans.
    """

    def __init__(self, net: Network, image: np.ndarray, reference_class: int,
                 step: float = 1.0, cap: int = 10_000, clip: bool = False):
        self.image = _check_search(net, image, reference_class, step, cap)
        self.grad = input_gradient(net, self.image, reference_class)
        self.net, self.reference_class = net, reference_class
        self.step, self.cap, self.clip = step, cap, clip
        self.plans: dict[tuple[int, int], dict[int, int]] = {}

    def gaps(self, maps: list[RelevanceMap | np.ndarray]) -> list[GapResult | None]:
        """gap() of every map, None where a map (or its irrelevance) is all
        zero; the 2 * len(maps) rays are searched in lockstep."""
        pairs = []
        for rmap in maps:
            try:
                pairs.append(_ray_pair(rmap, self.grad))
            except ZeroMapError:
                pairs.append(None)
        slots = [(m, side) for m, pair in enumerate(pairs) if pair is not None for side in (0, 1)]
        rays = [pairs[m][side] for m, side in slots]
        found, plans = _search(self.net, self.image, self.reference_class, rays, self.step,
                               self.cap, self.clip, [self.plans.get(slot, {}) for slot in slots])
        self.plans.update(zip(slots, plans))
        found = iter(found)
        return [None if pair is None else _gap_result(next(found), next(found))
                for pair in pairs]


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

    The checks, the reference forward and the gradient sign are done once
    (one ImageSearch), and the 2 * len(maps) rays are searched in lockstep,
    so their blocks share forward calls. The results equal gap() on each map.
    """
    return ImageSearch(net, image, reference_class, step, cap, clip).gaps(maps)


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
