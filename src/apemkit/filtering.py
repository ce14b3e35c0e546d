"""Gap-preserving relevance-map cleaning.

Iteratively zeroes the smallest non-zero map values in batches; each batch
is kept only if the per-image gap does not drop below the gap of the map
kept so far. The first batch that makes the gap drop is reverted and the
loop stops. Kept values are never rescaled; l1 normalization inside the gap
computation redistributes the mass automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apem import gap
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
    if not 0 < batch_fraction <= 1:
        raise InputShapeError(f"batch_fraction must be in (0, 1], got {batch_fraction}")
    values = np.array(rmap.values, dtype=np.float64)
    try:
        original = gap(net, image, reference_class, values, step, cap, clip).gap
    except ZeroMapError as e:
        raise ZeroMapError(f"filter inapplicable: {e}") from e

    current_gap = original
    iterations: list[FilterIteration] = []
    reverted = False

    while True:
        nonzero = values[values != 0]
        if nonzero.size == 0:
            break
        batch = max(1, int(batch_fraction * nonzero.size))
        # threshold at the batch-th smallest nonzero value; ties included,
        # so the zeroed count can exceed the nominal batch size
        threshold = float(np.partition(nonzero, batch - 1)[batch - 1])
        mask = (values != 0) & (values <= threshold)
        zeroed = int(mask.sum())
        candidate = values.copy()
        candidate[mask] = 0.0
        try:
            new_gap = gap(net, image, reference_class, candidate, step, cap, clip).gap
        except ZeroMapError:
            reverted = True  # zeroing left nothing to normalize
            break
        if new_gap < current_gap:
            reverted = True
            break
        iterations.append(FilterIteration(threshold=threshold, zeroed=zeroed, gap=new_gap))
        values = candidate
        current_gap = new_gap

    return FilterTrace(
        iterations=iterations,
        final_map=RelevanceMap(values=values, stage=rmap.stage),
        original_gap=original,
        final_gap=current_gap,
        reverted=reverted,
    )
