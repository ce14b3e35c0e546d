"""Gap-preserving map filtering."""

import numpy as np
import pytest

from apemkit.apem import gap, gaps
from apemkit.errors import InputShapeError, ZeroMapError
from apemkit.explain import RelevanceMap, compute_map, simplify
from apemkit import filtering
from apemkit.filtering import filter_map
from apemkit.netcore import forward

from conftest import random_net


def _case(seed, size=8):
    net = random_net(seed)
    rng = np.random.default_rng(seed + 500)
    image = rng.uniform(0, 1, (1, size, size))
    ref = forward(net, image).predicted_class
    raw = compute_map(net, image, "gradient", target=ref)
    rmap = simplify(raw, image, stage=3)
    return net, image, ref, rmap


@pytest.mark.parametrize("seed", range(6))
def test_filter_never_regresses_gap(seed):
    net, image, ref, rmap = _case(seed)
    trace = filter_map(net, image, ref, rmap, cap=2000)
    assert trace.final_gap >= trace.original_gap
    # every accepted iteration also kept the running best
    best = trace.original_gap
    for it in trace.iterations:
        assert it.gap >= best
        best = max(best, it.gap)


@pytest.mark.parametrize("seed", range(6))
def test_filter_final_gap_matches_independent_recomputation(seed):
    net, image, ref, rmap = _case(seed)
    trace = filter_map(net, image, ref, rmap, cap=2000)
    recomputed = gap(net, image, ref, trace.final_map, cap=2000).gap
    assert recomputed == trace.final_gap
    # thresholds rise, so each kept map zeroes every value up to its threshold
    for it in trace.iterations:
        kept = np.where(rmap.values <= it.threshold, 0, rmap.values)
        assert gap(net, image, ref, kept, cap=2000).gap == it.gap


def test_filter_only_zeroes_and_never_rescales():
    net, image, ref, rmap = _case(11)
    trace = filter_map(net, image, ref, rmap, cap=2000)
    out = trace.final_map.values
    kept = out != 0
    np.testing.assert_array_equal(out[kept], rmap.values[kept])
    assert np.count_nonzero(out) <= np.count_nonzero(rmap.values)


def test_filter_threshold_includes_ties():
    # a map with many duplicated small values: one batch removes them all
    net, image, ref, _ = _case(12)
    values = np.full((8, 8), 0.1)
    values[0, 0] = 1.0
    values[7, 7] = 0.9
    rmap = RelevanceMap(values=values, stage=3)
    trace = filter_map(net, image, ref, rmap, cap=2000, batch_fraction=0.05)
    if trace.iterations:
        first = trace.iterations[0]
        assert first.threshold == 0.1
        assert first.zeroed == 62  # every tied 0.1 pixel goes at once


def test_filter_rejects_bad_batch_fraction_and_zero_maps():
    net, image, ref, rmap = _case(13)
    with pytest.raises(InputShapeError):
        filter_map(net, image, ref, rmap, batch_fraction=0.0)
    with pytest.raises(ZeroMapError):
        filter_map(net, image, ref, RelevanceMap(values=np.zeros((8, 8)), stage=3))


def test_filter_trace_is_deterministic():
    net, image, ref, rmap = _case(14)
    t1 = filter_map(net, image, ref, rmap, cap=2000)
    t2 = filter_map(net, image, ref, rmap, cap=2000)
    np.testing.assert_array_equal(t1.final_map.values, t2.final_map.values)
    assert [ (i.threshold, i.zeroed, i.gap) for i in t1.iterations ] == [
        (i.threshold, i.zeroed, i.gap) for i in t2.iterations
    ]


class _FreshGaps:
    """Stands in for filter_map's ImageSearch: a fresh gaps() call per
    candidate, with no plan carried from one candidate to the next."""

    def __init__(self, net, image, ref, step, cap, clip):
        self.args = net, image, ref
        self.options = step, cap, clip

    def gaps(self, maps):
        return gaps(*self.args, maps, *self.options)


# (image, method, step, clip) on the desk model at cap 2500: chains of 1 to
# 39 accepted candidates, image 2's with capped rays
@pytest.mark.parametrize("idx, method, step, clip", [(2, "gradient", 1.0, False),
                                                    (6, "gradient", 0.5, True),
                                                    (4, "lrp", 1.0, False),
                                                    (9, "lrp", 0.5, True)])
def test_filter_chain_state_gives_the_trace_of_fresh_gaps(monkeypatch, desk_model, desk_test_set,
                                                          idx, method, step, clip):
    image = desk_test_set.images[idx]
    ref = forward(desk_model, image).predicted_class
    rmap = simplify(compute_map(desk_model, image, method, target=ref), image, stage=3)
    chained = filter_map(desk_model, image, ref, rmap, step, 2500, clip=clip)
    monkeypatch.setattr(filtering, "ImageSearch", _FreshGaps)
    fresh = filter_map(desk_model, image, ref, rmap, step, 2500, clip=clip)
    assert chained.iterations and chained.iterations == fresh.iterations
    assert (chained.original_gap, chained.final_gap) == (fresh.original_gap, fresh.final_gap)
    assert chained.final_map.values.tobytes() == fresh.final_map.values.tobytes()
