"""Gap computation: normalization, directed rays, and the epsilon search."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apemkit.apem import (
    GapResult,
    ImageSearch,
    apem,
    direct,
    find_epsilon,
    find_epsilon_scan,
    gap,
    gap_quartiles,
    gaps,
    irrelevance,
    normalize_l1,
    shuffle_map,
)
from apemkit.errors import InputShapeError, NumericError, ZeroMapError
from apemkit.explain import METHOD_NAMES, RelevanceMap, compute_map, simplify
from apemkit.netcore import Dense, Network, ReLU, forward, input_gradient

from conftest import random_dense_net, random_net

apem_module = importlib.import_module("apemkit.apem")  # the package also exports a function `apem`


# ---------------------------------------------------------------------------
# Map algebra
# ---------------------------------------------------------------------------


def test_normalize_l1_sums_to_one_and_keeps_proportions():
    m = np.array([[1.0, 3.0], [0.0, 4.0]])
    out = normalize_l1(m)
    assert abs(out.sum() - 1.0) < 1e-15
    np.testing.assert_allclose(out, m / 8.0, rtol=1e-15)


def test_normalize_l1_rejects_zero_and_negative_maps():
    with pytest.raises(ZeroMapError):
        normalize_l1(np.zeros((3, 3)))
    with pytest.raises(InputShapeError):
        normalize_l1(np.array([[0.5, -0.1]]))


def test_irrelevance_is_an_involution_on_unit_maps():
    m = np.random.default_rng(0).uniform(0, 1, (5, 5))
    np.testing.assert_allclose(irrelevance(irrelevance(m)), m, rtol=1e-15)
    with pytest.raises(InputShapeError):
        irrelevance(np.array([[1.5]]))


def test_direct_applies_gradient_sign_per_channel():
    r = np.array([[0.5, 0.25], [0.25, 0.0]])
    grad = np.array([[[1.0, -2.0], [0.0, 3.0]], [[-1.0, 1.0], [2.0, -4.0]]])
    d = direct(r, grad)
    np.testing.assert_array_equal(d[0], [[0.5, -0.25], [0.0, 0.0]])
    np.testing.assert_array_equal(d[1], [[-0.5, 0.25], [0.25, 0.0]])


# ---------------------------------------------------------------------------
# Epsilon search
# ---------------------------------------------------------------------------


def _linear_two_class_net():
    # logits: z0 = x0, z1 = x1; prediction flips when x1 exceeds x0
    return Network([Dense(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))], (2,))


def test_find_epsilon_analytic_two_class_case():
    # x=(1,0), direction (0,0.3): flip needs 0.3k > 1, first integer k = 4
    net = _linear_two_class_net()
    x = np.array([1.0, 0.0])
    r_dir = np.array([0.0, 0.3])
    k, capped = find_epsilon(net, x, 0, r_dir, step=1.0, cap=100)
    assert (k, capped) == (4, False)
    # halving the step doubles the count: 0.15k > 1 first holds at k = 7
    k2, _ = find_epsilon(net, x, 0, r_dir, step=0.5, cap=100)
    assert k2 == 7


def test_find_epsilon_returns_cap_flag_when_no_flip():
    net = _linear_two_class_net()
    x = np.array([1.0, 0.0])
    k, capped = find_epsilon(net, x, 0, np.array([0.0, 1e-9]), cap=50)
    assert (k, capped) == (50, True)


def test_find_epsilon_rejects_bad_reference_and_params():
    net = _linear_two_class_net()
    x = np.array([1.0, 0.0])
    with pytest.raises(InputShapeError):
        find_epsilon(net, x, 1, np.array([0.0, 0.1]))
    with pytest.raises(InputShapeError):
        find_epsilon(net, x, 0, np.array([0.0, 0.1]), step=0.0)
    with pytest.raises(InputShapeError):
        find_epsilon(net, x, 0, np.array([0.0, 0.1]), cap=0)
    for step in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputShapeError):
            find_epsilon(net, x, 0, np.array([0.0, 0.1]), step=step)


@pytest.mark.parametrize("seed", range(25))
def test_find_epsilon_matches_exhaustive_scan(seed):
    # random small nets and random relevance-map rays: bracketed binary
    # search must return the same minimal k as the brute-force linear scan
    from apemkit.netcore import input_gradient

    net = random_net(seed % 5)
    rng = np.random.default_rng(seed + 200)
    image = rng.uniform(0, 1, (1, 8, 8))
    ref = forward(net, image).predicted_class
    rmap = rng.uniform(0, 1, (8, 8))
    grad = input_gradient(net, image, ref)
    r_dir = direct(normalize_l1(rmap), grad)
    cap = 64
    fast = find_epsilon(net, image, ref, r_dir, step=2.0, cap=cap)
    slow = find_epsilon_scan(net, image, ref, r_dir, step=2.0, cap=cap)
    assert fast == slow


def test_find_epsilon_clip_keeps_pixels_in_unit_box():
    net = _linear_two_class_net()
    x = np.array([1.0, 0.9])
    # without clipping this ray flips quickly; with clipping the perturbed
    # pixel saturates at 1.0 < x0 and the prediction never changes
    r_dir = np.array([0.0, 0.05])
    k_unclipped, capped = find_epsilon(net, x, 0, r_dir, cap=100, clip=False)
    assert not capped and k_unclipped == 3
    k_clipped, capped = find_epsilon(net, x, 0, r_dir, cap=100, clip=True)
    assert capped and k_clipped == 100


def _desk_ray(net, image, method, ray):
    """Directed relevance ("rel") or irrelevance ("irr") ray of a stage-3 map."""
    ref = forward(net, image).predicted_class
    values = simplify(compute_map(net, image, method, target=ref), image, stage=3).values
    if ray == "irr":
        values = irrelevance(values)
    return ref, direct(normalize_l1(values), input_gradient(net, image, ref))


# (image, method, ray, step, clip) on the desk test set at cap 2500: rays that
# hit the cap (image 2 is as confident as the benchmark's capped image), long
# rays that flip after 1000 steps, short ones, clipped rays and half steps
DESK_RAYS = [
    (2, "gradient", "rel", 1.0, False),
    (2, "lrp", "rel", 1.0, False),
    (2, "lrp", "rel", 0.5, False),
    (2, "gradient", "irr", 1.0, False),
    (2, "gradient", "irr", 1.0, True),
    (2, "gradient", "rel", 1.0, True),
    (2, "lrp", "irr", 0.5, False),
    (36, "gradient", "rel", 1.0, False),
    (71, "gradient", "rel", 1.0, False),
    (150, "lrp", "rel", 0.5, True),
    (97, "gradient", "irr", 1.0, False),
    (97, "lrp", "irr", 1.0, False),
    (122, "lrp", "irr", 1.0, False),
    (0, "gradient", "irr", 0.5, True),
    (4, "lrp", "irr", 1.0, False),
    (6, "gradient", "irr", 0.5, False),
    (10, "lrp", "irr", 1.0, True),
    (28, "gradient", "irr", 1.0, False),
    (9, "gradient", "rel", 1.0, False),
    (22, "lrp", "rel", 0.5, True),
]


def test_find_epsilon_matches_exhaustive_scan_on_desk_rays(desk_model, desk_test_set):
    cap = 2500
    results = []
    for idx, method, ray, step, clip in DESK_RAYS:
        image = desk_test_set.images[idx]
        ref, r_dir = _desk_ray(desk_model, image, method, ray)
        fast = find_epsilon(desk_model, image, ref, r_dir, step, cap, clip)
        slow = find_epsilon_scan(desk_model, image, ref, r_dir, step, cap, clip)
        assert fast == slow, (idx, method, ray, step, clip)
        results.append(fast)
    # the set keeps covering capped and long rays, where skipping fires
    assert sum(capped for _, capped in results) >= 5
    assert sum(k > 1000 and not capped for k, capped in results) >= 3


def _spy_engine(monkeypatch):
    """Records the search's two engine entries, in call order: each forward
    call's rows, and each certificate call's (lo, hi, flags)."""
    rows, boxes = [], []
    batch, certify = apem_module.forward_logits_batch, apem_module.certify_boxes

    def batch_spy(net_, xs, start=0):
        rows.append(xs.copy())
        return batch(net_, xs, start)

    def certify_spy(net_, lo, hi, ref):
        flags = certify(net_, lo, hi, ref)
        boxes.append((lo.copy(), hi.copy(), flags))
        return flags

    monkeypatch.setattr(apem_module, "forward_logits_batch", batch_spy)
    monkeypatch.setattr(apem_module, "certify_boxes", certify_spy)
    return rows, boxes


def _work(rows, boxes):
    """Exact rows plus segment passes."""
    return sum(map(len, rows)) + sum(len(lo) for lo, _, _ in boxes)


def test_find_epsilon_zero_ray_returns_after_one_block(monkeypatch, desk_model, desk_test_set):
    image = desk_test_set.images[0]
    ref = forward(desk_model, image).predicted_class
    rows, boxes = _spy_engine(monkeypatch)
    result = find_epsilon(desk_model, image, ref, np.zeros_like(image), cap=2500)
    assert result == (2500, True)
    # every segment's box is the image itself, so each one certifies and the
    # next doubles: 4 + 8 + ... + 1024 steps in 9 passes, then the rest in one
    assert rows == [] and _work(rows, boxes) == 10


def test_find_epsilon_skips_most_of_a_capped_desk_ray(monkeypatch, desk_model, desk_test_set):
    cap = 2500
    image = desk_test_set.images[2]
    ref, r_dir = _desk_ray(desk_model, image, "lrp", "rel")
    rows, boxes = _spy_engine(monkeypatch)
    assert find_epsilon(desk_model, image, ref, r_dir, cap=cap) == (cap, True)
    assert _work(rows, boxes) < 0.05 * cap


def _ks(values, image, r_dir, p):
    """The k of each perturbed image, read back from the pixel p the ray moves most."""
    return [int(k) for k in np.rint((values.reshape(len(values), -1)[:, p] - image.ravel()[p])
                                    / r_dir.ravel()[p])]


# (image, method, ray, cap): a ray that flips after certified and failed
# segments and exact blocks, and the hard capped ray whose segments keep
# failing, at a cap that cuts its last segment or block
@pytest.mark.parametrize("idx, method, ray, cap", [(0, "gradient", "irr", 2500),
                                                  (71, "gradient", "rel", 2498)])
def test_find_epsilon_follows_the_segment_schedule(monkeypatch, desk_model, desk_test_set,
                                                   idx, method, ray, cap):
    image = desk_test_set.images[idx]
    ref, r_dir = _desk_ray(desk_model, image, method, ray)
    events = []  # in call order: ("segment", first, last, certified) or ("block", ks)
    batch, certify = apem_module.forward_logits_batch, apem_module.certify_boxes
    p = int(np.argmax(np.abs(r_dir)))

    def batch_spy(net_, xs, start=0):
        events.append(("block", _ks(xs, image, r_dir, p)))
        return batch(net_, xs, start)

    def certify_spy(net_, lo, hi, ref_):
        flags = certify(net_, lo, hi, ref_)
        assert len(lo) == 1  # one ray: one segment per call
        events.append(("segment", *sorted(_ks(np.concatenate([lo, hi]), image, r_dir, p)),
                       bool(flags[0])))
        return flags

    monkeypatch.setattr(apem_module, "forward_logits_batch", batch_spy)
    monkeypatch.setattr(apem_module, "certify_boxes", certify_spy)
    k, capped = find_epsilon(desk_model, image, ref, r_dir, cap=cap)

    def segment(first, steps):
        return "segment", first, min(first + steps - 1, cap)

    def block(first):
        return "block", list(range(first, min(first + apem_module._BLOCK, cap + 1)))

    # the schedule's state: certified segments that keep their length (rule
    # a) and exact blocks still to run before the next segment (rule b)
    hold = blocks_left = held = 0
    block_runs = []  # blocks_left set by each failed segment of at most _HALVE_ABOVE steps
    assert events[0][:3] == segment(1, apem_module._FIRST_SEGMENT)
    for before, event in zip(events, events[1:]):
        if before[0] == "block":  # no flip in it
            blocks_left -= 1
            start = before[1][-1] + 1
            if blocks_left:
                assert event == block(start)
            else:
                assert event[:3] == segment(start, apem_module._FIRST_SEGMENT)
            continue
        _, first, last, certified = before
        steps = last - first + 1
        if certified:  # doubles, except for the _HOLD after a failure (rule a)
            assert event[:3] == segment(last + 1, steps if hold else
                                        min(2 * steps, apem_module._MAX_SEGMENT))
            held += hold > 0
            hold = max(hold - 1, 0)
            continue
        hold = apem_module._HOLD
        if steps > apem_module._HALVE_ABOVE:
            assert event[:3] == segment(first, steps // 2)
        else:  # rule b: two blocks after a short failed segment, one after 8 steps
            blocks_left = 2 if steps < apem_module._HALVE_ABOVE else 1
            block_runs.append(blocks_left)
            assert event == block(first)
    assert held and set(block_runs) == {1, 2}  # both rules fire, rule b in both its cases
    kinds = [(e[0], e[-1]) if e[0] == "segment" else e[:1] for e in events]
    if idx == 0:
        assert not capped and events[-1][0] == "block" and k in events[-1][1]
        assert {("segment", True), ("segment", False), ("block",)} <= set(kinds)
    else:  # the cap cuts the last segment or block
        assert capped and max(events[-1][1:3] if events[-1][0] == "segment"
                              else events[-1][1]) == cap


def test_find_epsilon_runs_at_most_30_percent_of_the_hard_ray_as_rows(monkeypatch, desk_model,
                                                                     desk_test_set):
    # desk image 71's gradient relevance ray, whose 8-step segments keep
    # failing: it ran 1,248 of its 2,500 steps as exact rows when every
    # failure restarted the ray at a doubling 4-step segment
    cap = 2500
    ref, r_dir = _desk_ray(desk_model, desk_test_set.images[71], "gradient", "rel")
    rows, _ = _spy_engine(monkeypatch)
    assert find_epsilon(desk_model, desk_test_set.images[71], ref, r_dir, cap=cap) == (cap, True)
    assert sum(map(len, rows)) <= 0.3 * cap


def _tie_net(signs, thresholds, out_weight, out_bias):
    """1-input dense/relu net. Along image 0 and direction 1/64 the hidden
    units are relu(sign * k * step - threshold), so with integer weights
    every logit is a multiple of 1/2, computed exactly: margins reach 0
    exactly, and argmax breaks such a tie toward the lower class index."""
    hidden = Dense(64.0 * np.array(signs)[:, None], -np.array(thresholds, dtype=np.float64))
    out = Dense(np.array(out_weight, dtype=np.float64), np.array(out_bias, dtype=np.float64))
    return Network([hidden, ReLU(), out], (1,))


@st.composite
def _tie_cases(draw):
    n_hidden = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n_hidden, max_size=n_hidden))
    thresholds = draw(st.lists(st.integers(-20, 120), min_size=n_hidden, max_size=n_hidden))
    row = st.lists(st.integers(-3, 3), min_size=n_hidden, max_size=n_hidden)
    out_weight = draw(st.lists(row, min_size=n_classes, max_size=n_classes))
    out_bias = draw(st.lists(st.integers(-60, 60), min_size=n_classes, max_size=n_classes))
    step = draw(st.sampled_from([0.5, 1.0, 2.0]))
    clip = draw(st.booleans())
    return signs, thresholds, out_weight, out_bias, step, clip


@settings(max_examples=300, deadline=None)
@given(_tie_cases())
# class 0 climbs one logit per step and ties reference class 1 exactly at k = 30
@example(([1.0], [0], [[1], [0]], [0, 30], 1.0, False))
# class 1 climbs against reference class 0: the tie at k = 30 keeps class 0,
# the first flip is k = 31
@example(([1.0], [0], [[0], [1]], [30, 0], 1.0, False))
# a tent of height 5 in class 0 against 3 in class 1: pocket at k = 13..17
@example(([1.0, 1.0, 1.0], [10, 15, 20], [[1, -2, 1], [0, 0, 0]], [0, 3], 1.0, False))
# the same pocket at half steps, far along the ray: k = 126..134
@example(([1.0, 1.0, 1.0], [60, 65, 70], [[1, -2, 1], [0, 0, 0]], [0, 3], 0.5, False))
# class 0 flips at k = 3, and k * step overflows at k = 4, in the flip's
# block: the non-finite row past the flip must not raise
@example(([1.0], [1.2e308], [[1], [0]], [0, 30], 5e307, False))
def test_find_epsilon_matches_scan_on_exact_ties_and_pockets(case):
    signs, thresholds, out_weight, out_bias, step, clip = case
    net = _tie_net(signs, thresholds, out_weight, out_bias)
    image = np.zeros(1)
    ref = forward(net, image).predicted_class
    r_dir = np.full(1, 1.0 / 64.0)
    cap = 150
    fast = find_epsilon(net, image, ref, r_dir, step, cap, clip)
    assert fast == find_epsilon_scan(net, image, ref, r_dir, step, cap, clip)


@st.composite
def _segment_cases(draw):
    dense = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    scale = draw(st.sampled_from([1e-3, 1e-2, 5e-2]))
    first = draw(st.integers(1, 60))
    last = first + draw(st.integers(0, 60))
    step = draw(st.sampled_from([0.5, 1.0]))
    clip = draw(st.booleans())
    return dense, seed, scale, first, last, step, clip


@settings(max_examples=300, deadline=None)
@given(_segment_cases())
# certifies when the certificate drops the radius term, though k = 31 flips
@example((False, 15, 0.05, 1, 31, 1.0, False))
def test_a_certified_segment_holds_no_flip(case):
    dense, seed, scale, first, last, step, clip = case
    net = random_dense_net(seed) if dense else random_net(seed)
    rng = np.random.default_rng(seed)
    image = rng.uniform(0, 1, net.input_shape)
    r_dir = rng.normal(0, scale, net.input_shape)
    ref = forward(net, image).predicted_class
    certified = apem_module._certified(net, image, ref, r_dir[None], np.array([first]),
                                       np.array([last]), step, clip)
    if certified[0]:
        for k in range(first, last + 1):
            x = image + r_dir * (k * step)
            assert forward(net, np.clip(x, 0.0, 1.0) if clip else x).predicted_class == ref, k


# ---------------------------------------------------------------------------
# Gap
# ---------------------------------------------------------------------------


def test_gap_uniform_map_is_zero_by_symmetry():
    # R uniform: relevance and irrelevance rays are identical after l1
    # normalization, so both flips happen at the same step count
    net = random_net(1)
    image = np.random.default_rng(1).uniform(0, 1, (1, 8, 8))
    ref = forward(net, image).predicted_class
    result = gap(net, image, ref, np.full((8, 8), 0.5), cap=2000)
    assert result.gap == 0
    assert result.eps_minus == result.eps_plus


def test_gap_requires_unit_interval_map():
    net = random_net(2)
    image = np.random.default_rng(2).uniform(0, 1, (1, 8, 8))
    ref = forward(net, image).predicted_class
    with pytest.raises(InputShapeError):
        gap(net, image, ref, np.full((8, 8), 1.5))


def test_gap_all_ones_map_raises_zero_map_error():
    # irrelevance of an all-ones map is identically zero
    net = random_net(3)
    image = np.random.default_rng(3).uniform(0, 1, (1, 8, 8))
    ref = forward(net, image).predicted_class
    with pytest.raises(ZeroMapError):
        gap(net, image, ref, np.ones((8, 8)))


def test_gap_accepts_relevance_map_objects(desk_model, desk_test_set):
    image = desk_test_set.images[0]
    ref = forward(desk_model, image).predicted_class
    values = np.random.default_rng(4).uniform(0, 1, (28, 28))
    a = gap(desk_model, image, ref, RelevanceMap(values=values, stage=3), cap=4000)
    b = gap(desk_model, image, ref, values, cap=4000)
    assert (a.eps_minus, a.eps_plus) == (b.eps_minus, b.eps_plus)


@st.composite
def _dyadic_cases(draw):
    # dyadic values k/8 keep 1 - (1 - m) == m exactly in float64, so the
    # relevance and irrelevance rays of m are exactly those of 1 - m swapped
    values = draw(st.lists(st.integers(0, 8), min_size=64, max_size=64)
                  .filter(lambda ks: 0 < sum(ks) < 8 * 64))
    return draw(st.integers(0, 2**16)), np.array(values, dtype=np.float64).reshape(8, 8) / 8


def _swapped(g):
    return GapResult(g.eps_plus, g.eps_minus, -g.gap, g.capped_plus, g.capped_minus)


@settings(max_examples=100, deadline=None)
@given(_dyadic_cases())
def test_gap_of_the_complement_map_swaps_the_rays(case):
    seed, m = case
    net = random_net(seed)
    image = np.random.default_rng(seed).uniform(0, 1, (1, 8, 8))
    ref = forward(net, image).predicted_class
    g = gap(net, image, ref, m, cap=500)
    assert gap(net, image, ref, 1 - m, cap=500) == _swapped(g)
    assert gaps(net, image, ref, [m, 1 - m], cap=500) == [g, _swapped(g)]


def _gap_or_none(net, image, ref, values, step, cap, clip):
    try:
        return gap(net, image, ref, values, step, cap, clip)
    except ZeroMapError:
        return None


# (image, step, clip) at cap 2500: image 2 has capped rays
@pytest.mark.parametrize("idx, step, clip", [(2, 1.0, False), (2, 1.0, True), (36, 0.5, False)])
def test_gaps_equal_gap_per_map_in_fewer_calls(monkeypatch, desk_model, desk_test_set,
                                               idx, step, clip):
    cap = 2500
    image = desk_test_set.images[idx]
    ref = forward(desk_model, image).predicted_class
    maps = [simplify(compute_map(desk_model, image, m, target=ref), image, stage=3)
            for m in METHOD_NAMES]
    maps += [np.zeros((28, 28)), np.ones((28, 28))]
    rows, boxes = _spy_engine(monkeypatch)
    each = [_gap_or_none(desk_model, image, ref, m, step, cap, clip) for m in maps]
    each_rows, each_boxes = list(map(len, rows)), list(boxes)
    rows.clear()
    boxes.clear()
    together = gaps(desk_model, image, ref, maps, step, cap, clip)
    assert together == each
    assert together[-2:] == [None, None]
    assert max(map(len, rows)) <= apem_module._CALL_ROWS
    assert sum(map(len, rows)) == sum(each_rows)
    assert len(rows) + len(boxes) < len(each_rows) + len(each_boxes)
    if idx == 2:
        assert any(g.capped_minus or g.capped_plus for g in together[:-2])


def _multiset(arrays):
    return sorted(a.tobytes() for a in arrays)


# (image, step, clip) at cap 2500: rays that mix certified and failed
# segments with exact blocks
@pytest.mark.parametrize("idx, step, clip", [(2, 1.0, False), (2, 0.5, True), (0, 1.0, True)])
def test_gaps_give_each_ray_the_rows_and_segments_it_gets_alone(monkeypatch, desk_model,
                                                                desk_test_set, idx, step, clip):
    cap = 2500
    image = desk_test_set.images[idx]
    ref = forward(desk_model, image).predicted_class
    maps = [simplify(compute_map(desk_model, image, m, target=ref), image, stage=3)
            for m in METHOD_NAMES]
    grad = input_gradient(desk_model, image, ref)
    rays = [ray for m in maps for ray in apem_module._ray_pair(m, grad)]
    rows, boxes = _spy_engine(monkeypatch)
    alone = [find_epsilon(desk_model, image, ref, ray, step, cap, clip) for ray in rays]
    alone_calls, alone_rows = len(rows) + len(boxes), [x for xs in rows for x in xs]
    alone_boxes = [np.stack(box) for lo, hi, _ in boxes for box in zip(lo, hi)]
    assert all(len(lo) == 1 for lo, _, _ in boxes)
    rows.clear()
    boxes.clear()
    together = gaps(desk_model, image, ref, maps, step, cap, clip)
    assert [(g.eps_minus, g.capped_minus, g.eps_plus, g.capped_plus) for g in together] == [
        (*alone[i], *alone[i + 1]) for i in range(0, len(alone), 2)]
    # every exact row and every segment's box is the same array, bit for bit
    assert _multiset(x for xs in rows for x in xs) == _multiset(alone_rows)
    assert _multiset(np.stack(box) for lo, hi, _ in boxes for box in zip(lo, hi)) == _multiset(
        alone_boxes)
    assert max(map(len, rows)) <= apem_module._CALL_ROWS
    assert max(len(lo) for lo, _, _ in boxes) <= apem_module._CALL_SEGMENTS
    assert len(rows) + len(boxes) < alone_calls
    flags = np.concatenate([f for _, _, f in boxes])
    assert flags.any() and not flags.all()


# (image, method, step, clip) at cap 2500: rays with failed segments and
# exact blocks, image 2's capped ones among them
@pytest.mark.parametrize("idx, method, step, clip", [(2, "gradient", 1.0, False),
                                                    (71, "gradient", 1.0, False),
                                                    (0, "lrp", 0.5, True)])
def test_a_search_state_replays_its_plan_without_a_failed_segment(monkeypatch, desk_model,
                                                                   desk_test_set, idx, method,
                                                                   step, clip):
    image = desk_test_set.images[idx]
    ref = forward(desk_model, image).predicted_class
    rmap = simplify(compute_map(desk_model, image, method, target=ref), image, stage=3)
    expected = [gap(desk_model, image, ref, rmap, step, 2500, clip)]
    search = ImageSearch(desk_model, image, ref, step, 2500, clip)
    rows, boxes = _spy_engine(monkeypatch)
    assert search.gaps([rmap]) == expected
    first_rows = [x for xs in rows for x in xs]
    assert not np.concatenate([f for _, _, f in boxes]).all()
    rows.clear()
    boxes.clear()
    assert search.gaps([rmap]) == expected
    # the replay certifies every recorded segment and runs the same blocks
    assert np.concatenate([f for _, _, f in boxes]).all()
    assert _multiset(x for xs in rows for x in xs) == _multiset(first_rows)


# (image, method, step, clip) at cap 1000
@pytest.mark.parametrize("idx, method, step, clip", [(0, "gradient", 1.0, False),
                                                    (3, "gradient", 0.5, True),
                                                    (36, "lrp", 1.0, False)])
def test_a_plan_from_another_ray_keeps_the_scan_answer(desk_model, desk_test_set, idx, method,
                                                       step, clip):
    cap = 1000
    image = desk_test_set.images[idx]
    ref = forward(desk_model, image).predicted_class
    rmap = simplify(compute_map(desk_model, image, method, target=ref), image, stage=3)
    search = ImageSearch(desk_model, image, ref, step, cap, clip)
    search.gaps([shuffle_map(rmap, idx)])  # records the shuffled map's plans
    result = search.gaps([rmap])[0]
    rays = apem_module._ray_pair(rmap, input_gradient(desk_model, image, ref))
    scans = [find_epsilon_scan(desk_model, image, ref, ray, step, cap, clip) for ray in rays]
    assert result == apem_module._gap_result(*scans)


def test_gaps_skip_undefined_maps_without_a_search(monkeypatch):
    net = random_net(3)
    image = np.random.default_rng(3).uniform(0, 1, (1, 8, 8))
    ref = forward(net, image).predicted_class
    rows, boxes = _spy_engine(monkeypatch)
    assert gaps(net, image, ref, [np.zeros((8, 8)), np.ones((8, 8))]) == [None, None]
    assert gaps(net, image, ref, []) == []
    assert rows == [] and boxes == []


@pytest.mark.parametrize(
    "ref_shift, bad_value, step, cap",
    [
        (1, None, 1.0, 50),  # not the prediction at the original image
        (0, 1.5, 1.0, 50),
        (0, np.nan, 1.0, 50),
        (0, None, np.nan, 50),
        (0, None, np.inf, 50),
        (0, None, 1.0, 0),
    ],
)
def test_gaps_reject_what_gap_rejects(ref_shift, bad_value, step, cap):
    net = random_net(2)
    image = np.random.default_rng(2).uniform(0, 1, (1, 8, 8))
    ref = (forward(net, image).predicted_class + ref_shift) % 5
    maps = [np.full((8, 8), 0.5)]
    if bad_value is not None:
        maps.append(np.full((8, 8), bad_value))
    with pytest.raises(InputShapeError):
        gaps(net, image, ref, maps, step, cap)
    with pytest.raises(InputShapeError):
        gap(net, image, ref, maps[-1], step, cap)


# (search, what is non-finite, value): a NaN or inf pixel gave a full search
# and a silent "capped" result
@pytest.mark.parametrize(
    "search, where, value",
    [(search, "image", value) for search in ("gap", "gaps", "find_epsilon", "find_epsilon_scan")
     for value in (np.nan, np.inf)]
    + [(search, "ray", value) for search in ("find_epsilon", "find_epsilon_scan")
       for value in (np.nan, -np.inf)],
)
def test_searches_reject_non_finite_inputs(search, where, value):
    net = random_net(4)
    rng = np.random.default_rng(4)
    image = rng.uniform(0, 1, (1, 8, 8))
    r_dir = rng.normal(0, 0.01, (1, 8, 8))
    (image if where == "image" else r_dir)[0, 3, 5] = value
    with np.errstate(invalid="ignore"):  # the reference forward runs on the bad pixel
        ref = forward(net, image).predicted_class
    rmap = np.full((8, 8), 0.5)
    run = {
        "gap": lambda: gap(net, image, ref, rmap, cap=50),
        "gaps": lambda: gaps(net, image, ref, [rmap], cap=50),
        "find_epsilon": lambda: find_epsilon(net, image, ref, r_dir, cap=50),
        "find_epsilon_scan": lambda: find_epsilon_scan(net, image, ref, r_dir, cap=50),
    }[search]
    # every check comes before any arithmetic on the bad value
    with pytest.raises(InputShapeError, match="finite"), np.errstate(invalid="raise"):
        run()


# the NaN logits of a row that overflows before any flip once read as
# class 0: a silent "capped" ray, or k = 1, depending on the reference class
@pytest.mark.parametrize("search", ["gap", "gaps", "find_epsilon", "find_epsilon_scan"])
def test_searches_raise_on_a_non_finite_row_before_the_flip(search):
    net = random_net(4)
    image = np.random.default_rng(4).uniform(0, 1, (1, 8, 8))
    ref = forward(net, image).predicted_class
    rmap, step = np.full((8, 8), 0.5), 1e308  # k * step overflows at k = 2
    r_dir = apem_module._ray_pair(rmap, input_gradient(net, image, ref))[0]
    run = {
        "gap": lambda: gap(net, image, ref, rmap, step, 50),
        "gaps": lambda: gaps(net, image, ref, [rmap], step, 50),
        "find_epsilon": lambda: find_epsilon(net, image, ref, r_dir, step, 50),
        "find_epsilon_scan": lambda: find_epsilon_scan(net, image, ref, r_dir, step, 50),
    }[search]
    with pytest.raises(NumericError, match="k = 2"), np.errstate(all="ignore"):
        run()


# ---------------------------------------------------------------------------
# Aggregates and shuffling
# ---------------------------------------------------------------------------


def test_package_exports_gaps_and_the_mean_function_apem():
    import apemkit

    assert apemkit.gaps is gaps
    assert apemkit.apem is apem  # the function shadows the submodule


def test_apem_is_mean_of_gaps():
    assert apem([1, 2, 3, 6]) == 3.0
    with pytest.raises(InputShapeError):
        apem([])


def test_gap_quartiles():
    q1, med, q3 = gap_quartiles(list(range(1, 101)))
    assert med == 50.5
    assert q1 < med < q3


def test_shuffle_map_preserves_value_multiset_and_is_seeded():
    values = np.random.default_rng(5).uniform(0, 1, (6, 6))
    rmap = RelevanceMap(values=values, stage=3)
    s1 = shuffle_map(rmap, seed=7)
    s2 = shuffle_map(rmap, seed=7)
    s3 = shuffle_map(rmap, seed=8)
    np.testing.assert_array_equal(np.sort(s1.values.ravel()), np.sort(values.ravel()))
    np.testing.assert_array_equal(s1.values, s2.values)
    assert not np.array_equal(s1.values, s3.values)
    assert s1.stage == 3
