"""Gap computation: normalization, directed rays, and the epsilon search."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apemkit.apem import (
    GapResult,
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
from apemkit.errors import InputShapeError, ZeroMapError
from apemkit.explain import METHOD_NAMES, RelevanceMap, compute_map, simplify
from apemkit.netcore import Dense, Network, ReLU, forward, input_gradient

from conftest import random_net

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


def _count_rows(monkeypatch):
    rows = []
    batch = apem_module.forward_logits_batch

    def spy(net_, xs, start=0):
        rows.append(len(xs))
        return batch(net_, xs, start)

    monkeypatch.setattr(apem_module, "forward_logits_batch", spy)
    return rows


def test_find_epsilon_zero_ray_returns_after_one_block(monkeypatch, desk_model, desk_test_set):
    image = desk_test_set.images[0]
    ref = forward(desk_model, image).predicted_class
    rows = _count_rows(monkeypatch)
    result = find_epsilon(desk_model, image, ref, np.zeros_like(image), cap=2500)
    assert result == (2500, True)
    assert sum(rows) <= 1 + apem_module._BLOCK  # the slope-bound pass plus one block


def test_find_epsilon_skips_most_of_a_capped_desk_ray(monkeypatch, desk_model, desk_test_set):
    cap = 2500
    image = desk_test_set.images[2]
    ref, r_dir = _desk_ray(desk_model, image, "lrp", "rel")
    rows = _count_rows(monkeypatch)
    assert find_epsilon(desk_model, image, ref, r_dir, cap=cap) == (cap, True)
    assert sum(rows) < 0.05 * cap


# (image, method, ray, cap): a ray that flips after rounds that skip and
# rounds that do not, and a capped ray whose last block is cut at the cap
@pytest.mark.parametrize("idx, method, ray, cap", [(0, "gradient", "irr", 2500),
                                                  (71, "gradient", "rel", 2498)])
def test_find_epsilon_blocks_are_fixed_and_one_row_after_a_skip(monkeypatch, desk_model,
                                                                desk_test_set, idx, method,
                                                                ray, cap):
    image = desk_test_set.images[idx]
    ref, r_dir = _desk_ray(desk_model, image, method, ray)
    calls = []
    batch = apem_module.forward_logits_batch

    def spy(net_, xs, start=0):
        calls.append(xs.copy())
        return batch(net_, xs, start)

    monkeypatch.setattr(apem_module, "forward_logits_batch", spy)
    k, capped = find_epsilon(desk_model, image, ref, r_dir, cap=cap)
    # one ray: the slope pass, then one call per round; each row's k read back
    # from the pixel the ray moves most
    p = np.argmax(np.abs(r_dir))
    rounds = [np.rint((xs.reshape(len(xs), -1)[:, p] - image.ravel()[p]) / r_dir.ravel()[p])
              for xs in calls[1:]]
    assert len(calls[0]) == 1
    assert list(rounds[0]) == list(range(1, apem_module._BLOCK + 1))
    skips = 0
    for before, ks in zip(rounds, rounds[1:]):
        skipped = ks[0] > before[-1] + 1
        skips += skipped
        rows = 1 if skipped else apem_module._BLOCK
        assert list(ks) == list(range(int(ks[0]), int(min(ks[0] + rows - 1, cap)) + 1))
    if idx == 0:
        assert not capped and k in rounds[-1] and 0 < skips < len(rounds) - 1
    else:  # no round skips, so the last block is cut at the cap
        assert capped and skips == 0
        assert rounds[-1][-1] == cap and len(rounds[-1]) == cap % apem_module._BLOCK


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
def test_find_epsilon_matches_scan_on_exact_ties_and_pockets(case):
    signs, thresholds, out_weight, out_bias, step, clip = case
    net = _tie_net(signs, thresholds, out_weight, out_bias)
    image = np.zeros(1)
    ref = forward(net, image).predicted_class
    r_dir = np.full(1, 1.0 / 64.0)
    cap = 150
    fast = find_epsilon(net, image, ref, r_dir, step, cap, clip)
    assert fast == find_epsilon_scan(net, image, ref, r_dir, step, cap, clip)


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
    rows = _count_rows(monkeypatch)
    each = [_gap_or_none(desk_model, image, ref, m, step, cap, clip) for m in maps]
    each_rows = list(rows)
    rows.clear()
    together = gaps(desk_model, image, ref, maps, step, cap, clip)
    assert together == each
    assert together[-2:] == [None, None]
    assert max(rows) <= apem_module._CALL_ROWS
    assert sum(rows) == sum(each_rows)
    assert len(rows) < len(each_rows)
    if idx == 2:
        assert any(g.capped_minus or g.capped_plus for g in together[:-2])


# (image, step, clip) at cap 2500, with rounds that mix 1-row and 4-row blocks
@pytest.mark.parametrize("idx, step, clip", [(2, 1.0, False), (2, 0.5, True), (0, 1.0, True)])
def test_gaps_fill_every_forward_call_but_the_last_of_a_round(monkeypatch, desk_model,
                                                             desk_test_set, idx, step, clip):
    cap = 2500
    image = desk_test_set.images[idx]
    ref = forward(desk_model, image).predicted_class
    maps = [simplify(compute_map(desk_model, image, m, target=ref), image, stage=3)
            for m in METHOD_NAMES]
    grad = input_gradient(desk_model, image, ref)
    rays = [ray for m in maps for ray in apem_module._ray_pair(m, grad)]
    rows = _count_rows(monkeypatch)
    alone = []  # each ray searched alone: the slope pass, then one call per round
    for ray in rays:
        rows.clear()
        find_epsilon(desk_model, image, ref, ray, step, cap, clip)
        alone.append(rows[1:])
    rows.clear()
    for m in maps:
        gap(desk_model, image, ref, m, step, cap, clip)
    each_rows = sum(rows)
    rows.clear()
    gaps(desk_model, image, ref, maps, step, cap, clip)
    # the slope pass of every ray, then each round's blocks of all live rays
    rounds = [len(rays)] + [sum(calls[r] for calls in alone if r < len(calls))
                            for r in range(max(map(len, alone)))]
    n = apem_module._CALL_ROWS
    assert rows == [min(n, total - i) for total in rounds for i in range(0, total, n)]
    assert sum(rows) == each_rows
    assert any(1 in calls and apem_module._BLOCK in calls for calls in alone)


def test_gaps_skip_undefined_maps_without_a_search(monkeypatch):
    net = random_net(3)
    image = np.random.default_rng(3).uniform(0, 1, (1, 8, 8))
    ref = forward(net, image).predicted_class
    rows = _count_rows(monkeypatch)
    assert gaps(net, image, ref, [np.zeros((8, 8)), np.ones((8, 8))]) == [None, None]
    assert gaps(net, image, ref, []) == []
    assert rows == []


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
