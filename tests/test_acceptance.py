"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (bypassing output capture) before
asserting, so a full run always shows the per-criterion verdict.
"""

import numpy as np
import pytest

from apemkit.apem import (
    direct,
    find_epsilon,
    find_epsilon_scan,
    gap,
    gaps,
    normalize_l1,
    shuffle_map,
)
from apemkit.cli import main
from apemkit.explain import (
    METHOD_NAMES,
    compute_map,
    gradient_map,
    lrp_epsilon_map,
    simplify,
    smoothgrad_map,
)
from apemkit.filtering import filter_map
from apemkit.netcore import forward, input_gradient, loss
from apemkit.stats import spearman

from conftest import random_dense_net, random_net


@pytest.fixture
def announce(capfd):
    def _report(num, name, ok):
        with capfd.disabled():
            print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)

    return _report


# ---------------------------------------------------------------------------
# Shared desk-scale evaluation (computed once, reused by criteria 5-9)
# ---------------------------------------------------------------------------


def _defined_gap(g):
    """The gap, or None when it is undefined (all-zero map) or capped."""
    return None if g is None or g.capped_minus or g.capped_plus else g.gap


@pytest.fixture(scope="session")
def desk_eval(desk_model, desk_test_set):
    """Per-image records over the held-out set: confidence, loss, gaps for
    every method at stage 3, and gradient gaps at stages 1 and 2."""
    records = []
    for idx in range(len(desk_test_set)):
        image = desk_test_set.images[idx]
        label = int(desk_test_set.labels[idx])
        pred = forward(desk_model, image)
        ref = pred.predicted_class
        raws = [compute_map(desk_model, image, method, target=ref) for method in METHOD_NAMES]
        grad_raw = raws[METHOD_NAMES.index("gradient")]
        maps = [simplify(raw, image, stage=3) for raw in raws]
        maps += [simplify(grad_raw, image, stage=stage) for stage in (1, 2)]
        found = [_defined_gap(g) for g in gaps(desk_model, image, ref, maps, cap=2500)]
        records.append({
            "correct": ref == label,
            "confidence": pred.confidence,
            "loss": loss(pred, label),
            "gaps": dict(zip(METHOD_NAMES, found)),
            "grad_stage": {1: found[-2], 2: found[-1]},
        })
    return records


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_matches_finite_differences(announce):
    h = 1e-4
    worst = 0.0
    for case in range(50):
        if case % 2:
            net = random_dense_net(case, n_in=10, n_classes=3)
            rng = np.random.default_rng(1000 + case)
            x = rng.uniform(0.05, 0.95, 10)
        else:
            net = random_net(case, input_shape=(1, 6, 6), n_classes=3)
            rng = np.random.default_rng(1000 + case)
            x = rng.uniform(0.05, 0.95, (1, 6, 6))
        label = case % 3
        exact = input_gradient(net, x, label)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            hi, lo = x.copy(), x.copy()
            hi[idx] += h
            lo[idx] -= h
            fd = (loss(forward(net, hi), label) - loss(forward(net, lo), label)) / (2 * h)
            denom = max(abs(exact[idx]) + abs(fd), 1e-6)
            worst = max(worst, abs(exact[idx] - fd) / denom)
            it.iternext()
    ok = worst < 1e-4
    announce(1, f"input gradient vs central differences (max rel err {worst:.2e})", ok)
    assert ok


def test_criterion_02_lrp_conservation_on_bias_free_nets(announce):
    worst = 0.0
    for case in range(50):
        if case % 2:
            net = random_dense_net(case + 60, n_in=10, n_classes=3, bias_free=True)
            rng = np.random.default_rng(2000 + case)
            x = rng.uniform(0.05, 1.0, 10)
        else:
            net = random_net(case + 60, input_shape=(1, 6, 6), n_classes=3, bias_free=True)
            rng = np.random.default_rng(2000 + case)
            x = rng.uniform(0.05, 1.0, (1, 6, 6))
        pred = forward(net, x).predicted_class
        logit = forward(net, x).logits[pred]
        _, sums = lrp_epsilon_map(net, x, target=pred, epsilon=0.0, return_layer_sums=True)
        worst = max(worst, max(abs(s - logit) for s in sums))
    ok = worst < 1e-6
    announce(2, f"LRP per-layer conservation at epsilon=0 (max dev {worst:.2e})", ok)
    assert ok


def test_criterion_03_epsilon_search_matches_exhaustive_scan(announce):
    mismatches = 0
    for case in range(100):
        net = random_net(case % 10)
        rng = np.random.default_rng(3000 + case)
        image = rng.uniform(0, 1, (1, 8, 8))
        ref = forward(net, image).predicted_class
        rmap = rng.uniform(0, 1, (8, 8))
        grad = input_gradient(net, image, ref)
        for values in (rmap, 1.0 - rmap):  # relevance and irrelevance rays
            r_dir = direct(normalize_l1(values), grad)
            fast = find_epsilon(net, image, ref, r_dir, step=2.0, cap=64)
            slow = find_epsilon_scan(net, image, ref, r_dir, step=2.0, cap=64)
            if fast != slow:
                mismatches += 1
    ok = mismatches == 0
    announce(3, f"bracketed search == linear scan on 200 cases ({mismatches} mismatches)", ok)
    assert ok


def test_criterion_04_smoothgrad_degeneracy(announce, desk_model, desk_test_set):
    worst = 0.0
    for idx in range(3):
        image = desk_test_set.images[idx]
        ref = forward(desk_model, image).predicted_class
        g = gradient_map(desk_model, image, target=ref).values
        for n in (1, 10, 100):
            s = smoothgrad_map(desk_model, image, target=ref, n=n, sigma=0.0).values
            worst = max(worst, float(np.max(np.abs(s - g))))
    ok = worst <= 1e-12
    announce(4, f"smoothgrad sigma=0 equals gradient for n in {{1,10,100}} (max dev {worst:.1e})", ok)
    assert ok


def test_criterion_05_shuffle_neutrality(announce, desk_model, desk_test_set):
    # larger step / smaller cap than the defaults: neutrality is
    # step-invariant and the baseline below uses the same settings
    n_images, k_shuffles, step, cap = 200, 10, 4.0, 2500
    shuffled_gaps = []
    unshuffled = []
    for idx in range(n_images):
        image = desk_test_set.images[idx]
        ref = forward(desk_model, image).predicted_class
        rmap = simplify(gradient_map(desk_model, image, target=ref), image, stage=3)
        maps = [rmap] + [shuffle_map(rmap, seed=idx * 101 + s) for s in range(k_shuffles)]
        g0, *shuffled_results = gaps(desk_model, image, ref, maps, step=step, cap=cap)
        if not (g0.capped_minus or g0.capped_plus):
            unshuffled.append(g0.gap)
        for g in shuffled_results:
            if not (g.capped_minus or g.capped_plus):
                shuffled_gaps.append(g.gap)

    shuffled = np.array(shuffled_gaps, dtype=np.float64)
    rng = np.random.default_rng(0)
    boot = np.array([
        shuffled[rng.integers(0, len(shuffled), len(shuffled))].mean()
        for _ in range(5000)
    ])
    lo, hi = np.percentile(boot, [0.5, 99.5])
    scale = float(np.mean(np.abs(unshuffled)))
    mean = float(shuffled.mean())
    ok = lo <= 0.0 <= hi and abs(mean) < 0.1 * scale
    announce(
        5,
        f"shuffled-map gaps center on zero (mean {mean:.2f}, 99% CI [{lo:.2f}, {hi:.2f}], "
        f"unshuffled mean |gap| {scale:.1f})",
        ok,
    )
    assert ok


def test_criterion_06_misclassification_decreases_apem(announce, desk_eval):
    ok = True
    details = []
    for method in METHOD_NAMES:
        correct = [r["gaps"][method] for r in desk_eval if r["correct"] and r["gaps"][method] is not None]
        wrong = [r["gaps"][method] for r in desk_eval if not r["correct"] and r["gaps"][method] is not None]
        passed = (
            len(wrong) > 0
            and np.mean(wrong) < np.mean(correct)
            and np.median(wrong) < np.median(correct)
        )
        ok &= passed
        details.append(f"{method}:{'ok' if passed else 'FAIL'}")
    announce(6, "misclassified subset has lower mean and median gap (" + ", ".join(details) + ")", ok)
    assert ok


def test_criterion_07_confidence_loss_spearman_is_minus_one(announce, desk_eval):
    correct = [r for r in desk_eval if r["correct"]]
    assert len(correct) >= 200, "need at least 200 correctly classified images"
    res = spearman(
        [r["confidence"] for r in correct],
        [r["loss"] for r in correct],
        n_permutations=100,
    )
    ok = res.rho == -1.0
    announce(7, f"confidence vs loss Spearman rho == -1.0 exactly (got {res.rho!r}, n={res.n})", ok)
    assert ok


def test_criterion_08_gap_loss_correlation_is_negative(announce, desk_eval):
    pairs = [
        (r["gaps"]["gradient"], r["loss"])
        for r in desk_eval
        if r["correct"] and r["gaps"]["gradient"] is not None
    ]
    res = spearman([p[0] for p in pairs], [p[1] for p in pairs], n_permutations=10_000)
    ok = res.rho < 0 and res.p_value < 0.01
    announce(8, f"gradient gap vs loss: rho {res.rho:.3f}, permutation p {res.p_value:.2e}", ok)
    assert ok


def test_criterion_09_simplification_monotonicity(announce, desk_eval):
    """Paired gradient mean gaps order as s2 > s1 > s3 across the stages.

    The means are taken over one set of images: those whose gradient gap
    is defined (not capped, not an all-zero map) at all three stages, so a
    stage cannot move its mean by the images it happens to drop.

    Stage 2 raises the gap over stage 1 by construction. Let a channel-summed
    map m have minimum lo, 99th percentile p > lo and maximum M. `simplify`
    rescales min-max after the clamp, so at every pixel

        r2 = (min(m, p) - lo) / (p - lo)  >=  (m - lo) / (M - lo) = r1,

    with r2 = 1 on every clamped pixel. The irrelevance map 1 - r2 is then
    pointwise <= 1 - r1 and is 0 on the top 1% of pixels: the irrelevance
    ray loses its weight on the most relevant pixels and eps_plus rises.
    Two claims are kept from the unpaired form of this criterion: the
    whole simplification lowers the gradient mean gap (s1 > s3), and so
    does stage 3, the grayscale multiply (s2 > s3).
    """
    stages = [(r["grad_stage"][1], r["grad_stage"][2], r["gaps"]["gradient"]) for r in desk_eval]
    paired = [s for s in stages if None not in s]
    undefined = [sum(s[i] is None for s in stages) for i in range(3)]
    s1, s2, s3 = np.mean(paired, axis=0)
    ok = s2 > s1 > s3
    announce(
        9,
        f"paired gradient mean gap s2 > s1 > s3 (n {len(paired)}/{len(desk_eval)}, "
        f"undefined s1 {undefined[0]}, s2 {undefined[1]}, s3 {undefined[2]}; "
        f"s1 {s1:.1f}, s2 {s2:.1f}, s3 {s3:.1f})",
        ok,
    )
    assert ok


def test_criterion_10_filter_soundness(announce, desk_model, desk_test_set):
    n = 100
    regressions = 0
    shrunk = 0
    recompute_mismatches = 0
    for idx in range(n):
        image = desk_test_set.images[idx]
        ref = forward(desk_model, image).predicted_class
        rmap = simplify(gradient_map(desk_model, image, target=ref), image, stage=3)
        trace = filter_map(desk_model, image, ref, rmap, cap=2500)
        if trace.final_gap < trace.original_gap:
            regressions += 1
        if np.count_nonzero(trace.final_map.values) < np.count_nonzero(rmap.values):
            shrunk += 1
        recomputed = gap(desk_model, image, ref, trace.final_map, cap=2500).gap
        if recomputed != trace.final_gap:
            recompute_mismatches += 1
    ok = regressions == 0 and shrunk >= 0.9 * n and recompute_mismatches == 0
    announce(
        10,
        f"filter soundness on {n} maps ({regressions} regressions, {shrunk} shrunk, "
        f"{recompute_mismatches} recompute mismatches)",
        ok,
    )
    assert ok


def test_criterion_11_uniform_maps_give_zero_gap(announce, desk_model, desk_test_set):
    nonzero = 0
    for idx in range(20):
        image = desk_test_set.images[idx]
        ref = forward(desk_model, image).predicted_class
        if gap(desk_model, image, ref, np.full((28, 28), 0.5)).gap != 0:
            nonzero += 1
    for case in range(10):
        net = random_net(case)
        rng = np.random.default_rng(case)
        image = rng.uniform(0, 1, (1, 8, 8))
        ref = forward(net, image).predicted_class
        if gap(net, image, ref, np.full((8, 8), 0.5), cap=2000).gap != 0:
            nonzero += 1
    ok = nonzero == 0
    announce(11, f"uniform relevance maps give gap == 0 ({nonzero} violations)", ok)
    assert ok


def test_criterion_12_evaluate_is_byte_deterministic(announce, tmp_path):
    base = [
        "--dataset", "synthetic", "--n-images", "80", "--epochs", "1",
        "--methods", "gradient,lrp", "--limit", "10", "--cap", "2000",
        "--seed", "0", "--workers", "2",
    ]
    train_out = str(tmp_path / "train")
    assert main(["train", *base, "--out", train_out]) == 0
    model = f"{train_out}/model.net"
    csvs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["evaluate", *base, "--model", model, "--out", out]) == 0
        with open(f"{out}/results/per_image.csv", "rb") as f:
            csvs.append(f.read())
    ok = csvs[0] == csvs[1]
    announce(12, "two identical evaluate runs produce byte-identical CSVs", ok)
    assert ok
