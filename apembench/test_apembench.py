"""Tests of the benchmark's own tracer and output checks, on tiny networks.

Run from the repository root: python3 -m pytest apembench -q
"""

import csv
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from launcher import Launcher  # noqa: E402
from run import write_idx  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from apemkit.cli import main as cli_main  # noqa: E402
from apemkit.explain import compute_map, simplify  # noqa: E402
from apemkit.filtering import filter_map  # noqa: E402
from apemkit.modelio import save_model  # noqa: E402
from apemkit.netcore import Conv2D, Dense, Flatten, MaxPool2D, Network, ReLU, forward  # noqa: E402

apem = importlib.import_module("apemkit.apem")  # the package also exports a function `apem`


def tiny_net(seed=0, size=8, n_classes=5):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(rng.normal(0, 0.5, (4, 1, 3, 3)), rng.normal(0, 0.1, 4), padding=1),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(rng.normal(0, 0.5, (n_classes, 4 * (size // 2) ** 2)), rng.normal(0, 0.1, n_classes)),
    ]
    return Network(layers, (1, size, size))


def tiny_images(n, seed=1, size=8):
    return np.random.default_rng(seed).random((n, 1, size, size))


def stage3(net, image, method="gradient"):
    ref = forward(net, image).predicted_class
    return ref, simplify(compute_map(net, image, method, target=ref), image, stage=3)


def test_tracer_rows_equal_rows_the_searches_evaluate(monkeypatch):
    net = tiny_net()
    evaluated = []
    with Tracer() as tracer:
        traced_batch = apem.forward_logits_batch

        def spy(net_, xs, start=0):
            evaluated.append(len(xs))
            return traced_batch(net_, xs, start)

        monkeypatch.setattr(apem, "forward_logits_batch", spy)
        returned = []
        for image in tiny_images(6):
            ref, rmap = stage3(net, image)
            g = apem.gap(net, image, ref, rmap, 1.0, 300)
            returned += [g.eps_minus, g.eps_plus]
        monkeypatch.undo()
    m = layer_metrics(tracer.spans)
    rows = m["netcore.forward_logits_batch.rows"][0]
    assert rows == sum(evaluated) > 0
    assert m["apem.find_epsilon.calls"][0] == len(returned) == 12
    assert m["apem.find_epsilon.rows_per_search"][0] * len(returned) == pytest.approx(rows)
    # a search evaluates every k up to the one it returns
    assert rows >= sum(returned)
    assert 0 < m["apem.find_epsilon.useful_ratio"][0] <= 1


def test_tracer_reaches_every_importing_namespace_and_restores():
    netcore = importlib.import_module("apemkit.netcore")
    cli = importlib.import_module("apemkit.cli")
    filtering = importlib.import_module("apemkit.filtering")
    original_batch, original_gap = netcore.forward_logits_batch, apem.gap
    with Tracer():
        assert apem.forward_logits_batch is not original_batch
        assert filtering.gap is not original_gap
        assert cli.compute_gap is filtering.gap
    assert apem.forward_logits_batch is original_batch
    assert filtering.gap is original_gap and cli.compute_gap is original_gap


def test_wrappers_leave_results_bit_identical():
    net = tiny_net(3)
    image = tiny_images(1, seed=4)[0]

    def outputs():
        ref, rmap = stage3(net, image, "smoothgrad")
        trace = filter_map(net, image, ref, rmap, 1.0, 200)
        return rmap.values, apem.gap(net, image, ref, rmap, 1.0, 200), trace

    plain = outputs()
    with Tracer() as tracer:
        traced = outputs()
    assert tracer.spans
    assert np.array_equal(plain[0], traced[0])
    assert plain[1] == traced[1]
    assert np.array_equal(plain[2].final_map.values, traced[2].final_map.values)
    assert plain[2].iterations == traced[2].iterations


def test_flip_check_rejects_off_by_one_k():
    net = tiny_net()
    found = 0
    for image in tiny_images(20, seed=7):
        ref, rmap = stage3(net, image)
        grad = apem.input_gradient(net, image, ref)
        r_dir = apem.direct(apem.normalize_l1(rmap.values), grad)
        k, capped = apem.find_epsilon(net, image, ref, r_dir, 1.0, 500)
        if capped or k < 2:
            continue
        found += 1
        assert checks.flip_k_is_first(net, image, ref, r_dir, k)
        assert not checks.flip_k_is_first(net, image, ref, r_dir, k - 1)
        assert not checks.flip_k_is_first(net, image, ref, r_dir, k + 1)
    assert found >= 3


def test_evaluate_check_catches_a_shifted_epsilon(tmp_path):
    net = tiny_net(5)
    model = tmp_path / "tiny.net"
    save_model(net, model)
    pixels = np.round(tiny_images(3, seed=9) * 255).astype(np.uint8)
    dataset = write_idx(pixels, np.zeros(3, dtype=np.int64), tmp_path / "held")
    images = pixels / 255.0
    methods = ["gradient", "lrp"]
    out = tmp_path / "run"
    code = cli_main(["evaluate", "--dataset", dataset, "--model", str(model), "--seed", "0",
                     "--out", str(out), "--methods", ",".join(methods), "--cap", "300",
                     "--workers", "1"])
    assert code == 0
    assert checks.check_evaluate(out, net, images, methods, 3, 300, 0) == set()

    path = out / "results" / "per_image.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    victim = next(r for r in body if r[col["gap"]] and r[col["capped_minus"]] == "False")
    victim[col["eps_minus"]] = str(int(victim[col["eps_minus"]]) + 1)
    victim[col["gap"]] = str(int(victim[col["eps_plus"]]) - int(victim[col["eps_minus"]]))
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header] + body)
    assert checks.check_evaluate(out, net, images, methods, 3, 300, 0) == {
        checks.image_index(victim[col["image_id"]])}


def test_golden_check_fails_every_image_when_the_image_count_changed(tmp_path, monkeypatch):
    model = tmp_path / "model.net"
    model.write_bytes(b"model")
    golden = tmp_path / "golden.json"
    recorded = ["a", "b", "c"]
    golden.write_text(json.dumps({"filter": {"model": checks.file_digest(model),
                                             "images": recorded}}))
    monkeypatch.setattr(run, "GOLDEN", golden)
    assert run.golden_failures("filter", 0, str(model), recorded) == set()
    assert run.golden_failures("filter", 0, str(model), ["a", "x", "c"]) == {1}
    assert run.golden_failures("filter", 0, str(model), recorded[:2]) == {0, 1}
    assert run.golden_failures("filter", 0, str(model), recorded + ["d"]) == {0, 1, 2, 3}
    assert run.golden_failures("filter", 1, str(model), ["x"]) == set()  # other seeds


def test_launcher_reports_each_childs_own_peak_rss(tmp_path):
    def run_commands(argvs):
        runs = []
        for command, mib in argvs:
            if command == "raise":
                raise RuntimeError("command failed")
            block = b"\x01" * (int(mib) << 20)  # written, so resident
            runs.append((0, float(len(block) >> 20)))
        return runs

    log = tmp_path / "log"
    with Launcher(run_commands, log) as launch:
        big_runs, big = launch([["alloc", "64"]])
        ballast = b"\x01" * (128 << 20)  # the benchmark process grows after the fork
        small_runs, small = launch([["alloc", "0"], ["alloc", "1"]])
        failed_runs, _ = launch([["alloc", "0"], ["raise", "0"]])
    del ballast
    assert big_runs == [(0, 64.0)]
    assert small_runs == [(0, 0.0), (0, 1.0)]
    assert small < big - 48  # neither the earlier child nor the ballast counts
    assert failed_runs == []  # the caller counts a short list as a failure
    assert "command failed" in log.read_text()


def test_benchmark_json_lists_the_metrics_the_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = {name: unit for name, (_, unit) in layer_metrics([]).items()}
    emitted.update({"cli.pool.efficiency": "ratio", "report_s": "s",
                    "tracer.overhead_ratio": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "results_per_s", "peak_rss_mb"]
