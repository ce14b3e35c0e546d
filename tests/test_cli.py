"""End-to-end CLI runs on a tiny configuration, plus exit-code mapping."""

import csv
import gzip
import json
import os
from operator import itemgetter

import numpy as np
import pytest

from apemkit import cli
from apemkit.cli import main
from apemkit.mapio import load_map
from apemkit.modelio import save_model
from apemkit.netcore import Dense, Flatten, Network
from apemkit.stats import read_rows

TINY = [
    "--dataset", "synthetic",
    "--n-images", "48",
    "--epochs", "1",
    "--cap", "300",
    "--seed", "0",
    "--workers", "1",
]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One trained tiny model shared by the command tests."""
    out = str(tmp_path_factory.mktemp("run"))
    code = main(["train", *TINY, "--out", out])
    assert code == 0
    return out


def _args(out, *extra):
    return [*TINY, "--out", out, "--limit", "4", "--methods", "gradient,lrp", *extra]


def test_train_writes_model_and_manifest(tiny_run):
    assert os.path.exists(os.path.join(tiny_run, "model.net"))
    assert os.path.exists(os.path.join(tiny_run, "config.json"))
    with open(os.path.join(tiny_run, "model_manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["n_train"] == 48
    assert 0.0 <= manifest["train_accuracy"] <= 1.0


def test_explain_writes_one_map_per_image_method_stage(tiny_run):
    assert main(["explain", *_args(tiny_run)]) == 0
    maps_dir = os.path.join(tiny_run, "maps")
    names = sorted(f for f in os.listdir(maps_dir) if f.endswith(".map"))
    assert len(names) == 4 * 2 * 3  # images x methods x stages
    # smoothgrad with sigma=0 must reproduce gradient maps exactly
    assert main(["explain", *_args(tiny_run, "--methods", "smoothgrad", "--sigma", "0", "--smooth-n", "5")]) == 0
    for stage in (1, 2, 3):
        g, _ = load_map(os.path.join(maps_dir, f"img00000_gradient_s{stage}.map"))
        s, _ = load_map(os.path.join(maps_dir, f"img00000_smoothgrad_s{stage}.map"))
        assert (g.values == s.values).all()
    # stage-1 and stage-3 gradient maps differ
    g1, _ = load_map(os.path.join(maps_dir, "img00000_gradient_s1.map"))
    g3, _ = load_map(os.path.join(maps_dir, "img00000_gradient_s3.map"))
    assert not (g1.values == g3.values).all()


def test_evaluate_writes_contract_csvs(tiny_run):
    assert main(["evaluate", *_args(tiny_run)]) == 0
    results = os.path.join(tiny_run, "results")
    rows = read_rows(os.path.join(results, "per_image.csv"))
    assert len(rows) == 4 * 2
    assert {r["method"] for r in rows} == {"gradient", "lrp"}
    correct = read_rows(os.path.join(results, "correct.csv"))
    wrong = read_rows(os.path.join(results, "misclassified.csv"))
    assert len(correct) + len(wrong) == len(rows)
    for r in rows:
        if r["gap"] is not None:
            assert r["gap"] == r["eps_plus"] - r["eps_minus"]


def test_per_image_csv_reads_back_as_the_rows_evaluate_one_returned(tiny_run, monkeypatch):
    evaluate_one, returned = cli.evaluate_one, []

    def recording(*args):
        rows = evaluate_one(*args)
        returned.extend(rows)
        return rows

    monkeypatch.setattr(cli, "evaluate_one", recording)
    assert main(["evaluate", *_args(tiny_run)]) == 0
    returned.sort(key=itemgetter("image_id", "method", "stage"))
    assert read_rows(os.path.join(tiny_run, "results", "per_image.csv")) == returned


def test_report_builds_summary_and_correlation_tables(tiny_run):
    assert main(["report", *_args(tiny_run)]) == 0
    reports = os.path.join(tiny_run, "reports")
    for name in ("summary.csv", "summary_split.csv", "pairwise.csv",
                 "eps_plus_diff.csv", "correlation.csv"):
        assert os.path.exists(os.path.join(reports, name)), name
    with open(os.path.join(reports, "summary.csv")) as f:
        lines = f.read().strip().splitlines()
    assert lines[0].startswith("method,stage,n_images")
    assert len(lines) >= 3


def test_shuffle_test_writes_k_rows_per_image_and_stage(tiny_run):
    assert main(["shuffle-test", *_args(tiny_run, "--limit", "2"), "--k-shuffles", "3"]) == 0
    with open(os.path.join(tiny_run, "results", "shuffle.csv")) as f:
        lines = f.read().strip().splitlines()
    assert len(lines) - 1 == 2 * 3 * 3  # images x stages x shuffles


def test_no_two_image_shuffle_pairs_of_a_run_share_a_permutation(tiny_run, monkeypatch):
    perms = []  # the permutation of every shuffle_map call, in row order
    shuffle_map = cli.shuffle_map

    def spy(rmap, seed):
        shape = rmap.values.shape
        perms.append(shuffle_map(np.arange(np.prod(shape)).reshape(shape), seed).values.tobytes())
        return shuffle_map(rmap, seed)

    monkeypatch.setattr(cli, "shuffle_map", spy)
    assert main(["shuffle-test", *_args(tiny_run), "--k-shuffles", "3"]) == 0
    rows = _csv_dicts(os.path.join(tiny_run, "results", "shuffle.csv"))
    by_pair = {}
    for row, perm in zip(rows, perms, strict=True):
        by_pair.setdefault((row["image_id"], row["shuffle_index"]), set()).add(perm)
    assert len(by_pair) == 4 * 3  # images x shuffles
    assert all(len(p) == 1 for p in by_pair.values())  # a pair's stages share one
    assert len(set().union(*by_pair.values())) == len(by_pair)


def test_filter_writes_filtered_maps_and_trace(tiny_run):
    assert main(["filter", *_args(tiny_run, "--limit", "2", "--methods", "gradient")]) == 0
    filtered = os.path.join(tiny_run, "maps", "filtered")
    assert len(os.listdir(filtered)) == 2
    with open(os.path.join(tiny_run, "results", "filter_trace.csv")) as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "image_id,method,stage,iteration,threshold,zeroed_count,gap"
    assert len(lines) > 2


def test_exit_code_2_on_config_errors(tmp_path):
    assert main(["evaluate", "--stage", "9", "--out", str(tmp_path)]) == 2
    assert main(["evaluate", "--dataset", "hdf5:x", "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["evaluate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text('{"cap": "10"}')
    assert main(["evaluate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text('["seed"]')
    assert main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_bytes(b'{"methods": "gr\xe4dient"}')  # not UTF-8
    assert main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["train", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["explain", "--limit", "-3"],
        ["evaluate", "--workers", "-1"],
        ["train", "--epochs", "-1"],
        ["train", "--lr", "0"],
        ["shuffle-test", "--k-shuffles", "0"],
        ["train", "--n-images", "0"],
        ["evaluate", "--step", "nan"],
        ["evaluate", "--step", "inf"],
        ["train", "--lr", "nan"],
        ["explain", "--sigma", "nan"],
        ["explain", "--lrp-epsilon", "inf"],
        ["filter", "--batch-fraction", "nan"],
        ["evaluate", "--methods", "gradient,gradient"],
        ["evaluate", "--methods", ""],
    ],
)
def test_exit_code_2_on_out_of_range_values(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2


def test_exit_code_2_on_a_negative_seed(tiny_run, monkeypatch):
    # not a ValueError from SmoothGrad's generator once the run has started
    assert main(["explain", *_args(tiny_run, "--methods", "smoothgrad", "--seed", "-1")]) == 2
    monkeypatch.setenv("APEMKIT_SEED", "-1")
    assert main(["explain", *_args(tiny_run, "--methods", "smoothgrad")]) == 2


@pytest.mark.parametrize(
    "fields",
    ['{"noise_std": -0.5}', '{"image_size": 6}', '{"n_images": 0}', '{"n_classes": 1}',
     '{"noise_std": NaN}'],
)
def test_exit_code_2_on_out_of_range_synthetic_fields(tmp_path, fields):
    bad = tmp_path / "bad.json"
    bad.write_text(fields)
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2


def test_exit_code_3_on_data_errors(tmp_path):
    # missing model file
    assert main(["evaluate", *TINY, "--out", str(tmp_path)]) == 3
    # a model path that is a directory
    assert main(["evaluate", *TINY, "--model", str(tmp_path), "--out", str(tmp_path)]) == 3
    # missing idx dataset files
    assert main([
        "train", "--dataset", "idx:/nope/images:/nope/labels", "--out", str(tmp_path),
    ]) == 3


@pytest.mark.parametrize(
    "corrupt",
    [lambda raw: gzip.compress(raw)[:-12], lambda raw: b"\x1f\x8b" + raw],
    ids=["truncated_gzip", "gzip_magic_on_plain_idx"],
)
def test_exit_code_3_on_a_bad_gzip_idx_file(tmp_path, corrupt):
    from test_data import write_idx_images, write_idx_labels

    images, labels = tmp_path / "images", tmp_path / "labels"
    write_idx_images(images, np.zeros((6, 28, 28)))
    write_idx_labels(labels, [0, 1, 2, 3, 4, 5])
    for path in (images, labels):
        path.write_bytes(corrupt(path.read_bytes()))
    assert main(["train", "--dataset", f"idx:{images}:{labels}", "--epochs", "1",
                 "--out", str(tmp_path / "run")]) == 3


def test_exit_code_3_on_idx_labels_outside_the_classes(tmp_path, capsys):
    from test_data import write_idx_images, write_idx_labels

    images, labels = tmp_path / "images", tmp_path / "labels"
    write_idx_images(images, np.zeros((6, 28, 28)))
    write_idx_labels(labels, [0, 1, 2, 12, 3, 4])
    assert main(["train", "--dataset", f"idx:{images}:{labels}", "--epochs", "1",
                 "--out", str(tmp_path / "run")]) == 3
    assert "label 12 of sample 3 out of range for 10 classes" in capsys.readouterr().err


def test_exit_code_3_on_idx_images_of_another_size(tmp_path, capsys):
    from test_data import write_idx_images, write_idx_labels

    images, labels = tmp_path / "images", tmp_path / "labels"
    write_idx_images(images, np.zeros((6, 32, 32)))
    write_idx_labels(labels, [0, 1, 2, 3, 4, 5])
    assert main(["train", "--dataset", f"idx:{images}:{labels}", "--epochs", "1",
                 "--out", str(tmp_path / "run")]) == 3
    assert "(1, 32, 32) do not match network input (1, 28, 28)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "filter"])
def test_exit_code_4_when_a_search_row_overflows(tmp_path, capsys, command):
    # k * step overflows at k = 2, which a ray of this model reaches without
    # a flip; its NaN rows once read as class 0, giving a capped ray or k = 1
    args = [*TINY, "--n-images", "60", "--out", str(tmp_path)]
    assert main(["train", *args]) == 0
    with np.errstate(all="ignore"):
        assert main([command, *args, "--limit", "3", "--step", "1e308", "--cap", "20",
                     "--methods", "gradient,lrp"]) == 4
    assert "numeric failure: non-finite logits at k = " in capsys.readouterr().err


def test_exit_code_3_on_malformed_per_image_csv(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    header = ("image_id,method,stage,eps_minus,eps_plus,gap,capped_minus,capped_plus,"
              "predicted_class,true_class,confidence,loss")
    for bad_row in (b"img00000,gradient,x,10,30,20,False,False,1,1,0.9,0.1",
                    b"img00000,gradient,3,10,30,abc,False,False,1,1,0.9,0.1",
                    b"img00000,gradient,3,10,30",
                    b"img00000,gr\xe4dient,3,10,30,20,False,False,1,1,0.9,0.1",
                    # a repeated (image_id, method, stage) key
                    b"img00000,gradient,3,10,30,20,False,False,1,1,0.9,0.1\n"
                    b"img00000,gradient,3,10,30,20,False,False,1,1,0.9,0.1"):
        (results / "per_image.csv").write_bytes(f"{header}\n".encode() + bad_row + b"\n")
        assert main(["report", "--out", str(tmp_path)]) == 3


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    initializer and the tasks in this process."""

    started = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def _output_bytes(out):
    """Every map and result file of a run, by its path inside the run."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.parent != out}


@pytest.mark.parametrize(
    "command, extra, started",
    [
        (["evaluate"], ["--limit", "3", "--methods", "gradient"], 3),
        (["explain"], ["--limit", "3", "--methods", "gradient"], 3),
        (["filter"], ["--limit", "2", "--methods", "gradient,lrp"], 4),
        (["shuffle-test", "--k-shuffles", "2"], ["--limit", "2", "--methods", "gradient"], 2),
    ],
    ids=["evaluate-one-task-per-image", "explain-one-task-per-image", "filter-one-task-per-map",
         "shuffle-one-task-per-image"],
)
def test_pooled_commands_start_one_worker_per_task(tiny_run, tmp_path, monkeypatch,
                                                   command, extra, started):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli, "_WORKER_STATE", {})
    monkeypatch.setattr(_InlinePool, "started", [])
    model = os.path.join(tiny_run, "model.net")
    outputs = []
    for workers in ("64", "1"):
        out = tmp_path / workers
        assert main([*command, *TINY, "--model", model, "--out", str(out), *extra,
                     "--workers", workers]) == 0
        outputs.append(_output_bytes(out))
    assert _InlinePool.started == [started]
    assert outputs[0] and outputs[0] == outputs[1]


def test_workers_above_the_bound_exit_2_before_a_pool_starts(tiny_run, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "started", [])
    model = os.path.join(tiny_run, "model.net")
    for command in ("explain", "evaluate", "shuffle-test", "filter"):
        assert main([command, *TINY, "--model", model, "--out", str(tmp_path), "--limit", "3",
                     "--methods", "gradient", "--workers", "65"]) == 2
    assert _InlinePool.started == []


@pytest.mark.parametrize("command", ["explain", "evaluate", "shuffle-test", "filter"])
def test_error_in_a_pool_worker_keeps_its_exit_code(tmp_path, command):
    # gradcam needs a conv layer, so every task of this model raises
    # MethodInapplicableError (exit 3) inside a real two-process pool
    rng = np.random.default_rng(0)
    net = Network([Flatten(), Dense(rng.normal(0, 0.1, (10, 28 * 28)), np.zeros(10))],
                  (1, 28, 28))
    model = tmp_path / "dense.net"
    save_model(net, model)
    assert main([command, *TINY, "--model", str(model), "--out", str(tmp_path / "run"),
                 "--limit", "2", "--methods", "gradcam", "--workers", "2"]) == 3


def test_env_seed_is_honored_by_cli(tmp_path, monkeypatch):
    out = str(tmp_path / "r")
    monkeypatch.setenv("APEMKIT_SEED", "77")
    assert main(["train", "--dataset", "synthetic", "--n-images", "20",
                 "--epochs", "0", "--out", out]) == 0
    with open(os.path.join(out, "config.json")) as f:
        assert json.load(f)["seed"] == 77


def _csv_dicts(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_report_writes_empty_pairwise_row_when_groups_share_no_image(tmp_path):
    # gradient is measured on img00000 only and lrp on img00001 only
    # (lrp's img00000 search hit the cap), so the pair has nothing in common
    results = tmp_path / "results"
    results.mkdir()
    header = ("image_id,method,stage,eps_minus,eps_plus,gap,capped_minus,capped_plus,"
              "predicted_class,true_class,confidence,loss")
    lines = [
        header,
        "img00000,gradient,3,10,30,20,False,False,1,1,0.9,0.1",
        "img00000,lrp,3,10,300,290,False,True,1,1,0.9,0.1",
        "img00001,lrp,3,12,40,28,False,False,2,2,0.8,0.2",
    ]
    (results / "per_image.csv").write_text("\n".join(lines) + "\n")
    assert main(["report", "--out", str(tmp_path)]) == 0
    pairwise = _csv_dicts(tmp_path / "reports" / "pairwise.csv")
    assert pairwise == [{"method_a": "gradient", "method_b": "lrp", "stage": "3",
                         "better": "", "equal": "", "worse": "",
                         "n_compared": "0", "n_excluded": "2"}]
    histogram = _csv_dicts(tmp_path / "reports" / "eps_plus_diff.csv")
    assert histogram == []


def test_report_writes_histogram_bin_edges_as_plain_floats(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    header = ("image_id,method,stage,eps_minus,eps_plus,gap,capped_minus,capped_plus,"
              "predicted_class,true_class,confidence,loss")
    lines = [
        header,
        "img00000,gradient,3,10,30,20,False,False,1,1,0.9,0.1",
        "img00000,lrp,3,10,32,22,False,False,1,1,0.9,0.1",
        "img00001,gradient,3,12,40,28,False,False,2,2,0.8,0.2",
        "img00001,lrp,3,12,41,29,False,False,2,2,0.8,0.2",
    ]
    (results / "per_image.csv").write_text("\n".join(lines) + "\n")
    assert main(["report", "--out", str(tmp_path)]) == 0
    histogram = _csv_dicts(tmp_path / "reports" / "eps_plus_diff.csv")
    # eps_plus differences -2 and -1 fill the one closed bin [-2, -1]
    assert [(float(r["bin_lo"]), float(r["bin_hi"]), r["count"]) for r in histogram] == [
        (-2.0, -1.0, "2")]
