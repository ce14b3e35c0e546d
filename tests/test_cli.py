"""End-to-end CLI runs on a tiny configuration, plus exit-code mapping."""

import csv
import json
import os

import pytest

from apemkit.cli import main
from apemkit.mapio import load_map
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
        if r["gap"] != "":
            assert int(r["gap"]) == int(r["eps_plus"]) - int(r["eps_minus"])


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
    ],
)
def test_exit_code_2_on_out_of_range_values(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2


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
    # missing idx dataset files
    assert main([
        "train", "--dataset", "idx:/nope/images:/nope/labels", "--out", str(tmp_path),
    ]) == 3


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
