"""Command-line entry point.

Subcommands: train, explain, evaluate, shuffle-test, filter, report.
Every run writes into an output directory holding the exact config used,
so any number in a report can be re-derived. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from .apem import gap as compute_gap, shuffle_map
from . import stats as stats_mod
from .config import RunConfig
from .data import load_idx_dataset, synthetic_dataset
from .errors import (
    ApemkitError,
    ConfigError,
    DataError,
    NumericError,
    ZeroMapError,
)
from .explain import compute_map, simplify
from .filtering import filter_map
from .mapio import save_map
from .modelio import load_model, save_model
from .netcore import (
    Conv2D,
    Dataset,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    accuracy,
    forward,
    loss,
    train,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def build_desk_model(image_size: int = 28, n_classes: int = 10, seed: int = 0) -> Network:
    """2 conv + 1 dense CNN sized for small grayscale images."""
    rng = np.random.default_rng(seed)
    if image_size % 4 != 0:
        raise ConfigError(f"image_size must be divisible by 4, got {image_size}")
    c1, c2 = 8, 16
    w1 = rng.normal(0, np.sqrt(2.0 / 9), size=(c1, 1, 3, 3))
    w2 = rng.normal(0, np.sqrt(2.0 / (c1 * 9)), size=(c2, c1, 3, 3))
    flat = c2 * (image_size // 4) ** 2
    w3 = rng.normal(0, np.sqrt(1.0 / flat), size=(n_classes, flat))
    layers = [
        Conv2D(w1, np.zeros(c1), stride=1, padding=1),
        ReLU(),
        MaxPool2D(2),
        Conv2D(w2, np.zeros(c2), stride=1, padding=1),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(w3, np.zeros(n_classes)),
    ]
    return Network(layers, (1, image_size, image_size))


def load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset_kind == "idx":
        for p in (cfg.dataset_images, cfg.dataset_labels):
            if not os.path.exists(p):
                raise DataError(f"dataset file not found: {p}")
        ds = load_idx_dataset(cfg.dataset_images, cfg.dataset_labels)
    else:
        ds = synthetic_dataset(
            cfg.n_images,
            n_classes=cfg.n_classes,
            image_size=cfg.image_size,
            seed=cfg.seed,
            noise_std=cfg.noise_std,
        )
    if cfg.limit:
        ds = Dataset(images=ds.images[: cfg.limit], labels=ds.labels[: cfg.limit])
    return ds


def prepare_run_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    for sub in ("maps", "results", "reports"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    cfg.save(out / "config.json")
    return out


def image_seed(cfg_seed: int, idx: int) -> int:
    # stable per-image RNG stream so parallel schedules cannot change results
    return cfg_seed * 1_000_003 + idx


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def require_model(cfg: RunConfig) -> Network:
    path = cfg.model or str(Path(cfg.out) / "model.net")
    if not os.path.exists(path):
        raise DataError(f"model file not found: {path} (run 'apemkit train' first)")
    net = load_model(path)
    expected = (1, cfg.image_size, cfg.image_size) if cfg.dataset_kind == "synthetic" else None
    if expected and net.input_shape != expected:
        raise DataError(
            f"model input shape {net.input_shape} incompatible with dataset shape {expected}"
        )
    return net


# ---------------------------------------------------------------------------
# Per-image evaluation (parallelizable)
# ---------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _init_worker(model_path: str, cfg_json: str):
    _WORKER_STATE["net"] = load_model(model_path)
    _WORKER_STATE["cfg"] = RunConfig.from_json(cfg_json)


def evaluate_one(net: Network, cfg: RunConfig, idx: int, image: np.ndarray, label: int):
    """Rows for one image: (image_id, method, stage, eps-, eps+, gap, flags,
    predicted, true, confidence, loss). Undefined gaps yield empty fields."""
    pred = forward(net, image)
    ref = pred.predicted_class
    j = loss(pred, label)
    image_id = f"img{idx:05d}"
    rows = []
    for method in cfg.methods:
        raw = compute_map(
            net,
            image,
            method,
            target=ref,
            smooth_n=cfg.smooth_n,
            sigma=cfg.sigma,
            lrp_epsilon=cfg.lrp_epsilon,
            seed=image_seed(cfg.seed, idx),
        )
        rmap = simplify(raw, image, stage=cfg.stage)
        try:
            g = compute_gap(net, image, ref, rmap, cfg.step, cfg.cap, cfg.clip)
            rows.append(
                [
                    image_id, method, cfg.stage, g.eps_minus, g.eps_plus, g.gap,
                    g.capped_minus, g.capped_plus, ref, label, pred.confidence, j,
                ]
            )
        except ZeroMapError:
            rows.append(
                [image_id, method, cfg.stage, "", "", "", "", "", ref, label,
                 pred.confidence, j]
            )
    return rows


def _evaluate_task(args):
    idx, image, label = args
    return evaluate_one(_WORKER_STATE["net"], _WORKER_STATE["cfg"], idx, image, label)


def run_evaluate(cfg: RunConfig, net: Network, ds: Dataset, model_path: str) -> list[list]:
    tasks = [(i, ds.images[i], int(ds.labels[i])) for i in range(len(ds))]
    workers = cfg.workers or os.cpu_count() or 1
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(model_path, cfg.to_json()),
        ) as pool:
            chunks = list(pool.map(_evaluate_task, tasks, chunksize=8))
    else:
        chunks = [evaluate_one(net, cfg, *t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def config_options(fn):
    opts = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON config file; flags override its fields."),
        click.option("--dataset", type=str, default=None,
                     help="'synthetic' or 'idx:IMAGES:LABELS'."),
        click.option("--model", type=click.Path(), default=None),
        click.option("--methods", type=str, default=None, help="Comma-separated method names."),
        click.option("--stage", type=int, default=None),
        click.option("--step", type=float, default=None),
        click.option("--cap", type=int, default=None),
        click.option("--clip/--no-clip", "clip", default=None),
        click.option("--sigma", type=float, default=None),
        click.option("--smooth-n", type=int, default=None),
        click.option("--lrp-epsilon", type=float, default=None),
        click.option("--batch-fraction", type=float, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--workers", type=int, default=None),
        click.option("--out", type=click.Path(), default=None),
        click.option("--limit", type=int, default=None),
        click.option("--n-images", type=int, default=None),
        click.option("--epochs", type=int, default=None),
        click.option("--lr", type=float, default=None),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def build_config(config_path, **overrides) -> RunConfig:
    cfg = RunConfig.load(config_path) if config_path else RunConfig()
    dataset = overrides.pop("dataset", None)
    if dataset is not None:
        if dataset == "synthetic":
            cfg.dataset_kind = "synthetic"
        elif dataset.startswith("idx:"):
            parts = dataset.split(":")
            if len(parts) != 3:
                raise ConfigError("--dataset idx form is idx:IMAGES:LABELS")
            cfg.dataset_kind, cfg.dataset_images, cfg.dataset_labels = "idx", parts[1], parts[2]
        else:
            raise ConfigError(f"--dataset must be 'synthetic' or 'idx:IMAGES:LABELS', got {dataset!r}")
    methods = overrides.pop("methods", None)
    if methods is not None:
        cfg.methods = [m.strip() for m in methods.split(",") if m.strip()]
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


@click.group()
def cli():
    """Adversarial-perturbation evaluation of relevance maps."""


@cli.command("train")
@config_options
def cmd_train(config_path, **kw):
    """Train the desk-scale CNN and write the model file plus an accuracy manifest."""
    cfg = build_config(config_path, **kw)
    out = prepare_run_dir(cfg)
    ds = load_dataset(cfg)
    net = build_desk_model(cfg.image_size, cfg.n_classes, seed=cfg.seed)
    net = train(net, ds, epochs=cfg.epochs, lr=cfg.lr, seed=cfg.seed)
    model_path = out / "model.net"
    save_model(net, model_path)
    acc = accuracy(net, ds)
    manifest = {
        "model": str(model_path),
        "train_accuracy": acc,
        "epochs": cfg.epochs,
        "lr": cfg.lr,
        "seed": cfg.seed,
        "n_train": len(ds),
    }
    import json

    with open(out / "model_manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    click.echo(f"trained model -> {model_path} (train accuracy {acc:.4f})")


@cli.command("explain")
@config_options
def cmd_explain(config_path, **kw):
    """Write one map file per (image, method, stage)."""
    cfg = build_config(config_path, **kw)
    out = prepare_run_dir(cfg)
    net = require_model(cfg)
    ds = load_dataset(cfg)
    count = 0
    for idx in range(len(ds)):
        image = ds.images[idx]
        ref = forward(net, image).predicted_class
        for method in cfg.methods:
            raw = compute_map(
                net, image, method, target=ref,
                smooth_n=cfg.smooth_n, sigma=cfg.sigma,
                lrp_epsilon=cfg.lrp_epsilon, seed=image_seed(cfg.seed, idx),
            )
            for stage in (1, 2, 3):
                rmap = simplify(raw, image, stage=stage)
                path = out / "maps" / f"img{idx:05d}_{method}_s{stage}.map"
                save_map(rmap, path, image_id=f"img{idx:05d}", method=method,
                         params=dict(raw.params))
                count += 1
    click.echo(f"wrote {count} map files -> {out / 'maps'}")


@cli.command("evaluate")
@config_options
def cmd_evaluate(config_path, **kw):
    """Per-image gap CSV, split into correct and misclassified subsets."""
    cfg = build_config(config_path, **kw)
    out = prepare_run_dir(cfg)
    model_path = cfg.model or str(out / "model.net")
    net = require_model(cfg)
    ds = load_dataset(cfg)
    rows = run_evaluate(cfg, net, ds, model_path)
    write_csv(out / "results" / "per_image.csv", stats_mod.CSV_COLUMNS, rows)
    correct = [r for r in rows if r[8] == r[9]]
    wrong = [r for r in rows if r[8] != r[9]]
    write_csv(out / "results" / "correct.csv", stats_mod.CSV_COLUMNS, correct)
    write_csv(out / "results" / "misclassified.csv", stats_mod.CSV_COLUMNS, wrong)
    click.echo(
        f"evaluated {len(ds)} images x {len(cfg.methods)} methods "
        f"({len(correct)} correct rows, {len(wrong)} misclassified rows) -> "
        f"{out / 'results' / 'per_image.csv'}"
    )


@cli.command("shuffle-test")
@click.option("--k-shuffles", type=int, default=10, show_default=True)
@config_options
def cmd_shuffle_test(config_path, k_shuffles, **kw):
    """Gap rows for k shuffled copies of each map, per simplification stage."""
    cfg = build_config(config_path, **kw)
    out = prepare_run_dir(cfg)
    net = require_model(cfg)
    ds = load_dataset(cfg)
    method = cfg.methods[0]
    header = [
        "image_id", "method", "stage", "shuffle_index",
        "eps_minus", "eps_plus", "gap", "capped_minus", "capped_plus",
    ]
    rows = []
    for idx in range(len(ds)):
        image = ds.images[idx]
        ref = forward(net, image).predicted_class
        raw = compute_map(
            net, image, method, target=ref,
            smooth_n=cfg.smooth_n, sigma=cfg.sigma,
            lrp_epsilon=cfg.lrp_epsilon, seed=image_seed(cfg.seed, idx),
        )
        for stage in (1, 2, 3):
            rmap = simplify(raw, image, stage=stage)
            for s in range(k_shuffles):
                shuffled = shuffle_map(rmap, seed=image_seed(cfg.seed, idx) + s + 1)
                try:
                    g = compute_gap(net, image, ref, shuffled, cfg.step, cfg.cap, cfg.clip)
                    rows.append([f"img{idx:05d}", method, stage, s, g.eps_minus,
                                 g.eps_plus, g.gap, g.capped_minus, g.capped_plus])
                except ZeroMapError:
                    rows.append([f"img{idx:05d}", method, stage, s, "", "", "", "", ""])
    write_csv(out / "results" / "shuffle.csv", header, rows)
    click.echo(f"wrote {len(rows)} shuffled-map rows -> {out / 'results' / 'shuffle.csv'}")


@cli.command("filter")
@config_options
def cmd_filter(config_path, **kw):
    """Clean maps by iterative zeroing; write filtered maps and trace CSV."""
    cfg = build_config(config_path, **kw)
    out = prepare_run_dir(cfg)
    net = require_model(cfg)
    ds = load_dataset(cfg)
    (out / "maps" / "filtered").mkdir(parents=True, exist_ok=True)
    header = ["image_id", "method", "stage", "iteration", "threshold", "zeroed_count", "gap"]
    rows = []
    for idx in range(len(ds)):
        image = ds.images[idx]
        ref = forward(net, image).predicted_class
        for method in cfg.methods:
            raw = compute_map(
                net, image, method, target=ref,
                smooth_n=cfg.smooth_n, sigma=cfg.sigma,
                lrp_epsilon=cfg.lrp_epsilon, seed=image_seed(cfg.seed, idx),
            )
            rmap = simplify(raw, image, stage=cfg.stage)
            try:
                trace = filter_map(net, image, ref, rmap, cfg.step, cfg.cap,
                                   cfg.batch_fraction, cfg.clip)
            except ZeroMapError:
                continue
            path = out / "maps" / "filtered" / f"img{idx:05d}_{method}_s{cfg.stage}.map"
            save_map(trace.final_map, path, image_id=f"img{idx:05d}", method=method,
                     params={"filtered": True, "batch_fraction": cfg.batch_fraction})
            rows.append([f"img{idx:05d}", method, cfg.stage, 0, "", 0, trace.original_gap])
            for it_idx, it in enumerate(trace.iterations, start=1):
                rows.append([f"img{idx:05d}", method, cfg.stage, it_idx,
                             it.threshold, it.zeroed, it.gap])
    write_csv(out / "results" / "filter_trace.csv", header, rows)
    click.echo(f"filtered maps -> {out / 'maps' / 'filtered'}")


@cli.command("report")
@config_options
def cmd_report(config_path, **kw):
    """Summary tables, pairwise matrix and correlation table from per_image.csv."""
    cfg = build_config(config_path, **kw)
    out = prepare_run_dir(cfg)
    per_image = out / "results" / "per_image.csv"
    if not per_image.exists():
        raise DataError(f"missing {per_image}; run 'apemkit evaluate' first")
    rows = stats_mod.read_rows(per_image)

    def summary_rows(summaries):
        return [
            [s.method, s.stage, s.n_images, s.n_defined,
             "" if s.mean_gap is None else s.mean_gap,
             "" if s.median_gap is None else s.median_gap,
             "" if s.q1 is None else s.q1,
             "" if s.q3 is None else s.q3,
             s.capped_count, s.undefined_count]
            for s in summaries
        ]

    header = ["method", "stage", "n_images", "n_defined", "mean_gap", "median_gap",
              "q1", "q3", "capped_count", "undefined_count"]
    write_csv(out / "reports" / "summary.csv", header, summary_rows(stats_mod.summarize(rows)))
    write_csv(out / "reports" / "summary_split.csv", header,
              summary_rows(stats_mod.summarize(rows, split_by_correct=True)))

    # pairwise win/tie/loss fractions and eps_plus difference histograms,
    # per stage and method pair, over the images both measured
    by_method: dict[tuple, dict] = {}
    by_method_eps: dict[tuple, dict] = {}
    for r in rows:
        if stats_mod.row_is_measured(r):
            key = (r["method"], int(r["stage"]))
            by_method.setdefault(key, {})[r["image_id"]] = float(r["gap"])
            by_method_eps.setdefault(key, {})[r["image_id"]] = float(r["eps_plus"])
    pw_rows = []
    diff_rows = []
    keys = sorted(by_method)
    for a in keys:
        for b in keys:
            if a[1] != b[1] or a[0] >= b[0]:
                continue
            if not by_method[a].keys() & by_method[b].keys():
                # no shared image: nothing to compare, no histogram
                pw_rows.append([a[0], b[0], a[1], "", "", "", 0,
                                len(by_method[a].keys() | by_method[b].keys())])
                continue
            pw = stats_mod.pairwise(by_method[a], by_method[b])
            pw_rows.append([a[0], b[0], a[1], pw.better, pw.equal, pw.worse,
                            pw.n_compared, pw.n_excluded])
            _, counts, edges = stats_mod.epsilon_plus_diff(by_method_eps[a], by_method_eps[b])
            for i, c in enumerate(counts):
                diff_rows.append([a[0], b[0], a[1], edges[i], edges[i + 1], int(c)])
    write_csv(out / "reports" / "pairwise.csv",
              ["method_a", "method_b", "stage", "better", "equal", "worse",
               "n_compared", "n_excluded"], pw_rows)
    write_csv(out / "reports" / "eps_plus_diff.csv",
              ["method_a", "method_b", "stage", "bin_lo", "bin_hi", "count"], diff_rows)

    # Spearman correlations with loss, per subset
    corr_rows = []
    subsets = {
        "correct": [r for r in rows if r["predicted_class"] == r["true_class"]],
        "misclassified": [r for r in rows if r["predicted_class"] != r["true_class"]],
        "full": rows,
    }
    for subset_name, subset in subsets.items():
        for method, stage in keys:
            sel = [r for r in subset
                   if r["method"] == method and int(r["stage"]) == stage
                   and stats_mod.row_is_measured(r)]
            if len(sel) < 3:
                continue
            res = stats_mod.spearman([float(r["gap"]) for r in sel],
                                     [float(r["loss"]) for r in sel], seed=cfg.seed)
            corr_rows.append([f"{method}_gap", "loss", stage, subset_name,
                              "" if res.rho is None else res.rho,
                              "" if res.p_value is None else res.p_value,
                              res.n, res.reason or ""])
        dedup = {}
        for r in subset:
            dedup[r["image_id"]] = (float(r["confidence"]), float(r["loss"]))
        if len(dedup) >= 3:
            conf, lo = zip(*dedup.values())
            res = stats_mod.spearman(conf, lo, seed=cfg.seed)
            corr_rows.append(["confidence", "loss", "", subset_name,
                              "" if res.rho is None else res.rho,
                              "" if res.p_value is None else res.p_value,
                              res.n, res.reason or ""])
    write_csv(out / "reports" / "correlation.csv",
              ["var_x", "var_y", "stage", "subset", "rho", "p_value", "n", "note"], corr_rows)
    click.echo(f"reports -> {out / 'reports'}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.ClickException as e:
        e.show()
        return 2
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        return 2
    except NumericError as e:
        click.echo(f"numeric failure: {e}", err=True)
        return 4
    except (DataError, FileNotFoundError) as e:
        click.echo(f"data error: {e}", err=True)
        return 3
    except ApemkitError as e:
        click.echo(f"error: {e}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
