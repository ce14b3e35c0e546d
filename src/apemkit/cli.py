"""Command-line entry point.

Subcommands: train, explain, evaluate, shuffle-test, filter, report.
Every run writes into an output directory holding the exact config used,
so any number in a report can be re-derived. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple
from functools import partial
from pathlib import Path

import click
import numpy as np

# compute_gap is unused here, but the benchmark's tracer test asserts that
# cli.compute_gap is filtering.gap, so the name stays bound
from .apem import gap as compute_gap, gaps, shuffle_map  # noqa: F401
from . import stats as stats_mod
from .config import MAX_WORKERS, RunConfig
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
    Dataset,
    Network,
    accuracy,
    build_desk_model,
    forward,
    loss,
    train,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


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
    if v is None:
        return ""
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
# Per-image work; every per-image command runs its tasks through one pool
# ---------------------------------------------------------------------------


def image_maps(net: Network, cfg: RunConfig, idx: int, image: np.ndarray, ref: int,
               methods, stages):
    """Yield (method, stage, raw, rmap) for one image: each method's raw
    attribution toward class `ref`, simplified at each of `stages`."""
    for method in methods:
        raw = compute_map(net, image, method, target=ref, smooth_n=cfg.smooth_n,
                          sigma=cfg.sigma, lrp_epsilon=cfg.lrp_epsilon,
                          seed=image_seed(cfg.seed, idx))
        for stage in stages:
            yield method, stage, raw, simplify(raw, image, stage=stage)


def gap_fields(net: Network, cfg: RunConfig, image: np.ndarray, ref: int, rmaps) -> list:
    """The GapResult fields of each map of one image, from one lockstep
    search; all empty where a map is all zero and its gap is undefined."""
    return [
        ("",) * len(stats_mod.GAP_COLUMNS) if g is None else astuple(g)
        for g in gaps(net, image, ref, rmaps, cfg.step, cfg.cap, cfg.clip)
    ]


def evaluate_one(net: Network, cfg: RunConfig, idx: int, image: np.ndarray, label: int):
    """Rows for one image: (image_id, method, stage, eps-, eps+, gap, flags,
    predicted, true, confidence, loss). Undefined gaps yield empty fields."""
    pred = forward(net, image)
    ref = pred.predicted_class
    j = loss(pred, label)
    maps = list(image_maps(net, cfg, idx, image, ref, cfg.methods, (cfg.stage,)))
    fields = gap_fields(net, cfg, image, ref, [rmap for *_, rmap in maps])
    return [
        [f"img{idx:05d}", method, stage, *f, ref, label, pred.confidence, j]
        for (method, stage, _, _), f in zip(maps, fields)
    ]


def explain_one(net: Network, cfg: RunConfig, idx: int, image: np.ndarray):
    """(method, stage, params, rmap) of every map `explain` writes for one image."""
    ref = forward(net, image).predicted_class
    return [(method, stage, raw.params, rmap)
            for method, stage, raw, rmap in image_maps(net, cfg, idx, image, ref, cfg.methods,
                                                       (1, 2, 3))]


def shuffle_one(net: Network, cfg: RunConfig, idx: int, image: np.ndarray, k_shuffles: int):
    """Gap rows of k shuffled copies of one image's first-method map, per
    stage. Shuffle s is seeded by (cfg.seed, idx, s): one stream per
    (image, shuffle) pair, shared by that pair's stages."""
    ref = forward(net, image).predicted_class
    keys, shuffled = [], []
    for method, stage, _, rmap in image_maps(net, cfg, idx, image, ref, cfg.methods[:1],
                                             (1, 2, 3)):
        for s in range(k_shuffles):
            keys.append((f"img{idx:05d}", method, stage, s))
            shuffled.append(shuffle_map(rmap, seed=(cfg.seed, idx, s)))
    return [key + f for key, f in zip(keys, gap_fields(net, cfg, image, ref, shuffled))]


def filter_one(net: Network, cfg: RunConfig, idx: int, image: np.ndarray, method: str):
    """The FilterTrace of one image's `method` map at cfg.stage; None where
    the map is all zero and cannot be filtered."""
    ref = forward(net, image).predicted_class
    *_, rmap = next(image_maps(net, cfg, idx, image, ref, (method,), (cfg.stage,)))
    try:
        return filter_map(net, image, ref, rmap, cfg.step, cfg.cap, cfg.batch_fraction,
                          cfg.clip)
    except ZeroMapError:
        return None


_WORKER_STATE: dict = {}


def _init_worker(net: Network, cfg: RunConfig):
    _WORKER_STATE["net"], _WORKER_STATE["cfg"] = net, cfg


def _pool_task(fn, task):
    return fn(_WORKER_STATE["net"], _WORKER_STATE["cfg"], *task)


def run_pool(cfg: RunConfig, net: Network, fn, tasks: list) -> list:
    """fn(net, cfg, *task) for each task, in task order. The tasks run in
    min(cfg.workers or the processor count, len(tasks)) processes, or in
    this process when that is 1; a task's exception is raised here."""
    workers = min(cfg.workers or os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(net, cfg, *task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(net, cfg)) as pool:
        return list(pool.map(partial(_pool_task, fn), tasks, chunksize=1))


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
        click.option("--workers", type=int, default=None,
                     help="Processes for explain, evaluate, shuffle-test and filter "
                          f"(0 = number of processors, at most {MAX_WORKERS})."),
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


def setup(config_path, kw):
    """Config, run directory, model and dataset of a command that reads maps."""
    cfg = build_config(config_path, **kw)
    out = prepare_run_dir(cfg)
    net = require_model(cfg)
    ds = load_dataset(cfg)
    return cfg, out, net, ds


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
    with open(out / "model_manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    click.echo(f"trained model -> {model_path} (train accuracy {acc:.4f})")


@cli.command("explain")
@config_options
def cmd_explain(config_path, **kw):
    """Write one map file per (image, method, stage)."""
    cfg, out, net, ds = setup(config_path, kw)
    tasks = list(enumerate(ds.images))
    count = 0
    for (idx, _), maps in zip(tasks, run_pool(cfg, net, explain_one, tasks)):
        for method, stage, params, rmap in maps:
            path = out / "maps" / f"img{idx:05d}_{method}_s{stage}.map"
            save_map(rmap, path, image_id=f"img{idx:05d}", method=method, params=params)
            count += 1
    click.echo(f"wrote {count} map files -> {out / 'maps'}")


@cli.command("evaluate")
@config_options
def cmd_evaluate(config_path, **kw):
    """Per-image gap CSV, split into correct and misclassified subsets."""
    cfg, out, net, ds = setup(config_path, kw)
    tasks = [(i, ds.images[i], int(ds.labels[i])) for i in range(len(ds))]
    rows = sorted((row for chunk in run_pool(cfg, net, evaluate_one, tasks) for row in chunk),
                  key=lambda r: r[:3])  # image, method, stage
    pred, true = map(stats_mod.CSV_COLUMNS.index, ("predicted_class", "true_class"))
    correct = [r for r in rows if r[pred] == r[true]]
    wrong = [r for r in rows if r[pred] != r[true]]
    for name, subset in (("per_image", rows), ("correct", correct), ("misclassified", wrong)):
        write_csv(out / "results" / f"{name}.csv", stats_mod.CSV_COLUMNS, subset)
    click.echo(
        f"evaluated {len(ds)} images x {len(cfg.methods)} methods "
        f"({len(correct)} correct rows, {len(wrong)} misclassified rows) -> "
        f"{out / 'results' / 'per_image.csv'}"
    )


@cli.command("shuffle-test")
@click.option("--k-shuffles", type=click.IntRange(min=1), default=10, show_default=True)
@config_options
def cmd_shuffle_test(config_path, k_shuffles, **kw):
    """Gap rows for k shuffled copies of each map, per simplification stage."""
    cfg, out, net, ds = setup(config_path, kw)
    header = ["image_id", "method", "stage", "shuffle_index", *stats_mod.GAP_COLUMNS]
    tasks = [(idx, image, k_shuffles) for idx, image in enumerate(ds.images)]
    rows = [row for chunk in run_pool(cfg, net, shuffle_one, tasks) for row in chunk]
    write_csv(out / "results" / "shuffle.csv", header, rows)
    click.echo(f"wrote {len(rows)} shuffled-map rows -> {out / 'results' / 'shuffle.csv'}")


@cli.command("filter")
@config_options
def cmd_filter(config_path, **kw):
    """Clean maps by iterative zeroing; write filtered maps and trace CSV."""
    cfg, out, net, ds = setup(config_path, kw)
    (out / "maps" / "filtered").mkdir(parents=True, exist_ok=True)
    header = ["image_id", "method", "stage", "iteration", "threshold", "zeroed_count", "gap"]
    # one task per map: a map's cleaning chain is a run of dependent gaps,
    # and the chains of one image share nothing
    tasks = [(idx, image, method) for idx, image in enumerate(ds.images)
             for method in cfg.methods]
    rows = []
    for (idx, _, method), trace in zip(tasks, run_pool(cfg, net, filter_one, tasks)):
        if trace is None:
            continue
        image_id, stage = f"img{idx:05d}", cfg.stage
        path = out / "maps" / "filtered" / f"{image_id}_{method}_s{stage}.map"
        save_map(trace.final_map, path, image_id=image_id, method=method,
                 params={"filtered": True, "batch_fraction": cfg.batch_fraction})
        rows.append([image_id, method, stage, 0, "", 0, trace.original_gap])
        for it_idx, it in enumerate(trace.iterations, start=1):
            rows.append([image_id, method, stage, it_idx, it.threshold, it.zeroed, it.gap])
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

    for name, split in (("summary.csv", False), ("summary_split.csv", True)):
        write_csv(out / "reports" / name, stats_mod.columns(stats_mod.MethodSummary),
                  map(astuple, stats_mod.summarize(rows, split_by_correct=split)))

    # pairwise win/tie/loss fractions and eps_plus difference histograms,
    # per stage and method pair, over the images both measured
    measured: dict[tuple, dict] = {}
    for r in rows:
        if stats_mod.row_is_measured(r):
            measured.setdefault((r["method"], int(r["stage"])), {})[r["image_id"]] = r

    def column(key, name):
        return {image_id: float(r[name]) for image_id, r in measured[key].items()}

    pw_rows = []
    diff_rows = []
    keys = sorted(measured)
    for a in keys:
        for b in keys:
            if a[1] != b[1] or a[0] >= b[0]:
                continue
            if not measured[a].keys() & measured[b].keys():
                # no shared image: nothing to compare, no histogram
                pw_rows.append([a[0], b[0], a[1], "", "", "", 0,
                                len(measured[a].keys() | measured[b].keys())])
                continue
            pw = stats_mod.pairwise(column(a, "gap"), column(b, "gap"))
            pw_rows.append([a[0], b[0], a[1], *astuple(pw)])
            _, counts, edges = stats_mod.epsilon_plus_diff(column(a, "eps_plus"),
                                                           column(b, "eps_plus"))
            for i, c in enumerate(counts):
                diff_rows.append([a[0], b[0], a[1], edges[i], edges[i + 1], int(c)])
    write_csv(out / "reports" / "pairwise.csv",
              ["method_a", "method_b", "stage", *stats_mod.columns(stats_mod.PairwiseResult)],
              pw_rows)
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
            corr_rows.append([f"{method}_gap", "loss", stage, subset_name, *astuple(res)])
        dedup = {}
        for r in subset:
            dedup[r["image_id"]] = (float(r["confidence"]), float(r["loss"]))
        if len(dedup) >= 3:
            conf, lo = zip(*dedup.values())
            res = stats_mod.spearman(conf, lo, seed=cfg.seed)
            corr_rows.append(["confidence", "loss", "", subset_name, *astuple(res)])
    # the reason a correlation is undefined goes in the "note" column
    corr_header = [*stats_mod.columns(stats_mod.CorrelationResult)[:-1], "note"]
    write_csv(out / "reports" / "correlation.csv",
              ["var_x", "var_y", "stage", "subset", *corr_header], corr_rows)
    click.echo(f"reports -> {out / 'reports'}")


# glibc mallopt parameters (malloc.h) and the values main sets. By default
# glibc serves the engine's 0.1-7 MB temporaries by mmap, or trims them off
# the heap, and hands them back to the kernel after every call, so the next
# call page-faults them in again. Both must be set: setting either alone
# switches off glibc's dynamic threshold and faults more than the default.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # the largest glibc accepts on 64-bit hosts
_TRIM_THRESHOLD = 128 << 20


def keep_freed_heap():
    """Keep freed memory in this process for reuse instead of returning it
    to the kernel. Pool workers fork from this process and inherit the
    setting. Does nothing where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None):
    keep_freed_heap()
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
