"""apemkit benchmark: drives the real CLI (``apemkit.cli.main``) in-process.

Usage, from the root of an apemkit checkout:

    python3 apembench/run.py --workload evaluate --seed 3 --seconds 10 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``evaluate``  six methods, stage 3, cap 10000, two workers, then ``report``
* ``explain``   six methods, every stage written as a map file
* ``filter``    gradient, lrp and gradcam maps cleaned at cap 2500

Every run first trains the desk CNN with ``apemkit train`` on the pinned
recipe and reports its wall time as ``setup_s``. With ``--trace 0`` it then
repeats the workload's command on the same inputs until ``--seconds`` have
passed and reports end-to-end metrics (medians over those repetitions).
Each of those repetitions runs in a fresh child process (see launcher.py),
so that its peak RSS is the program's own. With ``--trace 1`` it runs a
fixed amount of work in-process, once untraced and once with the call-site
tracer installed, and reports per-layer metrics.
Outputs are checked after the timed region; the last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread per process: evaluate's two workers then use the two
# cores without oversubscribing them. Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import shutil
import statistics
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Paths are relative to the checkout root the benchmark runs from.
SRC = Path("src")
WORK = Path(".apembench_work")  # emptied at the start of every run
CACHE = Path(".apembench_cache")  # the trained desk model, kept across runs
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 0
CLI_SEED = "0"  # the run-config seed: model init, SGD order, SmoothGrad noise
ALL_METHODS = ("gradient", "smoothgrad", "lrp", "guided_backprop", "gradcam", "guided_gradcam")
FILTER_METHODS = ("gradient", "lrp", "gradcam")
STAGE = 3  # evaluate and filter use stage-3 maps; explain writes all stages

# The tests' desk_model recipe: 8000 synthetic images drawn with seed 1,
# two epochs of SGD at lr 0.05 from init seed 0.
TRAIN_IMAGES, TRAIN_DRAW = 8000, 1
TRAIN_FLAGS = ["--epochs", "2", "--lr", "0.05"]
# Set-up is timed on the same recipe over the first 1000 training images,
# three times per run: one full training (about 20 s) does not fit the run
# budget three times, and the desk model itself is trained once per
# checkout and cached.
SETUP_IMAGES, SETUP_REPEATS = 1000, 3
# Held-out images come from the tests' desk_test_set (300 drawn with seed 2;
# synthetic_dataset draws all labels first, so the images depend on the
# count drawn). Workloads pick them by index.
HELD_OUT_IMAGES, HELD_OUT_DRAW = 300, 2


@dataclass(frozen=True)
class Workload:
    command: str
    images: tuple[int, ...]  # indices into the held-out set
    methods: tuple[str, ...]
    cap: int | None = None  # epsilon-search cap; explain runs no search
    workers: int = 1
    report: bool = False

    @property
    def n_images(self) -> int:
        return len(self.images)

    def argv(self, dataset: str, model: str, out: Path, workers: int) -> list[str]:
        argv = [self.command, "--dataset", dataset, "--model", model, "--seed", CLI_SEED,
                "--out", str(out), "--methods", ",".join(self.methods), "--stage", str(STAGE)]
        if self.cap is not None:
            argv += ["--cap", str(self.cap)]
        if self.command == "evaluate":
            argv += ["--workers", str(workers)]
        return argv


WORKLOADS = {
    "evaluate": Workload("evaluate", tuple(range(16)), ALL_METHODS, cap=10_000, workers=2,
                         report=True),
    "explain": Workload("explain", tuple(range(16)), ALL_METHODS),
    # Filter's step count changes with the dither, so these images were
    # picked for a steady time per trace row. Image 10's gradcam map is all
    # zero, so the CLI skips it (ZeroMapError).
    "filter": Workload("filter", (6, 10), FILTER_METHODS, cap=2_500),
}

# Layer metrics that belong to set-up; they add the set-up trace to the pass.
SETUP_LAYER_METRICS = ("netcore.train.time_s", "modelio.save_model.time_s",
                       "modelio.load_model.time_s", "data.load_idx_dataset.time_s")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def write_idx(pixels, labels, prefix: Path) -> str:
    """IDX image and label files; returns the CLI's ``idx:IMAGES:LABELS``."""
    n, _, h, w = pixels.shape
    images, label_file = Path(f"{prefix}-images.idx"), Path(f"{prefix}-labels.idx")
    images.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + pixels.tobytes())
    label_file.write_bytes(struct.pack(">II", 0x801, n) + labels.astype("u1").tobytes())
    return f"idx:{images}:{label_file}"


def make_inputs(seed: int, held_out: tuple[int, ...]):
    """Training set, its set-up slice (both pinned) and the held-out set
    (quantized with the seed's dither).

    Search cost per image is heavy-tailed, so a fresh draw of a few images
    changes a run's cost several-fold. The image population is therefore
    pinned, and the seed decides the 8-bit stochastic rounding of every
    held-out pixel: each seed gives different input files and different
    searches with the same cost profile.
    """
    import numpy as np
    from apemkit.data import synthetic_dataset

    train = synthetic_dataset(TRAIN_IMAGES, seed=TRAIN_DRAW)
    train_px = np.round(train.images * 255).astype(np.uint8)
    held = synthetic_dataset(HELD_OUT_IMAGES, seed=HELD_OUT_DRAW)
    images, labels = held.images[list(held_out)], held.labels[list(held_out)]
    dither = np.random.default_rng(seed).random(images.shape)
    held_px = np.minimum(np.floor(images * 255 + dither), 255).astype(np.uint8)
    return (write_idx(train_px, train.labels, WORK / "train"),
            write_idx(train_px[:SETUP_IMAGES], train.labels[:SETUP_IMAGES], WORK / "setup"),
            write_idx(held_px, labels, WORK / "held_out"))


# ---------------------------------------------------------------------------
# Running the CLI
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, float]:
    """Exit code and wall time of one in-process CLI invocation."""
    from apemkit.cli import main as cli_main

    with open(WORK / "cli.log", "a") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        print("$ apemkit " + " ".join(argv))
        start = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - start
    return code, wall


def train_model(dataset: str, out: Path) -> tuple[int, float]:
    return run_cli(["train", "--dataset", dataset, "--seed", CLI_SEED, "--out", str(out),
                    *TRAIN_FLAGS])


def desk_model(dataset: str) -> tuple[int, str]:
    """The desk model for this source tree, trained on a cache miss."""
    h = hashlib.sha256(repr((TRAIN_IMAGES, TRAIN_DRAW, TRAIN_FLAGS, CLI_SEED)).encode())
    for path in sorted((SRC / "apemkit").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    cached = CACHE / f"desk-{h.hexdigest()[:16]}.net"
    if not cached.exists():
        code, _ = train_model(dataset, WORK / "desk")
        if code != 0:
            return code, ""
        CACHE.mkdir(exist_ok=True)
        shutil.copyfile(WORK / "desk" / "model.net", WORK / "desk.net")
        os.replace(WORK / "desk.net", cached)  # never leave a partial file in the cache
    return 0, str(cached)


def timed_setup(dataset: str, repeats: int) -> tuple[int, list[float]]:
    walls = []
    for i in range(repeats):
        code, wall = train_model(dataset, WORK / f"setup{i}")
        if code != 0:
            return code, walls
        walls.append(wall)
    return 0, walls


def run_commands(argvs: list[list[str]]) -> list[tuple[int, float]]:
    """Exit code and wall time of each command in turn, up to the first failure."""
    runs = []
    for argv in argvs:
        runs.append(run_cli(argv))
        if runs[-1][0] != 0:
            break
    return runs


def run_pass(wl: Workload, dataset: str, model: str, out: Path, workers: int, launch=None):
    """The workload's command (and ``report`` after evaluate) into `out`.

    Runs in-process, or in a fresh child when `launch` (a ``Launcher``) is
    given. Returns the exit code, the command's wall time, the report's wall
    time and the child's peak RSS in MB (0 in-process).
    """
    argvs = [wl.argv(dataset, model, out, workers)]
    if wl.report:
        argvs.append(["report", "--out", str(out), "--seed", CLI_SEED])
    runs, peak_mb = launch(argvs) if launch else (run_commands(argvs), 0.0)
    code = next((c for c, _ in runs if c != 0), 0 if len(runs) == len(argvs) else 1)
    wall = runs[0][1] if runs else 0.0
    report_s = runs[1][1] if len(runs) > 1 else 0.0
    return code, wall, report_s, peak_mb


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_outputs(name: str, wl: Workload, out: Path, model: str, dataset: str) -> set[int]:
    import checks
    from apemkit.data import load_idx_dataset
    from apemkit.modelio import load_model

    net = load_model(model)
    _, images_path, labels_path = dataset.split(":")
    images = load_idx_dataset(images_path, labels_path).images
    cfg_seed = int(CLI_SEED)
    if name == "evaluate":
        return checks.check_evaluate(out, net, images, wl.methods, STAGE, wl.cap, cfg_seed)
    if name == "explain":
        return checks.check_explain(out, wl.n_images, wl.methods)
    return checks.check_filter(out, net, images, wl.methods, STAGE, wl.cap, cfg_seed)


def golden_failures(name: str, seed: int, model: str, digests: list[str]) -> set[int]:
    """Images whose output bytes differ from the recorded default-seed run."""
    import checks

    if seed != DEFAULT_SEED or not GOLDEN.exists():
        return set()
    golden = json.loads(GOLDEN.read_text()).get(name)
    if golden is None:
        return set()
    if checks.file_digest(model) != golden["model"] or len(digests) != len(golden["images"]):
        return set(range(len(digests)))
    return {i for i, (a, b) in enumerate(zip(digests, golden["images"])) if a != b}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_untraced(name, wl, seed, seconds, dataset, model, setup_s, launch):
    import checks

    walls, report_walls, peaks, codes = [], [], [], []
    started = time.perf_counter()
    while time.perf_counter() - started + (statistics.median(walls) if walls else 0) <= seconds:
        code, wall, report_s, peak_mb = run_pass(wl, dataset, model,
                                                 WORK / f"round{len(walls)}", wl.workers, launch)
        codes.append(code)
        walls.append(wall)
        report_walls.append(report_s)
        peaks.append(peak_mb)

    # checks: the first clean round in full, every later one against its bytes
    failed, reference, records, golden = 0, None, 0, None
    for i, code in enumerate(codes):
        out = WORK / f"round{i}"
        if code != 0:
            failed += wl.n_images
            continue
        digests = checks.image_digests(name, out, wl.n_images)
        if reference is None:
            reference = digests
            records = checks.result_records(name, out)
            bad = check_outputs(name, wl, out, model, dataset)
            bad |= golden_failures(name, seed, model, digests)
            failed += len(bad)
            golden = {"model": checks.file_digest(model), "images": digests}
        else:
            failed += sum(a != b for a, b in zip(digests, reference))
            shutil.rmtree(out)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "results_per_s": (records / wall, "1/s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    # `golden` holds this run's output digests; golden.json keeps seed 0's
    notes = {"rounds": len(walls), "round_walls_s": walls, "round_peak_rss_mb": peaks,
             "records": records, "images_per_s": wl.n_images / wall, "golden": golden}
    if wl.report:
        notes["report_s"] = statistics.median(report_walls)
    return metrics, wl.n_images * len(walls), failed, notes


def run_traced(name, wl, dataset, model, setup_spans):
    import checks
    from tracer import Tracer, layer_metrics

    # untraced at the workload's worker count, then untraced and traced at 1
    code, wall_w, report_s, _ = run_pass(wl, dataset, model, WORK / "untraced", wl.workers)
    wall_1 = wall_w
    if wl.workers > 1 and code == 0:
        code, wall_1, _, _ = run_pass(wl, dataset, model, WORK / "untraced1", 1)
    tracer = Tracer()
    with tracer:
        traced_code, traced_wall, _, _ = run_pass(wl, dataset, model, WORK / "traced", 1)
    tracer.dump(WORK / "spans.json")

    attempted, failed = wl.n_images, wl.n_images
    if code == 0 and traced_code == 0:
        untraced = checks.image_digests(name, WORK / "untraced", wl.n_images)
        traced = checks.image_digests(name, WORK / "traced", wl.n_images)
        bad = check_outputs(name, wl, WORK / "traced", model, dataset)
        bad |= {i for i, (a, b) in enumerate(zip(untraced, traced)) if a != b}
        failed = len(bad)

    metrics = layer_metrics(tracer.spans)
    setup = layer_metrics(setup_spans)
    for key in SETUP_LAYER_METRICS:
        metrics[key] = (metrics[key][0] + setup[key][0], "s")
    busy = metrics["cli.evaluate_one.time_s"][0]
    metrics["cli.pool.efficiency"] = (busy / (wl.workers * wall_w) if wl.report else 0.0,
                                      "ratio")
    metrics["report_s"] = (report_s, "s")
    metrics["tracer.overhead_ratio"] = (traced_wall / wall_1 - 1.0, "ratio")
    notes = {"untraced_wall_s": wall_w, "untraced_wall_1_s": wall_1,
             "traced_wall_s": traced_wall}
    return metrics, attempted, failed, notes


def environment(wl: Workload, trace: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "workers": 1 if trace else wl.workers,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(args, launch=None) -> int:
    """One benchmark run; `launch` runs the untraced passes in fresh children."""
    name, wl = args.workload, WORKLOADS[args.workload]
    train_set, setup_set, held_out = make_inputs(args.seed, wl.images)
    code, model = desk_model(train_set)
    if code == 0:
        if args.trace:
            from tracer import Tracer

            setup_tracer = Tracer()
            with setup_tracer:
                code, setup_walls = timed_setup(setup_set, 1)
        else:
            code, setup_walls = timed_setup(setup_set, SETUP_REPEATS)
    if code != 0:
        print(f"error: apemkit train exited with {code}; see {WORK / 'cli.log'}",
              file=sys.stderr)
        return 1
    setup_s = statistics.median(setup_walls)

    if args.trace:
        metrics, attempted, failed, notes = run_traced(
            name, wl, held_out, model, setup_tracer.spans)
    else:
        metrics, attempted, failed, notes = run_untraced(
            name, wl, args.seed, args.seconds, held_out, model, setup_s, launch)
        notes["setup_walls_s"] = setup_walls

    env = environment(wl, bool(args.trace))
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    for key, unit in (("images_per_s", "1/s"), ("report_s", "s")):
        if key in notes:
            print(f"{name} {key} = {notes[key]:.6g} {unit} (printed, not in the JSON)")
    print(f"{name} fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} images)")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / "result.json").write_text(json.dumps({**result, "env": env, "notes": notes}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apemkit" / "cli.py").is_file():
        print(f"error: {SRC / 'apemkit'} not found; run from the root of an apemkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    import apemkit.cli  # noqa: F401  (loaded before the launcher forks)

    if args.trace:
        return run(args)
    from launcher import Launcher

    with Launcher(run_commands, WORK / "cli.log") as launch:
        return run(args, launch)


if __name__ == "__main__":
    sys.exit(main())
