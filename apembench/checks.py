"""Output checks, run after the timed region.

Each check returns the set of image indices whose outputs are wrong; the
benchmark counts them as failed. The checks rebuild what they need from
apemkit's per-sample path (``netcore.forward``), independently of the
batched forward the epsilon search uses.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from apemkit.apem import direct, gap, irrelevance, normalize_l1
from apemkit.cli import image_seed
from apemkit.errors import DataError, ZeroMapError
from apemkit.explain import compute_map, simplify
from apemkit.mapio import load_map
from apemkit.netcore import forward, input_gradient


def image_index(image_id: str) -> int:
    return int(image_id.removeprefix("img"))


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def stage_map(net, image, idx, method, ref, stage, cfg_seed):
    """The simplified map the CLI builds for (image, method), with its defaults."""
    raw = compute_map(net, image, method, target=ref, seed=image_seed(cfg_seed, idx))
    return simplify(raw, image, stage=stage)


def flip_k_is_first(net, image, ref, r_dir, k, step=1.0) -> bool:
    """The prediction leaves `ref` at step k and not at step k - 1."""
    def flipped(j):
        return forward(net, image + r_dir * (j * step)).predicted_class != ref

    return flipped(k) and (k == 1 or not flipped(k - 1))


def _row_ok(row, net, image, idx, stage, cap, cfg_seed) -> bool:
    ref = forward(net, image).predicted_class
    if int(row["predicted_class"]) != ref or int(row["stage"]) != stage:
        return False
    values = stage_map(net, image, idx, row["method"], ref, stage, cfg_seed).values
    if row["gap"] == "":
        # undefined rows are legal only when a ray has no mass to normalize
        return not (values.any() and irrelevance(values).any())
    eps_minus, eps_plus = int(row["eps_minus"]), int(row["eps_plus"])
    if int(row["gap"]) != eps_plus - eps_minus:
        return False
    grad = input_gradient(net, image, ref)
    rays = (
        (eps_minus, row["capped_minus"], direct(normalize_l1(values), grad)),
        (eps_plus, row["capped_plus"], direct(normalize_l1(irrelevance(values)), grad)),
    )
    return all(k == cap if capped == "True" else flip_k_is_first(net, image, ref, r_dir, k)
               for k, capped, r_dir in rays)


def check_evaluate(out: Path, net, images, methods, stage, cap, cfg_seed) -> set[int]:
    failed = set()
    seen: dict[int, list[str]] = {}
    for row in read_csv(out / "results" / "per_image.csv"):
        idx = image_index(row["image_id"])
        seen.setdefault(idx, []).append(row["method"])
        try:
            ok = 0 <= idx < len(images) and _row_ok(row, net, images[idx], idx, stage, cap,
                                                     cfg_seed)
        except (ValueError, DataError):  # malformed fields, maps with no mass
            ok = False
        if not ok:
            failed.add(idx)
    for idx in range(len(images)):
        if sorted(seen.get(idx, [])) != sorted(methods):
            failed.add(idx)
    return failed


def check_explain(out: Path, n_images, methods) -> set[int]:
    failed = set()
    for idx in range(n_images):
        for method in methods:
            for stage in (1, 2, 3):
                path = out / "maps" / f"img{idx:05d}_{method}_s{stage}.map"
                try:
                    rmap, header = load_map(path)
                except (OSError, DataError):
                    failed.add(idx)
                    continue
                v = rmap.values
                if (rmap.stage != stage or header["method"] != method
                        or not np.all(np.isfinite(v)) or v.min() < 0 or v.max() > 1):
                    failed.add(idx)
    return failed


def _filter_ok(trace, out, net, image, idx, method, ref, stage, cap, cfg_seed) -> bool:
    if trace is None:
        # the CLI skips a map only when its gap is undefined
        values = stage_map(net, image, idx, method, ref, stage, cfg_seed).values
        try:
            gap(net, image, ref, values, 1.0, cap)
        except ZeroMapError:
            return True
        return False
    gaps = [int(r["gap"]) for r in trace]
    if any(g < gaps[0] for g in gaps):
        return False
    final, _ = load_map(out / "maps" / "filtered" / f"img{idx:05d}_{method}_s{stage}.map")
    return gap(net, image, ref, final, 1.0, cap).gap == gaps[-1]


def check_filter(out: Path, net, images, methods, stage, cap, cfg_seed) -> set[int]:
    traces: dict[tuple[int, str], list[dict]] = {}
    for row in read_csv(out / "results" / "filter_trace.csv"):
        traces.setdefault((image_index(row["image_id"]), row["method"]), []).append(row)
    failed = set()
    for idx, image in enumerate(images):
        ref = forward(net, image).predicted_class
        for method in methods:
            try:
                ok = _filter_ok(traces.get((idx, method)), out, net, image, idx, method, ref,
                                stage, cap, cfg_seed)
            except (OSError, ValueError, DataError):  # missing or malformed outputs
                ok = False
            if not ok:
                failed.add(idx)
    return failed


# ---------------------------------------------------------------------------
# Per-image output digests (golden comparison and round-to-round identity)
# ---------------------------------------------------------------------------


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _rows_by_image(path) -> dict[int, list[bytes]]:
    with open(path, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    out: dict[int, list[bytes]] = {}
    for line in lines[1:]:
        out.setdefault(image_index(line.split(b",", 1)[0].decode()), []).append(line)
    return out


def _map_files(directory: Path, idx: int) -> list[bytes]:
    return [p.name.encode() + p.read_bytes()
            for p in sorted(directory.glob(f"img{idx:05d}_*.map"))]


def image_digests(workload: str, out: Path, n_images: int) -> list[str]:
    """One sha256 per image over every output byte the CLI wrote for it."""
    if workload == "evaluate":
        rows = _rows_by_image(out / "results" / "per_image.csv")
        return [_digest(rows.get(i, [])) for i in range(n_images)]
    if workload == "explain":
        return [_digest(_map_files(out / "maps", i)) for i in range(n_images)]
    rows = _rows_by_image(out / "results" / "filter_trace.csv")
    return [_digest(rows.get(i, []) + _map_files(out / "maps" / "filtered", i))
            for i in range(n_images)]


def result_records(workload: str, out: Path) -> int:
    """Records the command wrote: per-image CSV rows (one per image and
    method), map files, or filter-trace rows (one per accepted step)."""
    if workload == "explain":
        return len(list((out / "maps").glob("*.map")))
    csv_name = "per_image.csv" if workload == "evaluate" else "filter_trace.csv"
    return len(read_csv(out / "results" / csv_name))


def file_digest(path) -> str:
    return _digest([Path(path).read_bytes()])
