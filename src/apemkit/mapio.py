"""Relevance map persistence.

Binary format: magic, header length (uint64 LE), JSON header (image id,
method, params, stage, shape), then the little-endian float64 grid.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError
from .explain import RelevanceMap

MAGIC = b"APEMKITMAP\x00"


def save_map(rmap: RelevanceMap, path, image_id: str, method: str, params: dict | None = None):
    header = {
        "image_id": image_id,
        "method": method,
        "params": params or {},
        "stage": rmap.stage,
        "shape": list(rmap.values.shape),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        f.write(np.ascontiguousarray(rmap.values, dtype="<f8").tobytes())


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_map(path) -> tuple[RelevanceMap, dict]:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a relevance map file")
    pos = len(MAGIC)
    hlen = int.from_bytes(raw[pos : pos + 8], "little")
    pos += 8
    try:
        header = json.loads(raw[pos : pos + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: malformed map header: {e}") from e
    pos += hlen
    if not isinstance(header, dict):
        raise FormatError(f"{path}: map header is not a JSON object")
    shape, stage = header.get("shape"), header.get("stage")
    if not (isinstance(shape, list) and all(_is_int(n) and n >= 0 for n in shape)):
        raise FormatError(f"{path}: map header 'shape' is not a list of sizes: {shape!r}")
    if not _is_int(stage):
        raise FormatError(f"{path}: map header 'stage' is not an integer: {stage!r}")
    shape = tuple(shape)
    n = int(np.prod(shape)) * 8
    if len(raw) - pos != n:
        raise FormatError(f"{path}: grid size {len(raw) - pos} != header shape {shape}")
    values = np.frombuffer(raw[pos:], dtype="<f8").reshape(shape).copy()
    return RelevanceMap(values=values, stage=stage), header

