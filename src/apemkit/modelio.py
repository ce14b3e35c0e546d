"""Model serialization.

File layout (all integers little-endian):

    magic "APEMKITNET\\0"  (11 bytes)
    format version         (uint32)
    header length          (uint64)
    header JSON            (utf-8, canonical: sorted keys, no spaces)
    weight blob            (concatenated float64 little-endian tensors)
    sha256 of everything above (32 bytes)

The header lists layers in order with kind-specific parameters and, for
parameterized layers, tensor shapes. Blob order follows layer order,
weight before bias. Round-trips are byte-exact.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import ChecksumError, FormatError
from .netcore import LAYERS, Network

MAGIC = b"APEMKITNET\x00"
FORMAT_VERSION = 1


def _layer_header(layer):
    h = {"kind": layer.kind, **layer.hyperparameters()}
    if layer.affine:
        h["weight_shape"] = list(layer.weight.shape)
    return h


def save_model(net: Network, path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "input_shape": list(net.input_shape),
        "layers": [_layer_header(l) for l in net.layers],
    }
    blob = bytearray()
    for layer in net.layers:
        if layer.affine:
            blob += np.ascontiguousarray(layer.weight, dtype="<f8").tobytes()
            blob += np.ascontiguousarray(layer.bias, dtype="<f8").tobytes()
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = (
        MAGIC
        + FORMAT_VERSION.to_bytes(4, "little")
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + bytes(blob)
    )
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as f:
        f.write(body + digest)


def load_model(path) -> Network:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 12 + 32 or raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a model file")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumError(f"{path}: checksum mismatch (file truncated or corrupted)")
    pos = len(MAGIC)
    version = int.from_bytes(raw[pos : pos + 4], "little")
    pos += 4
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    hlen = int.from_bytes(raw[pos : pos + 8], "little")
    pos += 8
    try:
        header = json.loads(raw[pos : pos + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: malformed header: {e}") from e
    pos += hlen

    def take(shape):
        nonlocal pos
        n = int(np.prod(shape)) * 8
        if pos + n > len(body):
            raise FormatError(f"{path}: weight blob shorter than header declares")
        arr = np.frombuffer(raw[pos : pos + n], dtype="<f8").reshape(shape).copy()
        pos += n
        return arr

    try:
        layers = []
        for spec in header["layers"]:
            kind = spec.get("kind")
            if kind not in LAYERS:
                raise FormatError(f"{path}: unknown layer kind {kind!r}")
            cls = LAYERS[kind]
            tensors = ()
            if cls.affine:  # weight, then a bias of one value per output
                tensors = take(spec["weight_shape"]), take([spec["weight_shape"][0]])
            layers.append(cls(*tensors, **{name: spec[name] for name in cls.params}))
        if pos != len(body):
            raise FormatError(f"{path}: {len(body) - pos} trailing bytes after weights")
        return Network(layers, header["input_shape"])
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        # a checksummed file whose header lacks a key or holds a bad value
        raise FormatError(f"{path}: malformed header: {type(e).__name__} {e}") from e
