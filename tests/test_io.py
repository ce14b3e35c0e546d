"""Serialization round-trips and corruption handling for models and maps."""

import hashlib
import json

import numpy as np
import pytest

from apemkit.errors import ChecksumError, FormatError
from apemkit.explain import RelevanceMap
from apemkit.mapio import MAGIC as MAP_MAGIC, load_map, save_map
from apemkit.modelio import MAGIC, load_model, save_model
from apemkit.netcore import forward

from conftest import random_net


def test_model_round_trip_preserves_weights_and_predictions(tmp_path):
    net = random_net(5)
    path = tmp_path / "m.net"
    save_model(net, path)
    loaded = load_model(path)
    for a, b in zip(net.layers, loaded.layers):
        assert a.kind == b.kind and a.hyperparameters() == b.hyperparameters()
        if hasattr(a, "weight"):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
    rng = np.random.default_rng(0)
    image = rng.uniform(0, 1, (1, 8, 8))
    np.testing.assert_array_equal(forward(net, image).logits, forward(loaded, image).logits)


def test_model_save_is_byte_deterministic(tmp_path):
    net = random_net(6)
    p1, p2 = tmp_path / "a.net", tmp_path / "b.net"
    save_model(net, p1)
    save_model(net, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_model_file_fails_checksum(tmp_path):
    net = random_net(7)
    path = tmp_path / "m.net"
    save_model(net, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-40])
    with pytest.raises((ChecksumError, FormatError)):
        load_model(path)


def test_corrupted_weight_byte_fails_checksum(tmp_path):
    net = random_net(8)
    path = tmp_path / "m.net"
    save_model(net, path)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_model(path)


def test_non_model_file_is_rejected(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"not a model at all")
    with pytest.raises(FormatError):
        load_model(path)


def _rewrite_header(path, edit):
    """Rewrite a model file's header with edit(header), with a valid checksum."""
    raw = path.read_bytes()
    pos = len(MAGIC) + 4
    hlen = int.from_bytes(raw[pos:pos + 8], "little")
    header = json.loads(raw[pos + 8:pos + 8 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    body = raw[:pos] + len(text).to_bytes(8, "little") + text + raw[pos + 8 + hlen:-32]
    path.write_bytes(body + hashlib.sha256(body).digest())


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.pop("layers"),
        lambda h: h.pop("input_shape"),
        lambda h: h["layers"][0].pop("weight_shape"),
        lambda h: h["layers"][0].pop("stride"),
        lambda h: h["layers"][0].pop("padding"),
        lambda h: h["layers"][2].pop("size"),
        lambda h: h["layers"][-1].pop("weight_shape"),
        lambda h: h.update(layers=[1, 2]),
        lambda h: h.update(input_shape=[1, 8]),
        lambda h: h["layers"][0].update(weight_shape=[-4, 1, 3, 3]),
    ],
    ids=["no-layers", "no-input-shape", "conv-no-weight-shape", "conv-no-stride",
         "conv-no-padding", "pool-no-size", "dense-no-weight-shape", "layers-not-dicts",
         "short-input-shape", "negative-weight-shape"],
)
def test_checksummed_model_with_malformed_header_is_a_format_error(tmp_path, edit):
    path = tmp_path / "m.net"
    save_model(random_net(9), path)
    _rewrite_header(path, edit)
    with pytest.raises(FormatError, match="malformed header"):
        load_model(path)


@pytest.mark.parametrize("kind", ["softmax", "Dense", None, ["relu"]])
def test_model_with_an_unknown_layer_kind_is_a_format_error(tmp_path, kind):
    path = tmp_path / "m.net"
    save_model(random_net(9), path)
    _rewrite_header(path, lambda h: h["layers"][1].update(kind=kind))
    with pytest.raises(FormatError):
        load_model(path)


def test_map_round_trip(tmp_path):
    values = np.random.default_rng(1).uniform(0, 1, (28, 28))
    rmap = RelevanceMap(values=values, stage=3)
    path = tmp_path / "m.map"
    save_map(rmap, path, image_id="img7", method="gradient", params={"n": 1})
    loaded, header = load_map(path)
    np.testing.assert_array_equal(loaded.values, values)
    assert loaded.stage == 3
    assert header["image_id"] == "img7" and header["method"] == "gradient"


def test_map_wrong_grid_size_is_rejected(tmp_path):
    rmap = RelevanceMap(values=np.zeros((4, 4)), stage=1)
    path = tmp_path / "m.map"
    save_map(rmap, path, image_id="x", method="gradient")
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        load_map(path)


@pytest.mark.parametrize(
    "header",
    [
        [3, [4, 4]],
        {"stage": 3},
        {"shape": [4, 4]},
        {"shape": None, "stage": 3},
        {"shape": "44", "stage": 3},
        {"shape": [4, "4"], "stage": 3},
        {"shape": [-4, -4], "stage": 3},
        {"shape": [4, 4], "stage": None},
        {"shape": [4, 4], "stage": "three"},
    ],
    ids=["not-an-object", "no-shape", "no-stage", "null-shape", "string-shape",
         "string-size", "negative-sizes", "null-stage", "string-stage"],
)
def test_map_with_malformed_header_is_a_format_error(tmp_path, header):
    text = json.dumps(header).encode()
    path = tmp_path / "m.map"
    path.write_bytes(MAP_MAGIC + len(text).to_bytes(8, "little") + text + bytes(16 * 8))
    with pytest.raises(FormatError, match="map header"):
        load_map(path)
