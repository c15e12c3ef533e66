"""Model container: bit-exact serialization and content hashing.

Layout (all integers little-endian):

    magic  b"CLF1"
    u32    container version (currently 2)
    u64    header length in bytes
    header UTF-8 JSON, sorted keys
    blobs  raw parameter bytes, concatenated in header order
    digest SHA-256 of everything before it (magic, version, header, blobs)

The header describes the architecture (per-layer shapes, BN presence,
activation flags), the input contract (bit depth, qp max), provenance
(seed, config digest) and a blob table with dtype, shape and byte length
for every parameter tensor.  Float parameters are stored as ``<f8`` so a
save/load round trip is bit-exact; mantissas are stored at their natural
width (``<i1`` weights, ``<i4`` biases).  The trailing digest makes any
corruption of a stored model a load error rather than a different model.
The model hash is the digest of the container written without provenance,
so it is stable across platforms.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import asdict

import numpy as np

from .errors import ModelFormatError
from .dfp import DFPLayer, DFPModel, FLTable
from .network import Layer, NetworkConfig, NetworkModel
from .tensor import BNParams, ConvParams

MAGIC = b"CLF1"
VERSION = 2
BLOB_DTYPES = frozenset({"<f8", "<i1", "<i4"})
DIGEST_BYTES = 32


def _serialize(model, provenance: dict | None) -> bytes:
    blobs = []
    blob_table = []

    def add(name, array, dtype):
        arr = np.ascontiguousarray(np.asarray(array), dtype=dtype)
        blob_table.append({"name": name, "dtype": dtype,
                           "shape": list(arr.shape), "nbytes": arr.nbytes})
        blobs.append(arr.tobytes())

    header: dict = {"provenance": provenance or {}}
    if isinstance(model, NetworkModel):
        header["kind"] = "float"
        header["config"] = asdict(model.config)
        layer_desc = []
        for i, layer in enumerate(model.layers):
            desc = {"out": layer.conv.out_channels, "in": layer.conv.in_channels,
                    "k": layer.conv.kernel_size, "relu": layer.relu,
                    "has_bn": layer.bn is not None}
            add(f"layer{i}.weights", layer.conv.weights, "<f8")
            add(f"layer{i}.bias", layer.conv.bias, "<f8")
            if layer.bn is not None:
                desc["bn_epsilon"] = layer.bn.epsilon
                desc["bn_momentum"] = layer.bn.momentum
                add(f"layer{i}.bn_scale", layer.bn.scale, "<f8")
                add(f"layer{i}.bn_shift", layer.bn.shift, "<f8")
                add(f"layer{i}.bn_mean", layer.bn.running_mean, "<f8")
                add(f"layer{i}.bn_var", layer.bn.running_var, "<f8")
            layer_desc.append(desc)
        header["layers"] = layer_desc
    elif isinstance(model, DFPModel):
        header["kind"] = "dfp"
        header["config"] = asdict(model.config)
        header["fl_table"] = model.fl_table.to_dict()
        layer_desc = []
        for i, layer in enumerate(model.layers):
            layer_desc.append({"out": layer.weights_m.shape[0],
                               "in": layer.weights_m.shape[1],
                               "k": layer.weights_m.shape[2], "relu": layer.relu})
            add(f"layer{i}.weights_m", layer.weights_m, "<i1")
            add(f"layer{i}.bias_m", layer.bias_m, "<i4")
        header["layers"] = layer_desc
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")

    header["blobs"] = blob_table
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<I", VERSION))
    out.write(struct.pack("<Q", len(header_bytes)))
    out.write(header_bytes)
    for b in blobs:
        out.write(b)
    out.write(hashlib.sha256(out.getbuffer()).digest())
    return out.getvalue()


def save_model(model, path, provenance: dict | None = None) -> None:
    """Write a float or DFP model; load reproduces it bit-exactly."""
    with open(path, "wb") as f:
        f.write(_serialize(model, provenance))


def model_hash(model) -> str:
    """The container digest (SHA-256 hex) of the model saved without provenance."""
    return _serialize(model, provenance=None)[-DIGEST_BYTES:].hex()


def load_model(path):
    """Read a model container; returns NetworkModel or DFPModel.

    Raises :class:`ModelFormatError` with the failing byte offset for
    corrupt or truncated files, including a digest that does not match
    the bytes before it, and a distinct message on version mismatch.  A
    header that is valid JSON but not a well-formed model description
    (not an object, a missing key, a value of the wrong type,
    a blob that a layer names but the blob table lacks, layer shapes that
    contradict the blobs, each other or the config's widths, a fixed-point
    model whose exactness bound fails) is corrupt too.  Never returns a
    partially read model.
    """
    data = open(path, "rb").read()
    if len(data) < 16 or data[:4] != MAGIC:
        raise ModelFormatError(f"{path}: not a model container (bad magic)", offset=0)
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise ModelFormatError(f"{path}: unsupported container version {version} "
                               f"(this build reads {VERSION})", offset=4)
    (header_len,) = struct.unpack_from("<Q", data, 8)
    if len(data) < 16 + header_len:
        raise ModelFormatError(f"{path}: truncated header", offset=len(data))
    try:
        header = json.loads(data[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: corrupt header ({exc})", offset=16) from None
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: header is not a JSON object", offset=16)
    try:
        return _decode(path, header, data, 16 + header_len)
    except ModelFormatError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"{path}: header lacks {exc.args[0]!r}", offset=16) from None
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed header ({exc})", offset=16) from None


def _decode(path, header: dict, data: bytes, pos: int):
    arrays = {}
    for entry in header["blobs"]:
        if entry["dtype"] not in BLOB_DTYPES:
            raise ModelFormatError(f"{path}: blob {entry['name']!r} has dtype "
                                   f"{entry['dtype']!r}, not one of {sorted(BLOB_DTYPES)}",
                                   offset=16)
        nbytes = entry["nbytes"]
        if len(data) < pos + nbytes:
            raise ModelFormatError(f"{path}: truncated blob {entry['name']!r}", offset=pos)
        arr = np.frombuffer(data[pos:pos + nbytes], dtype=entry["dtype"])
        arrays[entry["name"]] = arr.reshape(entry["shape"]).copy()
        pos += nbytes
    if len(data) < pos + DIGEST_BYTES:
        raise ModelFormatError(f"{path}: truncated digest", offset=len(data))
    if len(data) > pos + DIGEST_BYTES:
        raise ModelFormatError(f"{path}: {len(data) - pos - DIGEST_BYTES} trailing bytes",
                               offset=pos + DIGEST_BYTES)
    if hashlib.sha256(memoryview(data)[:pos]).digest() != data[pos:]:
        raise ModelFormatError(f"{path}: digest does not match the contents", offset=pos)

    # NetworkConfig has defaults, so a key the header lacks would load as its default
    missing = set(asdict(NetworkConfig())) - set(header["config"])
    if missing:
        raise ModelFormatError(f"{path}: config lacks {sorted(missing)}", offset=16)
    config = NetworkConfig(**header["config"])
    kind = header["kind"]
    if kind not in ("float", "dfp"):
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}", offset=16)
    _check_layer_shapes(path, header["layers"], arrays, config,
                        "" if kind == "float" else "_m")
    if kind == "float":
        layers = []
        for i, desc in enumerate(header["layers"]):
            conv = ConvParams(arrays[f"layer{i}.weights"].astype(np.float64),
                              arrays[f"layer{i}.bias"].astype(np.float64))
            bn = None
            if desc["has_bn"]:
                bn = BNParams(arrays[f"layer{i}.bn_scale"], arrays[f"layer{i}.bn_shift"],
                              arrays[f"layer{i}.bn_mean"], arrays[f"layer{i}.bn_var"],
                              epsilon=desc["bn_epsilon"], momentum=desc["bn_momentum"])
            layers.append(Layer(conv, bn, desc["relu"]))
        return NetworkModel(config, layers)
    fl_table = FLTable.from_dict(header["fl_table"])
    layers = []
    for i, desc in enumerate(header["layers"]):
        layers.append(DFPLayer(arrays[f"layer{i}.weights_m"].astype(np.int64),
                               arrays[f"layer{i}.bias_m"].astype(np.int64),
                               desc["relu"]))
    return DFPModel(config, layers, fl_table)


def _check_layer_shapes(path, descs: list, arrays: dict, config: NetworkConfig,
                        suffix: str) -> None:
    """The header's layer descriptions must match the blobs and chain into a filter."""
    prev_out = 2
    for i, desc in enumerate(descs):
        cout, cin, k = desc["out"], desc["in"], desc["k"]
        w, b = arrays[f"layer{i}.weights{suffix}"], arrays[f"layer{i}.bias{suffix}"]
        if w.shape != (cout, cin, k, k) or b.shape != (cout,):
            raise ModelFormatError(f"{path}: layer {i + 1} header says {cout}x{cin}x{k}x{k}, "
                                   f"blobs hold {w.shape} and {b.shape}", offset=16)
        if cin != prev_out:
            raise ModelFormatError(f"{path}: layer {i + 1} takes {cin} channels, "
                                   f"its input has {prev_out}", offset=16)
        prev_out = cout
    hidden = tuple(desc["out"] for desc in descs[:-1])
    if prev_out != 1 or hidden != config.per_layer_filters:
        raise ModelFormatError(f"{path}: layer widths {hidden} + ({prev_out},) do not match "
                               f"the config's {config.per_layer_filters} + (1,)", offset=16)
