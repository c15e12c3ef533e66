"""Dynamic fixed-point representation and the integer-exact inference path.

A dynamic fixed-point value is an integer mantissa ``m`` in a two's
complement range ``[-2^(B-1), 2^(B-1) - 1]`` together with a per-group
fractional length ``fl``; the represented value is ``m * 2^-fl``.
Weights use 8 bits, biases 32, layer inputs/outputs 16.  Each group in a
layer shares one ``fl``, estimated from the largest magnitude the group
has to carry.

Inference computes on integer mantissas only: inputs become 16-bit
mantissas at fl 15, each convolution accumulates 8x16-bit products,
biases are aligned by exact left shift, accumulators are requantized to
16 bits between layers (round half away from zero, saturating), the
residual add saturates at 16 bits, and denormalization is an integer
scale-and-shift.

The mantissas are carried in float64, and each layer runs the float
forward's band body (:meth:`cnnlf.tensor._Conv.band`): per band of output
rows, the rows of the next layer's padded buffer start at the aligned bias
and BLAS adds one GEMM per kernel tap (beta = 1) into them, reading the
input buffer in place.  This is exact: every product is an integer of at
most 2^22 in magnitude, and ``DFPModel`` proves when it is built that every
accumulator, bias and rounding offset included, stays below 2^53 (see
``DFPModel.accumulator_bounds``).  Every partial sum formed on the way,
inside one GEMM or across the taps BLAS accumulates, in whatever order, is
the bias plus a subset of the products, bounded by the same figure, so it
is an integer below 2^53 and float64 holds it without rounding; the same
holds where ``np.matmul`` forms a tap's products and they are added after.
A ReLU layer computes with its weights and bias pre-scaled by
``2^-shift``; scaling by a power of two is exact, so each of its partial
sums is such an integer times ``2^-shift`` and exact as well.  A layer that
contracts channels before taps (``k * k * Cout <= Cin``) first forms per-tap
sums over the input channels and then adds the taps; each of those is a sum
of a subset of the same products, bounded by the same figure.

:func:`dfp_forward` runs on the plane runner (:func:`cnnlf.tensor._run_planes`)
with an epilogue that requantizes each block's sums.  Whatever order the
blocks run in, each sums the same integers from the same inputs, so the
output is bit-identical for any summation order, BLAS build, BLAS thread
count, band split, worker count or schedule, which is the point: encoder and
decoder agree across platforms by construction.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ModelFormatError, VerificationError
# forward_network is not called here; perfbench's tracer test pins this binding
from .network import (Layer, NetworkConfig, NetworkModel, _check_chain, _check_inputs,
                      forward_network, normalize_inputs, pixel_dtype)
from .tensor import ConvParams, _check_conv, _run_planes, round_half_away

WEIGHT_BITS = 8
BIAS_BITS = 32
OUTPUT_BITS = 16
INPUT_FL = 15
HASH_NAME = "sha256"
# float64 holds every integer of smaller magnitude exactly
EXACT_LIMIT = 2.0 ** 53

CONFORMANCE_MAGIC = b"CNFV"
CONFORMANCE_VERSION = 1


@dataclass(frozen=True)
class DFPFormat:
    """Bit width and fractional length of one mantissa group."""

    bit_width: int
    fl: int

    @property
    def min_mantissa(self) -> int:
        return -(1 << (self.bit_width - 1))

    @property
    def max_mantissa(self) -> int:
        return (1 << (self.bit_width - 1)) - 1


ACT_MIN, ACT_MAX = DFPFormat(OUTPUT_BITS, 0).min_mantissa, DFPFormat(OUTPUT_BITS, 0).max_mantissa


def quantize_value(v, fmt: DFPFormat) -> np.ndarray:
    """Real value(s) to clamped integer mantissa(s), rounding half away from zero."""
    m = round_half_away(np.asarray(v, dtype=np.float64) * (2.0 ** fmt.fl))
    return np.clip(m, fmt.min_mantissa, fmt.max_mantissa).astype(np.int64)


def dequantize_value(m, fmt: DFPFormat) -> np.ndarray:
    return np.asarray(m, dtype=np.float64) * (2.0 ** -fmt.fl)


def estimate_fl(values, bit_width: int) -> int:
    """Largest fractional length at which the maximum magnitude does not clip.

    All-zero input yields the maximum-precision choice ``bit_width - 1``.
    """
    a = float(np.max(np.abs(values))) if np.size(values) else 0.0
    if not np.isfinite(a):
        raise DataError("cannot estimate a fractional length from non-finite values")
    if a == 0.0:
        return bit_width - 1
    limit = DFPFormat(bit_width, 0).max_mantissa
    fl = bit_width - 1 - int(np.ceil(np.log2(a)))
    while round_half_away(a * 2.0 ** fl) > limit:
        fl -= 1
    while round_half_away(a * 2.0 ** (fl + 1)) <= limit:
        fl += 1
    return fl


@dataclass(frozen=True)
class LayerFL:
    """Fractional lengths of one conv layer's weights, bias and output."""

    fl_w: int
    fl_b: int
    fl_o: int


@dataclass
class FLTable:
    """Per-layer fractional lengths, and the concat and summation fls, which are constants:
    ``INPUT_FL``, the grid of the input mantissas and the residual add.
    """

    layers: list
    fl_concat = INPUT_FL
    fl_sum = INPUT_FL

    def check_complete(self, num_layers: int) -> None:
        if len(self.layers) != num_layers:
            raise ConfigError(
                f"FL table covers {len(self.layers)} layers, model has {num_layers}")
        for i, e in enumerate(self.layers):
            for name in ("fl_w", "fl_b", "fl_o"):
                v = getattr(e, name)
                if not isinstance(v, (int, np.integer)):
                    raise ConfigError(f"layer {i + 1} {name} is not an integer: {v!r}")

    def to_dict(self) -> dict:
        return {
            "layers": [{"fl_w": e.fl_w, "fl_b": e.fl_b, "fl_o": e.fl_o} for e in self.layers],
            "fl_concat": self.fl_concat,
            "fl_sum": self.fl_sum,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FLTable":
        # no int(): check_complete rejects a value that is not an integer
        table = cls([LayerFL(e["fl_w"], e["fl_b"], e["fl_o"]) for e in d["layers"]])
        for name in ("fl_concat", "fl_sum"):
            if d.get(name, INPUT_FL) != INPUT_FL:
                raise ConfigError(f"{name} {d[name]!r} is not the input fl {INPUT_FL}")
        return table


def reference_fl_8layer() -> FLTable:
    """Fractional lengths estimated for the original 8-layer 64-filter model.

    Shipped as a loadable preset for that architecture; not a derivation
    target for models trained here.
    """
    fl_w = [9, 8, 8, 8, 8, 8, 8, 10]
    fl_b = [17, 15, 14, 16, 15, 13, 13, 16]
    fl_o = [15, 14, 14, 15, 15, 15, 16, 18]
    return FLTable([LayerFL(w, b, o) for w, b, o in zip(fl_w, fl_b, fl_o)])


def _calibration_max_abs(model: NetworkModel, calibration) -> list:
    """Max |pre-ReLU conv output| per layer of a BN-folded model over the calibration planes,
    each run on the plane runner (:func:`cnnlf.tensor._run_planes`) with a float epilogue
    that keeps the max |sum| of a block's interior, never the junk columns, in the block's
    own cell, then applies the ReLU.  ``max`` is exact, so no schedule changes the result.
    """
    maxima = []
    for plane, qp in calibration:
        inp = normalize_inputs(plane, qp, model.config)[0]
        cells = np.zeros((model.num_layers, inp.shape[1]))  # a plane has at most H bands

        def observe(l: int, j: int, sums: np.ndarray, interior: np.ndarray) -> None:
            cells[l, j] = np.abs(interior).max()
            if model.layers[l].relu:
                np.maximum(sums, 0.0, out=sums)

        _run_planes([layer.conv for layer in model.layers], inp, observe)
        maxima.append(cells.max(axis=1))
    if not maxima:
        raise ConfigError("calibration set is empty")
    return np.max(maxima, axis=0).tolist()


def build_fl_table(model: NetworkModel, calibration) -> FLTable:
    """Estimate per-layer fractional lengths for a BN-folded model.

    Weight and bias fl come from the parameter tensors, output fl from the
    largest conv-output magnitude on the calibration planes, which run on the
    plane runner with a float max-abs epilogue over band interiors only.
    Constraints forced by the integer pipeline: the bias fl never exceeds
    the accumulator fl (bias alignment must be an exact left shift), the
    output fl never exceeds the accumulator fl (requantization only
    shifts down), and the final layer's output fl is at least the
    summation fl so the residual add can requantize down onto it.
    """
    if model.has_bn:
        raise ConfigError("build_fl_table expects a BN-folded model")
    maxima = _calibration_max_abs(model, calibration)
    entries = []
    fl_in = INPUT_FL
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        fl_w = estimate_fl(layer.conv.weights, WEIGHT_BITS)
        fl_acc = fl_w + fl_in
        fl_b = min(estimate_fl(layer.conv.bias, BIAS_BITS), fl_acc)
        fl_o = min(estimate_fl(maxima[i], OUTPUT_BITS), fl_acc)
        if i == last:
            fl_o = max(fl_o, INPUT_FL)
            if fl_o > fl_acc:
                raise ConfigError(
                    f"final layer accumulator fl {fl_acc} below the summation fl {INPUT_FL}")
        entries.append(LayerFL(fl_w, fl_b, fl_o))
        fl_in = fl_o
    return FLTable(entries)


@dataclass
class DFPLayer:
    """Integer mantissas of one conv layer plus its activation flag."""

    weights_m: np.ndarray
    bias_m: np.ndarray
    relu: bool


@dataclass
class DFPModel:
    """The deterministic artifact: all parameters as integer mantissas.

    Mirrors a BN-folded NetworkModel layer for layer.  Every weight
    mantissa fits 8 bits, every bias mantissa 32 bits, activations run at
    16 bits with the fractional lengths recorded in ``fl_table``.

    Construction proves the float64 inference exact (see
    :meth:`accumulator_bounds`) and raises :class:`ConfigError` when it
    cannot.  The mantissa arrays are not to be changed afterwards.
    """

    config: NetworkConfig
    layers: list
    fl_table: FLTable

    def __post_init__(self):
        for layer in self.layers:
            _check_conv(layer.weights_m, layer.bias_m)
        _check_chain([layer.weights_m.shape[:2] for layer in self.layers])
        self.fl_table.check_complete(len(self.layers))
        if self.config.bit_depth > OUTPUT_BITS:
            raise ConfigError(f"bit depth {self.config.bit_depth} exceeds the "
                              f"{OUTPUT_BITS}-bit integer path")
        for i, layer in enumerate(self.layers):
            for name, m, fmt in (("weight", layer.weights_m, DFPFormat(WEIGHT_BITS, 0)),
                                 ("bias", layer.bias_m, DFPFormat(BIAS_BITS, 0))):
                if m.size and (m.min() < fmt.min_mantissa or m.max() > fmt.max_mantissa):
                    raise ConfigError(f"layer {i + 1} {name} mantissas exceed "
                                      f"{fmt.bit_width}-bit range")
        for i, bound in enumerate(self.accumulator_bounds()):
            if bound >= EXACT_LIMIT:
                raise ConfigError(
                    f"layer {i + 1} accumulator bound {bound:.4g} reaches 2^53; "
                    f"float64 inference would not be exact")

    def shifts(self) -> tuple:
        """``([(bias shift, output shift) per layer], summation shift)``.

        The bias is aligned to the accumulator fl ``fl_w + fl_in`` by a left
        shift, the accumulator requantized to ``fl_o`` by a right shift, and
        the last layer's output to the summation fl by a right shift, so
        none of them may be negative.
        """
        shifts = []
        fl_in = INPUT_FL
        for i, fl in enumerate(self.fl_table.layers):
            fl_acc = fl.fl_w + fl_in
            if fl.fl_b > fl_acc:
                raise ConfigError(f"layer {i + 1} bias fl {fl.fl_b} exceeds accumulator "
                                  f"fl {fl_acc}; table is inconsistent")
            if fl.fl_o > fl_acc:
                raise ConfigError(f"layer {i + 1} output fl {fl.fl_o} exceeds accumulator "
                                  f"fl {fl_acc}")
            shifts.append((fl_acc - fl.fl_b, fl_acc - fl.fl_o))
            fl_in = fl.fl_o
        if fl_in < INPUT_FL:
            raise ConfigError(f"final output fl {fl_in} below the summation fl {INPUT_FL}")
        return shifts, fl_in - INPUT_FL

    def accumulator_bounds(self) -> list:
        """Per layer, the largest magnitude its float64 accumulator can hold.

        Layer inputs are 16-bit mantissas, ``|x| <= 2^15``, so output
        channel ``c`` never exceeds ``sum|w_c|*2^15 + |b_c|*2^bshift`` plus
        the offset ``2^(shift-1)`` that rounding adds before its shift.  Any
        partial sum of the products is bounded by the same figure.  The
        figure is computed in float64; its terms are integers times powers
        of two and a sum that reaches 2^53 cannot round below it, so the
        comparison with 2^53 is exact.
        """
        bounds = []
        for layer, (bshift, shift) in zip(self.layers, self.shifts()[0]):
            w_abs = np.abs(layer.weights_m).reshape(len(layer.weights_m), -1).sum(axis=1)
            # exponents past 64 change no verdict: a nonzero bias is beyond 2^53 either way
            channel = (np.ldexp(w_abs.astype(np.float64), OUTPUT_BITS - 1)
                       + np.ldexp(np.abs(layer.bias_m).astype(np.float64), min(bshift, 64)))
            offset = np.ldexp(1.0, min(shift, 64) - 1) if shift else 0.0
            bounds.append(float(channel.max(initial=0.0)) + offset)
        return bounds

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def dequantized(self) -> NetworkModel:
        """The float model the integer path computes with; quantization-aware training
        steps on it."""
        return NetworkModel(self.config, [
            Layer(ConvParams(dequantize_value(layer.weights_m, DFPFormat(WEIGHT_BITS, fl.fl_w)),
                             dequantize_value(layer.bias_m, DFPFormat(BIAS_BITS, fl.fl_b))),
                  None, layer.relu)
            for layer, fl in zip(self.layers, self.fl_table.layers)])


def quantize_model(model: NetworkModel, fl_table: FLTable) -> DFPModel:
    """Quantize a BN-folded model's parameters onto their fixed-point grids."""
    if model.has_bn:
        raise ConfigError("quantize_model expects a BN-folded model; call fold_batchnorm first")
    fl_table.check_complete(len(model.layers))
    layers = [DFPLayer(quantize_value(layer.conv.weights, DFPFormat(WEIGHT_BITS, fl.fl_w)),
                       quantize_value(layer.conv.bias, DFPFormat(BIAS_BITS, fl.fl_b)), layer.relu)
              for layer, fl in zip(model.layers, fl_table.layers)]
    return DFPModel(model.config, layers, fl_table)


def input_mantissas(plane: np.ndarray, qp: int, config: NetworkConfig):
    """Integer-exact 16-bit mantissas (fl 15) of the normalized inputs."""
    plane = _check_inputs(plane, qp, config)
    pmax = config.pixel_max
    scale = 1 << (INPUT_FL + 1)
    recon_m = (plane.astype(np.int64) * scale + pmax) // (2 * pmax)
    recon_m = np.minimum(recon_m, ACT_MAX)
    qp_m = min((int(qp) * scale + config.qp_max) // (2 * config.qp_max), ACT_MAX)
    return recon_m, np.int64(qp_m)


def _round_shift(a: np.ndarray, shift: int) -> np.ndarray:
    """Integer-valued float64 ``a`` over ``2^shift``, rounded half away from zero.

    Exact while ``|a| + 2^(shift-1) < 2^53``: scaling by a power of two is
    exact, and ``a * 2^-shift ± 1/2`` equals ``(a ± 2^(shift-1)) * 2^-shift``.
    """
    return round_half_away(a * 2.0 ** -shift) if shift else a


def _layer_conv(layer: DFPLayer, bshift: int, shift: int) -> ConvParams:
    """The float64 convolution that sums one layer's accumulators.

    The bias is aligned by ``2^bshift``.  A ReLU layer folds the rounding
    offset and the shift into its parameters, ``W * 2^-s`` and
    ``(b * 2^bshift + 2^(s-1)) * 2^-s``, so its requantization is
    ``floor(clip(acc, 1/2, ACT_MAX))``; scaling by a power of two is exact.
    """
    weights = layer.weights_m.astype(np.float64)
    bias = np.ldexp(layer.bias_m.astype(np.float64), bshift)
    if layer.relu:
        if shift:
            bias += 2.0 ** (shift - 1)
        weights *= 2.0 ** -shift
        bias *= 2.0 ** -shift
    return ConvParams(weights, bias)


def dfp_forward(model: DFPModel, plane: np.ndarray, qp: int, threads: int = 1) -> np.ndarray:
    """Integer-exact filtering of one plane on the plane runner :func:`cnnlf.tensor._run_planes`,
    each block requantizing its sums; bit-identical for any BLAS thread count.  ``threads`` is
    unused; it stays only because ``perfbench`` still passes it.
    """
    cfg = model.config
    recon_m, qp_m = input_mantissas(plane, qp, cfg)
    layer_shifts, sum_shift = model.shifts()
    # a generator, so that each layer's pre-scaled weights are freed once the runner lays them out
    layers = (_layer_conv(layer, bshift, shift)
              for layer, (bshift, shift) in zip(model.layers, layer_shifts))

    def requantize(l: int, j: int, sums: np.ndarray, interior: np.ndarray) -> None:
        if model.layers[l].relu:  # floor(clip(acc, 1/2, ACT_MAX)), see _layer_conv:
            # acc = (a + 2^(s-1)) 2^-s, and max(a, 0) + 2^(s-1) = max(a + 2^(s-1), 2^(s-1))
            # is non-negative, so rounding half away is floor(max(acc, 1/2)); at s = 0 that
            # is max(a, 0) for integer a.  floor(min(v, ACT_MAX)) = min(floor(v), ACT_MAX)
            # for the integer ACT_MAX, so one clip applies both bounds.
            np.clip(sums, 0.5, ACT_MAX, out=sums)
            np.floor(sums, out=sums)
        else:
            np.clip(_round_shift(sums, layer_shifts[l][1]), ACT_MIN, ACT_MAX, out=sums)

    resid = _run_planes(layers, (recon_m, qp_m), requantize)
    # summation layer: bring the residual down to the input grid and add, saturating
    total = np.clip(_round_shift(resid, sum_shift), ACT_MIN, ACT_MAX)
    total += recon_m
    np.clip(total, 0, ACT_MAX, out=total)  # a negative sum denormalizes to pixel 0
    total *= cfg.pixel_max
    pixels = np.minimum(_round_shift(total, INPUT_FL), cfg.pixel_max)
    return pixels.astype(pixel_dtype(cfg.bit_depth))


def plane_bytes(plane: np.ndarray, bit_depth: int) -> bytes:
    """Canonical little-endian byte serialization of an integer plane."""
    return np.ascontiguousarray(plane.astype(pixel_dtype(bit_depth))).tobytes()


@dataclass
class ConformanceEntry:
    """One frozen (input plane, qp, expected output) conformance vector."""

    plane: np.ndarray
    qp: int
    output_hash: bytes
    output: np.ndarray


def make_conformance(model: DFPModel, corpus) -> list:
    entries = []
    for plane, qp in corpus:
        out = dfp_forward(model, plane, qp)
        out_bytes = plane_bytes(out, model.config.bit_depth)
        entries.append(ConformanceEntry(np.asarray(plane), int(qp),
                                        hashlib.new(HASH_NAME, out_bytes).digest(), out))
    return entries


def corpus_digest(entries) -> str:
    digest = hashlib.new(HASH_NAME)
    for e in entries:
        digest.update(plane_bytes(e.output, 8 if e.output.dtype == pixel_dtype(8) else 16))
    return digest.hexdigest()


def write_conformance(path, entries, bit_depth: int = 8) -> None:
    """Binary conformance container, laid out as follows.

    Header: magic ``CNFV``, u16 version, u16 hash-name length, hash name.
    Then u32 entry count; per entry u32 width, u32 height, u16 bit depth,
    u16 qp, the raw input plane (little-endian), the 32-byte expected
    output hash, and the expected output plane for pixel-level diffing.
    A 32-byte digest over all output planes closes the file.
    """
    with open(path, "wb") as f:
        f.write(CONFORMANCE_MAGIC)
        f.write(struct.pack("<HH", CONFORMANCE_VERSION, len(HASH_NAME)))
        f.write(HASH_NAME.encode("ascii"))
        f.write(struct.pack("<I", len(entries)))
        for e in entries:
            hgt, wid = e.plane.shape
            f.write(struct.pack("<IIHH", wid, hgt, bit_depth, e.qp))
            f.write(plane_bytes(e.plane, bit_depth))
            f.write(e.output_hash)
            f.write(plane_bytes(e.output, bit_depth))
        f.write(bytes.fromhex(corpus_digest(entries)))


def read_conformance(path) -> list:
    data = Path(path).read_bytes()
    if data[:4] != CONFORMANCE_MAGIC:
        raise ModelFormatError("not a conformance container (bad magic)", offset=0)
    try:
        version, hlen = struct.unpack_from("<HH", data, 4)
        name = data[8:8 + hlen].decode("ascii")
        (count,) = struct.unpack_from("<I", data, 8 + hlen)
    except (struct.error, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"corrupt conformance header: {exc}", offset=4) from None
    if version != CONFORMANCE_VERSION:
        raise ModelFormatError(f"unsupported conformance version {version}", offset=4)
    if name != HASH_NAME:
        raise ModelFormatError(f"unsupported hash algorithm {name!r}", offset=8)
    pos = 12 + hlen
    entries = []
    try:
        for _ in range(count):
            wid, hgt, depth, qp = struct.unpack_from("<IIHH", data, pos)
            pos += 12
            dtype = pixel_dtype(depth)
            nbytes = wid * hgt * dtype.itemsize
            plane = np.frombuffer(data[pos:pos + nbytes], dtype=dtype).reshape(hgt, wid)
            pos += nbytes
            out_hash = data[pos:pos + 32]
            if len(out_hash) != 32:
                raise ModelFormatError("truncated conformance entry", offset=pos)
            pos += 32
            output = np.frombuffer(data[pos:pos + nbytes], dtype=dtype).reshape(hgt, wid)
            pos += nbytes
            entries.append(ConformanceEntry(plane.copy(), qp, out_hash, output.copy()))
    except (ValueError, struct.error) as exc:
        raise ModelFormatError(f"truncated conformance container: {exc}", offset=pos) from None
    if len(data) < pos + 32:
        raise ModelFormatError("missing corpus digest", offset=pos)
    if data[pos:pos + 32] != bytes.fromhex(corpus_digest(entries)):
        raise ModelFormatError("corpus digest does not match the stored outputs", offset=pos)
    return entries


def replay_conformance(model: DFPModel, entries) -> str:
    """Re-run every stored vector; any mismatch names the plane and first pixel."""
    for i, e in enumerate(entries):
        out = dfp_forward(model, e.plane, e.qp)
        out_bytes = plane_bytes(out, model.config.bit_depth)
        if hashlib.new(HASH_NAME, out_bytes).digest() != e.output_hash:
            diff = np.nonzero(out != e.output)
            if diff[0].size:
                y, x = int(diff[0][0]), int(diff[1][0])
                raise VerificationError(
                    f"conformance mismatch at plane {i}, first differing pixel "
                    f"(y={y}, x={x}): got {int(out[y, x])}, expected {int(e.output[y, x])}")
            raise VerificationError(
                f"conformance mismatch at plane {i}: hash differs but stored output "
                f"matches; container is inconsistent")
    return corpus_digest(entries)
