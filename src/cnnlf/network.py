"""The filter network: a residual CNN conditioned on the quantization parameter.

The network takes two planes, the decoded reconstruction and a constant
QP map, both normalized to [0, 1].  They are concatenated into a
2-channel input and passed through a chain of convolution layers; all
but the last are followed by batch normalization and ReLU.  The last
layer produces a single-channel residual that is added back onto the
normalized reconstruction, so an all-zero network is an exact identity.

:func:`forward_network` is the training forward, with BN on batch statistics.
Inference folds BN into the convs first (:func:`cnnlf.compress.fold_batchnorm`),
so no inference path runs a BN layer.

One model serves every QP and, because it is single-plane, luma and
chroma planes alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from . import tensor
from .tensor import BNParams, ConvParams


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and input-range description.

    ``per_layer_filters`` holds the output channel counts of layers
    1..L-1; the final layer always outputs one channel (the residual).
    Normalization divides pixels by ``2**bit_depth - 1`` so the maximum
    pixel maps exactly to 1.0, and the QP map by ``qp_max``.
    """

    num_conv_layers: int = 8
    kernel_size: int = 3
    base_filters: int = 64
    per_layer_filters: tuple = None
    bit_depth: int = 8
    qp_max: int = 51

    def __post_init__(self):
        if self.per_layer_filters is None:
            object.__setattr__(self, "per_layer_filters",
                               (self.base_filters,) * (self.num_conv_layers - 1))
        else:
            object.__setattr__(self, "per_layer_filters", tuple(self.per_layer_filters))
        fields = {f: getattr(self, f) for f in ("num_conv_layers", "kernel_size", "base_filters",
                                                "bit_depth", "qp_max")}
        fields.update((f"per_layer_filters[{i}]", v) for i, v in enumerate(self.per_layer_filters))
        for name, v in fields.items():
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if self.num_conv_layers < 2:
            raise ConfigError("need at least 2 conv layers (hidden + residual output)")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ConfigError(f"kernel size must be odd and positive, got {self.kernel_size}")
        if len(self.per_layer_filters) != self.num_conv_layers - 1:
            raise ConfigError(
                f"per_layer_filters has {len(self.per_layer_filters)} entries, "
                f"expected {self.num_conv_layers - 1}")
        if any(f < 1 or f > self.base_filters for f in self.per_layer_filters):
            raise ConfigError(f"per-layer filter counts must lie in [1, {self.base_filters}]")
        if self.bit_depth < 1 or self.qp_max < 1:
            raise ConfigError("bit_depth and qp_max must be positive")

    @property
    def pixel_max(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def receptive_field(self) -> int:
        return 1 + self.num_conv_layers * (self.kernel_size - 1)


@dataclass
class Layer:
    """One stage of the chain: conv, optional BN, optional ReLU."""

    conv: ConvParams
    bn: BNParams | None
    relu: bool

    def copy(self) -> "Layer":
        return Layer(self.conv.copy(), self.bn.copy() if self.bn is not None else None, self.relu)


def _check_chain(shapes) -> None:
    """The ``(Cout, Cin)`` of each layer must chain the 2 input planes
    (reconstruction + QP map) into the 1-channel residual."""
    if not shapes:
        raise ConfigError("model has no layers")
    prev = 2
    for i, (cout, cin) in enumerate(shapes):
        if cin != prev:
            raise ShapeError(f"layer {i + 1} expects {cin} input channels but its input has {prev}")
        prev = cout
    if prev != 1:
        raise ShapeError(f"last layer must output 1 channel (residual), got {prev}")


@dataclass
class NetworkModel:
    """Ordered layer chain plus the config describing its input contract."""

    config: NetworkConfig
    layers: list

    def __post_init__(self):
        _check_chain([(layer.conv.out_channels, layer.conv.in_channels) for layer in self.layers])
        for i, layer in enumerate(self.layers):
            if layer.bn is not None and layer.bn.channels != layer.conv.out_channels:
                raise ShapeError(
                    f"layer {i + 1} BN has {layer.bn.channels} channels, conv outputs "
                    f"{layer.conv.out_channels}")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def has_bn(self) -> bool:
        return any(layer.bn is not None for layer in self.layers)

    def copy(self) -> "NetworkModel":
        return NetworkModel(self.config, [layer.copy() for layer in self.layers])


def build_cnnf(config: NetworkConfig, rng_seed: int,
               zero_init_output: bool = True) -> NetworkModel:
    """Build a freshly initialized model; the same seed gives bit-identical models.

    Hidden weights use He-style fan-in scaling, biases start at zero, BN
    at identity (scale 1, shift 0, running mean 0, running var 1).  The
    output layer starts at zero by default so the residual network begins
    as an exact identity, which keeps early training stable; pass
    ``zero_init_output=False`` for fan-in scaling there too.
    """
    rng = np.random.default_rng(rng_seed)
    k = config.kernel_size
    channels = [2] + list(config.per_layer_filters) + [1]
    layers = []
    last = len(channels) - 2
    for i in range(len(channels) - 1):
        cin, cout = channels[i], channels[i + 1]
        std = np.sqrt(2.0 / (cin * k * k))
        weights = rng.normal(0.0, std, size=(cout, cin, k, k))
        if i == last and zero_init_output:
            weights = np.zeros_like(weights)
        conv = ConvParams(weights, np.zeros(cout))
        bn = BNParams.identity(cout) if i < last else None
        layers.append(Layer(conv, bn, relu=i < last))
    return NetworkModel(config, layers)


def _check_inputs(plane: np.ndarray, qp: int, config: NetworkConfig) -> np.ndarray:
    """The input contract of the float and the integer path alike: a 2-d plane
    of pixels in [0, pixel_max] and a QP in [0, qp_max].  Returns the plane as an array."""
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ShapeError(f"plane must be 2-d, got shape {plane.shape}")
    pmax = config.pixel_max
    if plane.min() < 0 or plane.max() > pmax:
        raise DataError(
            f"pixel values outside [0, {pmax}]: min={plane.min()}, max={plane.max()}")
    if not (0 <= qp <= config.qp_max):
        raise DataError(f"qp {qp} outside [0, {config.qp_max}]")
    return plane


def normalize_inputs(plane: np.ndarray, qp: int, config: NetworkConfig):
    """Map an integer plane and a QP to the network's two [0, 1] input planes."""
    plane = _check_inputs(plane, qp, config)
    recon = plane.astype(np.float64) / config.pixel_max
    qpmap = np.full(plane.shape, qp / config.qp_max, dtype=np.float64)
    return recon, qpmap


def forward_network(model: NetworkModel, inp: np.ndarray, keep_cache: bool = False):
    """The training forward: the conv chain plus residual add on a batched 2-channel input.

    BN layers use batch statistics and update their running statistics.
    Returns ``(output, caches)`` where output is (N, 1, H, W).  With
    ``keep_cache`` each layer contributes the intermediates its backward
    pass needs.
    """
    if inp.ndim != 4 or inp.shape[1] != 2:
        raise ShapeError(f"network input must be (N,2,H,W), got {inp.shape}")
    x = inp
    caches = [] if keep_cache else None
    for layer in model.layers:
        # the backward pass reuses the conv's padded input; conv_in is a view into it
        conv_pad = tensor.pad_same(x, layer.conv.kernel_size)
        p = (layer.conv.kernel_size - 1) // 2
        conv_in = conv_pad[:, :, p:conv_pad.shape[2] - p, p:conv_pad.shape[3] - p]
        x = tensor.conv2d(conv_in, layer.conv, xp=conv_pad)
        bn_cache = None
        if layer.bn is not None:
            x, _, bn_cache = tensor.batchnorm_forward(x, layer.bn)
        pre_relu = x
        if layer.relu:
            x = tensor.relu(x)
        if keep_cache:
            caches.append({"conv_in": conv_in, "conv_pad": conv_pad, "bn_cache": bn_cache,
                           "pre_relu": pre_relu})
    return x + inp[:, :1], caches


def forward_float(model: NetworkModel, recon: np.ndarray, qpmap: np.ndarray) -> np.ndarray:
    """Float inference on one plane; returns the unclamped filtered plane.

    ``recon`` and ``qpmap`` are the outputs of :func:`normalize_inputs`.
    BN is folded into a copy of the model first, so ``model`` is not changed.
    """
    recon = np.asarray(recon, dtype=np.float64)
    qpmap = np.asarray(qpmap, dtype=np.float64)
    if recon.ndim != 2 or recon.shape != qpmap.shape:
        raise ShapeError(f"recon {recon.shape} and qpmap {qpmap.shape} must be planes of one size")
    if model.has_bn:
        from .compress import fold_batchnorm
        model = fold_batchnorm(model)
    out, _ = forward_network(model, np.stack([recon, qpmap])[None])
    return out[0, 0]


def denormalize(output: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Back to integer pixels: scale, round half away from zero, clamp to range."""
    pmax = config.pixel_max
    pixels = tensor.round_half_away(np.asarray(output, dtype=np.float64) * pmax)
    pixels = np.clip(pixels, 0, pmax)
    dtype = np.uint8 if config.bit_depth <= 8 else np.uint16
    return pixels.astype(dtype)


def filter_plane(model: NetworkModel, plane: np.ndarray, qp: int) -> np.ndarray:
    """Full float filtering path: normalize, forward, denormalize."""
    recon, qpmap = normalize_inputs(plane, qp, model.config)
    return denormalize(forward_float(model, recon, qpmap), model.config)
