"""The filter network: a residual CNN conditioned on the quantization parameter.

The network takes two planes, the decoded reconstruction and a constant
QP map, both normalized to [0, 1]: the two channels of the input that
:func:`normalize_inputs` alone builds, after :func:`_check_inputs`, the one
range check.  They pass through a chain of convolution layers; all but the
last are followed by batch normalization and ReLU.  The last layer produces
a single-channel residual that is added back onto the normalized
reconstruction, so an all-zero network is an exact identity.

:func:`forward_network` is the training forward, with BN on batch statistics.
Inference folds BN into the convs first (:func:`cnnlf.compress.fold_batchnorm`),
so no inference path runs a BN layer; :func:`filter_plane` is the float one.

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


def pixel_dtype(bit_depth: int) -> np.dtype:
    """The dtype of integer pixels of ``bit_depth`` bits: one byte up to 8, else two,
    little-endian so that their bytes are the same on any host."""
    return np.dtype("<u1" if bit_depth <= 8 else "<u2")


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


def _check_inputs(planes: np.ndarray, qps, config: NetworkConfig) -> np.ndarray:
    """The input contract of the float and the integer path alike: one 2-d plane
    and its QP, or an (N, H, W) stack and N QPs, with pixels in [0, pixel_max]
    and QPs in [0, qp_max].  One vectorised pass checks a stack, and an error
    names its first bad patch by index.  Returns ``planes`` as an array."""
    planes, qps = np.asarray(planes), np.asarray(qps)
    if qps.ndim > 1 or planes.ndim != 2 + qps.ndim or planes.shape[:-2] != qps.shape:
        raise ShapeError(f"need a 2-d plane and a QP or an (N,H,W) stack and N QPs, "
                         f"got planes {planes.shape} and QPs {qps.shape}")
    if 0 in planes.shape[-2:]:
        raise ShapeError(f"planes of {planes.shape[-2]}x{planes.shape[-1]} hold no pixels")
    stack, qps = planes.reshape((qps.size,) + planes.shape[-2:]), qps.reshape(-1)
    pmax = config.pixel_max
    bad_pixels = ~((stack.min(axis=(1, 2)) >= 0) & (stack.max(axis=(1, 2)) <= pmax))
    bad = bad_pixels | ~((qps >= 0) & (qps <= config.qp_max))
    if bad.any():
        j = int(bad.argmax())
        where = f"patch {j}: " if planes.ndim == 3 else ""
        if bad_pixels[j]:
            raise DataError(f"{where}pixel values outside [0, {pmax}]: "
                            f"min={stack[j].min()}, max={stack[j].max()}")
        raise DataError(f"{where}qp {qps[j]} outside [0, {config.qp_max}]")
    return planes


def normalize_inputs(planes: np.ndarray, qps, config: NetworkConfig) -> np.ndarray:
    """The (N, 2, H, W) network input of one plane and its QP (N = 1) or of an
    (N, H, W) stack and its N QPs, checked by :func:`_check_inputs`: pixels
    over ``pixel_max`` in channel 0 and each plane's QP over ``qp_max`` in channel 1."""
    planes = _check_inputs(planes, qps, config)
    inp = np.empty((np.size(qps), 2) + planes.shape[-2:])
    np.divide(planes, config.pixel_max, out=inp[:, 0])
    inp[:, 1] = np.reshape(qps, (-1, 1, 1)) / config.qp_max
    return inp


def forward_network(model: NetworkModel, inp: np.ndarray, keep_cache: bool = False):
    """The training forward: the conv chain plus residual add on a batched 2-channel input.

    BN layers use batch statistics and update their running statistics.
    Between layers only the conv outputs exist: a layer's BN and ReLU
    (:func:`cnnlf.tensor.bn_relu`) give the prologue ``act`` that the next
    :func:`cnnlf.tensor.conv2d` applies as it builds its padded input.  A last
    layer with BN or ReLU, as a loaded model may have, applies its epilogue
    to the output.  Returns ``(output, caches)`` where output is (N, 1, H, W).
    With ``keep_cache`` each layer contributes a dict of what its backward
    pass needs: its input ``x`` (the conv output of the layer before, or the
    network input) and the prologue ``act`` it ran on it, its conv output
    ``z`` and ``stats``, BN's ``(mean, invstd, scale)`` or None.  The last
    layer's dict also holds its output ``y`` if it ends in a ReLU.  No padded
    or activated array is kept.
    """
    if inp.ndim != 4 or inp.shape[1] != 2:
        raise ShapeError(f"network input must be (N,2,H,W), got {inp.shape}")
    x, act = inp, None
    caches = [] if keep_cache else None
    for layer in model.layers:
        z = tensor.conv2d(x, layer.conv, act)
        out_act, cache = tensor.bn_relu(z, layer.bn, layer.relu)
        if keep_cache:
            caches.append({"x": x, "act": act, **cache})
        x, act = z, out_act
    if act is not None:
        x = np.empty_like(z)
        tensor._activate(z, act, x, np.empty(z.size))
        if keep_cache and act[2]:
            caches[-1]["y"] = x
    return x + inp[:, :1], caches


def denormalize(output: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Back to integer pixels: scale, round half away from zero, clamp to range."""
    pmax = config.pixel_max
    pixels = tensor.round_half_away(np.asarray(output, dtype=np.float64) * pmax)
    return np.clip(pixels, 0, pmax).astype(pixel_dtype(config.bit_depth))


def filter_plane(model: NetworkModel, plane: np.ndarray, qp: int) -> np.ndarray:
    """Float inference on one integer plane: normalize, forward through a
    BN-folded copy of ``model`` (``model`` is not changed), denormalize."""
    from .compress import fold_batchnorm
    out, _ = forward_network(fold_batchnorm(model), normalize_inputs(plane, qp, model.config))
    return denormalize(out[0, 0], model.config)
