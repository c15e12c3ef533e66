"""Post-training model compression.

Two transformations, both output-preserving up to documented tolerances:

* BN-scale filter pruning: a filter whose BN scale magnitude falls below
  a threshold is removed.  Its BN output is (for scale exactly zero) the
  constant shift value, so after the ReLU its entire contribution to the
  next convolution is a constant that folds exactly into the next
  layer's bias.  The fold is exact at every pixel because convolutions
  replicate-pad, which keeps a constant channel constant.

* Low-rank decomposition: a conv layer is split into a thin basis conv
  followed by a 1x1 combination conv via truncated SVD of its weight
  matrix, with the rank picked from the singular-value energy profile.

BN parameters are folded into conv weights and biases (inference-mode
folding) before low-rank decomposition and before fixed-point
quantization, so downstream stages see plain conv chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .network import Layer, NetworkModel
from .tensor import ConvParams


@dataclass
class PruneReport:
    """What a pruning pass removed and what it kept."""

    threshold: float
    kept_counts: list
    original_counts: list
    pruned_indices: list
    max_pruned_scale: float
    param_count_before: int
    param_count_after: int
    warnings: list = field(default_factory=list)

    @property
    def param_ratio(self) -> float:
        return self.param_count_after / self.param_count_before

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "kept_counts": list(self.kept_counts),
            "original_counts": list(self.original_counts),
            "pruned_indices": [list(map(int, idx)) for idx in self.pruned_indices],
            "max_pruned_scale": self.max_pruned_scale,
            "param_count_before": self.param_count_before,
            "param_count_after": self.param_count_after,
            "param_ratio": self.param_ratio,
            "warnings": list(self.warnings),
        }


def count_parameters(model: NetworkModel) -> int:
    """Trainable parameters: conv weights and biases, BN scales and shifts."""
    total = 0
    for layer in model.layers:
        total += layer.conv.weights.size + layer.conv.bias.size
        if layer.bn is not None:
            total += layer.bn.scale.size + layer.bn.shift.size
    return total


def prune_by_bn_scale(model: NetworkModel, threshold: float) -> tuple:
    """Remove filters whose BN scale magnitude is below ``threshold``.

    The constant contribution of each removed channel (ReLU of its BN
    shift) is folded into the following layer's bias, which is exact when
    the scale is exactly zero.  A layer is never emptied: if every scale
    falls under the threshold the largest-magnitude filter is kept and a
    warning is recorded.  The pruned model's config lists the kept widths.
    Returns ``(pruned_model, PruneReport)``.
    """
    if threshold < 0:
        raise ConfigError(f"threshold must be nonnegative, got {threshold}")
    model = model.copy()
    before = count_parameters(model)
    kept_counts = []
    original_counts = []
    pruned_indices = []
    warnings = []
    max_pruned = 0.0
    for i, layer in enumerate(model.layers[:-1]):
        if layer.bn is None:
            raise ConfigError(f"layer {i + 1} has no BN; prune expects BN on all hidden layers")
        scale_mag = np.abs(layer.bn.scale)
        keep = scale_mag >= threshold
        if not keep.any():
            keep[int(np.argmax(scale_mag))] = True
            warnings.append(
                f"layer {i + 1}: threshold {threshold} would remove every filter; "
                f"kept the largest-scale one")
        drop = np.nonzero(~keep)[0]
        original_counts.append(int(keep.size))
        kept_counts.append(int(keep.sum()))
        pruned_indices.append(drop)
        if drop.size:
            max_pruned = max(max_pruned, float(scale_mag[drop].max()))
            nxt = model.layers[i + 1].conv
            constant = np.maximum(layer.bn.shift[drop], 0.0) if layer.relu \
                else layer.bn.shift[drop]
            # constant channel convolves to (spatial kernel sum) * constant everywhere
            fold = (nxt.weights[:, drop].sum(axis=(2, 3)) * constant[None, :]).sum(axis=1)
            nxt.bias += fold
            nxt.weights = np.delete(nxt.weights, drop, axis=1)
            layer.conv.weights = layer.conv.weights[keep]
            layer.conv.bias = layer.conv.bias[keep]
            layer.bn.scale = layer.bn.scale[keep]
            layer.bn.shift = layer.bn.shift[keep]
            layer.bn.running_mean = layer.bn.running_mean[keep]
            layer.bn.running_var = layer.bn.running_var[keep]
    pruned = NetworkModel(replace(model.config, per_layer_filters=tuple(kept_counts)),
                          model.layers)
    report = PruneReport(
        threshold=threshold,
        kept_counts=kept_counts,
        original_counts=original_counts,
        pruned_indices=pruned_indices,
        max_pruned_scale=max_pruned,
        param_count_before=before,
        param_count_after=count_parameters(pruned),
        warnings=warnings,
    )
    return pruned, report


def fold_batchnorm(model: NetworkModel) -> NetworkModel:
    """Absorb every BN layer into its conv (inference-mode folding).

    The folded conv computes ``scale/sqrt(var+eps) * (conv(x) - mean) + shift``
    with the running statistics; this is the one form BN inference takes.
    A model without BN is returned as it is.
    """
    if not model.has_bn:
        return model
    model = model.copy()
    for layer in model.layers:
        if layer.bn is None:
            continue
        bn = layer.bn
        factor = bn.scale / np.sqrt(bn.running_var + bn.epsilon)
        layer.conv.weights *= factor[:, None, None, None]
        layer.conv.bias = (layer.conv.bias - bn.running_mean) * factor + bn.shift
        layer.bn = None
    return model


@dataclass
class LowRankLayer:
    """Truncated-SVD split of one conv layer.

    ``basis`` (r, Cin, k, k) spans the retained row space with zero bias;
    ``combine`` (Cout, r, 1, 1) maps back to the output channels and
    carries the original bias.
    """

    basis: np.ndarray
    combine: np.ndarray
    rank: int
    singular_values: np.ndarray
    bias: np.ndarray

    @property
    def reconstruction_error(self) -> float:
        """Frobenius norm of the discarded part: sqrt of the tail singular energy."""
        tail = self.singular_values[self.rank:]
        return float(np.sqrt((tail * tail).sum()))

    def as_conv_pair(self) -> tuple:
        return (ConvParams(self.basis, np.zeros(self.basis.shape[0])),
                ConvParams(self.combine, self.bias))


def svd_lowrank(layer: ConvParams, rank: int) -> LowRankLayer:
    """Rank-``rank`` split of a conv layer via SVD of its (Cout, Cin*k*k) matrix."""
    cout, cin, k, _ = layer.weights.shape
    full = min(cout, cin * k * k)
    if not (1 <= rank <= full):
        raise ConfigError(f"rank {rank} outside [1, {full}] for a {cout}x{cin * k * k} layer")
    mat = layer.weights.reshape(cout, cin * k * k)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    basis = (s[:rank, None] * vt[:rank]).reshape(rank, cin, k, k)
    combine = u[:, :rank].reshape(cout, rank, 1, 1)
    return LowRankLayer(basis=basis, combine=combine, rank=rank,
                        singular_values=s, bias=layer.bias.copy())


def select_rank(singular_values: np.ndarray, energy_keep: float) -> int:
    """Smallest rank whose cumulative squared singular energy reaches ``energy_keep``."""
    s = np.asarray(singular_values, dtype=np.float64)
    if s.size == 0:
        raise ConfigError("empty singular value vector")
    if not (0.0 < energy_keep <= 1.0):
        raise ConfigError(f"energy_keep must be in (0, 1], got {energy_keep}")
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        raise ConfigError("singular values must be nonnegative and descending")
    energy = s * s
    total = energy.sum()
    if total == 0.0:
        return 1
    if energy_keep >= 1.0:
        return int(np.count_nonzero(s))
    cum = np.cumsum(energy) / total
    return int(np.searchsorted(cum, energy_keep) + 1)


def decompose_model(model: NetworkModel, energy_keep: float = 0.95,
                    ranks: list | None = None) -> tuple:
    """Replace conv layers by (basis, 1x1 combine) pairs where that saves parameters.

    Expects a BN-folded model.  ``ranks``, if given, holds one positive rank
    per layer, clamped to the layer's matrix rank.  A layer is left intact
    when the rank would not shrink it (always true for the final 1-channel layer).
    The new model's config counts and sizes the layers it holds.
    Returns ``(model, per-layer info list)``.
    """
    if model.has_bn:
        raise ConfigError("decompose_model expects a BN-folded model; call fold_batchnorm first")
    if ranks is not None and (len(ranks) != len(model.layers) or min(ranks) < 1):
        raise ConfigError(f"need one positive rank per layer for {len(model.layers)} layers, "
                          f"got {list(ranks)}")
    new_layers = []
    info = []
    for i, layer in enumerate(model.layers):
        cout, cin, k, _ = layer.conv.weights.shape
        mat_rank = min(cout, cin * k * k)
        s = np.linalg.svd(layer.conv.weights.reshape(cout, -1), compute_uv=False)
        rank = ranks[i] if ranks is not None else select_rank(s, energy_keep)
        rank = min(rank, mat_rank)
        original = cout * cin * k * k
        decomposed = rank * cin * k * k + cout * rank
        if decomposed >= original:
            new_layers.append(layer.copy())
            info.append({"layer": i + 1, "rank": None, "kept": True,
                         "singular_values": s})
            continue
        lr = svd_lowrank(layer.conv, rank)
        basis, combine = lr.as_conv_pair()
        new_layers.append(Layer(basis, None, relu=False))
        new_layers.append(Layer(combine, None, relu=layer.relu))
        info.append({"layer": i + 1, "rank": rank, "kept": False,
                     "singular_values": s,
                     "reconstruction_error": lr.reconstruction_error})
    config = replace(model.config, num_conv_layers=len(new_layers),
                     per_layer_filters=tuple(layer.conv.out_channels
                                             for layer in new_layers[:-1]))
    return NetworkModel(config, new_layers), info
