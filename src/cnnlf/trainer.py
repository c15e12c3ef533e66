"""Training: composite loss, exact backprop, SGD with clipping, fine-tuning.

The loss is the batch mean-square error plus three regularizers: a
squared-L2 penalty on all conv weights, a squared-L2 penalty on the BN
scale parameters (steers scales toward zero so filters become prunable),
and a pairwise filter-decorrelation term that pushes the normalized
filters of a layer apart, which keeps the weight matrices friendly to
the later low-rank decomposition.

All gradients are exact analytic gradients of the total, verified
against central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NonFiniteLossError, ShapeError
from . import tensor
from .network import Layer, NetworkModel, forward_network, normalize_inputs

FILTER_NORM_EPSILON = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    Defaults are the full-scale reference values; :meth:`desk` returns a
    small preset sized for laptop-scale experiments.  ``prune_at_epochs``
    triggers BN-scale pruning between epochs (prune, then keep training).
    """

    batch_size: int = 64
    base_lr: float = 0.1
    lambda_w: float = 1e-5
    lambda_s: float = 5e-8
    lambda_lda: float = 3e-6
    epochs: int = 32
    grad_clip_norm: float = 1.0
    lr_decay_epoch: int = 24
    lr_decay_factor: float = 0.1
    rng_seed: int = 0
    prune_at_epochs: tuple = ()
    prune_threshold: float = 1e-3

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 (train-mode BN needs it)")
        if min(self.lambda_w, self.lambda_s, self.lambda_lda) < 0:
            raise ConfigError("regularizer weights must be nonnegative")
        if self.grad_clip_norm <= 0:
            raise ConfigError("grad_clip_norm must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")

    @classmethod
    def paper_scale(cls) -> "TrainConfig":
        return cls()

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        base = dict(batch_size=16, base_lr=0.05, epochs=12, lr_decay_epoch=9)
        base.update(overrides)
        return cls(**base)

    def lr_at(self, epoch: int) -> float:
        if epoch >= self.lr_decay_epoch:
            return self.base_lr * self.lr_decay_factor
        return self.base_lr


@dataclass
class LossBreakdown:
    """The four loss terms and their weighted total.

    ``total`` is composed exactly as
    ``mse + lambda_w * reg_w + lambda_s * reg_s + lambda_lda * reg_lda``.
    """

    mse: float
    reg_w: float
    reg_s: float
    reg_lda: float
    total: float

    @classmethod
    def compose(cls, mse, reg_w, reg_s, reg_lda, config: TrainConfig) -> "LossBreakdown":
        total = mse + config.lambda_w * reg_w + config.lambda_s * reg_s + config.lambda_lda * reg_lda
        return cls(mse=mse, reg_w=reg_w, reg_s=reg_s, reg_lda=reg_lda, total=total)


@dataclass
class LayerGrads:
    """Gradients for one layer; BN entries are None where the layer has no BN."""

    weights: np.ndarray
    bias: np.ndarray
    bn_scale: np.ndarray | None
    bn_shift: np.ndarray | None

    def arrays(self):
        out = [self.weights, self.bias]
        if self.bn_scale is not None:
            out += [self.bn_scale, self.bn_shift]
        return out


def lda_regularizer(layer_weights: np.ndarray):
    """Pairwise L1 distance between the L2-normalized filters of one layer.

    Filters that are positive scalar multiples of each other contribute
    zero, so the value is invariant to per-filter rescaling.  Returns the
    value and its exact gradient w.r.t. the raw weights.

    No pairwise tensor is built: each of the D = Cin*k*k columns of the C
    unit filters is sorted once, which costs O(C * D * log C).  The gap
    between sorted positions j-1 and j (counting from 0) lies between
    j*(C-j) pairs, so the value is the sum of gaps weighted by those counts.
    The sign sum ``sum_j sign(u_i - u_j)`` of the gradient is
    ``#(u_j < u_i) - #(u_j > u_i)``: for an entry in the run of equal values
    at sorted positions a..b-1 it is ``a - (C - b)``, an exact integer.
    """
    w = np.asarray(layer_weights, dtype=np.float64)
    if w.ndim != 4:
        raise ShapeError(f"expected (Cout,Cin,k,k) weights, got shape {w.shape}")
    cout = w.shape[0]
    if cout < 2:
        return 0.0, np.zeros_like(w)
    flat = w.reshape(cout, -1)
    norms = np.sqrt((flat * flat).sum(axis=1))
    norms = np.maximum(norms, FILTER_NORM_EPSILON)
    unit = flat / norms[:, None]
    # one row per column of ``unit``, each sorted ascending
    order = np.argsort(unit.T, axis=1)
    ranked = np.take_along_axis(unit.T, order, axis=1)
    gaps = np.diff(ranked, axis=1)
    pos = np.arange(cout)
    value = float((gaps.sum(axis=0) * (pos[1:] * (cout - pos[1:]))).sum())
    # run_start[i] = a, run_end[i] = b for the run of equal values holding position i
    new_run = np.ones(ranked.shape, dtype=bool)
    new_run[:, 1:] = gaps != 0.0
    run_start = np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)
    run_last = np.ones(ranked.shape, dtype=bool)
    run_last[:, :-1] = new_run[:, 1:]
    run_end = np.minimum.accumulate(np.where(run_last, pos + 1, cout)[:, ::-1], axis=1)[:, ::-1]
    g_unit = np.empty_like(unit)
    np.put_along_axis(g_unit.T, order, (run_start + run_end - cout).astype(np.float64), axis=1)
    # chain through the normalization: (I - u u^T) / ||w||
    g_flat = (g_unit - (g_unit * unit).sum(axis=1)[:, None] * unit) / norms[:, None]
    return value, g_flat.reshape(w.shape)


def _batch_to_tensors(batch, config: "NetworkModel.config"):
    """Stack (decoded, original, qp) patch triples into network inputs/targets."""
    inputs = []
    targets = []
    for decoded, original, qp in batch:
        recon, qpmap = normalize_inputs(decoded, qp, config)
        inputs.append(np.stack([recon, qpmap])[None])
        targets.append((np.asarray(original, dtype=np.float64) / config.pixel_max)[None, None])
    return np.concatenate(inputs, axis=0), np.concatenate(targets, axis=0)


def backward_network(model: NetworkModel, caches, d_out: np.ndarray) -> list:
    """Backprop ``d_out`` (gradient at the residual output) through the conv chain.

    Returns the per-layer gradients.  The gradient w.r.t. the 2-channel
    network input is not formed: no caller needs it, so the first layer
    computes its weight gradient only.
    """
    grads: list = [None] * len(model.layers)
    d = d_out
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        cache = caches[i]
        if layer.relu:
            d = tensor.relu_grad(cache["pre_relu"], d)
        d_scale = d_shift = None
        if layer.bn is not None:
            d, d_scale, d_shift = tensor.batchnorm_backward(d, cache["bn_cache"])
        d, d_w, d_b = tensor.conv2d_grad(cache["conv_in"], layer.conv, d, input_grad=i > 0,
                                         xp=cache["conv_pad"])
        grads[i] = LayerGrads(d_w, d_b, d_scale, d_shift)
    return grads


def _check_finite(value: float, term: str) -> None:
    if not math.isfinite(value):
        raise NonFiniteLossError(f"loss term {term!r} is not finite: {value}")


def loss_eq1(model: NetworkModel, batch, config: TrainConfig):
    """Composite training loss and its exact gradients over one batch.

    ``batch`` is a sequence of (decoded_patch, original_patch, qp) triples
    of length ``config.batch_size``.  The MSE term is
    ``sum_i ||y_i - f(x_i)||^2 / (2 M)`` with M the batch size; the filter
    decorrelation term covers all layers except the last.
    """
    m = len(batch)
    if m != config.batch_size:
        raise ConfigError(f"batch has {m} samples, config expects {config.batch_size}")
    inp, target = _batch_to_tensors(batch, model.config)
    out, caches = forward_network(model, inp, keep_cache=True)
    resid = out - target
    mse = float((resid * resid).sum() / (2.0 * m))
    _check_finite(mse, "mse")
    grads = backward_network(model, caches, resid / m)

    reg_w = 0.0
    reg_s = 0.0
    reg_lda = 0.0
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        w = layer.conv.weights
        reg_w += float((w * w).sum())
        grads[i].weights += config.lambda_w * 2.0 * w
        if layer.bn is not None:
            reg_s += float((layer.bn.scale ** 2).sum())
            grads[i].bn_scale += config.lambda_s * 2.0 * layer.bn.scale
        if i < last:
            value, g = lda_regularizer(w)
            reg_lda += value
            grads[i].weights += config.lambda_lda * g
    _check_finite(reg_w, "reg_w")
    _check_finite(reg_s, "reg_s")
    _check_finite(reg_lda, "reg_lda")
    breakdown = LossBreakdown.compose(mse, reg_w, reg_s, reg_lda, config)
    _check_finite(breakdown.total, "total")
    return breakdown, grads


def global_grad_norm(grads) -> float:
    total = 0.0
    for g in grads:
        for arr in g.arrays():
            total += float((arr * arr).sum())
    return math.sqrt(total)


def sgd_step(model: NetworkModel, grads, lr: float, grad_clip_norm: float) -> NetworkModel:
    """Clip the global gradient norm, then take one gradient-descent step in place."""
    if len(grads) != len(model.layers):
        raise ShapeError(f"got {len(grads)} gradient entries for {len(model.layers)} layers")
    norm = global_grad_norm(grads)
    scale = grad_clip_norm / norm if norm > grad_clip_norm else 1.0
    step = lr * scale
    for layer, g in zip(model.layers, grads):
        layer.conv.weights -= step * g.weights
        layer.conv.bias -= step * g.bias
        if layer.bn is not None:
            layer.bn.scale -= step * g.bn_scale
            layer.bn.shift -= step * g.bn_shift
    return model


def train(model: NetworkModel, dataset, config: TrainConfig, callbacks=None, fl_table=None):
    """SGD over the dataset; returns (model, per-epoch LossBreakdown history).

    The dataset is a sequence of (decoded, original, qp) triples; it is
    reshuffled every epoch from the seeded RNG and split into
    ``floor(N / M)`` batches.  ``callbacks``, if given, is called as
    ``callbacks(epoch, step, breakdown, lr)`` after every step.  With an
    ``fl_table`` each step's loss and gradients come from
    ``quantized_view(model, fl_table)`` while the updates land on the float
    parameters (straight-through estimator).
    """
    items = list(dataset)
    if len(items) < config.batch_size:
        raise ConfigError(
            f"dataset has {len(items)} patches, smaller than one batch of {config.batch_size}")
    rf = model.config.receptive_field
    h, w = np.asarray(items[0][0]).shape
    # quantization-aware fine-tuning accepts patches of any size
    if fl_table is None and (h < rf or w < rf):
        raise ConfigError(f"patches {h}x{w} smaller than the receptive field {rf}")
    rng = np.random.default_rng(config.rng_seed)
    steps_per_epoch = len(items) // config.batch_size
    history = []
    for epoch in range(config.epochs):
        if epoch in config.prune_at_epochs:
            from .compress import prune_by_bn_scale
            model, _ = prune_by_bn_scale(model, config.prune_threshold)
        order = rng.permutation(len(items))
        lr = config.lr_at(epoch)
        epoch_terms = np.zeros(5)
        for step in range(steps_per_epoch):
            idx = order[step * config.batch_size:(step + 1) * config.batch_size]
            batch = [items[i] for i in idx]
            view = model if fl_table is None else quantized_view(model, fl_table)
            with tensor._spend_blas_threads():
                breakdown, grads = loss_eq1(view, batch, config)
            model = sgd_step(model, grads, lr, config.grad_clip_norm)
            epoch_terms += (breakdown.mse, breakdown.reg_w, breakdown.reg_s,
                            breakdown.reg_lda, breakdown.total)
            if callbacks is not None:
                callbacks(epoch, step, breakdown, lr)
        mean = epoch_terms / steps_per_epoch
        history.append(LossBreakdown(*mean))
    return model, history


def quantized_view(model: NetworkModel, fl_table) -> NetworkModel:
    """The model with its convs snapped to their fixed-point grids, sharing ``bn`` and ``relu``."""
    from .dfp import _dequantize_layer, _quantize_layer
    if len(fl_table.layers) != len(model.layers):
        raise ConfigError(
            f"FL table covers {len(fl_table.layers)} layers, model has {len(model.layers)}")
    return NetworkModel(model.config, [
        Layer(_dequantize_layer(*_quantize_layer(layer.conv, fl), fl), layer.bn, layer.relu)
        for layer, fl in zip(model.layers, fl_table.layers)])


def quant_aware_finetune(model: NetworkModel, dataset, fl_table, config: TrainConfig):
    """Fine-tune a BN-folded model with quantization in the forward pass.

    :func:`train` with ``fl_table`` and no pruning schedule.  Returns the
    fine-tuned float model and the loss history.
    """
    if model.has_bn:
        raise ConfigError("quantization-aware fine-tuning expects a BN-folded model")
    return train(model, dataset, replace(config, prune_at_epochs=()), fl_table=fl_table)
