"""Dense tensor math for the loop-filter network.

Activations are float64 arrays in (N, C, H, W) order, kernels in
(Cout, Cin, Kh, Kw).  Only the five layer kinds the filter network needs
are provided: same-size convolution, batch normalization, ReLU, channel
concatenation and elementwise addition, each with an exact analytic
backward pass.

Convolutions are stride-1 and same-size.  Borders are handled with
replicate (edge) padding: an out-of-bounds tap reads the nearest edge
pixel, so a plane smaller than the kernel is filtered like any other.
Replicate padding keeps a constant input channel exactly constant
under convolution, which the channel-pruning bias fold in
:mod:`cnnlf.compress` relies on for bit-exact output preservation.

The forward convolution of one padded image, float or DFP, is
:func:`_correlate`: one GEMM per band of output rows over unfolded (im2col)
patches (Chellapilla et al., 2006), or, if ``k * k * Cout <= Cin`` (an
output head), one GEMM contracting the channels first and a sum of the
k * k shifted tap planes.  :func:`conv2d` adds the bias to its sums;
:mod:`cnnlf.dfp` runs it on integer mantissas and requantizes them.

The backward pass unfolds each image's upstream gradient once, zero-ringed
by ``k - 1``, and that unfold ``U`` serves both gradients.  The input
gradient is the flipped, transposed kernel times ``U`` (the adjoint
correlation); the weight gradient is ``U`` times the padded input, read
back with flipped taps:
``d_w[o, c, ky, kx] = sum_q U[(o, k-1-ky, k-1-kx), q] * xp[c, q]`` over the
``(H + k - 1) * (W + k - 1)`` padded positions ``q``.

The GEMM's summation order belongs to the BLAS build and its thread
count, so float results can differ in the last bits between BLAS builds
or thread settings.  Bit-exactness across platforms and thread counts is
the contract of the integer path in :mod:`cnnlf.dfp`, not of this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9
# Size of one unfolded row band, the right operand of one GEMM: large enough
# to keep BLAS efficient, small enough to stay in cache.  With 64 3x3 input
# channels it holds 8 rows of a 208-pixel plane.
BAND_BYTES = 8 << 20


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest integer, ties away from zero (numpy rounds ties to even)."""
    x = np.asarray(x, dtype=np.float64)
    return np.trunc(x + np.copysign(0.5, x))


@dataclass
class ConvParams:
    """Weights (Cout, Cin, k, k) and per-channel bias of one convolution.

    Stride is 1 and spatial size is preserved; the kernel must be square
    with odd side so the padding (k - 1) / 2 is integral.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 4:
            raise ShapeError(f"conv weights must be 4-d (Cout,Cin,Kh,Kw), got shape {self.weights.shape}")
        cout, _, kh, kw = self.weights.shape
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"kernel must be square with odd side, got {kh}x{kw}")
        if self.bias.shape != (cout,):
            raise ShapeError(f"bias length {self.bias.shape} does not match Cout={cout}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]

    def copy(self) -> "ConvParams":
        return ConvParams(self.weights.copy(), self.bias.copy())


@dataclass
class BNParams:
    """Per-channel batch-normalization parameters.

    ``scale`` is the multiplicative parameter (gamma) whose magnitude drives
    filter pruning; ``shift`` is beta.  Running statistics are updated in
    training mode with ``r <- momentum * r + (1 - momentum) * batch_stat``
    using the biased batch variance.
    """

    scale: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = BN_EPSILON
    momentum: float = BN_MOMENTUM

    def __post_init__(self):
        self.scale = np.asarray(self.scale, dtype=np.float64)
        self.shift = np.asarray(self.shift, dtype=np.float64)
        self.running_mean = np.asarray(self.running_mean, dtype=np.float64)
        self.running_var = np.asarray(self.running_var, dtype=np.float64)
        n = self.scale.shape
        for name, v in (("shift", self.shift), ("running_mean", self.running_mean),
                        ("running_var", self.running_var)):
            if v.shape != n:
                raise ShapeError(f"BN {name} length {v.shape} does not match scale length {n}")
        if np.any(self.running_var < 0.0):
            raise ShapeError("BN running_var must be nonnegative")

    @classmethod
    def identity(cls, channels: int) -> "BNParams":
        return cls(np.ones(channels), np.zeros(channels), np.zeros(channels), np.ones(channels))

    @property
    def channels(self) -> int:
        return self.scale.shape[0]

    def copy(self) -> "BNParams":
        return BNParams(self.scale.copy(), self.shift.copy(), self.running_mean.copy(),
                        self.running_var.copy(), self.epsilon, self.momentum)


def _check_input(x: np.ndarray, params: ConvParams) -> None:
    if x.ndim != 4:
        raise ShapeError(f"conv input must be 4-d (N,C,H,W), got shape {x.shape}")
    cin = x.shape[1]
    if cin != params.in_channels:
        raise ShapeError(f"conv input has {cin} channels but weights expect {params.in_channels}")


def pad_same(x: np.ndarray, k: int) -> np.ndarray:
    """Replicate-pad the two trailing spatial axes by (k - 1) / 2 on each side."""
    p = (k - 1) // 2
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="edge")


def _row_bands(depth: int, h: int, w: int) -> list:
    """Split ``h`` output rows into ``(r0, r1)`` bands whose unfolded columns fit ``BAND_BYTES``."""
    rows = max(1, BAND_BYTES // (8 * depth * w))
    return [(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)]


def _unfold(xp: np.ndarray, k: int, r0: int, r1: int) -> np.ndarray:
    """im2col of output rows ``r0:r1`` of one padded (C, H + k - 1, W + k - 1) image.

    Returns the ``(C * k * k, (r1 - r0) * W)`` columns in ``(c, ky, kx)``
    order, to match ``weights.reshape(Cout, -1)``.
    """
    c, _, w = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp[:, r0:r1 + k - 1], (k, k), axis=(1, 2))
    return windows.transpose(0, 3, 4, 1, 2).reshape(c * k * k, (r1 - r0) * (w - k + 1))


def _correlate(weights: np.ndarray, rows: np.ndarray, c0: int, w: int, store,
               run=map) -> None:
    """Raw correlation sums of one padded image, block by block.

    Output pixel (y, x) reads ``rows[:, y:y + k, c0 + x:c0 + x + k]``.  Each
    (Cout, r1 - r0, W) block of sums over output rows ``r0:r1`` goes to
    ``store(acc, r0, r1)``, which may reuse ``acc``.  ``run`` maps the band
    function over the row bands (``map`` or a pool's).
    """
    cout, cin, k, _ = weights.shape
    h = rows.shape[1] - k + 1
    if k * k * cout <= cin:
        # taps[ky, kx] is tap (ky, kx) of every output channel at every position of rows
        taps = (weights.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
                @ rows.reshape(cin, -1)).reshape(k, k, cout, rows.shape[1], -1)
        store(sum(taps[ky, kx, :, ky:ky + h, c0 + kx:c0 + kx + w]
                  for ky in range(k) for kx in range(k)), 0, h)
        return
    xp = rows[:, :, c0:c0 + w + k - 1]
    wmat = weights.reshape(cout, -1)

    def band(r: tuple) -> None:
        r0, r1 = r
        store((wmat @ _unfold(xp, k, r0, r1)).reshape(cout, r1 - r0, w), r0, r1)

    list(run(band, _row_bands(cin * k * k, h, w)))  # map is lazy; a pool re-raises here


def conv2d(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Same-size cross-correlation plus per-channel bias.

    Input (N, Cin, H, W) -> output (N, Cout, H, W).
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(x, params)
    n, _, h, w = x.shape
    cout, _, k, _ = params.weights.shape
    out = np.empty((n, cout, h, w))
    bias = params.bias[:, None, None]
    for o, xp in zip(out, pad_same(x, k)):
        _correlate(params.weights, xp, 0, w,
                   lambda acc, r0, r1, o=o: np.add(acc, bias, out=o[:, r0:r1]))
    return out


def _fold_pad_grad(dxp: np.ndarray, h: int, w: int, p: int) -> np.ndarray:
    """Collapse gradients in the replicate-padded ring onto their source edge pixels.

    Replication clips each axis independently, so folding columns first and
    rows second is exact.  Works in place on ``dxp``.
    """
    if p == 0:
        return dxp
    dxp[:, :, :, p] += dxp[:, :, :, :p].sum(axis=3)
    dxp[:, :, :, w + p - 1] += dxp[:, :, :, w + p:].sum(axis=3)
    d = dxp[:, :, :, p:p + w]
    d[:, :, p] += d[:, :, :p].sum(axis=2)
    d[:, :, h + p - 1] += d[:, :, h + p:].sum(axis=2)
    return d[:, :, p:p + h, :]


def conv2d_grad(x: np.ndarray, params: ConvParams, upstream: np.ndarray,
                input_grad: bool = True):
    """Exact gradients ``(d_x, d_w, d_bias)`` of :func:`conv2d`.

    Each image's upstream is copied into one reused zero-ringed
    (Cout, H + 2(k - 1), W + 2(k - 1)) buffer and unfolded once per band of
    padded rows into ``U``.  ``W_flip^T @ U`` is the padded input's
    gradient, written in place and then folded onto the edge pixels the
    replicate padding read.  ``U @ xp^T``, with ``xp`` the padded input,
    holds the weight gradient with flipped taps:
    ``d_w[o, c, ky, kx] = sum_q U[(o, k-1-ky, k-1-kx), q] * xp[c, q]``.

    With ``input_grad=False`` ``d_x`` is None and the weight gradient
    comes from the unfold of ``x`` instead, which is smaller for a layer
    with few input channels (the first layer of the network).
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_input(x, params)
    n, cin, h, w = x.shape
    cout, _, k, _ = params.weights.shape
    expected = (n, cout, h, w)
    if upstream.shape != expected:
        raise ShapeError(f"upstream shape {upstream.shape} does not match conv output {expected}")
    xp = pad_same(x, k)
    d_bias = upstream.sum(axis=(0, 2, 3))
    if not input_grad:
        d_w = np.zeros((cout, cin * k * k))
        for i in range(n):
            for r0, r1 in _row_bands(d_w.shape[1], h, w):
                d_w += upstream[i, :, r0:r1].reshape(cout, -1) @ _unfold(xp[i], k, r0, r1).T
        return None, d_w.reshape(params.weights.shape), d_bias
    hp, wp = h + k - 1, w + k - 1
    ring = np.zeros((cout, hp + k - 1, wp + k - 1))
    w_flip = params.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
    d_xp = np.empty((n, cin, hp, wp))
    d_wt = np.zeros((cout * k * k, cin))
    for i in range(n):
        ring[:, k - 1:k - 1 + h, k - 1:k - 1 + w] = upstream[i]
        for r0, r1 in _row_bands(cout * k * k, hp, wp):
            u = _unfold(ring, k, r0, r1)
            np.matmul(w_flip, u, out=d_xp[i, :, r0:r1].reshape(cin, -1))
            d_wt += u @ xp[i, :, r0:r1].reshape(cin, -1).T
    # row (o, a, b) of d_wt holds tap (k-1-a, k-1-b)
    d_w = d_wt.reshape(cout, k, k, cin)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return _fold_pad_grad(d_xp, h, w, (k - 1) // 2), np.ascontiguousarray(d_w), d_bias


def batchnorm(x: np.ndarray, params: BNParams, mode: str = "infer"):
    """Batch normalization.  Returns (output, batch_stats).

    ``mode='train'`` normalizes by batch statistics over (N, H, W), applies
    scale/shift, and updates the running statistics in place; it requires a
    batch of at least 2.  ``mode='infer'`` uses the stored running
    statistics only.  Zero variance is harmless: epsilon keeps the
    denominator positive.
    """
    out, stats, _ = batchnorm_forward(x, params, mode)
    return out, stats


def batchnorm_forward(x: np.ndarray, params: BNParams, mode: str = "infer"):
    """Like :func:`batchnorm` but also returns the cache used by the backward pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"batchnorm input must be 4-d (N,C,H,W), got shape {x.shape}")
    if x.shape[1] != params.channels:
        raise ShapeError(f"batchnorm input has {x.shape[1]} channels, params expect {params.channels}")
    if mode == "train":
        if x.shape[0] < 2:
            raise ShapeError(f"train-mode batchnorm needs batch size >= 2, got {x.shape[0]}")
        mean = x.mean(axis=(0, 2, 3))
    elif mode == "infer":
        mean = params.running_mean
    else:
        raise ValueError(f"unknown batchnorm mode {mode!r}")
    # The input is centered once and the centered tensor becomes xhat in
    # place; the variance sums its squares in the buffer the output reuses.
    xhat = x - mean[None, :, None, None]
    out = np.empty_like(xhat)
    if mode == "train":
        var = np.multiply(xhat, xhat, out=out).sum(axis=(0, 2, 3)) / (x.size // x.shape[1])
        m = params.momentum
        params.running_mean[:] = m * params.running_mean + (1.0 - m) * mean
        params.running_var[:] = m * params.running_var + (1.0 - m) * var
    else:
        var = params.running_var
    invstd = 1.0 / np.sqrt(var + params.epsilon)
    xhat *= invstd[None, :, None, None]
    np.multiply(params.scale[None, :, None, None], xhat, out=out)
    out += params.shift[None, :, None, None]
    stats = {"mean": mean.copy(), "var": var.copy()}
    cache = (xhat, invstd, params.scale.copy(), mode)
    return out, stats, cache


def batchnorm_backward(upstream: np.ndarray, cache):
    """Gradients of batchnorm w.r.t. input, scale and shift.

    In infer mode the map is affine: ``d_x = upstream * scale * invstd``.
    In train mode the batch statistics depend on the input as well.  The
    usual three-term expression sums ``d_xhat = upstream * scale`` and
    ``d_xhat * xhat`` over (N, H, W); those sums are ``scale * d_shift`` and
    ``scale * d_scale``, so it reduces to
    ``d_x = scale * invstd * (upstream - d_shift / m - xhat * d_scale / m)``
    with m = N*H*W, which is computed in place without a ``d_xhat`` tensor.
    """
    xhat, invstd, scale, mode = cache
    d_shift = upstream.sum(axis=(0, 2, 3))
    d_scale = np.einsum("nchw,nchw->c", upstream, xhat)
    if mode == "infer":
        d_x = upstream * scale[None, :, None, None]
        d_x *= invstd[None, :, None, None]
        return d_x, d_scale, d_shift
    n, _, h, w = upstream.shape
    m = float(n * h * w)
    d_x = xhat * (-d_scale / m)[None, :, None, None]
    d_x += upstream
    d_x -= (d_shift / m)[None, :, None, None]
    d_x *= (scale * invstd)[None, :, None, None]
    return d_x, d_scale, d_shift


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_grad(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of relu; the subgradient at exactly zero is taken as zero."""
    return upstream * (np.asarray(x) > 0.0)


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two activation tensors along the channel axis, ``a`` first."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 4 or b.ndim != 4:
        raise ShapeError(f"concat expects 4-d tensors, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat needs matching N,H,W: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def add_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"elementwise add needs identical shapes: {a.shape} vs {b.shape}")
    return a + b
