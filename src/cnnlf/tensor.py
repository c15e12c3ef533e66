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

A DFP forward and a training step spend the process's BLAS thread count
``T`` on workers (:func:`_spend_blas_threads`): BLAS runs at one thread
and the blocks of each convolution, the row bands of one image or the
images of a batch, run on ``min(T, blocks)`` threads.  The calling thread
allocates every worker's buffers.  Elsewhere, and when no OpenBLAS thread
control is found, everything runs on the calling thread and BLAS threads
each GEMM.

The GEMM's summation order belongs to the BLAS build and its thread
count, so float results can differ in the last bits between BLAS builds
or thread settings.  The weight gradient also sums one partial per
worker, so its bits may depend on the worker count.  Bit-exactness
across platforms, thread and worker counts is the contract of the
integer path in :mod:`cnnlf.dfp`, not of this one.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9
# Size of the unfolded row bands in flight, one per worker, each the right
# operand of one GEMM: large enough to keep BLAS efficient, small enough to
# stay in cache.  With 64 3x3 input channels and one worker it holds 8 rows
# of a 208-pixel plane.
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


@functools.cache
def _openblas_controls():
    """``(get, set)`` of the thread count of the OpenBLAS numpy links, or None.

    numpy's wheels bundle scipy-openblas, whose 64-bit interface exports
    both functions.  With any other BLAS nothing is found and its thread
    count is left alone.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _WorkerBudget:
    """The process's BLAS thread count ``T``, spent on conv workers by the threads inside it.

    The outermost :meth:`spend` reads ``T``, sets BLAS to one thread and
    starts a pool of ``T`` workers; the last exit stops the pool and
    restores ``T``, also when the body raises.  The lock and the depth
    count make nested and concurrent entries save and restore ``T`` once.
    A thread outside :meth:`spend` runs its blocks itself.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._threads = 1
        self._pool = None
        self._local = threading.local()

    @contextmanager
    def spend(self):
        controls = _openblas_controls()
        with self._lock:
            if self._depth == 0 and controls is not None:
                self._threads = max(1, controls[0]())
                if self._threads > 1:
                    controls[1](1)
                    self._pool = ThreadPoolExecutor(self._threads, thread_name_prefix="cnnlf")
            self._depth += 1
        nested = getattr(self._local, "depth", 0)
        self._local.depth = nested + 1
        try:
            yield
        finally:
            self._local.depth = nested
            with self._lock:
                self._depth -= 1
                if self._depth == 0 and self._threads > 1:
                    self._pool.shutdown()
                    self._pool = None
                    controls[1](self._threads)
                    self._threads = 1

    def threads(self) -> int:
        """``T`` as the next outermost :meth:`spend` would read it; 1 without thread control."""
        controls = _openblas_controls()
        with self._lock:
            if self._depth:
                return self._threads
            return max(1, controls[0]()) if controls else 1

    def workers(self) -> int:
        """How many workers the calling thread may split its blocks over."""
        return self._threads if getattr(self._local, "depth", 0) else 1

    def run(self, work, n: int) -> None:
        """``work(j)`` for every ``j < n``; on the pool when ``n > 1``, in a copy of the
        caller's context, so ``np.errstate`` holds there too."""
        if n == 1:
            work(0)
            return
        futures = [self._pool.submit(contextvars.copy_context().run, work, j) for j in range(n)]
        wait(futures)
        for future in futures:
            future.result()


_BUDGET = _WorkerBudget()
_spend_blas_threads = _BUDGET.spend


def worker_threads() -> int:
    """The worker count ``T`` a DFP forward or a training step started now would run on."""
    return _BUDGET.threads()


def _on_workers(blocks: int, scratch, work) -> list:
    """Run ``work(i, buffers)`` for every block ``i < blocks`` on ``n = min(T, blocks)`` workers.

    Worker ``j`` takes blocks ``j, j + n, ...`` with the ``buffers`` that
    ``scratch()`` made for it on the calling thread, so no worker allocates
    its buffers.  Returns every worker's buffers, in worker order.
    """
    buffers = [scratch() for _ in range(max(1, min(_BUDGET.workers(), blocks)))]
    n = len(buffers)

    def run(j: int) -> None:
        for i in range(j, blocks, n):
            work(i, buffers[j])

    _BUDGET.run(run, n)
    return buffers


def _sum_partials(partials) -> np.ndarray:
    """The workers' partial sums added in worker order, so one worker count gives one result."""
    return functools.reduce(np.add, partials)


def _row_bands(depth: int, h: int, w: int) -> tuple:
    """``(rows, bands)``: ``h`` output rows split into ``(r0, r1)`` bands of at most ``rows``
    rows, whose unfolded columns fit one worker's share of ``BAND_BYTES``; at least one
    band per worker where there are enough rows."""
    workers = _BUDGET.workers()
    rows = min(-(-h // workers), max(1, BAND_BYTES // workers // (8 * depth * w)))
    return rows, [(r0, min(r0 + rows, h)) for r0 in range(0, h, max(1, rows))]


def _unfold(xp: np.ndarray, k: int, r0: int, r1: int, buf: np.ndarray) -> np.ndarray:
    """im2col of output rows ``r0:r1`` of one padded (C, H + k - 1, W + k - 1) image.

    Writes the ``(C * k * k, (r1 - r0) * W)`` columns, in ``(c, ky, kx)``
    order to match ``weights.reshape(Cout, -1)``, to the front of the flat
    buffer ``buf`` and returns them.
    """
    c, _, wp = xp.shape
    w = wp - k + 1
    cols = buf[:c * k * k * (r1 - r0) * w].reshape(c, k, k, r1 - r0, w)
    windows = np.lib.stride_tricks.sliding_window_view(xp[:, r0:r1 + k - 1], (k, k), axis=(1, 2))
    np.copyto(cols, windows.transpose(0, 3, 4, 1, 2))
    return cols.reshape(c * k * k, -1)


def _correlate(weights: np.ndarray, images: np.ndarray, c0: int, w: int, store) -> None:
    """Raw correlation sums of a batch of padded images, block by block.

    Output pixel (y, x) of image ``i`` reads
    ``images[i, :, y:y + k, c0 + x:c0 + x + k]``.  Each (Cout, r1 - r0, W)
    block of sums over output rows ``r0:r1`` goes to ``store(i, acc, r0, r1)``,
    which may reuse ``acc``.  The blocks are the row bands of a single image
    or the images of a batch; they run, ``store`` included, on the workers
    of :func:`_on_workers`.
    """
    cout, cin, k, _ = weights.shape
    n = len(images)
    h = images.shape[2] - k + 1
    if k * k * cout <= cin:
        wt = weights.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)

        def head(i: int, _) -> None:
            # taps[ky, kx] is tap (ky, kx) of every output channel at every position of image i
            taps = (wt @ images[i].reshape(cin, -1)).reshape(k, k, cout, images.shape[2], -1)
            store(i, sum(taps[ky, kx, :, ky:ky + h, c0 + kx:c0 + kx + w]
                         for ky in range(k) for kx in range(k)), 0, h)

        _on_workers(n, lambda: None, head)
        return
    xs = images[:, :, :, c0:c0 + w + k - 1]
    wmat = weights.reshape(cout, -1)
    depth = cin * k * k
    rows, bands = _row_bands(depth, h, w)
    blocks = [(0, [band]) for band in bands] if n == 1 else [(i, bands) for i in range(n)]

    def block(b: int, buffers) -> None:
        cols, sums = buffers
        i, image_bands = blocks[b]
        for r0, r1 in image_bands:
            acc = sums[:cout * (r1 - r0) * w].reshape(cout, r1 - r0, w)
            np.matmul(wmat, _unfold(xs[i], k, r0, r1, cols), out=acc.reshape(cout, -1))
            store(i, acc, r0, r1)

    _on_workers(len(blocks), lambda: (np.empty(depth * rows * w), np.empty(cout * rows * w)),
                block)


def _padded(x: np.ndarray, k: int, xp) -> np.ndarray:
    """``xp``, the caller's replicate pad of ``x``, or that pad made here."""
    if xp is None:
        return pad_same(x, k)
    n, c, h, w = x.shape
    xp = np.asarray(xp, dtype=np.float64)
    if xp.shape != (n, c, h + k - 1, w + k - 1):
        raise ShapeError(f"padded input shape {xp.shape} does not match input {x.shape} "
                         f"padded for a {k}x{k} kernel")
    return xp


def conv2d(x: np.ndarray, params: ConvParams, xp: np.ndarray | None = None) -> np.ndarray:
    """Same-size cross-correlation plus per-channel bias.

    Input (N, Cin, H, W) -> output (N, Cout, H, W).  A caller that already
    holds ``x`` replicate-padded by ``(k - 1) / 2`` passes it as ``xp``.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(x, params)
    n, _, h, w = x.shape
    cout, _, k, _ = params.weights.shape
    out = np.empty((n, cout, h, w))
    bias = params.bias[:, None, None]
    _correlate(params.weights, _padded(x, k, xp), 0, w,
               lambda i, acc, r0, r1: np.add(acc, bias, out=out[i, :, r0:r1]))
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
                input_grad: bool = True, xp: np.ndarray | None = None):
    """Exact gradients ``(d_x, d_w, d_bias)`` of :func:`conv2d`.

    Each image's upstream is copied into a reused zero-ringed
    (Cout, H + 2(k - 1), W + 2(k - 1)) buffer and unfolded once per band of
    padded rows into ``U``.  ``W_flip^T @ U`` is the padded input's
    gradient, written in place and then folded onto the edge pixels the
    replicate padding read.  ``U @ xp^T``, with ``xp`` the padded input,
    holds the weight gradient with flipped taps:
    ``d_w[o, c, ky, kx] = sum_q U[(o, k-1-ky, k-1-kx), q] * xp[c, q]``.
    The images are the blocks of :func:`_on_workers`; each worker sums its
    own weight gradient, and the partials are added in worker order.

    With ``input_grad=False`` ``d_x`` is None and the weight gradient
    comes from the unfold of ``x`` instead, which is smaller for a layer
    with few input channels (the first layer of the network).  ``xp`` is
    as for :func:`conv2d`; the forward pass's pad serves here too.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_input(x, params)
    n, cin, h, w = x.shape
    cout, _, k, _ = params.weights.shape
    expected = (n, cout, h, w)
    if upstream.shape != expected:
        raise ShapeError(f"upstream shape {upstream.shape} does not match conv output {expected}")
    xp = _padded(x, k, xp)
    d_bias = upstream.sum(axis=(0, 2, 3))
    if not input_grad:
        depth = cin * k * k
        rows, bands = _row_bands(depth, h, w)

        def weight_grad(i: int, buffers) -> None:
            cols, d_w = buffers
            for r0, r1 in bands:
                d_w += upstream[i, :, r0:r1].reshape(cout, -1) @ _unfold(xp[i], k, r0, r1, cols).T

        parts = _on_workers(n, lambda: (np.empty(depth * rows * w), np.zeros((cout, depth))),
                            weight_grad)
        return None, _sum_partials(d_w for _, d_w in parts).reshape(params.weights.shape), d_bias
    hp, wp = h + k - 1, w + k - 1
    depth = cout * k * k
    rows, bands = _row_bands(depth, hp, wp)
    w_flip = params.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
    d_xp = np.empty((n, cin, hp, wp))

    def grads(i: int, buffers) -> None:
        ring, cols, d_wt = buffers
        ring[:, k - 1:k - 1 + h, k - 1:k - 1 + w] = upstream[i]
        for r0, r1 in bands:
            u = _unfold(ring, k, r0, r1, cols)
            np.matmul(w_flip, u, out=d_xp[i, :, r0:r1].reshape(cin, -1))
            d_wt += u @ xp[i, :, r0:r1].reshape(cin, -1).T

    parts = _on_workers(n, lambda: (np.zeros((cout, hp + k - 1, wp + k - 1)),
                                    np.empty(depth * rows * wp), np.zeros((depth, cin))),
                        grads)
    # row (o, a, b) of d_wt holds tap (k-1-a, k-1-b)
    d_wt = _sum_partials(d_wt for _, _, d_wt in parts)
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
