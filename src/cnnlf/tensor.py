"""Dense tensor math for the loop-filter network.

Activations are float64 arrays in (N, C, H, W) order, kernels in
(Cout, Cin, Kh, Kw).  Only the layer kinds the filter network needs are
provided, each with an exact analytic backward pass: same-size convolution,
and the activation epilogue that follows it (:func:`bn_relu`), train-mode
batch normalization and then ReLU, each optional.  The epilogue makes no
array: it reduces to per-channel ``(a, b)`` and the ReLU flag, the prologue
``act`` of the next :func:`conv2d`, which writes ``max(a * x + b, 0)`` of
the previous conv output ``x`` into its own padded input buffers
(activation recomputation in the cheap form of In-Place ABN, Rota Bulò et
al., arXiv:1712.02616).  So between layers only conv outputs exist.
Inference folds BN into the convolutions
(:func:`cnnlf.compress.fold_batchnorm`), so there only the ReLU remains.

Convolutions are stride-1 and same-size.  Borders are handled with
replicate (edge) padding: an out-of-bounds tap reads the nearest edge
pixel, so a plane smaller than the kernel is filtered like any other.
Replicate padding keeps a constant input channel exactly constant
under convolution, which the channel-pruning bias fold in
:mod:`cnnlf.compress` relies on for bit-exact output preservation.

The forward convolution of one padded image, float or DFP, runs one band
body, :meth:`_Conv.band`, which lowers nothing (kn2row-aa, Anderson et al.,
arXiv:1709.03395; MEC, Cho & Brand, arXiv:1706.06873).  A row band of
outputs is a (Cout, N) accumulator at the padded row stride ``rs``, started
at the bias, into which BLAS adds one GEMM per tap (:func:`_tap_gemms`,
beta = 1): ``acc += W[:, :, ky, kx] @ B``, with ``B`` a zero-copy (Cin, N)
view of the image's padded channels at the channel stride, starting ``ky``
rows and ``kx`` columns into the band.  Accumulator column ``y * rs + x`` is
output (y, x), so ``N = (rows - 1) * rs + W``; the columns ``x >= W`` are
junk sums that wrap into the next row, which no output takes, and no view
reaches past its image.  Float :func:`conv2d` keeps the accumulator in
scratch and copies it out; the plane runner places it on the next layer's
padded buffer.  Thin layers, where the k * k tap GEMMs would be degenerate,
unfold their thin operand instead (kn2row's rule for thin channel counts):
if ``k * k * Cout <= Cin`` (an output head) one GEMM contracts the channels
of a band and its ``k - 1`` halo rows for all taps at once, and the k * k
shifted tap planes are added; if ``k * k * Cin <= Cout`` (a first layer)
the input is unfolded to ``k * k * Cin`` rows for one GEMM.

The plane runner, :func:`_run_planes`, filters one plane through a chain of
convolutions: the DFP forward of :mod:`cnnlf.dfp` on integer mantissas, and
its float calibration.  Over two padded ping-pong buffers, its (layer, band)
blocks (:func:`_layer_band`) each sum a band of output rows into the other
buffer, the junk into the band's own ring cells, run the caller's epilogue on
the sums in place and fill the ring of their rows.  A block is ready once the
blocks of the layer before that write the rows it reads, or read the rows it
overwrites, are done (:func:`_wavefront`), so a layer's first bands run while
the layer before finishes its last ones and no worker waits at a layer
boundary: the layer-fusion schedule of fused-layer CNN accelerators (Alwani
et al., MICRO 2016).

The backward pass rebuilds each image's padded input from the conv output
and the prologue, as the forward built it, and puts the image's upstream
gradient in a zero-ringed buffer at the padded row stride, so its junk
columns are zero.  The input gradient is the forward band body of the
flipped, transposed kernel over that ring (the transposed-convolution
identity), so one rule picks its form; the prologue's ReLU masks it with
the rebuilt input, and :func:`bn_relu_grad` takes it through BN.  The weight
gradient of tap (ky, kx) is one GEMM of the upstream against the tap view
of the padded input, ``d_w[:, :, ky, kx] = U @ B_tap^T`` with ``U`` the
(Cout, N) upstream, for thin layers too.

The plane runner and a training step spend the process's BLAS thread count
``T`` on workers (:func:`_spend_blas_threads`): BLAS runs at one thread and
blocks run on ``min(T, blocks)`` threads of the process's one pool, each
claiming the lowest-numbered ready block (:func:`_on_workers`).  The blocks
of a training step's forward convolutions are (image, row band) pairs, those
of its backward convolutions and BN passes its images.  The calling thread
allocates the workers' buffers.  Elsewhere, and when no OpenBLAS thread
control is found, everything runs on the calling thread and BLAS threads
each GEMM.

The GEMM's summation order belongs to the BLAS build and its thread
count, and without BLAS's ``dgemm`` each tap's products are formed by
``np.matmul`` and then added, so float results can differ in the last bits
between BLAS builds or thread settings.  Every sum over the images of a
batch (the weight and bias gradients, BN's batch statistics and its scale
and shift gradients) takes one partial per image, formed alike by any
worker and added in image order, so a training step gives the same bits
at any worker count and in any schedule.  Bit-exactness across platforms
and BLAS builds is the contract of the integer path in :mod:`cnnlf.dfp`,
not of this one.
"""

from __future__ import annotations

import bisect
import contextvars
import ctypes
import functools
import heapq
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ShapeError

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9
# One worker's band buffer: the (Cout, rows, row stride) accumulator of a
# convolution's row band, into which its tap GEMMs add.  Sized to a 2 MiB L2:
# 19 rows of a 64-channel 208-pixel plane, so the plane runner splits a
# 120-row luma plane into 7 bands.  Fewer, longer GEMMs pay less call
# overhead, which rules out smaller bands.
BAND_BYTES = 2 << 20


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest integer, ties away from zero (numpy rounds ties to even)."""
    x = np.asarray(x, dtype=np.float64)
    return np.trunc(x + np.copysign(0.5, x))


def _check_conv(weights: np.ndarray, bias: np.ndarray) -> None:
    """The shape rule of one convolution, float or fixed-point: (Cout, Cin, k, k)
    weights with a square odd kernel, and a bias of length Cout."""
    if weights.ndim != 4:
        raise ShapeError(f"conv weights must be 4-d (Cout,Cin,Kh,Kw), got shape {weights.shape}")
    cout, _, kh, kw = weights.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"kernel must be square with odd side, got {kh}x{kw}")
    if bias.shape != (cout,):
        raise ShapeError(f"bias length {bias.shape} does not match Cout={cout}")


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
        _check_conv(self.weights, self.bias)

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


def _check_input(x: np.ndarray, params: ConvParams, act) -> None:
    if x.ndim != 4:
        raise ShapeError(f"conv input must be 4-d (N,C,H,W), got shape {x.shape}")
    cin = x.shape[1]
    if cin != params.in_channels:
        raise ShapeError(f"conv input has {cin} channels but weights expect {params.in_channels}")
    for v in act[:2] if act is not None else ():
        if v is not None and np.shape(v) != (cin, 1, 1):
            raise ShapeError(f"prologue vector of shape {np.shape(v)} does not match the "
                             f"{cin} input channels")


def _replicate_border(buf: np.ndarray, pad: int, r0: int = 0, r1: int | None = None) -> None:
    """In place: fill the ``pad``-wide ring of the two trailing axes of ``buf`` from the
    edge of its interior rows ``r0:r1`` (all of them by default).

    That is the left and right ring of those rows, and the ring rows above or
    below them where they include the first or the last interior row.
    """
    if pad:
        h, w = buf.shape[-2] - 2 * pad, buf.shape[-1] - 2 * pad
        r1 = h if r1 is None else r1
        rows = slice(pad + r0, pad + r1)
        buf[..., rows, :pad] = buf[..., rows, pad:pad + 1]
        buf[..., rows, pad + w:] = buf[..., rows, pad + w - 1:pad + w]
        if r0 == 0:
            buf[..., :pad, :] = buf[..., pad:pad + 1, :]
        if r1 == h:
            buf[..., pad + h:, :] = buf[..., pad + h - 1:pad + h, :]


def _activate(x: np.ndarray, act, out: np.ndarray, temp: np.ndarray) -> None:
    """``out[...] = max(a * x + b, 0)`` for the epilogue ``act = (a, b, relu)`` of :func:`bn_relu`.

    Without BN (``a`` and ``b`` None) the affine step goes, without ``relu``
    the ``max``; ``act`` None copies ``x``.  The affine steps run in the
    contiguous head of the flat ``temp`` (:func:`_prologue_size` floats), and
    only the last step writes ``out``, which may be strided.
    """
    if act is None:
        np.copyto(out, x)
        return
    a, b, relu = act
    if a is not None:
        x = np.multiply(x, a, out=temp[:x.size].reshape(x.shape))
        np.add(x, b, out=x if relu else out)
    if relu:
        np.maximum(x, 0.0, out=out)


def _prologue_size(act, floats: int) -> int:
    """Floats of ``temp`` that :func:`_activate` takes for ``floats`` inputs under ``act``."""
    return floats if act is not None and act[0] is not None else 0


def _padded_input(x: np.ndarray, act, lo: int, hi: int, pad: int, buf: np.ndarray,
                  temp: np.ndarray) -> np.ndarray:
    """Rows ``lo:hi`` of the (C, H, W) image ``x`` through ``act`` (:func:`_activate`),
    replicate-padded by ``pad``, as a (C, hi - lo + 2 pad, W + 2 pad) view of ``buf``.

    View row ``pad + y - lo`` holds image row ``y``, and the ring replicates the
    edge of the rows held.  So a band whose taps read the rows ``r0:r1 + 2 pad``
    of the whole image's replicate pad finds them from view row ``r0 - lo`` on
    if ``lo = max(r0 - pad, 0)`` and ``hi = min(r1 + pad, H)``.  ``buf`` holds the
    view, and ``temp`` is :func:`_activate`'s.
    """
    c, _, w = x.shape
    rows = hi - lo
    xp = buf[:c * (rows + 2 * pad) * (w + 2 * pad)].reshape(c, rows + 2 * pad, w + 2 * pad)
    _activate(x[:, lo:hi], act, xp[:, pad:pad + rows, pad:pad + w], temp)
    _replicate_border(xp, pad)
    return xp


class _OpenBLAS(NamedTuple):
    """Handles into the OpenBLAS that numpy links: its thread count and, if exported, dgemm."""

    get: object
    set: object
    dgemm: object


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """The thread-count handles and ``dgemm`` of the OpenBLAS numpy links, or None.

    numpy's wheels bundle scipy-openblas, whose 64-bit interface exports all
    three; ``dgemm`` is None where this build lacks its CBLAS symbol.  With
    any other BLAS nothing is found, its thread count is left alone and
    :func:`_gemm` runs on ``np.matmul``.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        dgemm = getattr(lib, "scipy_cblas_dgemm64_", None)
        if dgemm is not None:
            i64, ptr, real = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
            dgemm.argtypes = [ctypes.c_int] * 3 + [i64] * 3 + [real, ptr, i64, ptr, i64,
                                                               real, ptr, i64]
            dgemm.restype = None
        return _OpenBLAS(get, put, dgemm)
    return None


_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112


def _blas_layout(v: np.ndarray) -> tuple:
    """``(trans, ld)``: how row-major CBLAS reads the 2-d float64 view ``v``.

    A view with a unit column stride is read as stored, one with a unit row
    stride as the transpose of what is stored; ``ld`` is the distance in
    elements between stored rows.  Raises :class:`ShapeError` on any other
    view and on a leading dimension shorter than the stored rows.
    """
    if v.dtype != np.float64 or v.ndim != 2:
        raise ShapeError(f"GEMM operand must be a 2-d float64 view, got {v.dtype} {v.shape}")
    (rows, cols), (s0, s1) = v.shape, v.strides
    if cols == 1 or s1 == 8:
        trans, stride, length, width = _NO_TRANS, s0, rows, cols
    elif rows == 1 or s0 == 8:
        trans, stride, length, width = _TRANS, s1, cols, rows
    else:
        raise ShapeError(f"GEMM operand strides {v.strides} have no unit-element stride")
    if length == 1:
        stride = 8 * width  # never stepped
    ld = stride // 8
    if stride % 8 or ld < max(1, width):
        raise ShapeError(f"GEMM operand leading dimension {stride / 8:g} is shorter than "
                         f"its stored rows of {width}")
    return trans, ld


def _gemm_args(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """``(trans_a, trans_b, m, n, k, lda, ldb, ldc)``, the dgemm arguments of ``c = a @ b``
    other than pointers and scalars; raises :class:`ShapeError` on views BLAS cannot read."""
    (m, k), (k_b, n) = a.shape, b.shape
    if k_b != k or c.shape != (m, n):
        raise ShapeError(f"GEMM shapes {a.shape} @ {b.shape} -> {c.shape} do not chain")
    (trans_a, lda), (trans_b, ldb), (trans_c, ldc) = (_blas_layout(v) for v in (a, b, c))
    if trans_c != _NO_TRANS or not c.flags.writeable:
        raise ShapeError(f"GEMM output strides {c.strides} are not a writeable unit-column view")
    return trans_a, trans_b, m, n, k, lda, ldb, ldc


def _gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray, accumulate: bool) -> None:
    """``c = a @ b``, or ``c += a @ b`` with ``accumulate``, on 2-d float64 views in place.

    BLAS reads the views where they lie: the pointer is ``view.ctypes.data``,
    the leading dimension the row stride, and a view with a unit row stride
    is passed transposed.  ``accumulate`` is dgemm's beta = 1, so the sum
    forms inside BLAS and no product array exists.  ``c`` needs a unit column
    stride.  Without ``dgemm`` (see :func:`_openblas`) the same runs as
    ``np.matmul`` followed by ``+=``.  Views BLAS cannot read raise
    :class:`ShapeError` before anything runs.
    """
    trans_a, trans_b, m, n, k, lda, ldb, ldc = _gemm_args(a, b, c)
    blas = _openblas()
    if blas is None or blas.dgemm is None:
        if accumulate:
            c += np.matmul(a, b)
        else:
            np.matmul(a, b, out=c)
        return
    blas.dgemm(_ROW_MAJOR, trans_a, trans_b, m, n, k, 1.0, a.ctypes.data, lda,
               b.ctypes.data, ldb, 1.0 if accumulate else 0.0, c.ctypes.data, ldc)


def _check_tap_views(flat: np.ndarray, start: int, k: int, rs: int, n: int) -> None:
    """Raise :class:`ShapeError` unless every tap view ``flat[:, s:s + n]``,
    ``s = start + ky * rs + kx`` for ``ky, kx < k``, lies inside ``flat``."""
    if start < 0 or start + (k - 1) * (rs + 1) + n > flat.shape[1]:
        raise ShapeError(f"tap views from column {start} at row stride {rs} pass the end "
                         f"of a ({flat.shape[1]})-column input")


def _tap_gemms(a: np.ndarray, flat: np.ndarray, start: int, rs: int, c: np.ndarray) -> None:
    """The k * k GEMMs of a k x k kernel's taps, each reading ``flat`` at its tap view
    ``B = flat[:, s:s + n]``, ``s = start + ky * rs + kx``, in tap order.

    If ``a`` is a (k, k, M, K) stack of tap matrices, ``c += a[ky, kx] @ B`` adds
    every tap into the one (M, n) ``c``.  Else ``c`` is a (k, k, M, K) stack and
    ``c[ky, kx] = a @ B.T`` for the (M, n) ``a``.  :func:`_gemm` would run the
    same tap by tap: here each operand is checked once and the taps reach dgemm
    as offsets from one pointer per operand, with the arguments :func:`_gemm`
    would pass.  A tap view that would pass the end of ``flat`` raises
    :class:`ShapeError` before anything runs.
    """
    stacked_a = a.ndim == 4
    k = (a if stacked_a else c).shape[0]
    n = c.shape[1] if stacked_a else a.shape[1]
    _check_tap_views(flat, start, k, rs, n)

    def operands(ky: int, kx: int) -> tuple:
        b = flat[:, start + ky * rs + kx:start + ky * rs + kx + n]
        return (a[ky, kx], b, c) if stacked_a else (a, b.T, c[ky, kx])

    blas = _openblas()
    if blas is None or blas.dgemm is None:
        for t in range(k * k):
            _gemm(*operands(*divmod(t, k)), stacked_a)
        return
    first = operands(0, 0)
    trans_a, trans_b, m, n, kk, lda, ldb, ldc = _gemm_args(*first)
    pa, pb, pc = (v.ctypes.data for v in first)
    a0, a1 = a.strides[:2] if stacked_a else (0, 0)
    c0, c1 = (0, 0) if stacked_a else c.strides[:2]
    beta = float(stacked_a)
    for ky in range(k):
        for kx in range(k):
            blas.dgemm(_ROW_MAJOR, trans_a, trans_b, m, n, kk, 1.0, pa + ky * a0 + kx * a1,
                       lda, pb + 8 * (ky * rs + kx), ldb, beta, pc + ky * c0 + kx * c1, ldc)


_guard = threading.Lock()
_inside = 0  # threads inside _spend_blas_threads
_saved = 1  # T, as the first of them read it
# set inside _spend_blas_threads; the workers of _on_workers run in a copy of the caller's context
_spending = contextvars.ContextVar("cnnlf_spending", default=False)


@contextmanager
def _spend_blas_threads():
    """Hold BLAS at one thread while any thread is inside; inside, conv blocks run on ``T`` workers.

    The first thread in reads ``T`` and sets BLAS to one thread; the last one
    out restores ``T``, also when the body raises.  A nested entry, also from
    a block on a worker, does nothing.
    """
    global _inside, _saved
    blas = _openblas()
    if blas is None or _spending.get():
        yield
        return
    with _guard:
        if _inside == 0:
            _saved = max(1, blas.get())
            blas.set(1)
        _inside += 1
    token = _spending.set(True)
    try:
        yield
    finally:
        _spending.reset(token)
        with _guard:
            _inside -= 1
            if _inside == 0:
                blas.set(_saved)


def worker_threads() -> int:
    """The worker count ``T`` a DFP forward or a training step started now would run on."""
    with _spend_blas_threads():
        return _workers()


def _workers() -> int:
    """The worker count of the calling context: ``T`` inside :func:`_spend_blas_threads`, else 1."""
    return _saved if _spending.get() else 1


@functools.cache
def _pool(pid: int) -> ThreadPoolExecutor:
    """The process's conv workers, started on first use; a forked child starts its own."""
    return ThreadPoolExecutor(thread_name_prefix="cnnlf")


def _on_workers(blocks: int, scratch, work, after=None) -> None:
    """Run ``work(i, buffers)`` once per block ``i < blocks`` on ``n = min(T, blocks)`` workers.

    ``after[i]``, where given, names the blocks that must be done before block
    ``i`` starts; each has a lower index than ``i``, so index order is a valid
    order, and one worker, the calling thread, runs the blocks in it.  Several
    workers each claim the lowest-numbered ready block until none is left, so
    a worker the host slows down takes fewer blocks instead of holding the
    others at the end, and a block starts as soon as the blocks it waits for
    are done.  A worker runs its blocks with the ``buffers`` that ``scratch()``
    made for it on the calling thread, so no worker allocates them; which
    worker runs a block must not change its result.  Several workers run on
    the process's pool, each in a copy of the caller's context, so
    ``np.errstate`` holds there too.
    Once a block raises, no worker starts another or waits any longer; the
    caller waits for all of them and then raises a failed block's exception.
    """
    waiting, successors = [0] * blocks, [[] for _ in range(blocks)]
    for i, preds in enumerate(after or ()):
        for j in preds:
            if not 0 <= j < i:
                raise ValueError(f"block {i} waits for block {j}, which does not precede it")
            waiting[i] += 1
            successors[j].append(i)
    ready = [i for i in range(blocks) if not waiting[i]]  # ascending, so a heap
    unclaimed, failed = blocks, False
    changed = threading.Condition()

    def run(buffers) -> None:
        nonlocal unclaimed, failed
        while True:
            with changed:
                while not ready and unclaimed and not failed:
                    changed.wait()
                if failed or not ready:
                    return
                i = heapq.heappop(ready)
                unclaimed -= 1
            try:
                work(i, buffers)
            except BaseException:
                with changed:
                    failed = True
                    changed.notify_all()
                raise
            with changed:
                for s in successors[i]:
                    waiting[s] -= 1
                    if not waiting[s]:
                        heapq.heappush(ready, s)
                changed.notify_all()

    n = min(_workers(), blocks)
    if n <= 1:
        run(scratch())
        return
    pool = _pool(os.getpid())
    futures = [pool.submit(contextvars.copy_context().run, run, scratch()) for _ in range(n)]
    wait(futures)
    for future in futures:
        future.result()


def _unfold_taps(flat: np.ndarray, start: int, k: int, rs: int, cols: int,
                 buf: np.ndarray) -> np.ndarray:
    """The (k * k * C, cols) unfold of the (C, L) view ``flat``, written into ``buf``.

    Row ``(ky, kx, c)`` is ``flat[c, s:s + cols]`` with ``s = start + ky * rs + kx``,
    the tap view of a plane at row stride ``rs``.  ``flat`` needs a unit column
    stride, and no read may pass row ``c``'s end.
    """
    _check_tap_views(flat, start, k, rs, cols)
    c = flat.shape[0]
    taps = np.lib.stride_tricks.as_strided(flat[:, start:], (k, k, c, cols),
                                           (8 * rs, 8, flat.strides[0], 8), writeable=False)
    out = buf[:k * k * c * cols].reshape(k, k, c, cols)
    np.copyto(out, taps)
    return out.reshape(k * k * c, cols)


def _row_bands(h: int, row_bytes: int, least: int = 1) -> list:
    """Rows ``0:h`` split evenly into ``(r0, r1)`` bands of at most ``-(-h // count)`` rows.

    A band's buffers take ``row_bytes`` per row, and ``count`` is the fewest
    bands, but at least ``least``, that fit ``BAND_BYTES``, or ``h`` one-row
    bands.
    """
    count = min(h, max(least, -(-h // max(1, BAND_BYTES // row_bytes))))
    return [(j * h // count, (j + 1) * h // count) for j in range(count)]


class _Conv:
    """One convolution's weights laid out for its band form, and the band body.

    The float forward (:func:`conv2d`), the plane runner (:func:`_run_planes`)
    and the input gradient (:func:`conv2d_grad`) run :meth:`band`, one row band
    of one image at a time.  A band takes one of three forms.  With
    ``k * k * Cout <= Cin`` (an output head) one GEMM contracts the channels
    for every tap at once.  Else, with ``k * k * Cin <= Cout`` (a first
    layer), the few input channels are unfolded to ``k * k * Cin`` rows
    (:func:`_unfold_taps`) for one GEMM.  Else each tap is one GEMM
    (:func:`_tap_gemms`).
    """

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.cout, self.cin, self.k, _ = weights.shape
        k, cout, cin = self.k, self.cout, self.cin
        self.bias = bias
        self.head = k * k * cout <= cin
        self.first = not self.head and k * k * cin <= cout
        if self.head:  # row (ky, kx, o)
            self.mat = weights.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
        elif self.first:  # row o, column (ky, kx, c)
            self.mat = weights.transpose(0, 2, 3, 1).reshape(cout, -1)
        else:  # mat[ky, kx] is the (Cout, Cin) matrix of tap (ky, kx)
            self.mat = weights.transpose(2, 3, 0, 1).copy()

    def scratch(self, rows: int, rs: int) -> int:
        """Floats of scratch :meth:`band` takes for ``rows`` output rows at row stride ``rs``."""
        k = self.k
        if self.head:
            return k * k * self.cout * ((rows + k - 1) * rs + k - 1)
        return k * k * self.cin * rows * rs if self.first else 0

    def band(self, flat: np.ndarray, start: int, rs: int, out: np.ndarray, at: int,
             rows: int, w: int, buf: np.ndarray) -> np.ndarray:
        """The sums plus bias of ``rows`` output rows of width ``w`` of one image, into ``out``.

        ``flat`` is the image's padded input as a (Cin, L) view at row stride
        ``rs``, and output (y, x) reads ``flat[:, start + (y + ky) * rs + x + kx]``
        at tap (ky, kx).  Its sum goes to ``out[:, at + y * rs + x]`` of the
        (Cout, L') view ``out``, which shares the row stride and a unit column
        stride; the sums start from the bias.  ``w`` may reach ``rs``, where
        the reads of the last columns wrap into the next row.  ``buf`` holds
        :meth:`scratch` floats.  Returns the view of ``out`` written, the
        (Cout, (rows - 1) * rs + w) columns from ``at`` on, whose columns
        ``x >= w`` of each row are junk, finite for finite input, that wraps
        into the next row.
        """
        k = self.k
        if at + rows * rs > out.shape[1]:
            raise ShapeError(f"{rows} rows from column {at} at row stride {rs} pass the end "
                             f"of a ({out.shape[1]})-column output")
        cols = (rows - 1) * rs + w
        sums = out[:, at:at + cols]
        np.copyto(sums, self.bias[:, None])
        if self.head:
            # one GEMM contracts the channels of the band's rows and k - 1 halo rows for
            # every tap; the k * k shifted tap planes are then added
            span = cols + (k - 1) * (rs + 1)
            planes = buf[:k * k * self.cout * span].reshape(k, k, self.cout, span)
            _gemm(self.mat, flat[:, start:start + span], planes.reshape(-1, span), False)
            for ky, kx in np.ndindex(k, k):
                sums += planes[ky, kx, :, ky * rs + kx:ky * rs + kx + cols]
        elif self.first:
            _gemm(self.mat, _unfold_taps(flat, start, k, rs, cols, buf), sums, True)
        else:
            _tap_gemms(self.mat, flat, start, rs, sums)
        return sums


def _layer_band(conv: _Conv, src: np.ndarray, dst: np.ndarray, pad: int, r0: int, r1: int,
                buf: np.ndarray, epilogue) -> None:
    """One (layer, band) block: output rows ``r0:r1`` of one layer, from padded buffer ``src``
    into padded buffer ``dst``, then ``epilogue(sums, interior)`` on them in place.

    Both buffers are (C, H + 2 * pad, W + 2 * pad) with an edge-replicated
    ring of width ``pad``, at least the layer's ``(k - 1) / 2``.  The block
    reads rows ``r0 - p .. r1 + p`` of ``src``, and :meth:`_Conv.band` sums from
    the bias into ``dst``'s pixel (pad + r0 + y, pad + x) at accumulator column
    ``y * rs + x``, so the junk columns land in the ring cells of the band's
    rows, outside ``interior``.  The block then fills the ring of its rows, and
    the top or bottom ring rows if it holds the first or the last row.
    """
    depth, _, rs = src.shape
    p = (conv.k - 1) // 2
    sums = conv.band(src.reshape(depth, -1)[:conv.cin], (pad + r0 - p) * rs + pad - p, rs,
                     dst.reshape(depth, -1)[:conv.cout], (pad + r0) * rs + pad, r1 - r0,
                     rs - 2 * pad, buf)
    epilogue(sums, dst[:conv.cout, pad + r0:pad + r1, pad:rs - pad])
    _replicate_border(dst[:conv.cout], pad, r0, r1)


def _wavefront(bands: list, reaches: list) -> list:
    """The predecessors of each (layer, band) block, block ``l * len(bands) + j``.

    Layer ``l`` reads one buffer and writes the other, the next layer the
    reverse, and every layer uses the same bands.  So block (l, j) waits for
    the blocks of layer ``l - 1`` that write rows it reads, and for those that
    read rows it writes, before it overwrites them.  Both are the bands that
    hold a row within ``max(p, q)`` of band j, ``p`` and ``q`` the two
    layers' reaches ``(k - 1) / 2``; the ring rows belong to the first and
    the last band, which hold the rows they replicate.  A block waits for
    nothing earlier: whatever it overwrites was last written by block
    (l - 2, j), which block (l - 1, j) read first.
    """
    starts = [r0 for r0, _ in bands]
    h, count = bands[-1][1], len(bands)
    after = [()] * count
    for l in range(1, len(reaches)):
        reach = max(reaches[l - 1], reaches[l])
        for r0, r1 in bands:
            lo = bisect.bisect_right(starts, max(r0 - reach, 0)) - 1
            hi = bisect.bisect_right(starts, min(r1 + reach, h) - 1)
            after.append(range((l - 1) * count + lo, (l - 1) * count + hi))
    return after


def _run_planes(layers, planes, epilogue) -> np.ndarray:
    """The plane runner: the convolutions ``layers``, any iterable of :class:`ConvParams`, over
    one plane's input channels ``planes``, (H, W) arrays or scalars, as :func:`_layer_band`
    blocks with ``epilogue(l, j, sums, interior)``; returns the last layer's (H, W) output."""
    convs = [_Conv(layer.weights, layer.bias) for layer in layers]
    h, w = np.shape(planes[0])
    reaches = [(conv.k - 1) // 2 for conv in convs]
    pad = max(reaches)
    depth = max(max(conv.cout, conv.cin) for conv in convs)
    rs = w + 2 * pad
    buffers = [np.empty((depth, h + 2 * pad, rs)) for _ in range(2)]
    for c, plane in enumerate(planes):
        buffers[0][c, pad:pad + h, pad:pad + w] = plane
    _replicate_border(buffers[0][:len(planes)], pad)
    # at least 3 bands, so that even a small plane's layers overlap
    bands = _row_bands(h, 8 * depth * rs, least=3)
    scratch = max(conv.scratch(-(-h // len(bands)), rs) for conv in convs)

    def block(b: int, buf: np.ndarray) -> None:
        l, j = divmod(b, len(bands))
        _layer_band(convs[l], buffers[l % 2], buffers[1 - l % 2], pad, *bands[j], buf,
                    lambda sums, interior: epilogue(l, j, sums, interior))

    with _spend_blas_threads():
        _on_workers(len(convs) * len(bands), lambda: np.empty(scratch), block,
                    _wavefront(bands, reaches))
    return buffers[len(convs) % 2][0, pad:pad + h, pad:pad + w]


def conv2d(x: np.ndarray, params: ConvParams, act=None) -> np.ndarray:
    """Same-size cross-correlation plus per-channel bias of ``x`` through the prologue ``act``.

    Input (N, Cin, H, W) -> output (N, Cout, H, W).  ``act``, the epilogue
    ``(a, b, relu)`` that :func:`bn_relu` returned for the layer before, makes
    the input ``max(a * x + b, 0)``; None takes ``x`` as it is.  The blocks of
    :func:`_on_workers` are (image, row band) pairs, image-major, the same
    for a single image and for a batch, so an image's output does not depend
    on the batch it is in.  Each block writes its band's input rows and their
    ``k - 1`` halo rows replicate-padded into a buffer of its worker
    (:func:`_padded_input`), so no padded or activated copy of ``x`` is
    kept; its :meth:`_Conv.band` sums go to a scratch accumulator at the
    padded row stride and are copied out.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(x, params, act)
    n, cin, h, w = x.shape
    conv = _Conv(params.weights, params.bias)
    cout, p, rs = conv.cout, (conv.k - 1) // 2, w + conv.k - 1
    out = np.empty((n, cout, h, w))
    bands = _row_bands(h, 8 * (cout * rs + conv.scratch(1, rs)))
    rows = -(-h // len(bands))
    held = min(h, rows + 2 * p)  # input rows a block holds

    def sums(b: int, buffers) -> None:
        acc, buf, xp, temp = buffers
        i, j = divmod(b, len(bands))
        r0, r1 = bands[j]
        lo, hi = max(r0 - p, 0), min(r1 + p, h)
        flat = _padded_input(x[i], act, lo, hi, p, xp, temp).reshape(cin, -1)
        conv.band(flat, (r0 - lo) * rs, rs, acc, 0, r1 - r0, w, buf)
        out[i, :, r0:r1] = acc[:, :(r1 - r0) * rs].reshape(cout, r1 - r0, rs)[:, :, :w]

    _on_workers(n * len(bands),
                lambda: (np.empty((cout, rows * rs)), np.empty(conv.scratch(rows, rs)),
                         np.empty(cin * (held + 2 * p) * rs),
                         np.empty(_prologue_size(act, cin * held * w))), sums)
    return out


def _fold_pad_grad(dxp: np.ndarray, h: int, w: int, p: int) -> None:
    """In place: collapse the gradients in the replicate-padded ring of the (C, H + 2p, W + 2p)
    ``dxp`` onto the edge pixels they were read from.

    Replication clips each axis independently, so folding columns first and
    rows second is exact.
    """
    if p == 0:
        return
    dxp[:, :, p] += dxp[:, :, :p].sum(axis=2)
    dxp[:, :, w + p - 1] += dxp[:, :, w + p:].sum(axis=2)
    d = dxp[:, :, p:p + w]
    d[:, p] += d[:, :p].sum(axis=1)
    d[:, h + p - 1] += d[:, h + p:].sum(axis=1)


def conv2d_grad(x: np.ndarray, params: ConvParams, upstream: np.ndarray,
                input_grad: bool = True, act=None):
    """Exact gradients ``(d_x, d_w, d_bias)`` of :func:`conv2d` with the prologue ``act``.

    Each image's padded input is rebuilt as :func:`conv2d` builds it, into a
    buffer of the worker, and its upstream is copied into a reused
    zero-ringed buffer at the padded row stride ``W + k - 1``: ``k - 1`` zero
    rows above and below, ``k - 1`` zero columns before each row, which also
    pad the row before.  Its ``(H - 1) * (W + k - 1) + W`` columns from
    (k - 1, k - 1) on are ``U``, the upstream with zero junk columns, and
    ``d_w[:, :, ky, kx] = U @ B^T`` with ``B`` the padded input's columns
    from ``ky * (W + k - 1) + kx`` on (the tap view of :meth:`_Conv.band`).
    The padded input's gradient is the ring's :meth:`_Conv.band` with the
    flipped, transposed kernel and a zero bias, one call over all its
    ``H + k - 1`` rows at the full padded width, where reads past a row's end
    wrap into zero columns, into a third buffer of the worker; it is then
    folded onto the edge pixels the replicate padding read, and its interior
    is the image's ``d_x``.  With a ReLU in ``act`` that is multiplied by
    ``input > 0``, read from the rebuilt input, so ``d_x`` is the gradient at
    the pre-ReLU value ``a * x + b`` (``x`` without BN); the BN part is
    :func:`bn_relu_grad`'s.

    The images are the blocks of :func:`_on_workers`.  Each image gives one
    (k, k, Cout, Cin) partial of ``d_w``, its k * k tap GEMMs
    (:func:`_tap_gemms`), and one row of ``d_bias``, and both are added in
    image order, so the gradients do not depend on the worker count.  With
    ``input_grad=False`` ``d_x`` is None.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_input(x, params, act)
    n, cin, h, w = x.shape
    cout, _, k, _ = params.weights.shape
    expected = (n, cout, h, w)
    if upstream.shape != expected:
        raise ShapeError(f"upstream shape {upstream.shape} does not match conv output {expected}")
    p, hp, wp = (k - 1) // 2, h + k - 1, w + k - 1
    cols = (h - 1) * wp + w
    u0 = (k - 1) * wp + k - 1
    parts = np.empty((n, k, k, cout, cin))
    d_x = np.empty((n, cin, h, w)) if input_grad else None
    relu = input_grad and act is not None and act[2]
    back = _Conv(np.ascontiguousarray(params.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)),
                 np.zeros(cin)) if input_grad else None
    # never more floats than the ring (head form) or d_xp (first-layer form) holds
    scratch = back.scratch(hp, wp) if input_grad else 0
    d_bias = np.empty((n, cout))

    def grads(i: int, buffers) -> None:
        ring, buf, xp, temp, mask, d_xp = buffers
        xp = _padded_input(x[i], act, 0, h, p, xp, temp)
        ring[:, k - 1:k - 1 + h, k - 1:wp] = upstream[i]
        ring_flat = ring.reshape(cout, -1)
        u = ring_flat[:, u0:u0 + cols]
        d_bias[i] = u.sum(axis=1)
        _tap_gemms(u, xp.reshape(cin, -1), 0, wp, parts[i])
        if d_x is None:
            return
        back.band(ring_flat, 0, wp, d_xp.reshape(cin, -1), 0, hp, wp, buf)
        _fold_pad_grad(d_xp, h, w, p)
        d = d_xp[:, p:p + h, p:p + w]
        if relu:
            np.multiply(d, np.greater(xp[:, p:p + h, p:p + w], 0.0, out=mask), out=d_x[i])
        else:
            np.copyto(d_x[i], d)

    # the ring has one zero row more, read by the last row's wrap past its right edge
    _on_workers(n, lambda: (np.zeros((cout, h + 2 * k - 1, wp)), np.empty(scratch),
                            np.empty(cin * hp * wp), np.empty(_prologue_size(act, cin * h * w)),
                            np.empty((cin, h, w) if relu else 0, dtype=bool),
                            np.empty((cin, hp, wp) if input_grad else 0)), grads)
    d_w = parts.sum(axis=0).transpose(2, 3, 0, 1)
    return d_x, np.ascontiguousarray(d_w), d_bias.sum(axis=0)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a * b).sum(axis=1)`` of two 2-d arrays, one BLAS dot per row with no product array."""
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


def _batch_moments(z: np.ndarray) -> tuple:
    """Per-channel mean and biased variance of ``z`` over (N, H, W).

    Each image's channel sums, and then its squares centred on the batch mean,
    are one row per image, formed on the workers and added in image order.
    """
    n, c = z.shape[:2]
    flat = z.reshape(n, c, -1)
    m = n * flat.shape[2]
    rows = np.empty((n, c))

    def sums(i: int, _) -> None:
        rows[i] = flat[i].sum(axis=1)

    def squares(i: int, centred: np.ndarray) -> None:
        np.subtract(flat[i], mean[:, None], out=centred)
        rows[i] = _row_dots(centred, centred)

    _on_workers(n, lambda: None, sums)
    mean = rows.sum(axis=0) / m
    _on_workers(n, lambda: np.empty(flat.shape[1:]), squares)
    return mean, rows.sum(axis=0) / m


def bn_relu(z: np.ndarray, bn: BNParams | None, relu: bool):
    """The activation epilogue of a conv layer: train-mode BN, then ReLU, each optional.

    ``z`` is the (N, C, H, W) conv output.  Returns ``(act, cache)``: ``act`` is
    ``(a, b, relu)``, the prologue of the next :func:`conv2d`, which takes
    ``max(z * a + b, 0)`` as its input, or None where the epilogue is the
    identity.  With BN ``a = scale * invstd`` and ``b = shift - mean * a``, as
    (C, 1, 1) arrays, over the batch statistics, which update the running
    statistics once; a batch of at least 2 is needed, and epsilon makes zero
    variance harmless.  Without BN ``a`` and ``b`` are None; without ReLU the
    ``max`` goes.  The statistics are per-image rows on the workers
    (:func:`_batch_moments`); nothing activation-sized is made.  ``cache``
    holds what :func:`bn_relu_grad` needs: ``z`` and ``stats``,
    ``(mean, invstd, scale)`` or None.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 4:
        raise ShapeError(f"activation input must be 4-d (N,C,H,W), got shape {z.shape}")
    n, c = z.shape[:2]
    stats = act = None
    if bn is not None:
        if c != bn.channels:
            raise ShapeError(f"batchnorm input has {c} channels, params expect {bn.channels}")
        if n < 2:
            raise ShapeError(f"train-mode batchnorm needs batch size >= 2, got {n}")
        mean, var = _batch_moments(z)
        m = bn.momentum
        bn.running_mean[:] = m * bn.running_mean + (1.0 - m) * mean
        bn.running_var[:] = m * bn.running_var + (1.0 - m) * var
        invstd = 1.0 / np.sqrt(var + bn.epsilon)
        stats = (mean, invstd, bn.scale.copy())
        a = bn.scale * invstd
        act = (a[:, None, None], (bn.shift - mean * a)[:, None, None], relu)
    elif relu:
        act = (None, None, True)
    return act, {"z": z, "stats": stats}


def bn_relu_grad(upstream: np.ndarray, cache: dict):
    """Gradients ``(d_z, d_scale, d_shift)`` of :func:`bn_relu`'s BN, the last two None without BN.

    ``upstream`` is the gradient at BN's output, before the ReLU: the next
    :func:`conv2d_grad` has applied the ReLU's mask.  Without BN it is
    ``d_z``.  BN's three-term expression, whose sums of
    ``d_xhat = upstream * scale`` and ``d_xhat * xhat`` are ``scale * d_shift``
    and ``scale * d_scale``, reduces to
    ``d_z = scale * invstd * (upstream - d_shift / m - xhat * d_scale / m)``,
    m = N*H*W.  Two per-image passes on the workers form it with no stored
    ``xhat``: the first sums the image's rows of ``d_shift`` and ``d_scale``
    from ``upstream`` against ``z - mean`` recomputed in a scratch buffer
    (``invstd`` then scales the summed ``d_scale``); the second writes ``d_z``.
    """
    z, stats = cache["z"], cache["stats"]
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != z.shape:
        raise ShapeError(f"upstream shape {upstream.shape} does not match activation {z.shape}")
    if stats is None:
        return upstream, None, None
    n, c, h, w = z.shape
    d_z = np.empty_like(z)
    rows = np.empty((2, n, c))
    mean, invstd, scale = (s[:, None, None] for s in stats)

    def first(i: int, scratch: np.ndarray) -> None:
        centred = np.subtract(z[i], mean, out=scratch).reshape(c, -1)
        g = upstream[i].reshape(c, -1)
        rows[0, i] = g.sum(axis=1)
        rows[1, i] = _row_dots(g, centred)

    _on_workers(n, lambda: np.empty((c, h, w)), first)
    d_shift, d_scale = rows.sum(axis=1)
    d_scale *= stats[1]
    m = float(n * h * w)
    per_centred = invstd * (d_scale / m)[:, None, None]
    offset = (d_shift / m)[:, None, None]
    gain = scale * invstd

    def second(i: int, correction: np.ndarray) -> None:
        # correction = xhat * d_scale / m + d_shift / m
        np.subtract(z[i], mean, out=correction)
        correction *= per_centred
        correction += offset
        np.subtract(upstream[i], correction, out=d_z[i])
        d_z[i] *= gain

    _on_workers(n, lambda: np.empty((c, h, w)), second)
    return d_z, d_scale, d_shift
