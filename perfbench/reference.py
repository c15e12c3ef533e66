"""Reference results the benchmark checks the program against.

Written from the documented semantics with numpy only; nothing here
imports cnnlf, so a defect in the program cannot hide in its own
reference.  The functions take plain arrays and numbers, because they
run in a separate worker process (see ``ReferenceWorker``) whose memory
stays out of the benchmark's peak-RSS figure.

Convolutions use one im2col matrix product per layer: a different
accumulation order from the program's, exact for the DFP path (every
value is an integer below 2**53) and within rounding for the float path.
"""

from __future__ import annotations

import hashlib
import pickle
import subprocess
import sys
import traceback

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

INPUT_FL = 15
ACT_MIN, ACT_MAX = -(1 << 15), (1 << 15) - 1
FILTER_NORM_EPSILON = 1e-12


class ReferenceWorker:
    """One child interpreter, running this file, that evaluates its functions on request.

    Requests and replies are pickled over the child's standard input and
    output.  On exit the child's input is closed, which ends its loop, and
    the child is waited for, so no process outlives the benchmark.
    """

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def call(self, fn, *args):
        pickle.dump((fn.__name__, args), self._proc.stdin, pickle.HIGHEST_PROTOCOL)
        self._proc.stdin.flush()
        ok, value = pickle.load(self._proc.stdout)
        if not ok:
            raise RuntimeError(f"reference {fn.__name__} failed in the worker:\n{value}")
        return value

    def __exit__(self, *exc):
        proc = self._proc
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def serve(requests, replies) -> None:
    """The worker's loop: (function name, arguments) in, (ok, result or traceback) out."""
    while True:
        try:
            name, args = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = (True, globals()[name](*args))
        except Exception:
            reply = (False, traceback.format_exc())
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


def conv_same(x, weights, bias):
    """Stride-1 cross-correlation of (N, C, H, W) with replicate padding, plus bias."""
    n, c, h, w = x.shape
    cout, _, k, _ = weights.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="edge")
    cols = sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = cols.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * h * w)
    out = (weights.reshape(cout, -1) @ cols).reshape(cout, n, h, w).transpose(1, 0, 2, 3)
    return out + bias[None, :, None, None]


def _shift_half_away(v, shift):
    """Integer division by 2**shift, rounding half away from zero."""
    if shift == 0:
        return v
    mag = (np.abs(v) + (1 << (shift - 1))) >> shift
    return np.sign(v) * mag


def dfp_digest(layers, fl_concat, fl_sum, plane, qp, bit_depth, qp_max):
    """SHA-256 of the integer-path output plane.

    ``layers`` holds (weight mantissas, bias mantissas, relu, fl_w, fl_b,
    fl_o) per conv layer.  Inputs become 16-bit mantissas at fl 15
    (rounded, clamped); each layer accumulates exactly, adds the bias
    aligned by left shift, requantizes to its output fl with rounding
    half away from zero and 16-bit saturation, and applies ReLU; the
    residual is brought to the summation fl, added to the input with
    saturation, and scaled back to pixels with rounding.
    """
    pmax = (1 << bit_depth) - 1
    scale = float(1 << INPUT_FL)
    recon_m = np.minimum(np.floor(plane.astype(np.float64) * scale / pmax + 0.5), ACT_MAX)
    qp_m = min(np.floor(qp * scale / qp_max + 0.5), ACT_MAX)
    x = np.stack([recon_m, np.full_like(recon_m, qp_m)])[None]
    fl_in = fl_concat
    for w_m, b_m, relu, fl_w, fl_b, fl_o in layers:
        fl_acc = fl_w + fl_in
        acc = conv_same(x, w_m.astype(np.float64), np.zeros(w_m.shape[0]))
        acc = acc.astype(np.int64) + (b_m.astype(np.int64) << (fl_acc - fl_b))[None, :, None, None]
        m = np.clip(_shift_half_away(acc, fl_acc - fl_o), ACT_MIN, ACT_MAX)
        x = np.maximum(m, 0) if relu else m
        fl_in = fl_o
    resid = np.clip(_shift_half_away(x[0, 0], fl_in - fl_sum), ACT_MIN, ACT_MAX)
    total = np.clip(resid + recon_m.astype(np.int64), ACT_MIN, ACT_MAX)
    pixels = np.clip((total * pmax + (1 << (INPUT_FL - 1))) >> INPUT_FL, 0, pmax)
    dtype = "<u1" if bit_depth <= 8 else "<u2"
    return hashlib.sha256(pixels.astype(dtype).tobytes()).hexdigest()


def _float_forward(layers, x, bn_mode):
    """Conv chain on (N, 2, H, W); ``layers`` holds (weights, bias, bn, relu) with
    bn = (scale, shift, mean, var, eps) or None.  Returns the residual-added output."""
    inp = x
    for weights, bias, bn, relu in layers:
        x = conv_same(x, weights, bias)
        if bn is not None:
            scale, shift, mean, var, eps = bn
            if bn_mode == "train":
                mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            x = (x - mean[None, :, None, None]) / np.sqrt(var + eps)[None, :, None, None]
            x = x * scale[None, :, None, None] + shift[None, :, None, None]
        if relu:
            x = np.maximum(x, 0.0)
    return x + inp[:, :1]


def float_filter(layers, plane, qp, bit_depth, qp_max):
    """Float inference of one plane with inference-mode BN; returns pixels."""
    pmax = (1 << bit_depth) - 1
    recon = plane.astype(np.float64) / pmax
    x = np.stack([recon, np.full_like(recon, qp / qp_max)])[None]
    out = _float_forward(layers, x, "infer")[0, 0]
    return np.clip(np.floor(out * pmax + 0.5), 0, pmax).astype(plane.dtype)


def psnr(a, b, bit_depth=8):
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0.0:
        return 99.0
    peak = float((1 << bit_depth) - 1)
    return min(10.0 * np.log10(peak * peak / mse), 99.0)


def bd_rate(anchor, test):
    """Bjontegaard delta rate in percent; each curve is a list of (bitrate, psnr)."""
    fits, lo, hi = [], -np.inf, np.inf
    for curve in (anchor, test):
        rate, quality = np.array(curve, dtype=np.float64).T
        fits.append(np.polyint(np.polyfit(quality, np.log10(rate), 3)))
        lo, hi = max(lo, quality.min()), min(hi, quality.max())
    areas = [np.polyval(f, hi) - np.polyval(f, lo) for f in fits]
    return (10.0 ** ((areas[1] - areas[0]) / (hi - lo)) - 1.0) * 100.0


def train_loss(layers, decoded, original, qps, bit_depth, qp_max, lambdas):
    """Total training loss of one batch at the given parameters.

    Batch MSE ``sum ||y - f(x)||^2 / (2M)`` under train-mode BN, plus
    ``lambda_w`` times the squared conv weights, ``lambda_s`` times the
    squared BN scales, and ``lambda_lda`` times the pairwise L1 distance
    between the unit-normalized filters of every layer but the last.
    """
    lambda_w, lambda_s, lambda_lda = lambdas
    pmax = (1 << bit_depth) - 1
    recon = decoded.astype(np.float64) / pmax
    qpmap = np.broadcast_to(np.asarray(qps, np.float64)[:, None, None] / qp_max, recon.shape)
    out = _float_forward(layers, np.stack([recon, qpmap], axis=1), "train")
    m = decoded.shape[0]
    mse = float(((out[:, 0] - original / pmax) ** 2).sum() / (2.0 * m))
    reg_w = sum(float((w * w).sum()) for w, _, _, _ in layers)
    reg_s = sum(float((bn[0] ** 2).sum()) for _, _, bn, _ in layers if bn is not None)
    reg_lda = 0.0
    for weights, _, _, _ in layers[:-1]:
        flat = weights.reshape(weights.shape[0], -1)
        unit = flat / np.maximum(np.linalg.norm(flat, axis=1), FILTER_NORM_EPSILON)[:, None]
        reg_lda += 0.5 * float(np.abs(unit[:, None, :] - unit[None, :, :]).sum())
    return mse + lambda_w * reg_w + lambda_s * reg_s + lambda_lda * reg_lda


if __name__ == "__main__":
    replies = sys.stdout.buffer
    sys.stdout = sys.stderr     # nothing else may write into the reply stream
    serve(sys.stdin.buffer, replies)
