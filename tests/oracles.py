"""Independent reference implementations the tests check the fast paths against.

Everything here is written the slow, obvious way on purpose and must stay
independent of the code under test.
"""

import numpy as np


def conv2d_loops(x, weights, bias):
    """Six-nested-loop same-size convolution with replicate border handling."""
    n, cin, h, w = x.shape
    cout, _, k, _ = weights.shape
    p = (k - 1) // 2
    out = np.zeros((n, cout, h, w))
    for b in range(n):
        for co in range(cout):
            for y in range(h):
                for xx in range(w):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(k):
                            for kx in range(k):
                                sy = min(max(y + ky - p, 0), h - 1)
                                sx = min(max(xx + kx - p, 0), w - 1)
                                acc += weights[co, ci, ky, kx] * x[b, ci, sy, sx]
                    out[b, co, y, xx] = acc + bias[co]
    return out


def pad_same(x, k):
    """Replicate-pad the two trailing spatial axes by (k - 1) / 2 on each side."""
    p = (k - 1) // 2
    pad = [(0, 0)] * (x.ndim - 2) + [(p, p), (p, p)]
    return np.pad(x, pad, mode="edge")


def activated(x, act):
    """``x`` through the prologue ``act = (a, b, relu)`` of a convolution: per channel
    ``a * x + b`` where ``a`` is given, then ``max(., 0)`` with ``relu``; None is ``x``."""
    if act is None:
        return x.copy()
    a, b, relu = act
    y = x if a is None else x * a + b
    return np.maximum(y, 0.0) if relu else y


def conv2d_grad_loops(x, weights, upstream):
    """Direct adjoint of :func:`conv2d_loops`: each product's upstream gradient is
    scattered to the weight and to the clamped source pixel it read."""
    n, cin, h, w = x.shape
    cout, _, k, _ = weights.shape
    p = (k - 1) // 2
    d_x = np.zeros_like(x)
    d_w = np.zeros_like(weights)
    d_bias = np.zeros(cout)
    for b in range(n):
        for co in range(cout):
            for y in range(h):
                for xx in range(w):
                    g = upstream[b, co, y, xx]
                    d_bias[co] += g
                    for ci in range(cin):
                        for ky in range(k):
                            for kx in range(k):
                                sy = min(max(y + ky - p, 0), h - 1)
                                sx = min(max(xx + kx - p, 0), w - 1)
                                d_x[b, ci, sy, sx] += weights[co, ci, ky, kx] * g
                                d_w[co, ci, ky, kx] += x[b, ci, sy, sx] * g
    return d_x, d_w, d_bias


def finite_difference(loss_fn, array, h=1e-6):
    """Central finite differences of a scalar function w.r.t. every array entry."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, floor=1e-8):
    """Worst relative disagreement; ``floor`` absorbs finite-difference noise
    on components whose true gradient is (near) zero."""
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / scale).max())


def lda_pairwise_loops(weights, eps=1e-12):
    """Direct pairwise-loop version of the filter decorrelation value."""
    cout = weights.shape[0]
    flat = weights.reshape(cout, -1)
    total = 0.0
    for i in range(cout):
        for j in range(i + 1, cout):
            wi = flat[i] / max(np.linalg.norm(flat[i]), eps)
            wj = flat[j] / max(np.linalg.norm(flat[j]), eps)
            total += np.abs(wj - wi).sum()
    return total


def lda_pairwise(weights, eps=1e-12):
    """Filter decorrelation value and gradient through the full (C, C, D)
    tensor of pairwise differences of the unit filters."""
    cout = weights.shape[0]
    flat = weights.reshape(cout, -1)
    norms = np.maximum(np.sqrt((flat * flat).sum(axis=1)), eps)
    unit = flat / norms[:, None]
    diff = unit[:, None, :] - unit[None, :, :]
    g_unit = np.sign(diff).sum(axis=1)
    g_flat = (g_unit - (g_unit * unit).sum(axis=1)[:, None] * unit) / norms[:, None]
    return 0.5 * np.abs(diff).sum(), g_flat.reshape(weights.shape)


def batchnorm_backward_three_term(x, upstream, scale, eps):
    """Train-mode batch-norm input, scale and shift gradients, with ``d_xhat``
    materialized and the full three-term expression over batch statistics."""
    axes = (0, 2, 3)
    mean, var = x.mean(axis=axes), x.var(axis=axes)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * invstd[None, :, None, None]
    d_shift = upstream.sum(axis=axes)
    d_scale = (upstream * xhat).sum(axis=axes)
    d_xhat = upstream * scale[None, :, None, None]
    m = x.size / x.shape[1]
    sum_dxhat = d_xhat.sum(axis=axes)
    sum_dxhat_xhat = (d_xhat * xhat).sum(axis=axes)
    d_x = (invstd[None, :, None, None] / m) * (
        m * d_xhat - sum_dxhat[None, :, None, None] - xhat * sum_dxhat_xhat[None, :, None, None])
    return d_x, d_scale, d_shift


def bn_inference_forward(model, recon, qpmap):
    """Float inference of one plane with BN run as its own step on the running statistics:
    conv, ``scale * (x - mean) / sqrt(var + eps) + shift``, ReLU, then the residual add."""
    x = np.stack([recon, qpmap])[None]
    for layer in model.layers:
        x = conv2d_loops(x, layer.conv.weights, layer.conv.bias)
        bn = layer.bn
        if bn is not None:
            x = (bn.scale[:, None, None] * (x - bn.running_mean[:, None, None])
                 / np.sqrt(bn.running_var + bn.epsilon)[:, None, None] + bn.shift[:, None, None])
        if layer.relu:
            x = np.maximum(x, 0.0)
    return x[0, 0] + recon


def bd_rate_trapezoid(anchor_rates, anchor_psnrs, test_rates, test_psnrs, samples=100001):
    """Delta-rate via dense trapezoid integration instead of exact polynomial integrals."""
    pa = np.polyfit(anchor_psnrs, np.log10(anchor_rates), 3)
    pt = np.polyfit(test_psnrs, np.log10(test_rates), 3)
    lo = max(min(anchor_psnrs), min(test_psnrs))
    hi = min(max(anchor_psnrs), max(test_psnrs))
    grid = np.linspace(lo, hi, samples)
    avg = np.trapezoid(np.polyval(pt, grid) - np.polyval(pa, grid), grid) / (hi - lo)
    return (10.0 ** avg - 1.0) * 100.0


def encode_intra_blocks(plane, qp, bit_depth=8):
    """Block-by-block ``codec.encode_intra_plane``: edge-pad to multiples of 8, then for
    each 8x8 block ``B`` quantize ``D @ B @ D.T / Qstep`` and reconstruct
    ``D.T @ (q * Qstep) @ D``, both rounded half away from zero after snapping to the
    2^-24 grid.  The bits are the zeroth-order entropy of all q times their count."""
    n = 8
    k = np.arange(n)
    d = (np.sqrt(np.where(k == 0, 1.0, 2.0) / n)[:, None]
         * np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n)))

    def rounded(v):
        v = np.round(v * 2.0 ** 24) / 2.0 ** 24
        return np.sign(v) * np.floor(np.abs(v) + 0.5)

    h, w = plane.shape
    padded = np.pad(np.asarray(plane, dtype=np.float64), ((0, -h % n), (0, -w % n)), mode="edge")
    qstep = 2.0 ** ((qp - 4) / 6.0)
    q = np.zeros_like(padded)
    recon = np.zeros_like(padded)
    for y in range(0, padded.shape[0], n):
        for x in range(0, padded.shape[1], n):
            qb = rounded(d @ padded[y:y + n, x:x + n] @ d.T / qstep)
            q[y:y + n, x:x + n] = qb
            recon[y:y + n, x:x + n] = rounded(d.T @ (qb * qstep) @ d)
    _, counts = np.unique(q.astype(np.int64), return_counts=True)
    probs = counts / counts.sum()
    bits = float(-(probs * np.log2(probs)).sum()) * q.size
    pixels = np.clip(recon[:h, :w], 0, (1 << bit_depth) - 1)
    return pixels.astype(np.uint8 if bit_depth <= 8 else np.uint16), bits


def round_half_away_int(value: int, shift: int) -> int:
    """Integer round-half-away-from-zero of value / 2**shift, via exact rationals."""
    if shift == 0:
        return value
    den = 1 << shift
    q, r = divmod(abs(value), den)
    if 2 * r >= den:
        q += 1
    return -q if value < 0 else q


def dfp_forward_loops(model, plane, qp):
    """Integer path of ``dfp.dfp_forward`` with Python-int accumulation, pixel by pixel.

    Reads only the model's mantissas, activation flags, fractional lengths
    and input contract.
    """
    cfg = model.config
    pmax = (1 << cfg.bit_depth) - 1
    lo, hi = -(1 << 15), (1 << 15) - 1
    height, width = len(plane), len(plane[0])
    # round half up of v * 2^15 / max, as 16-bit mantissas
    recon = [[min((int(v) * (1 << 16) + pmax) // (2 * pmax), hi) for v in row]
             for row in plane]
    qp_m = min((int(qp) * (1 << 16) + cfg.qp_max) // (2 * cfg.qp_max), hi)
    x = [recon, [[qp_m] * width for _ in range(height)]]
    fl_in = model.fl_table.fl_concat
    for layer, fl in zip(model.layers, model.fl_table.layers):
        weights = layer.weights_m.tolist()
        bias = layer.bias_m.tolist()
        fl_acc = fl.fl_w + fl_in
        k = len(weights[0][0])
        p = (k - 1) // 2
        out = []
        for co in range(len(weights)):
            plane_out = []
            for y in range(height):
                row = []
                for xx in range(width):
                    acc = bias[co] << (fl_acc - fl.fl_b)
                    for ci in range(len(x)):
                        for ky in range(k):
                            sy = min(max(y + ky - p, 0), height - 1)
                            for kx in range(k):
                                sx = min(max(xx + kx - p, 0), width - 1)
                                acc += weights[co][ci][ky][kx] * x[ci][sy][sx]
                    m = max(lo, min(hi, round_half_away_int(acc, fl_acc - fl.fl_o)))
                    row.append(max(m, 0) if layer.relu else m)
                plane_out.append(row)
            out.append(plane_out)
        x = out
        fl_in = fl.fl_o
    pixels = []
    for y in range(height):
        row = []
        for xx in range(width):
            resid = max(lo, min(hi, round_half_away_int(x[0][y][xx],
                                                        fl_in - model.fl_table.fl_sum)))
            total = max(lo, min(hi, resid + recon[y][xx]))
            row.append(max(0, min(pmax, (total * pmax + (1 << 14)) >> 15)))
        pixels.append(row)
    return np.array(pixels, dtype=np.uint8 if cfg.bit_depth <= 8 else np.uint16)
