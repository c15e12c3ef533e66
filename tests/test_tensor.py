import contextvars
import random
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnlf import tensor
from cnnlf.errors import ShapeError
from cnnlf.tensor import (BNParams, ConvParams, bn_relu, bn_relu_grad, conv2d, conv2d_grad,
                          round_half_away)

from .conftest import blas_count, schedule_shaker, without_dgemm
from .oracles import (activated, batchnorm_backward_three_term, conv2d_grad_loops,
                      conv2d_loops, finite_difference, max_relative_error, pad_same)


def identity_1x1(channels):
    """A 1x1 convolution that passes its input through: with a prologue, its output
    is the prologue's, and its input gradient the prologue's pre-ReLU gradient."""
    return ConvParams(np.eye(channels)[:, :, None, None], np.zeros(channels))


def epilogue(z, bn, relu):
    """``(out, act, cache)``: :func:`bn_relu` of ``z`` and its activation ``out``, as the
    next convolution applies it (through :func:`identity_1x1`)."""
    act, cache = bn_relu(z, bn, relu)
    return conv2d(z, identity_1x1(z.shape[1]), act), act, cache


def epilogue_grad(up, act, cache):
    """Gradients ``(d_z, d_scale, d_shift)`` of :func:`epilogue`'s ``out`` for the upstream
    ``up``: the ReLU's part from the next convolution's input gradient, then BN's."""
    z = cache["z"]
    d, _, _ = conv2d_grad(z, identity_1x1(z.shape[1]), up, act=act)
    return bn_relu_grad(d, cache)


@st.composite
def conv_case(draw):
    """Input, parameters, upstream gradient, a band size, whether to ask for the
    input gradient, a prologue, a worker count and whether to use BLAS's
    ``dgemm`` (else ``np.matmul``), for one random convolution.  Planes may be
    smaller than the kernel.  A third of the cases are output heads
    (``k * k * cout <= cin``, ``cout = 1`` unless k = 1) and a third first
    layers (``cin <= 2``, ``k * k * cin <= cout``), the two thin band forms of
    :class:`cnnlf.tensor._Conv`; the rest run one GEMM per tap.  The prologue
    is None, a ReLU, or a per-channel ``a * x + b`` of either sign with or
    without the ReLU.  Three workers exceed the images of every batch drawn
    and the bands of most planes."""
    k = draw(st.sampled_from([1, 3, 5]))
    n = draw(st.integers(1, 3))
    form = draw(st.sampled_from(["taps", "head", "first"]))
    if form == "head":
        cout = draw(st.integers(1, 4)) if k == 1 else 1
        cin = draw(st.integers(k * k * cout, k * k * cout + 6))
    elif form == "first":
        cin = 1 if k == 5 else draw(st.integers(1, 2))
        cout = draw(st.integers(k * k * cin, k * k * cin + 3))
    else:
        cin, cout = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = ConvParams(rng.normal(size=(cout, cin, k, k)), rng.normal(size=cout))
    band_bytes = draw(st.sampled_from([1, 300, tensor.BAND_BYTES]))
    input_grad = draw(st.booleans())
    act = draw(st.sampled_from([None, "relu", "affine", "affine+relu"]))
    if act == "relu":
        act = (None, None, True)
    elif act is not None:
        act = (rng.normal(size=(cin, 1, 1)), rng.normal(size=(cin, 1, 1)), act != "affine")
    workers = draw(st.sampled_from([1, 2, 3]))
    return (rng.normal(size=(n, cin, h, w)), params, rng.normal(size=(n, cout, h, w)),
            band_bytes, input_grad, act, workers, draw(st.booleans()))


@given(conv_case())
@settings(max_examples=100, deadline=None)
def test_conv_and_grad_match_loop_oracles(case):
    x, params, up, band_bytes, input_grad, act, workers, dgemm = case
    with (mock.patch.object(tensor, "BAND_BYTES", band_bytes), blas_count(workers),
          without_dgemm(not dgemm), tensor._spend_blas_threads()):
        out = conv2d(x, params, act)
        d_x, d_w, d_b = conv2d_grad(x, params, up, input_grad=input_grad, act=act)
    # the oracles see the prologue's output, replicate-padded by their clamped reads
    y = activated(x, act)
    assert np.abs(out - conv2d_loops(y, params.weights, params.bias)).max() < 1e-12
    want_x, want_w, want_b = conv2d_grad_loops(y, params.weights, up)
    if act is not None and act[2]:
        want_x = want_x * (y > 0.0)  # the gradient at the pre-ReLU value
    if input_grad:
        assert d_x.shape == want_x.shape
        assert np.abs(d_x - want_x).max() < 1e-12
    else:
        assert d_x is None
    for got, want in ((d_w, want_w), (d_b, want_b)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


def gemm_operands(rng):
    """Named (a, b) pairs of integer-valued 5x7 and 7x9 views: contiguous, offset into a
    wider array, every other row of one, and transposed."""
    big = rng.integers(-50, 50, size=(48, 64)).astype(np.float64)
    a_views = {"contiguous": np.ascontiguousarray(big[:5, :7]), "offset": big[3:8, 10:17],
               "strided": big[1:11:2, 2:9], "transposed": big[20:27, 30:35].T}
    b_views = {"contiguous": np.ascontiguousarray(big[:7, :9]), "offset": big[5:12, 40:49],
               "strided": big[12:26:2, 20:29], "transposed": big[30:39, 50:57].T}
    return [(f"{na} @ {nb}", a, b) for na, a in a_views.items() for nb, b in b_views.items()]


@pytest.mark.parametrize("dgemm", [True, False], ids=["dgemm", "matmul"])
@pytest.mark.parametrize("accumulate", [False, True], ids=["set", "accumulate"])
def test_gemm_on_views_equals_matmul_exactly(rng, dgemm, accumulate):
    # integer sums below 2^53 are exact in any order, so the bits must agree
    for name, a, b in gemm_operands(rng):
        out = rng.integers(-50, 50, size=(9, 20)).astype(np.float64)
        before = out.copy()
        c = out[2:7, 4:13]
        with without_dgemm(not dgemm):
            tensor._gemm(a, b, c, accumulate)
        want = before.copy()
        want[2:7, 4:13] = np.matmul(a, b) + (before[2:7, 4:13] if accumulate else 0.0)
        assert np.array_equal(out, want), name


def test_gemm_refuses_views_blas_cannot_read_and_never_calls_it(rng):
    calls = []
    blas = tensor._openblas() or tensor._OpenBLAS(None, None, None)
    fake = blas._replace(dgemm=lambda *args: calls.append(args))
    big = rng.normal(size=(8, 16))
    square = np.ones((4, 4))
    bad = {
        "a's inner stride is 2 elements": (big[:4, :8:2], square, np.zeros((4, 4))),
        "b's rows run backwards": (square, big[3::-1, :4], np.zeros((4, 4))),
        "c's inner stride is 2 elements": (square, square, np.zeros((4, 8))[:, ::2]),
        "c is transposed": (square, square, np.zeros((4, 4)).T),
        "a's rows overlap": (np.lib.stride_tricks.as_strided(big, (4, 4), (16, 8)), square,
                             np.zeros((4, 4))),
        "b's transposed rows overlap": (square, np.lib.stride_tricks.as_strided(
            big, (4, 4), (8, 16)), np.zeros((4, 4))),
    }
    with mock.patch.object(tensor, "_openblas", lambda: fake):
        for name, (a, b, c) in bad.items():
            with pytest.raises(ShapeError):
                tensor._gemm(a, b, c, True)
            assert calls == [], name
        tensor._gemm(square, square, np.zeros((4, 4)), False)
    assert len(calls) == 1


@pytest.mark.parametrize("least", [1, 2, 3])
def test_row_bands_split_a_plane_evenly_into_bands_that_fit(least):
    row_bytes = 64 * 210 * 8  # a 64-channel accumulator row of a 208-pixel plane
    for h in (1, 2, 5, 35, 60, 120, 1000):
        bands = tensor._row_bands(h, row_bytes, least)
        sizes = [r1 - r0 for r0, r1 in bands]
        assert bands[0][0] == 0 and bands[-1][1] == h
        assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
        assert max(sizes) - min(sizes) <= 1
        count = len(bands)
        assert count >= min(h, least)
        # no fewer bands would do: one band fewer would not fit
        assert count == min(h, least) or -(-h // (count - 1)) * row_bytes > tensor.BAND_BYTES
        assert max(sizes) == 1 or max(sizes) * row_bytes <= tensor.BAND_BYTES


@pytest.mark.parametrize("prologue", [False, True], ids=["plain", "bn-relu"])
@pytest.mark.parametrize("cout, cin", [(5, 6), (1, 12), (18, 2)], ids=["taps", "head", "first"])
def test_an_image_alone_and_in_a_batch_gives_the_same_bits(rng, cout, cin, prologue):
    # conv2d runs (image, band) blocks for one image and for a batch alike; a band
    # buffer of 4 rows (accumulator and scratch) splits the 13-row image into 4 bands
    params = ConvParams(rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout))
    x = rng.normal(size=(3, cin, 13, 11))
    act = ((rng.uniform(0.5, 2.0, size=(cin, 1, 1)), rng.normal(size=(cin, 1, 1)), True)
           if prologue else None)
    conv = tensor._Conv(params.weights, params.bias)
    band_bytes = 4 * 8 * (cout * 13 + conv.scratch(1, 13))
    with (mock.patch.object(tensor, "BAND_BYTES", band_bytes), blas_count(2),
          tensor._spend_blas_threads()):
        assert len(tensor._row_bands(13, band_bytes // 4)) == 4
        batch = conv2d(x, params, act)
        alone = conv2d(x[1:2], params, act)
    assert alone.tobytes() == batch[1:2].tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_on_workers_runs_each_block_once_and_raises_a_blocks_error(workers):
    caller = threading.get_ident()
    with blas_count(workers), tensor._spend_blas_threads():
        t = tensor._workers()
        assert tensor._openblas() is None or t == workers
        for blocks in (0, 1, t, 3 * t + 1):
            made, done = [], []

            def scratch():
                assert threading.get_ident() == caller
                made.append([])
                return made[-1]

            def work(i, buffers):
                time.sleep(0.001)
                buffers.append(i)
                done.append(i)

            tensor._on_workers(blocks, scratch, work)
            assert sorted(done) == list(range(blocks))
            assert len(made) == max(1, min(t, blocks))
            assert sorted(i for buffers in made for i in buffers) == list(range(blocks))
            time.sleep(0.02)
            assert len(done) == blocks

        started = []

        def failing(i, _):
            started.append(i)
            time.sleep(0.001)
            if i == 1:
                raise ValueError("block 1 failed")

        with pytest.raises(ValueError, match="block 1 failed"):
            tensor._on_workers(3 * t + 1, lambda: None, failing)
        ran = len(started)
        time.sleep(0.02)
        assert len(started) == ran and 1 in started

        # a lost claim would run a block twice or not at all
        counts = np.zeros(2000, dtype=np.int64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tensor._on_workers(len(counts), lambda: None,
                               lambda i, _: counts.__setitem__(i, counts[i] + 1))
        finally:
            sys.setswitchinterval(interval)
        assert np.all(counts == 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_on_workers_starts_a_block_only_after_the_blocks_it_waits_for(workers):
    rng = random.Random(workers)
    after = [rng.sample(range(i), min(i, rng.randint(0, 3))) for i in range(80)]
    events, lock = [], threading.Lock()

    def work(i, _):
        with lock:
            events.append(("start", i))
        with lock:
            events.append(("end", i))

    with blas_count(workers), tensor._spend_blas_threads():
        for seed in range(3):
            events.clear()
            with schedule_shaker(seed, longest=0.005):
                tensor._on_workers(len(after), lambda: None, work, after)
            at = {event: n for n, event in enumerate(events)}
            assert sorted(i for kind, i in events if kind == "start") == list(range(len(after)))
            for i, preds in enumerate(after):
                assert all(at["end", j] < at["start", i] for j in preds), (seed, i)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_on_workers_never_waits_on_a_failed_block(workers):
    # blocks 0-19 form a chain, each waiting for the one before; 20-39 wait for nothing
    after = [[i - 1] if 0 < i < 20 else [] for i in range(40)]
    started, outcome = [], []

    def work(i, _):
        started.append(i)
        time.sleep(0.001)
        if i == 5:
            raise RuntimeError("block 5 failed")

    def call():
        try:
            tensor._on_workers(len(after), lambda: None, work, after)
        except RuntimeError as exc:
            outcome.append(exc)

    with blas_count(workers), tensor._spend_blas_threads():
        with pytest.raises(ValueError, match="does not precede"):
            tensor._on_workers(3, lambda: None, work, [[], [2], []])
        assert started == []
        caller = threading.Thread(target=contextvars.copy_context().run, args=(call,))
        caller.start()
        caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(exc) for exc in outcome] == ["block 5 failed"]
    assert 5 in started and not set(started) & set(range(6, 20))


class TestConv2d:
    def test_identity_1x1_kernel(self):
        x = np.ones((1, 1, 3, 3))
        params = ConvParams(np.ones((1, 1, 1, 1)), np.zeros(1))
        assert np.array_equal(conv2d(x, params), x)

    def test_zero_weights_give_constant_bias(self, rng):
        x = rng.normal(size=(2, 3, 6, 7))
        params = ConvParams(np.zeros((4, 3, 3, 3)), np.full(4, 2.5))
        out = conv2d(x, params)
        assert out.shape == (2, 4, 6, 7)
        assert np.all(out == 2.5)

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        params = ConvParams(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3))
        expected = conv2d_loops(x, params.weights, params.bias)
        assert np.abs(conv2d(x, params) - expected).max() < 1e-12

    def test_matches_loop_oracle_5x5_kernel(self, rng):
        x = rng.normal(size=(2, 2, 7, 6))
        params = ConvParams(rng.normal(size=(2, 2, 5, 5)), rng.normal(size=2))
        expected = conv2d_loops(x, params.weights, params.bias)
        assert np.abs(conv2d(x, params) - expected).max() < 1e-12

    def test_linearity_with_zero_bias(self, rng):
        params = ConvParams(rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
        x = rng.normal(size=(1, 2, 5, 5))
        y = rng.normal(size=(1, 2, 5, 5))
        a, b = 1.7, -0.4
        lhs = conv2d(a * x + b * y, params)
        rhs = a * conv2d(x, params) + b * conv2d(y, params)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_channel_mismatch_names_dimensions(self, rng):
        params = ConvParams(rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
        with pytest.raises(ShapeError, match="4 channels.*expect 2"):
            conv2d(rng.normal(size=(1, 4, 5, 5)), params)

    def test_input_smaller_than_kernel(self, rng):
        # replicate padding covers a plane smaller than the kernel, as in the DFP path
        x = rng.normal(size=(1, 1, 3, 3))
        params = ConvParams(rng.normal(size=(1, 1, 5, 5)), rng.normal(size=1))
        expected = conv2d_loops(x, params.weights, params.bias)
        assert np.abs(conv2d(x, params) - expected).max() < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            ConvParams(np.zeros((1, 1, 2, 2)), np.zeros(1))


class TestConv2dGrad:
    def test_zero_upstream_zero_gradients(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        params = ConvParams(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3))
        dx, dw, db = conv2d_grad(x, params, np.zeros((1, 3, 5, 5)))
        assert not dx.any() and not dw.any() and not db.any()

    def test_bias_gradient_is_upstream_channel_sum(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        params = ConvParams(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3))
        up = rng.normal(size=(2, 3, 5, 5))
        _, _, db = conv2d_grad(x, params, up)
        assert np.abs(db - up.sum(axis=(0, 2, 3))).max() < 1e-12

    def test_gradients_match_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        params = ConvParams(rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2))
        up = rng.normal(size=(1, 2, 5, 5))

        def loss():
            return float((conv2d(x, params) * up).sum())

        dx, dw, db = conv2d_grad(x, params, up)
        assert max_relative_error(dx, finite_difference(loss, x)) < 1e-5
        assert max_relative_error(dw, finite_difference(loss, params.weights)) < 1e-5
        assert max_relative_error(db, finite_difference(loss, params.bias)) < 1e-5

    def test_upstream_shape_mismatch(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        params = ConvParams(rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
        with pytest.raises(ShapeError, match="does not match conv output"):
            conv2d_grad(x, params, np.zeros((1, 3, 4, 5)))

    def test_padded_input_shape_mismatch(self, rng):
        # the padded input is built from the prologue, whose vectors must fit its channels
        x = rng.normal(size=(1, 2, 5, 5))
        params = ConvParams(rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
        wide = (np.ones((3, 1, 1)), np.zeros((3, 1, 1)), True)
        with pytest.raises(ShapeError, match="2 input channels"):
            conv2d_grad(x, params, np.zeros((1, 3, 5, 5)), act=wide)
        with pytest.raises(ShapeError, match="2 input channels"):
            conv2d(x, params, (np.ones((2, 1, 1)), np.zeros(2), False))


class TestBatchnorm:
    """Train-mode BN without ReLU, as :func:`bn_relu` runs it for a BN layer with ``relu=False``,
    applied by the next convolution (:func:`epilogue`)."""

    def test_identity_on_normalized_input(self, rng):
        x = rng.normal(size=(4, 3, 8, 8))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        params = BNParams.identity(3)
        out, _, _ = epilogue(x, params, relu=False)
        # epsilon shrinks unit-variance data by 1 - 1/sqrt(1 + eps) ~ eps/2 per unit
        bound = (1.0 - 1.0 / np.sqrt(1.0 + params.epsilon)) * np.abs(x).max() + 1e-12
        assert np.abs(out - x).max() <= bound
        assert bound < 1e-4

    def test_zero_scale_gives_constant_shift(self, rng):
        params = BNParams.identity(3)
        params.scale[:] = 0.0
        params.shift[:] = [0.1, -0.2, 0.3]
        out, _, _ = epilogue(rng.normal(size=(4, 3, 6, 6)), params, relu=False)
        for c, beta in enumerate(params.shift):
            assert np.allclose(out[:, c], beta)

    def test_train_output_statistics(self, rng):
        params = BNParams.identity(3)
        params.scale[:] = [1.5, -0.7, 0.2]
        params.shift[:] = [0.3, 0.0, -1.0]
        out, _, _ = epilogue(rng.normal(1.0, 3.0, size=(6, 3, 10, 10)), params, relu=False)
        mean = out.mean(axis=(0, 2, 3))
        std = out.std(axis=(0, 2, 3))
        assert np.abs(mean - params.shift).max() < 1e-9
        # epsilon shrinks the output std by sqrt(var / (var + eps)), far below 1e-9 here
        assert np.abs(std - np.abs(params.scale)).max() < 1e-4

    def test_running_stats_update(self, rng):
        params = BNParams.identity(2)
        x = rng.normal(2.0, 1.5, size=(4, 2, 5, 5))
        _, cache = bn_relu(x, params, relu=False)
        mean, invstd, _ = cache["stats"]
        var = 1.0 / invstd ** 2 - params.epsilon
        assert np.allclose(params.running_mean, 0.9 * 0.0 + 0.1 * mean)
        assert np.allclose(params.running_var, 0.9 * 1.0 + 0.1 * var)

    def test_zero_variance_never_raises(self):
        x = np.full((4, 1, 3, 3), 5.0)
        out, _, _ = epilogue(x, BNParams.identity(1), relu=False)
        assert np.all(np.isfinite(out))

    def test_train_needs_batch_of_two(self, rng):
        with pytest.raises(ShapeError, match="batch size >= 2"):
            bn_relu(rng.normal(size=(1, 2, 4, 4)), BNParams.identity(2), relu=False)

    def test_backward_matches_finite_differences(self, rng):
        x = rng.normal(size=(3, 2, 4, 4))
        params = BNParams(rng.normal(1.0, 0.3, size=2), rng.normal(size=2),
                          rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
        up = rng.normal(size=(3, 2, 4, 4))

        def loss():
            out, _, _ = epilogue(x, params, relu=False)
            return float((out * up).sum())

        _, act, cache = epilogue(x, params, relu=False)
        dx, dscale, dshift = epilogue_grad(up, act, cache)
        assert max_relative_error(dx, finite_difference(loss, x)) < 1e-5
        assert max_relative_error(dscale, finite_difference(loss, params.scale)) < 1e-5
        assert max_relative_error(dshift, finite_difference(loss, params.shift)) < 1e-5

    def test_backward_matches_three_term_oracle(self, rng):
        x = rng.normal(0.5, 2.0, size=(5, 4, 9, 7))
        params = BNParams(rng.normal(1.0, 0.5, size=4), rng.normal(size=4),
                          rng.normal(size=4), rng.uniform(0.5, 2.0, size=4))
        up = rng.normal(size=x.shape)
        want = batchnorm_backward_three_term(x, up, params.scale, params.epsilon)
        _, cache = bn_relu(x, params, relu=False)
        for got, ref in zip(bn_relu_grad(up, cache), want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_running_stats_match_numpy_mean_and_var(self, rng):
        # a large mean over a small spread: a variance from uncentered sums would drift
        x = rng.normal(40.0, 0.01, size=(16, 5, 11, 9))
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        params = BNParams.identity(5)
        before_mean, before_var = params.running_mean.copy(), params.running_var.copy()
        _, cache = bn_relu(x, params, relu=False)
        # momentum 0 makes the running statistics the batch statistics, bit for bit
        batch = BNParams(np.ones(5), np.zeros(5), np.zeros(5), np.ones(5), momentum=0.0)
        bn_relu(x, batch, relu=False)
        for got, ref in ((cache["stats"][0], mean), (batch.running_mean, mean),
                         (batch.running_var, var),
                         (params.running_mean, 0.9 * before_mean + 0.1 * mean),
                         (params.running_var, 0.9 * before_var + 0.1 * var)):
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


KINDS = {"bn+relu": (True, True), "bn": (True, False), "relu": (False, True)}


@pytest.mark.parametrize("kind", KINDS)
def test_epilogue_gradients_match_finite_differences(rng, kind):
    """Every gradient of the epilogue against central differences, with an exact
    zero at the ReLU, whose subgradient is zero: one pre-activation of the
    ReLU-only case, and a whole channel (scale and shift 0) with BN."""
    with_bn, relu = KINDS[kind]
    z = rng.normal(size=(3, 3, 4, 5))
    z[1, 2, 2, 3] = 0.0
    params = None
    if with_bn:
        params = BNParams(rng.normal(1.0, 0.3, size=3), rng.normal(size=3),
                          rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
        params.scale[1] = params.shift[1] = 0.0
    up = rng.normal(size=z.shape)

    def loss():
        out, _, _ = epilogue(z, params, relu)
        return float((out * up).sum())

    out, act, cache = epilogue(z, params, relu)
    if relu:
        assert out.min() == 0.0
    d_z, d_scale, d_shift = epilogue_grad(up, act, cache)
    smooth = np.ones(z.shape, dtype=bool)
    if not with_bn:
        assert d_z[1, 2, 2, 3] == 0.0 and d_scale is None and d_shift is None
        smooth[1, 2, 2, 3] = False
    assert max_relative_error(d_z[smooth], finite_difference(loss, z)[smooth]) < 1e-5
    if with_bn:
        # channel 1 sits at the kink only with the ReLU; its scale and shift are
        # perturbed off it there, so only the others are compared with differences
        keep = [0, 2] if relu else [0, 1, 2]
        if relu:
            assert d_scale[1] == d_shift[1] == 0.0 and not d_z[:, 1].any()
        for got, array in ((d_scale, params.scale), (d_shift, params.shift)):
            assert max_relative_error(got[keep], finite_difference(loss, array)[keep]) < 1e-5


@pytest.mark.parametrize("kind", KINDS)
def test_epilogue_is_the_same_at_any_worker_count(rng, kind):
    """Output, running statistics and gradients at 1, 2 and 3 workers.  The BN
    sums are per-image rows added in image order, so they agree bit for bit.
    The padded input a convolution builds from the epilogue replicates its edge."""
    with_bn, relu = KINDS[kind]
    z = rng.normal(0.3, 2.0, size=(5, 4, 7, 6))
    up = rng.normal(size=z.shape)
    bn = BNParams(rng.normal(1.0, 0.5, size=4), rng.normal(size=4), rng.normal(size=4),
                  rng.uniform(0.5, 2.0, size=4)) if with_bn else None
    runs = []
    for workers in (1, 2, 3):
        params = bn.copy() if with_bn else None
        with blas_count(workers), tensor._spend_blas_threads():
            out, act, cache = epilogue(z, params, relu)
            grads = epilogue_grad(up, act, cache)
        stats = (params.running_mean, params.running_var) if with_bn else ()
        runs.append([out, *stats, *(g for g in grads if g is not None)])
        for image, want in zip(z, pad_same(out, 3)):
            xp = tensor._padded_input(image, act, 0, 7, 1, np.empty(4 * 9 * 8), np.empty(4 * 7 * 6))
            assert np.array_equal(xp, want)
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)
    out = runs[0][0]
    if with_bn and relu:
        mask = out > 0.0
        want = batchnorm_backward_three_term(z, up * mask, bn.scale, bn.epsilon)
        for got, ref in zip(runs[0][3:], want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestPointwiseOps:
    """ReLU without BN, as :func:`bn_relu` gives it for a BN-folded layer and the next
    convolution applies it (:func:`epilogue`)."""

    def test_relu_all_negative(self):
        assert not epilogue(np.full((1, 1, 2, 2), -3.0), None, True)[0].any()

    def test_relu_all_positive_is_identity(self, rng):
        x = np.abs(rng.normal(size=(2, 3, 4, 4))) + 0.1
        assert np.array_equal(epilogue(x, None, True)[0], x)

    def test_relu_matches_elementwise_oracle(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        expected = np.array([[[[max(v, 0.0) for v in row] for row in ch] for ch in b]
                             for b in x])
        assert np.array_equal(epilogue(x, None, True)[0], expected)

    def test_relu_grad_masks_nonpositive(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        up = np.full(x.shape, 10.0)
        _, act, cache = epilogue(x, None, True)
        assert np.array_equal(epilogue_grad(up, act, cache)[0], [[[[0.0, 0.0, 10.0]]]])


class TestRounding:
    @given(st.integers(-10000, 10000))
    def test_half_away_on_exact_halves(self, n):
        x = n + 0.5 if n >= 0 else n - 0.5
        expected = n + 1 if n >= 0 else n - 1
        assert round_half_away(x) == expected

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=200)
    def test_half_away_within_half(self, x):
        r = float(round_half_away(x))
        assert abs(r - x) <= 0.5
        assert r == int(r)


def test_forward_outputs_stay_finite(rng):
    x = rng.normal(size=(2, 3, 6, 6)) * 100
    params = ConvParams(rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4))
    out = conv2d(x, params)
    assert np.all(np.isfinite(out))
    bn_out, _, _ = epilogue(out, BNParams.identity(4), relu=True)
    assert np.all(np.isfinite(bn_out))
