from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnlf import tensor
from cnnlf.errors import ShapeError
from cnnlf.tensor import (BNParams, ConvParams, batchnorm_backward, batchnorm_forward, conv2d,
                          conv2d_grad, relu, relu_grad, round_half_away)

from .conftest import blas_count
from .oracles import (batchnorm_backward_three_term, conv2d_grad_loops, conv2d_loops,
                      finite_difference, max_relative_error)


@st.composite
def conv_case(draw):
    """Input, parameters, upstream gradient, a band size, whether to ask for the
    input gradient, whether to pass the padded input and a worker count, for one
    random convolution.  Planes may be smaller than the kernel.  About half the
    1x1 and 3x3 cases have ``k * k * cout <= cin``, the channels-first path of
    the forward pass; ``cin`` goes up to 12 for that.  Three workers exceed the
    images of every batch drawn and the bands of most planes."""
    k = draw(st.sampled_from([1, 3, 5]))
    n, cout = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if k < 5 and draw(st.booleans()):
        cout = min(cout, 12 // (k * k))
        cin = draw(st.integers(k * k * cout, 12))
    else:
        cin = draw(st.integers(1, 12))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = ConvParams(rng.normal(size=(cout, cin, k, k)), rng.normal(size=cout))
    band_bytes = draw(st.sampled_from([1, 300, tensor.BAND_BYTES]))
    input_grad = draw(st.booleans())
    padded, workers = draw(st.booleans()), draw(st.sampled_from([1, 2, 3]))
    return (rng.normal(size=(n, cin, h, w)), params, rng.normal(size=(n, cout, h, w)),
            band_bytes, input_grad, padded, workers)


@given(conv_case())
@settings(max_examples=100, deadline=None)
def test_conv_and_grad_match_loop_oracles(case):
    x, params, up, band_bytes, input_grad, padded, workers = case
    xp = tensor.pad_same(x, params.kernel_size) if padded else None
    with (mock.patch.object(tensor, "BAND_BYTES", band_bytes), blas_count(workers),
          tensor._spend_blas_threads()):
        out = conv2d(x, params, xp=xp)
        d_x, d_w, d_b = conv2d_grad(x, params, up, input_grad=input_grad, xp=xp)
    assert np.abs(out - conv2d_loops(x, params.weights, params.bias)).max() < 1e-12
    want_x, want_w, want_b = conv2d_grad_loops(x, params.weights, up)
    if input_grad:
        assert d_x.shape == want_x.shape
        assert np.abs(d_x - want_x).max() < 1e-12
    else:
        assert d_x is None
    for got, want in ((d_w, want_w), (d_b, want_b)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


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
        x = rng.normal(size=(1, 2, 5, 5))
        params = ConvParams(rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
        with pytest.raises(ShapeError, match="padded input"):
            conv2d_grad(x, params, np.zeros((1, 3, 5, 5)), xp=x)
        with pytest.raises(ShapeError, match="padded input"):
            conv2d(x, params, xp=tensor.pad_same(x, 5))


class TestBatchnorm:
    def test_identity_on_normalized_input(self, rng):
        x = rng.normal(size=(4, 3, 8, 8))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        params = BNParams.identity(3)
        out, _, _ = batchnorm_forward(x, params)
        # epsilon shrinks unit-variance data by 1 - 1/sqrt(1 + eps) ~ eps/2 per unit
        bound = (1.0 - 1.0 / np.sqrt(1.0 + params.epsilon)) * np.abs(x).max() + 1e-12
        assert np.abs(out - x).max() <= bound
        assert bound < 1e-4

    def test_zero_scale_gives_constant_shift(self, rng):
        params = BNParams.identity(3)
        params.scale[:] = 0.0
        params.shift[:] = [0.1, -0.2, 0.3]
        out, _, _ = batchnorm_forward(rng.normal(size=(4, 3, 6, 6)), params)
        for c, beta in enumerate(params.shift):
            assert np.allclose(out[:, c], beta)

    def test_train_output_statistics(self, rng):
        params = BNParams.identity(3)
        params.scale[:] = [1.5, -0.7, 0.2]
        params.shift[:] = [0.3, 0.0, -1.0]
        out, _, _ = batchnorm_forward(rng.normal(1.0, 3.0, size=(6, 3, 10, 10)), params)
        mean = out.mean(axis=(0, 2, 3))
        std = out.std(axis=(0, 2, 3))
        assert np.abs(mean - params.shift).max() < 1e-9
        # epsilon shrinks the output std by sqrt(var / (var + eps)), far below 1e-9 here
        assert np.abs(std - np.abs(params.scale)).max() < 1e-4

    def test_running_stats_update(self, rng):
        params = BNParams.identity(2)
        x = rng.normal(2.0, 1.5, size=(4, 2, 5, 5))
        _, stats, _ = batchnorm_forward(x, params)
        assert np.allclose(params.running_mean, 0.9 * 0.0 + 0.1 * stats["mean"])
        assert np.allclose(params.running_var, 0.9 * 1.0 + 0.1 * stats["var"])

    def test_zero_variance_never_raises(self):
        x = np.full((4, 1, 3, 3), 5.0)
        out, _, _ = batchnorm_forward(x, BNParams.identity(1))
        assert np.all(np.isfinite(out))

    def test_train_needs_batch_of_two(self, rng):
        with pytest.raises(ShapeError, match="batch size >= 2"):
            batchnorm_forward(rng.normal(size=(1, 2, 4, 4)), BNParams.identity(2))

    def test_backward_matches_finite_differences(self, rng):
        x = rng.normal(size=(3, 2, 4, 4))
        params = BNParams(rng.normal(1.0, 0.3, size=2), rng.normal(size=2),
                          rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
        up = rng.normal(size=(3, 2, 4, 4))

        def loss():
            out, _, _ = batchnorm_forward(x, params)
            return float((out * up).sum())

        _, _, cache = batchnorm_forward(x, params)
        dx, dscale, dshift = batchnorm_backward(up, cache)
        assert max_relative_error(dx, finite_difference(loss, x)) < 1e-5
        assert max_relative_error(dscale, finite_difference(loss, params.scale)) < 1e-5
        assert max_relative_error(dshift, finite_difference(loss, params.shift)) < 1e-5

    def test_backward_matches_three_term_oracle(self, rng):
        x = rng.normal(0.5, 2.0, size=(5, 4, 9, 7))
        params = BNParams(rng.normal(1.0, 0.5, size=4), rng.normal(size=4),
                          rng.normal(size=4), rng.uniform(0.5, 2.0, size=4))
        up = rng.normal(size=x.shape)
        want = batchnorm_backward_three_term(x, up, params.scale, params.epsilon)
        _, _, cache = batchnorm_forward(x, params)
        for got, ref in zip(batchnorm_backward(up, cache), want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_running_stats_match_numpy_mean_and_var(self, rng):
        # a large mean over a small spread: a variance from uncentered sums would drift
        x = rng.normal(40.0, 0.01, size=(16, 5, 11, 9))
        params = BNParams.identity(5)
        before_mean, before_var = params.running_mean.copy(), params.running_var.copy()
        _, stats, _ = batchnorm_forward(x, params)
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        for got, ref in ((stats["mean"], mean), (stats["var"], var),
                         (params.running_mean, 0.9 * before_mean + 0.1 * mean),
                         (params.running_var, 0.9 * before_var + 0.1 * var)):
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


class TestPointwiseOps:
    def test_relu_all_negative(self):
        assert not relu(np.full((1, 1, 2, 2), -3.0)).any()

    def test_relu_all_positive_is_identity(self, rng):
        x = np.abs(rng.normal(size=(2, 3, 4, 4))) + 0.1
        assert np.array_equal(relu(x), x)

    def test_relu_matches_elementwise_oracle(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        expected = np.array([[[[max(v, 0.0) for v in row] for row in ch] for ch in b]
                             for b in x])
        assert np.array_equal(relu(x), expected)

    def test_relu_grad_masks_nonpositive(self, rng):
        x = np.array([[-1.0, 0.0, 2.0]])
        up = np.array([[10.0, 10.0, 10.0]])
        assert np.array_equal(relu_grad(x, up), [[0.0, 0.0, 10.0]])


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
    bn_out, _, _ = batchnorm_forward(out, BNParams.identity(4))
    assert np.all(np.isfinite(bn_out))
