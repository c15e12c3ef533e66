from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnlf import tensor
from cnnlf.errors import ConfigError, NonFiniteLossError
from cnnlf.network import NetworkConfig, build_cnnf, forward_network
from cnnlf.model_io import model_hash
from cnnlf.trainer import (LossBreakdown, TrainConfig, global_grad_norm, lda_regularizer,
                           loss_eq1, quant_aware_finetune, quantized_view, sgd_step, train)

from .conftest import blas_count
from .oracles import finite_difference, lda_pairwise, lda_pairwise_loops, max_relative_error


def make_batch(rng, size, patch=8, qps=(22, 37)):
    batch = []
    for i in range(size):
        original = rng.integers(0, 256, size=(patch, patch)).astype(np.uint8)
        noise = rng.integers(-6, 7, size=(patch, patch))
        decoded = np.clip(original.astype(np.int64) + noise, 0, 255).astype(np.uint8)
        batch.append((decoded, original, qps[i % len(qps)]))
    return batch


@pytest.fixture
def train_cfg():
    return TrainConfig(batch_size=4, base_lr=0.01, epochs=2, lr_decay_epoch=2, rng_seed=9)


@st.composite
def lda_filters(draw):
    """Filter banks with and without ties: random, duplicated, all-zero,
    integer-valued (equal norms), rescaled copies and signed zeros."""
    c, cin, k = draw(st.integers(2, 12)), draw(st.integers(1, 3)), draw(st.sampled_from([1, 3]))
    shape = (c, cin, k, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "duplicated", "zero", "integer", "rescaled",
                                 "signed-zeros"]))
    if kind == "random":
        w = rng.normal(size=shape)
        w[rng.random(c) < 0.2] = 0.0
    elif kind == "zero":
        w = np.zeros(shape)
    elif kind == "integer":
        w = rng.integers(-2, 3, size=shape).astype(np.float64)
    elif kind == "signed-zeros":
        w = rng.choice([-0.0, 0.0, 1.0, -1.0], size=shape)
    else:
        base = rng.normal(size=(draw(st.integers(1, c)), *shape[1:]))
        w = base[rng.integers(0, len(base), size=c)]
        if kind == "rescaled":
            w *= rng.uniform(0.1, 10.0, size=c)[:, None, None, None]
    return w


@given(lda_filters())
@settings(max_examples=300, deadline=None)
def test_lda_regularizer_matches_pairwise_oracle(w):
    value, grad = lda_regularizer(w)
    want_value, want_grad = lda_pairwise(w)
    assert np.array_equal(grad, want_grad)
    assert abs(value - want_value) <= 1e-12 * abs(want_value)


class TestLdaRegularizer:
    def test_identical_filters_zero(self):
        w = np.tile(np.arange(12.0).reshape(1, 3, 2, 2), (4, 1, 1, 1))
        value, grad = lda_regularizer(w)
        assert value == 0.0
        assert not grad.any()

    def test_scale_invariance(self, rng):
        base = rng.normal(size=(1, 2, 3, 3))
        w = np.concatenate([base, 3.7 * base], axis=0)
        value, _ = lda_regularizer(w)
        assert value < 1e-12

    def test_scaling_one_filter_leaves_value_unchanged(self, rng):
        w = rng.normal(size=(5, 2, 3, 3))
        v1, _ = lda_regularizer(w)
        w2 = w.copy()
        w2[2] *= 4.2
        v2, _ = lda_regularizer(w2)
        assert abs(v1 - v2) < 1e-12

    def test_matches_pairwise_loop_oracle(self, rng):
        w = rng.normal(size=(3, 2, 3, 3))
        value, _ = lda_regularizer(w)
        assert abs(value - lda_pairwise_loops(w)) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        w = rng.normal(size=(3, 2, 3, 3))

        def loss():
            return lda_regularizer(w)[0]

        _, grad = lda_regularizer(w)
        assert max_relative_error(grad, finite_difference(loss, w)) < 1e-4

    def test_single_filter_is_zero(self, rng):
        value, grad = lda_regularizer(rng.normal(size=(1, 2, 3, 3)))
        assert value == 0.0 and not grad.any()


class TestLossEq1:
    def test_zero_loss_when_outputs_equal_targets(self, rng):
        # a zero model passes the reconstruction through; with targets equal
        # to the decoded patches the residual is exactly zero
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        for layer in model.layers:
            layer.conv.weights[:] = 0.0
        tc = TrainConfig(batch_size=4, lambda_w=0.0, lambda_s=0.0, lambda_lda=0.0)
        batch = [(d, d.copy(), qp) for d, _, qp in make_batch(rng, 4)]
        breakdown, _ = loss_eq1(model, batch, tc)
        assert breakdown.mse == 0.0
        assert breakdown.total == 0.0

    def test_zero_weight_model_reg_terms(self, rng, train_cfg):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        for layer in model.layers:
            layer.conv.weights[:] = 0.0
        breakdown, _ = loss_eq1(model, make_batch(rng, 4), train_cfg)
        assert breakdown.reg_w == 0.0
        # scales start at 1, so reg_s equals the BN channel count
        assert breakdown.reg_s == 4 + 3
        assert breakdown.reg_lda == 0.0

    def test_composition_identity_exact(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        tc = TrainConfig(batch_size=4, lambda_w=0.13, lambda_s=0.07, lambda_lda=0.029)
        b, _ = loss_eq1(model, make_batch(rng, 4), tc)
        assert b.total == b.mse + 0.13 * b.reg_w + 0.07 * b.reg_s + 0.029 * b.reg_lda

    def test_wrong_batch_size(self, rng, train_cfg):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        with pytest.raises(ConfigError, match="batch"):
            loss_eq1(model, make_batch(rng, 3), train_cfg)

    def test_nonfinite_loss_names_term(self, rng, train_cfg):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        model.layers[0].conv.weights[0, 0, 0, 0] = np.inf
        with (pytest.raises(NonFiniteLossError, match="'(mse|reg_w)'"),
              np.errstate(invalid="ignore")):
            loss_eq1(model, make_batch(rng, 4), train_cfg)

    def test_all_gradients_match_finite_differences(self, rng):
        """Every parameter of the composite loss, against central differences."""
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(3, 3))
        model = build_cnnf(cfg, rng_seed=21, zero_init_output=False)
        tc = TrainConfig(batch_size=2, lambda_w=1e-2, lambda_s=1e-2, lambda_lda=1e-2)
        batch = make_batch(rng, 2)

        def loss():
            return loss_eq1(model, batch, tc)[0].total

        # conv biases under train-mode BN have true gradient zero (the batch
        # mean cancels them); the floor keeps FD noise from reading as error
        floor = 1e-4
        _, grads = loss_eq1(model, batch, tc)
        for layer, g in zip(model.layers, grads):
            assert max_relative_error(g.weights,
                                      finite_difference(loss, layer.conv.weights), floor) < 1e-4
            assert max_relative_error(g.bias,
                                      finite_difference(loss, layer.conv.bias), floor) < 1e-4
            if layer.bn is not None:
                assert max_relative_error(g.bn_scale,
                                          finite_difference(loss, layer.bn.scale), floor) < 1e-4
                assert max_relative_error(g.bn_shift,
                                          finite_difference(loss, layer.bn.shift), floor) < 1e-4


class TestSgdStep:
    def test_zero_gradients_leave_model_unchanged(self, rng, train_cfg):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        _, grads = loss_eq1(model, make_batch(rng, 4), train_cfg)
        for g in grads:
            for arr in g.arrays():
                arr[:] = 0.0
        before = model_hash(model)  # after the loss call: isolates the step itself
        sgd_step(model, grads, lr=0.5, grad_clip_norm=1.0)
        assert model_hash(model) == before

    def test_clip_scales_gradients(self):
        cfg = NetworkConfig(num_conv_layers=2, base_filters=1, per_layer_filters=(1,))
        model = build_cnnf(cfg, rng_seed=0)
        from cnnlf.trainer import LayerGrads
        # craft gradients with global norm 10
        grads = []
        first = True
        total = sum(l.conv.weights.size + l.conv.bias.size
                    + (l.bn.scale.size + l.bn.shift.size if l.bn else 0)
                    for l in model.layers)
        unit = 10.0 / np.sqrt(total)
        for layer in model.layers:
            grads.append(LayerGrads(
                np.full_like(layer.conv.weights, unit),
                np.full_like(layer.conv.bias, unit),
                np.full_like(layer.bn.scale, unit) if layer.bn else None,
                np.full_like(layer.bn.shift, unit) if layer.bn else None))
        assert abs(global_grad_norm(grads) - 10.0) < 1e-9
        w_before = model.layers[0].conv.weights.copy()
        sgd_step(model, grads, lr=1.0, grad_clip_norm=5.0)
        # norm 10 against clip 5 applies exactly half the gradient
        applied = w_before - model.layers[0].conv.weights
        assert np.allclose(applied, 0.5 * unit)

    def test_two_steps_match_scalar_hand_computation(self):
        cfg = NetworkConfig(num_conv_layers=2, kernel_size=1, base_filters=1,
                            per_layer_filters=(1,))
        model = build_cnnf(cfg, rng_seed=0)
        from cnnlf.trainer import LayerGrads

        def fixed_grads(value):
            out = []
            for layer in model.layers:
                out.append(LayerGrads(
                    np.full_like(layer.conv.weights, value),
                    np.full_like(layer.conv.bias, value),
                    np.full_like(layer.bn.scale, value) if layer.bn else None,
                    np.full_like(layer.bn.shift, value) if layer.bn else None))
            return out

        theta0 = model.layers[0].conv.weights[0, 0, 0, 0]
        nparams = sum(len(arr) for g in fixed_grads(1.0) for arr in
                      [a.reshape(-1) for a in g.arrays()])
        # g1 norm below clip: applied as-is; g2 norm above clip: scaled
        g1, g2 = 0.1, 2.0
        clip = 1.0
        lr = 0.25
        sgd_step(model, fixed_grads(g1), lr, clip)
        sgd_step(model, fixed_grads(g2), lr, clip)
        norm1 = g1 * np.sqrt(nparams)
        norm2 = g2 * np.sqrt(nparams)
        eff1 = g1 if norm1 <= clip else g1 * clip / norm1
        eff2 = g2 if norm2 <= clip else g2 * clip / norm2
        expected = theta0 - lr * (eff1 + eff2)
        assert abs(model.layers[0].conv.weights[0, 0, 0, 0] - expected) < 1e-12


class TestTrain:
    def _dataset(self, rng, n=12):
        return make_batch(rng, n, patch=8)

    def test_zero_epochs_returns_model_unchanged(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        before = model_hash(model)
        tc = TrainConfig(batch_size=4, epochs=0)
        out, history = train(model, self._dataset(rng), tc)
        assert model_hash(out) == before
        assert history == []

    def test_fixed_seed_is_bit_reproducible(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        ds = self._dataset(rng)
        tc = TrainConfig(batch_size=4, base_lr=0.005, epochs=2, lr_decay_epoch=2, rng_seed=17)
        m1, h1 = train(build_cnnf(cfg, rng_seed=3, zero_init_output=False), ds, tc)
        m2, h2 = train(build_cnnf(cfg, rng_seed=3, zero_init_output=False), ds, tc)
        assert model_hash(m1) == model_hash(m2)
        assert all(a.total == b.total for a, b in zip(h1, h2))

    def test_two_workers_match_one_and_the_count_is_restored(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=8, per_layer_filters=(8, 6))
        ds = self._dataset(rng)
        tc = TrainConfig(batch_size=4, base_lr=0.005, epochs=2, lr_decay_epoch=2, rng_seed=17)
        controls = tensor._openblas_controls()
        runs = []
        for workers in (1, 2):
            with blas_count(workers):
                runs.append(train(build_cnnf(cfg, rng_seed=3, zero_init_output=False), ds, tc))
                assert controls is None or controls[0]() == workers
                broken = build_cnnf(cfg, rng_seed=3)
                broken.layers[0].conv.weights[0, 0, 0, 0] = np.inf
                with pytest.raises(NonFiniteLossError), np.errstate(invalid="ignore"):
                    train(broken, ds, tc)
                assert controls is None or controls[0]() == workers
        (m1, h1), (m2, h2) = runs
        for a, b in zip(h1, h2):
            for x, y in zip(astuple(a), astuple(b)):
                assert abs(y - x) <= 1e-12 * abs(x)
        for l1, l2 in zip(m1.layers, m2.layers):
            x, y = l1.conv.weights, l2.conv.weights
            assert np.abs(y - x).max() <= 1e-12 * np.abs(x).max()

    def test_dataset_smaller_than_batch(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        with pytest.raises(ConfigError, match="smaller than one batch"):
            train(model, self._dataset(rng, n=3), TrainConfig(batch_size=4))

    def test_patch_below_receptive_field(self, rng):
        cfg = NetworkConfig(num_conv_layers=5, base_filters=4, per_layer_filters=(4,) * 4)
        model = build_cnnf(cfg, rng_seed=3)
        ds = make_batch(rng, 6, patch=8)  # receptive field is 11
        with pytest.raises(ConfigError, match="receptive field"):
            train(model, ds, TrainConfig(batch_size=4, epochs=1))

    def test_lr_schedule(self):
        tc = TrainConfig(base_lr=0.1, lr_decay_epoch=24, lr_decay_factor=0.1)
        assert tc.lr_at(0) == 0.1
        assert tc.lr_at(23) == 0.1
        assert abs(tc.lr_at(24) - 0.01) < 1e-15

    def test_callback_sees_every_step(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        seen = []
        tc = TrainConfig(batch_size=4, base_lr=0.001, epochs=2, lr_decay_epoch=2)
        train(model, self._dataset(rng, n=9), tc,
              callbacks=lambda e, s, b, lr: seen.append((e, s, lr)))
        assert seen == [(0, 0, 0.001), (0, 1, 0.001), (1, 0, 0.001), (1, 1, 0.001)]


class TestQuantAwareFinetune:
    def _folded(self, rng_seed=3):
        from cnnlf.compress import fold_batchnorm
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        return fold_batchnorm(build_cnnf(cfg, rng_seed=rng_seed, zero_init_output=False))

    def _fl_table(self, model):
        from cnnlf.dfp import build_fl_table
        rng = np.random.default_rng(0)
        calib = [(rng.integers(0, 256, size=(16, 16)).astype(np.uint8), 27)]
        return build_fl_table(model, calib)

    def test_grid_weights_and_zero_lr_fixed_point(self, rng):
        model = self._folded()
        table = self._fl_table(model)
        # snap parameters onto the grid first
        for layer, q in zip(model.layers, quantized_view(model, table).layers):
            layer.conv.weights = q.conv.weights
            layer.conv.bias = q.conv.bias
        before = model_hash(model)
        tc = TrainConfig(batch_size=4, base_lr=0.0, epochs=1, lambda_w=0, lambda_s=0,
                         lambda_lda=0)
        out, _ = quant_aware_finetune(model, make_batch(rng, 8), table, tc)
        assert model_hash(out) == before

    def test_quantized_forward_equals_round_then_forward(self, rng):
        from cnnlf.dfp import quantize_model
        model = self._folded()
        before = model_hash(model)
        table = self._fl_table(model)
        view = quantized_view(model, table)
        assert model_hash(model) == before
        assert [(l.bn, l.relu) for l in view.layers] == [(l.bn, l.relu) for l in model.layers]
        # oracle: the float model the integer path computes with
        dequantized = quantize_model(model, table).dequantized()
        for got, want in zip(view.layers, dequantized.layers):
            assert np.array_equal(got.conv.weights, want.conv.weights)
            assert np.array_equal(got.conv.bias, want.conv.bias)
        from cnnlf.trainer import _batch_to_tensors
        inp, _ = _batch_to_tensors(make_batch(rng, 4), model.config)
        out_view, _ = forward_network(view, inp)
        out_dequantized, _ = forward_network(dequantized, inp)
        assert np.array_equal(out_view, out_dequantized)

    def test_finetune_reduces_quantized_mse(self, rng):
        model = self._folded(rng_seed=11)
        table = self._fl_table(model)
        ds = make_batch(rng, 24, patch=8)
        tc = TrainConfig(batch_size=8, base_lr=2e-4, epochs=3, lr_decay_epoch=3,
                         lambda_w=0, lambda_s=0, lambda_lda=0, rng_seed=1)

        def quantized_mse(m):
            from cnnlf.trainer import _batch_to_tensors
            inp, target = _batch_to_tensors(ds, m.config)
            out, _ = forward_network(quantized_view(m, table), inp)
            return float(((out - target) ** 2).sum())

        before = quantized_mse(model)
        tuned, _ = quant_aware_finetune(model.copy(), ds, table, tc)
        assert quantized_mse(tuned) <= before

    def test_train_with_fl_table_steps_on_the_quantized_view(self, rng):
        model = self._folded()
        table = self._fl_table(model)
        ds = make_batch(rng, 8, patch=6)  # below the receptive field of 7, as fine-tuning allows
        tc = TrainConfig(batch_size=8, base_lr=0.0, epochs=1, lambda_w=0, lambda_s=0,
                         lambda_lda=0)
        seen = []
        train(model, ds, tc, callbacks=lambda e, s, b, lr: seen.append(b.mse), fl_table=table)
        quantized, _ = loss_eq1(quantized_view(model, table), ds, tc)
        plain, _ = loss_eq1(model, ds, tc)
        assert seen == [pytest.approx(quantized.mse, rel=1e-12)]
        assert seen[0] != pytest.approx(plain.mse, rel=1e-9)

    def test_bn_model_rejected(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        with pytest.raises(ConfigError, match="BN-folded"):
            quant_aware_finetune(model, make_batch(rng, 4), None, TrainConfig(batch_size=4))

    def test_missing_fl_entries_rejected(self, rng):
        from cnnlf.dfp import FLTable, LayerFL
        model = self._folded()
        short = FLTable([LayerFL(8, 16, 15)] * 2)
        with pytest.raises(ConfigError, match="covers 2 layers"):
            quant_aware_finetune(model, make_batch(rng, 4), short, TrainConfig(batch_size=4))
