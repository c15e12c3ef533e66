import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnlf import codec, tensor
from cnnlf.errors import ConfigError, DataError, NonFiniteLossError, ShapeError
from cnnlf.network import NetworkConfig, build_cnnf, forward_network, normalize_inputs
from cnnlf.tensor import BNParams
from cnnlf.model_io import model_hash
from cnnlf.dfp import quantize_model
from cnnlf.trainer import (LossBreakdown, TrainConfig, global_grad_norm, lda_regularizer,
                           loss_eq1, quant_aware_finetune, sgd_step, train)

from .conftest import blas_count
from .oracles import finite_difference, lda_pairwise, lda_pairwise_loops, max_relative_error


def make_batch(rng, size, patch=8, qps=(22, 37)):
    """The three arrays of a batch: (size, patch, patch) decoded and original patches
    and ``size`` QPs."""
    patches = []
    for i in range(size):
        original = rng.integers(0, 256, size=(patch, patch)).astype(np.uint8)
        noise = rng.integers(-6, 7, size=(patch, patch))
        decoded = np.clip(original.astype(np.int64) + noise, 0, 255).astype(np.uint8)
        patches.append((decoded, original, qps[i % len(qps)]))
    decoded, original, qps = zip(*patches)
    return np.stack(decoded), np.stack(original), np.array(qps)


def make_triples(rng, size, **kwargs):
    """``make_batch`` as a sequence of (decoded, original, qp) triples, as ``train`` takes."""
    return list(zip(*make_batch(rng, size, **kwargs)))


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
        decoded, _, qps = make_batch(rng, 4)
        batch = (decoded, decoded.copy(), qps)
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

    def test_original_of_another_shape_is_a_shape_error(self, rng, train_cfg):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        decoded, original, qps = make_batch(rng, 4)
        for other in (original[:, :, :7], original[:3], original[..., None]):
            with pytest.raises(ShapeError, match="original patches"):
                loss_eq1(build_cnnf(cfg, rng_seed=3), (decoded, other, qps), train_cfg)

    @pytest.mark.parametrize("pixel", [300, -1])
    def test_original_out_of_range_is_a_data_error(self, rng, train_cfg, pixel):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        decoded, original, qps = make_batch(rng, 4)
        original = original.astype(np.int64)
        original[2, 3, 3] = pixel
        with pytest.raises(DataError, match="patch 2: pixel values"):
            loss_eq1(build_cnnf(cfg, rng_seed=3), (decoded, original, qps), train_cfg)

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

    @pytest.mark.parametrize("bn, relu", [(True, True), (True, False), (False, True)],
                             ids=["bn+relu", "bn", "relu"])
    def test_last_layer_epilogue_gradients_match_finite_differences(self, rng, bn, relu):
        """A loaded model may end in BN or ReLU, which then act on the network output."""
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(3, 3))
        model = build_cnnf(cfg, rng_seed=21, zero_init_output=False)
        model.layers[-1].bn = BNParams([0.8], [0.3], [0.0], [1.0]) if bn else None
        model.layers[-1].relu = relu
        tc = TrainConfig(batch_size=2, lambda_w=1e-2, lambda_s=1e-2, lambda_lda=1e-2)
        batch = make_batch(rng, 2)

        def loss():
            return loss_eq1(model, batch, tc)[0].total

        floor = 1e-4
        _, grads = loss_eq1(model, batch, tc)
        for layer, g in zip(model.layers, grads):
            pairs = [(g.weights, layer.conv.weights), (g.bias, layer.conv.bias)]
            if layer.bn is not None:
                pairs += [(g.bn_scale, layer.bn.scale), (g.bn_shift, layer.bn.shift)]
            for got, array in pairs:
                assert max_relative_error(got, finite_difference(loss, array), floor) < 1e-4

    def test_peak_memory_holds_one_conv_output_per_layer(self, rng):
        """The traced peak of a batch-4 step stays below L + 4 arrays of N*C*H*W float64
        values: the L - 1 conv outputs the forward keeps, and the upstream gradient, BN's
        ``d_z`` and the conv's ``d_x`` of the backward pass, with room for the conv's
        partials and buffers.  A padded activation kept for every layer as well would
        add L - 1 more."""
        layers, channels, n, side = 8, 16, 4, 24
        model = build_cnnf(NetworkConfig(num_conv_layers=layers, base_filters=channels),
                           rng_seed=3, zero_init_output=False)
        tc = TrainConfig(batch_size=n)
        batch = make_batch(rng, n, patch=side)
        loss_eq1(model, batch, tc)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            loss_eq1(model, batch, tc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (layers + 4) * n * channels * side * side * 8


class TestBatchToTensors:
    """How patches become the network input and target: ``loss_eq1`` normalizes a batch
    of arrays, and ``train`` stacks and checks its dataset once."""

    def test_matches_per_patch_normalization(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3, zero_init_output=False)
        decoded, original, qps = make_batch(rng, 5, qps=(0, 22, 51))
        inp = np.stack([np.stack([d.astype(np.float64) / 255, np.full(d.shape, qp / 51)])
                        for d, qp in zip(decoded, qps)])
        assert np.array_equal(normalize_inputs(decoded, qps, cfg), inp)
        out, _ = forward_network(model.copy(), inp)
        resid = out - original[:, None].astype(np.float64) / 255
        breakdown, _ = loss_eq1(model, (decoded, original, qps), TrainConfig(batch_size=5))
        assert breakdown.mse == float((resid * resid).sum() / (2.0 * 5))

    @pytest.mark.parametrize("pixel, qp, match", [(256, 22, "patch 2: pixel values"),
                                                  (-1, 22, "patch 2: pixel values"),
                                                  (0, 52, "patch 2: qp 52"),
                                                  (0, float("nan"), "patch 2: qp nan")])
    def test_bad_patch_is_named_with_a_data_error(self, rng, pixel, qp, match):
        """Named by its dataset index before the first step, whether or not a batch
        would hold it: with 10 patches and batches of 4, two of them are in none."""
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        ds = [(d.astype(np.int64), o, q) for d, o, q in make_triples(rng, 10)]
        ds[2][0][1, 1] = pixel
        ds[2] = (ds[2][0], ds[2][1], qp)
        steps = []
        with pytest.raises(DataError, match=match):
            train(build_cnnf(cfg, rng_seed=3), ds, TrainConfig(batch_size=4, epochs=1),
                  callbacks=lambda *step: steps.append(step))
        assert steps == []
        with pytest.raises(DataError, match=match.replace("patch 2", "patch 0")):
            loss_eq1(build_cnnf(cfg, rng_seed=3), [np.stack(a[2:6]) for a in zip(*ds)],
                     TrainConfig(batch_size=4))

    def test_bad_last_patch_or_original_is_named(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        for which in (0, 1):
            ds = [(d.astype(np.int64), o.astype(np.int64), q)
                  for d, o, q in make_triples(rng, 10)]
            ds[9][which][0, 0] = 300
            with pytest.raises(DataError, match="patch 9: pixel values"):
                train(build_cnnf(cfg, rng_seed=3), ds, TrainConfig(batch_size=4, epochs=1))

    def test_ragged_batch_is_a_shape_error(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        for ragged in (0, 1):  # a decoded patch, or an original one, of another shape
            ds = make_triples(rng, 4)
            patch = list(ds[1])
            patch[ragged] = patch[ragged][:6]
            ds[1] = tuple(patch)
            with pytest.raises(ShapeError, match="one shape"):
                train(build_cnnf(cfg, rng_seed=3), ds, TrainConfig(batch_size=4, epochs=1))


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
        return make_triples(rng, n, patch=8)

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
        # 2->18 and 10->1 are a first layer and a head, the two thin band forms
        cfg = NetworkConfig(num_conv_layers=3, base_filters=18, per_layer_filters=(18, 10))
        ds = self._dataset(rng)
        tc = TrainConfig(batch_size=4, base_lr=0.005, epochs=2, lr_decay_epoch=2, rng_seed=17)
        blas = tensor._openblas()
        runs = []
        for workers in (1, 2, 3):
            with blas_count(workers):
                with tensor._spend_blas_threads():
                    loss, grads = loss_eq1(build_cnnf(cfg, rng_seed=3, zero_init_output=False),
                                           [np.stack(a) for a in zip(*ds[:4])], tc)
                model, history = train(build_cnnf(cfg, rng_seed=3, zero_init_output=False), ds, tc)
                runs.append((loss, [a for g in grads for a in g.arrays()], history,
                             model_hash(model)))
                assert blas is None or blas.get() == workers
                broken = build_cnnf(cfg, rng_seed=3)
                broken.layers[0].conv.weights[0, 0, 0, 0] = np.inf
                with pytest.raises(NonFiniteLossError), np.errstate(invalid="ignore"):
                    train(broken, ds, tc)
                assert blas is None or blas.get() == workers
        (loss, grads, history, digest), *others = runs
        for other_loss, other_grads, other_history, other_digest in others:
            assert other_loss == loss and other_history == history
            assert len(other_grads) == len(grads)
            assert all(np.array_equal(a, b) for a, b in zip(other_grads, grads))
            assert other_digest == digest

    def test_patch_set_and_its_items_train_alike(self):
        """A step's batch is the gather, in the seeded permutation's order, of the
        stacked dataset, a PatchSet or a list of its triples alike."""
        ds = codec.make_dataset([("a", codec.make_test_image(40, 40, seed=2))], qps=(22, 37),
                                patch=16)
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        tc = TrainConfig(batch_size=4, base_lr=0.005, epochs=2, lr_decay_epoch=2, rng_seed=17)
        idx = np.random.default_rng(17).permutation(len(ds))[:4]
        first, _ = loss_eq1(build_cnnf(cfg, rng_seed=3, zero_init_output=False),
                            (ds.decoded[idx], ds.original[idx], np.asarray(ds.qps)[idx]), tc)
        hashes = []
        for dataset in (ds, ds.items()):
            seen = []
            model, _ = train(build_cnnf(cfg, rng_seed=3, zero_init_output=False), dataset, tc,
                             callbacks=lambda e, s, b, lr: seen.append(b.total))
            assert len(seen) == 4 and seen[0] == first.total
            hashes.append(model_hash(model))
        assert hashes[0] == hashes[1]

    def test_dataset_smaller_than_batch(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        with pytest.raises(ConfigError, match="smaller than one batch"):
            train(model, self._dataset(rng, n=3), TrainConfig(batch_size=4))

    def test_patch_below_receptive_field(self, rng):
        cfg = NetworkConfig(num_conv_layers=5, base_filters=4, per_layer_filters=(4,) * 4)
        model = build_cnnf(cfg, rng_seed=3)
        ds = make_triples(rng, 6, patch=8)  # receptive field is 11
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
        for layer, q in zip(model.layers, quantize_model(model, table).dequantized().layers):
            layer.conv.weights = q.conv.weights
            layer.conv.bias = q.conv.bias
        before = model_hash(model)
        tc = TrainConfig(batch_size=4, base_lr=0.0, epochs=1, lambda_w=0, lambda_s=0,
                         lambda_lda=0)
        out, _ = quant_aware_finetune(model, make_triples(rng, 8), table, tc)
        assert model_hash(out) == before

    def test_quantized_forward_equals_round_then_forward(self, rng):
        model = self._folded()
        before = model_hash(model)
        table = self._fl_table(model)
        view = quantize_model(model, table).dequantized()
        assert model_hash(model) == before
        assert [(l.bn, l.relu) for l in view.layers] == [(l.bn, l.relu) for l in model.layers]
        # oracle: each parameter rounded half away onto its grid and clipped to its bits
        rounded = model.copy()
        for layer, fl in zip(rounded.layers, table.layers):
            for name, bits, frac in (("weights", 8, fl.fl_w), ("bias", 32, fl.fl_b)):
                m = tensor.round_half_away(getattr(layer.conv, name) * 2.0 ** frac)
                setattr(layer.conv, name,
                        np.clip(m, -2.0 ** (bits - 1), 2.0 ** (bits - 1) - 1) * 2.0 ** -frac)
        decoded, _, qps = make_batch(rng, 4)
        inp = normalize_inputs(decoded, qps, model.config)
        out_view, _ = forward_network(view, inp)
        out_rounded, _ = forward_network(rounded, inp)
        assert np.array_equal(out_view, out_rounded)

    def test_finetune_reduces_quantized_mse(self, rng):
        model = self._folded(rng_seed=11)
        table = self._fl_table(model)
        decoded, original, qps = make_batch(rng, 24, patch=8)
        ds = list(zip(decoded, original, qps))
        tc = TrainConfig(batch_size=8, base_lr=2e-4, epochs=3, lr_decay_epoch=3,
                         lambda_w=0, lambda_s=0, lambda_lda=0, rng_seed=1)

        def quantized_mse(m):
            out, _ = forward_network(quantize_model(m, table).dequantized(),
                                     normalize_inputs(decoded, qps, m.config))
            return float(((out - original[:, None] / m.config.pixel_max) ** 2).sum())

        before = quantized_mse(model)
        tuned, _ = quant_aware_finetune(model.copy(), ds, table, tc)
        assert quantized_mse(tuned) <= before

    def test_train_with_fl_table_steps_on_the_quantized_view(self, rng):
        model = self._folded()
        table = self._fl_table(model)
        batch = make_batch(rng, 8, patch=6)  # below the receptive field of 7, as fine-tuning allows
        tc = TrainConfig(batch_size=8, base_lr=0.0, epochs=1, lambda_w=0, lambda_s=0,
                         lambda_lda=0)
        seen = []
        train(model, list(zip(*batch)), tc, callbacks=lambda e, s, b, lr: seen.append(b.mse),
              fl_table=table)
        quantized, _ = loss_eq1(quantize_model(model, table).dequantized(), batch, tc)
        plain, _ = loss_eq1(model, batch, tc)
        assert seen == [pytest.approx(quantized.mse, rel=1e-12)]
        assert seen[0] != pytest.approx(plain.mse, rel=1e-9)

    def test_bn_model_rejected(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        with pytest.raises(ConfigError, match="BN-folded"):
            quant_aware_finetune(model, make_triples(rng, 4), None, TrainConfig(batch_size=4))

    def test_straight_through_steps_need_a_bn_folded_model(self, rng):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 3))
        model = build_cnnf(cfg, rng_seed=3)
        table = self._fl_table(self._folded())
        with pytest.raises(ConfigError, match="BN-folded"):
            train(model, make_triples(rng, 4), TrainConfig(batch_size=4), fl_table=table)

    def test_missing_fl_entries_rejected(self, rng):
        from cnnlf.dfp import FLTable, LayerFL
        model = self._folded()
        short = FLTable([LayerFL(8, 16, 15)] * 2)
        with pytest.raises(ConfigError, match="covers 2 layers"):
            quant_aware_finetune(model, make_triples(rng, 4), short, TrainConfig(batch_size=4))
