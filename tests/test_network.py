import numpy as np
import pytest

from cnnlf.errors import ConfigError, DataError, ShapeError
from cnnlf import tensor
from cnnlf.network import (NetworkConfig, NetworkModel, build_cnnf, denormalize, filter_plane,
                           forward_float, forward_network, normalize_inputs)

from .oracles import bn_inference_forward


class TestBuild:
    def test_same_seed_bit_identical(self):
        cfg = NetworkConfig()
        a = build_cnnf(cfg, rng_seed=5)
        b = build_cnnf(cfg, rng_seed=5)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.conv.weights, lb.conv.weights)
            assert np.array_equal(la.conv.bias, lb.conv.bias)

    def test_different_seed_differs(self):
        cfg = NetworkConfig()
        a = build_cnnf(cfg, rng_seed=5)
        b = build_cnnf(cfg, rng_seed=6)
        assert not np.array_equal(a.layers[0].conv.weights, b.layers[0].conv.weights)

    def test_compressed_filter_counts(self):
        counts = (45, 54, 58, 48, 51, 40, 31)
        cfg = NetworkConfig(per_layer_filters=counts)
        model = build_cnnf(cfg, rng_seed=0)
        assert tuple(l.conv.out_channels for l in model.layers) == counts + (1,)
        ins = tuple(l.conv.in_channels for l in model.layers)
        assert ins == (2,) + counts

    def test_default_layer1_weight_shape(self):
        model = build_cnnf(NetworkConfig(), rng_seed=0)
        assert model.layers[0].conv.weights.shape == (64, 2, 3, 3)

    def test_bn_initialized_to_identity(self, tiny_model):
        for layer in tiny_model.layers[:-1]:
            assert np.all(layer.bn.scale == 1.0)
            assert not layer.bn.shift.any()

    def test_last_layer_has_no_bn_or_relu(self, tiny_model):
        assert tiny_model.layers[-1].bn is None
        assert not tiny_model.layers[-1].relu

    def test_bad_filter_count_length(self):
        with pytest.raises(ConfigError, match="per_layer_filters"):
            NetworkConfig(num_conv_layers=4, per_layer_filters=(8, 8))

    @pytest.mark.parametrize("fields", [{"bit_depth": 8.0}, {"kernel_size": True},
                                        {"num_conv_layers": 3, "per_layer_filters": (8, 8.0)}])
    def test_integer_fields_reject_floats_and_bools(self, fields):
        with pytest.raises(ConfigError, match="must be an integer"):
            NetworkConfig(**fields)
        assert NetworkConfig(bit_depth=np.int64(10)).pixel_max == 1023

    def test_channel_chain_validated(self, tiny_model):
        layers = [l.copy() for l in tiny_model.layers]
        layers[1].conv.weights = np.zeros((5, 3, 3, 3))
        with pytest.raises(ShapeError, match="input channels"):
            NetworkModel(tiny_model.config, layers)


class TestNormalize:
    def test_max_pixel_maps_to_one(self):
        cfg = NetworkConfig()
        recon, _ = normalize_inputs(np.full((4, 4), 255, dtype=np.uint8), 22, cfg)
        assert np.all(recon == 1.0)

    def test_zero_pixel_and_zero_qp(self):
        cfg = NetworkConfig()
        recon, qpmap = normalize_inputs(np.zeros((4, 4), dtype=np.uint8), 0, cfg)
        assert not recon.any()
        assert not qpmap.any()

    def test_qp37_value(self):
        cfg = NetworkConfig()
        _, qpmap = normalize_inputs(np.zeros((3, 5), dtype=np.uint8), 37, cfg)
        assert np.allclose(qpmap, 37 / 51)
        assert abs(qpmap[0, 0] - 0.7254901960784313) < 1e-15

    def test_out_of_range_pixel(self):
        cfg = NetworkConfig()
        with pytest.raises(DataError, match="pixel values"):
            normalize_inputs(np.full((2, 2), 300, dtype=np.int64), 22, cfg)

    def test_out_of_range_qp(self):
        cfg = NetworkConfig()
        with pytest.raises(DataError, match="qp"):
            normalize_inputs(np.zeros((2, 2), dtype=np.uint8), 52, cfg)


class TestForward:
    def test_zero_model_is_pure_residual_passthrough(self, tiny_model, rng):
        model = tiny_model.copy()
        for layer in model.layers:
            layer.conv.weights[:] = 0.0
            layer.conv.bias[:] = 0.0
        recon = rng.uniform(size=(8, 8))
        qpmap = np.full((8, 8), 0.5)
        out = forward_float(model, recon, qpmap)
        assert np.array_equal(out, recon)

    def test_output_shape_matches_input(self, tiny_model, rng):
        for h, w in [(8, 8), (5, 9), (35, 35)]:
            out = forward_float(tiny_model, rng.uniform(size=(h, w)), np.full((h, w), 0.4))
            assert out.shape == (h, w)

    def test_matches_hand_chained_tensor_ops(self, tiny_bn_model, rng):
        recon = rng.uniform(size=(8, 8))
        qpmap = np.full((8, 8), 37 / 51)
        out = forward_float(tiny_bn_model, recon, qpmap)

        x = np.stack([recon, qpmap])[None]
        for layer in tiny_bn_model.layers:
            x = tensor.conv2d(x, layer.conv)
            bn = layer.bn
            if bn is not None:
                x = (bn.scale[:, None, None] * (x - bn.running_mean[:, None, None])
                     / np.sqrt(bn.running_var + bn.epsilon)[:, None, None] + bn.shift[:, None, None])
            if layer.relu:
                x = tensor.relu(x)
        expected = x[0, 0] + recon
        assert np.abs(out - expected).max() < 1e-12

    def test_shape_mismatch_raises(self, tiny_model, rng):
        with pytest.raises(ShapeError):
            forward_float(tiny_model, rng.uniform(size=(8, 8)), np.full((8, 9), 0.4))

    def test_forward_deterministic(self, tiny_model, rng):
        recon = rng.uniform(size=(16, 16))
        qpmap = np.full((16, 16), 0.3)
        a = forward_float(tiny_model, recon, qpmap)
        b = forward_float(tiny_model, recon, qpmap)
        assert np.array_equal(a, b)


class TestDenormalize:
    def test_one_maps_to_peak(self):
        cfg = NetworkConfig()
        assert denormalize(np.array([[1.0]]), cfg)[0, 0] == 255

    def test_negative_clamps_to_zero(self):
        cfg = NetworkConfig()
        assert denormalize(np.array([[-0.2]]), cfg)[0, 0] == 0

    def test_half_rounds_away_from_zero(self):
        # 0.5 * 255 = 127.5 -> 128
        cfg = NetworkConfig()
        assert denormalize(np.array([[0.5]]), cfg)[0, 0] == 128

    def test_round_trip_all_pixels(self):
        cfg = NetworkConfig()
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        recon, _ = normalize_inputs(pixels, 22, cfg)
        assert np.array_equal(denormalize(recon, cfg), pixels)


def test_full_pipeline_identity_with_zero_model(tiny_model):
    model = tiny_model.copy()
    for layer in model.layers:
        layer.conv.weights[:] = 0.0
        layer.conv.bias[:] = 0.0
    plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
    assert np.array_equal(filter_plane(model, plane, 32), plane)


def test_filter_plane_folds_bn_without_touching_the_model(tiny_bn_model):
    cfg = tiny_bn_model.config
    before = [[a.copy() for a in (l.bn.scale, l.bn.shift, l.bn.running_mean, l.bn.running_var)]
              for l in tiny_bn_model.layers[:-1]]
    plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
    out = filter_plane(tiny_bn_model, plane, 32)
    for layer, arrays in zip(tiny_bn_model.layers, before):
        bn = layer.bn
        for got, want in zip((bn.scale, bn.shift, bn.running_mean, bn.running_var), arrays):
            assert np.array_equal(got, want)
    recon, qpmap = normalize_inputs(plane, 32, cfg)
    expected = denormalize(bn_inference_forward(tiny_bn_model, recon, qpmap), cfg)
    assert np.array_equal(out, expected)
    assert not np.array_equal(out, plane)


def test_receptive_field():
    assert NetworkConfig().receptive_field == 17
    assert NetworkConfig(num_conv_layers=3, per_layer_filters=(8, 8)).receptive_field == 7
