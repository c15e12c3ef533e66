import numpy as np
import pytest

from cnnlf.errors import ConfigError, DataError, ShapeError
from cnnlf import tensor
from cnnlf.compress import decompose_model, fold_batchnorm
from cnnlf.network import (NetworkConfig, NetworkModel, build_cnnf, denormalize, filter_plane,
                           forward_network, normalize_inputs)
from cnnlf.trainer import TrainConfig, train

from .conftest import float_output
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
        inp = normalize_inputs(np.full((4, 4), 255, dtype=np.uint8), 22, cfg)
        assert inp.shape == (1, 2, 4, 4)
        assert np.all(inp[0, 0] == 1.0)

    def test_zero_pixel_and_zero_qp(self):
        cfg = NetworkConfig()
        inp = normalize_inputs(np.zeros((4, 4), dtype=np.uint8), 0, cfg)
        assert not inp.any()

    def test_qp37_value(self):
        cfg = NetworkConfig()
        qpmap = normalize_inputs(np.zeros((3, 5), dtype=np.uint8), 37, cfg)[0, 1]
        assert np.allclose(qpmap, 37 / 51)
        assert abs(qpmap[0, 0] - 0.7254901960784313) < 1e-15

    @pytest.mark.parametrize("dtype, bit_depth", [(np.uint8, 8), (np.uint16, 10),
                                                  (np.int64, 8)])
    def test_stack_equals_the_per_plane_formula(self, rng, dtype, bit_depth):
        cfg = NetworkConfig(bit_depth=bit_depth)
        planes = rng.integers(0, cfg.pixel_max + 1, size=(5, 7, 9)).astype(dtype)
        qps = [0, 22, 37, 51, 27]
        inp = normalize_inputs(planes, qps, cfg)
        assert inp.shape == (5, 2, 7, 9) and inp.dtype == np.float64
        for j, (plane, qp) in enumerate(zip(planes, qps)):
            assert np.array_equal(inp[j, 0], plane.astype(np.float64) / cfg.pixel_max)
            assert np.array_equal(inp[j, 1], np.full(plane.shape, qp / cfg.qp_max))
            assert np.array_equal(inp[j], normalize_inputs(plane, qp, cfg)[0])

    def test_out_of_range_pixel(self):
        cfg = NetworkConfig()
        with pytest.raises(DataError, match="pixel values"):
            normalize_inputs(np.full((2, 2), 300, dtype=np.int64), 22, cfg)

    def test_out_of_range_qp(self):
        cfg = NetworkConfig()
        with pytest.raises(DataError, match="qp"):
            normalize_inputs(np.zeros((2, 2), dtype=np.uint8), 52, cfg)

    def test_empty_stack_passes_and_planes_without_pixels_are_a_shape_error(self, tiny_model):
        inp = normalize_inputs(np.zeros((0, 8, 8), dtype=np.uint8), [], NetworkConfig())
        assert inp.shape == (0, 2, 8, 8)
        for shape, qps in [((3, 0, 4), [22] * 3), ((0, 5), 22), ((0, 0), 22)]:
            with pytest.raises(ShapeError, match="hold no pixels"):
                normalize_inputs(np.zeros(shape, dtype=np.uint8), qps, NetworkConfig())
        with pytest.raises(ShapeError, match="hold no pixels"):
            filter_plane(tiny_model, np.zeros((0, 5), dtype=np.uint8), 22)


class TestForward:
    def test_zero_model_is_pure_residual_passthrough(self, tiny_model, rng):
        model = tiny_model.copy()
        for layer in model.layers:
            layer.conv.weights[:] = 0.0
            layer.conv.bias[:] = 0.0
        plane = rng.integers(0, 256, size=(8, 8))
        out = float_output(model, plane, 26)
        assert np.array_equal(out, plane / 255)

    def test_output_shape_matches_input(self, tiny_model, rng):
        # the 3x3 kernels are larger than the 1-row, 1-column and 2x2 planes
        for h, w in [(8, 8), (5, 9), (35, 35), (1, 12), (12, 1), (2, 2)]:
            plane = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
            assert float_output(tiny_model, plane, 20).shape == (h, w)
            assert filter_plane(tiny_model, plane, 20).shape == (h, w)

    def test_matches_hand_chained_tensor_ops(self, tiny_bn_model, rng):
        plane = rng.integers(0, 256, size=(8, 8))
        out = float_output(tiny_bn_model, plane, 37)

        recon = plane / 255
        x = np.stack([recon, np.full((8, 8), 37 / 51)])[None]
        for layer in tiny_bn_model.layers:
            x = tensor.conv2d(x, layer.conv)
            bn = layer.bn
            if bn is not None:
                x = (bn.scale[:, None, None] * (x - bn.running_mean[:, None, None])
                     / np.sqrt(bn.running_var + bn.epsilon)[:, None, None] + bn.shift[:, None, None])
            if layer.relu:
                x = np.maximum(x, 0.0)
        expected = x[0, 0] + recon
        assert np.abs(out - expected).max() < 1e-12

    def test_training_cache_holds_two_activation_sized_arrays_per_bn_layer(self, tiny_model,
                                                                           rng):
        """The caches keep a BN layer's conv output and the next layer's padded input,
        and no normalized or pre-ReLU copy: distinct base buffers of at least
        N*C*H*W float64 values, C the smallest BN width, number two per BN layer."""
        n, h, w = 4, 9, 11
        _, caches = forward_network(tiny_model, rng.uniform(size=(n, 2, h, w)), keep_cache=True)
        bases = {}
        for cache in caches:
            for value in cache.values():
                for array in value if isinstance(value, tuple) else (value,):
                    if isinstance(array, np.ndarray):
                        while array.base is not None:
                            array = array.base
                        bases[id(array)] = array.nbytes
        bn_layers = [layer for layer in tiny_model.layers if layer.bn is not None]
        smallest = n * min(layer.bn.channels for layer in bn_layers) * h * w * 8
        assert sum(nbytes >= smallest for nbytes in bases.values()) <= 2 * len(bn_layers)

    def test_training_cache_holds_no_padded_array(self, tiny_model, rng):
        """Between layers only conv outputs exist: each convolution pads its input in
        its workers' buffers, so no cached array, nor the array it views, is padded."""
        n, h, w = 4, 9, 11
        _, caches = forward_network(tiny_model, rng.uniform(size=(n, 2, h, w)), keep_cache=True)
        assert any(layer.bn is not None for layer in tiny_model.layers)
        for cache in caches:
            for value in cache.values():
                for array in value if isinstance(value, tuple) else (value,):
                    if isinstance(array, np.ndarray) and array.ndim == 4:
                        while array.base is not None:
                            array = array.base
                        assert array.shape[2:] == (h, w)

    def test_shape_mismatch_raises(self, tiny_model, rng):
        # a stack and too few QPs, a plane and a QP list, a stack and one QP, a row,
        # a 4-d stack
        for shape, qps in [((3, 8, 8), [22, 37]), ((8, 8), [22]), ((3, 8, 8), 22), ((8,), 22),
                           ((2, 3, 8, 8), [[22, 37, 22]] * 2)]:
            with pytest.raises(ShapeError, match="2-d plane and a QP"):
                normalize_inputs(np.zeros(shape, dtype=np.uint8), qps, tiny_model.config)
        with pytest.raises(ShapeError, match=r"\(N,2,H,W\)"):
            forward_network(tiny_model, rng.uniform(size=(1, 3, 8, 8)))

    def test_forward_deterministic(self, tiny_model, rng):
        plane = rng.integers(0, 256, size=(16, 16))
        a = float_output(tiny_model, plane, 15)
        b = float_output(tiny_model, plane, 15)
        assert np.array_equal(a, b)
        assert np.array_equal(filter_plane(tiny_model, plane, 15),
                              filter_plane(tiny_model, plane, 15))


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
        recon = normalize_inputs(pixels, 22, cfg)[0, 0]
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
    recon, qpmap = normalize_inputs(plane, 32, cfg)[0]
    expected = denormalize(bn_inference_forward(tiny_bn_model, recon, qpmap), cfg)
    assert np.array_equal(out, expected)
    assert not np.array_equal(out, plane)


def test_decomposed_model_trains_on_patches_its_layers_see_whole(rng):
    """The receptive field comes from the layers: the decomposed model's 14 layers are
    eight 3x3 and six 1x1, so they see 17 pixels, and one desk step runs on 20x20 patches
    (a field of 1 + 14 * 2 = 29 from the layer count would refuse them)."""
    model = fold_batchnorm(build_cnnf(NetworkConfig(), rng_seed=1, zero_init_output=False))
    model, _ = decompose_model(model, ranks=[64] + [8] * 6 + [1])
    assert sorted(layer.conv.kernel_size for layer in model.layers) == [1] * 6 + [3] * 8
    original = rng.integers(0, 256, size=(16, 20, 20))
    decoded = np.clip(original + rng.integers(-6, 7, size=original.shape), 0, 255)
    steps = []
    train(model, list(zip(decoded, original, [22, 27, 32, 37] * 4)),
          TrainConfig.desk(epochs=1), callbacks=lambda *step: steps.append(step))
    assert len(steps) == 1 and np.isfinite(steps[0][2].total)
