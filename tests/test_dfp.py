import hashlib
import importlib.util
import multiprocessing
import os
import struct
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnlf import dfp, tensor
from cnnlf.compress import decompose_model, fold_batchnorm
from cnnlf.dfp import (BIAS_BITS, INPUT_FL, OUTPUT_BITS, WEIGHT_BITS, DFPFormat, DFPLayer,
                       DFPModel, FLTable, LayerFL, build_fl_table, corpus_digest,
                       dequantize_value, dfp_forward, estimate_fl, input_mantissas,
                       make_conformance, quantize_model, quantize_value, read_conformance,
                       reference_fl_8layer, replay_conformance, write_conformance)
from cnnlf.errors import ConfigError, DataError, ModelFormatError, ShapeError, VerificationError
from cnnlf.model_io import load_model, save_model
from cnnlf.network import NetworkConfig, build_cnnf, filter_plane, forward_network, normalize_inputs
from cnnlf.codec import make_test_image, psnr

from .conftest import blas_count, schedule_shaker
from .oracles import dfp_forward_loops, round_half_away_int


def small_weight_model(rng_seed=5, scale=0.15):
    cfg = NetworkConfig(num_conv_layers=3, base_filters=6, per_layer_filters=(6, 5))
    model = build_cnnf(cfg, rng_seed=rng_seed, zero_init_output=False)
    for layer in model.layers:
        layer.conv.weights *= scale
        layer.conv.bias[:] = 0.01
    return fold_batchnorm(model)


def quantized_small_model(rng_seed=5):
    model = small_weight_model(rng_seed)
    calib = [(make_test_image(24, 24, seed=3), 27), (make_test_image(24, 24, seed=4), 37)]
    table = build_fl_table(model, calib)
    return quantize_model(model, table), model


def bias_fl_lowered(table, by):
    """``table`` with every layer's bias fl lowered by ``by``: bias shifts grow by ``by``."""
    return FLTable([LayerFL(e.fl_w, e.fl_b - by, e.fl_o) for e in table.layers])


def benchmark_shaped_float_model():
    """The paper's 8-layer 64-filter model, BN-folded, with its output head scaled down."""
    model = fold_batchnorm(build_cnnf(NetworkConfig(), rng_seed=1, zero_init_output=False))
    model.layers[-1].conv.weights *= 0.1
    return model


def benchmark_shaped_model():
    """:func:`benchmark_shaped_float_model`, calibrated and quantized."""
    model = benchmark_shaped_float_model()
    calib = [(make_test_image(24, 24, seed=3), 32)]
    return quantize_model(model, build_fl_table(model, calib))


# run by a child interpreter: prints the worker count and the digest of one filtered
# plane.  OpenBLAS caps OPENBLAS_NUM_THREADS at the core count, so the child sets the
# count itself, and 3 gives 3 workers on any host.
BLAS_CHILD = """
import hashlib, os
from cnnlf import tensor
from cnnlf.codec import make_test_image
from cnnlf.dfp import dfp_forward
from tests.test_dfp import benchmark_shaped_model
blas = tensor._openblas()
if blas is not None:
    blas.set(int(os.environ["OPENBLAS_NUM_THREADS"]))
out = dfp_forward(benchmark_shaped_model(), make_test_image(48, 64, seed=13), 32)
print(tensor.worker_threads(), hashlib.sha256(out.tobytes()).hexdigest())
"""


def mixed_kernel_model(seed=3):
    """A quantized 2->5->4->6->1 model whose layers have kernel sides 5, 1, 3 and 3.

    The 5x5 first layer reads two rows past each band edge, so it spans
    several one-row bands; the 1x1 layer reads none.
    """
    widths, kernels = [2, 5, 4, 6, 1], [5, 1, 3, 3]
    cfg = NetworkConfig(num_conv_layers=4, base_filters=6, per_layer_filters=(5, 4, 6))
    rng = np.random.default_rng(seed)
    layers, entries, fl_in = [], [], INPUT_FL
    for i, (cin, cout, k) in enumerate(zip(widths[:-1], widths[1:], kernels)):
        last = i == len(kernels) - 1
        fl_o = INPUT_FL + 2 if last else 13
        fl_w = fl_o + 7 - fl_in
        layers.append(DFPLayer(rng.integers(-8, 8, size=(cout, cin, k, k)),
                               rng.integers(-1 << 12, 1 << 12, size=cout), not last))
        entries.append(LayerFL(fl_w, fl_w + fl_in - 4, fl_o))
        fl_in = fl_o
    return DFPModel(cfg, layers, FLTable(entries))


# run by a child interpreter: the blocks of a shaken DFP forward, one of which raises
# halfway through; prints what reached the caller and the threads still inside
RAISE_CHILD = """
import itertools, os
from unittest import mock
from cnnlf import dfp, tensor
from cnnlf.codec import make_test_image
from tests.conftest import schedule_shaker
from tests.test_dfp import benchmark_shaped_model
blas = tensor._openblas()
if blas is not None:
    blas.set(int(os.environ["OPENBLAS_NUM_THREADS"]))
model, layer_band, count = benchmark_shaped_model(), tensor._layer_band, itertools.count()

def failing(*args):
    if next(count) == 12:  # of 8 layers x 3 bands
        raise RuntimeError("block 12 failed")
    layer_band(*args)

with schedule_shaker(5), mock.patch.object(tensor, "_layer_band", failing):
    try:
        dfp.dfp_forward(model, make_test_image(48, 64, seed=13), 32)
    except RuntimeError as exc:
        print(exc, tensor._inside, next(count))
"""


@st.composite
def conformance_file(draw):
    """Entries of a random conformance container, its bit depth and its header byte offsets.

    The header bytes are the file header and every entry header.  Outputs are
    random planes: the container does not know the model.
    """
    bit_depth = draw(st.sampled_from([8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    entries, header = [], list(range(12 + len(dfp.HASH_NAME)))
    pos = len(header)
    for _ in range(draw(st.integers(0, 2))):
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        plane, out = rng.integers(0, 1 << bit_depth, size=(2,) + shape)
        out_bytes = dfp.plane_bytes(out, bit_depth)
        out = np.frombuffer(out_bytes, np.uint8 if bit_depth == 8 else "<u2").reshape(shape)
        entries.append(dfp.ConformanceEntry(plane, draw(st.integers(0, 51)),
                                            hashlib.sha256(out_bytes).digest(), out))
        header += range(pos, pos + 12)
        pos += 12 + 2 * len(out_bytes) + 32
    return entries, bit_depth, header


@st.composite
def small_dfp_case(draw):
    """A random quantized model of 2 or 3 layers, a plane, a qp, a band size and a
    worker count.

    Each layer draws its own kernel side from {1, 3, 5}, so layers read their
    input at different pad offsets, and hidden widths reach 10, so 3x3 layers
    with ``k * k * cout <= cin`` occur.  Fractional lengths are drawn as
    shifts, so every table is consistent; weight and bias scales and the
    shifts range from vanishing to saturating outputs.
    """
    num_layers = draw(st.integers(2, 3))
    hidden = [draw(st.integers(1, 10)) for _ in range(num_layers - 1)]
    # at 16 bits every unit in the last place of the summed mantissa shows in the pixel
    bit_depth = draw(st.sampled_from([8, 16]))
    cfg = NetworkConfig(num_conv_layers=num_layers, base_filters=10,
                        per_layer_filters=tuple(hidden), bit_depth=bit_depth)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w_max = draw(st.sampled_from([1, 8, 128]))
    b_max = draw(st.sampled_from([1, 1 << 12, 1 << 31]))
    widths = [2] + hidden + [1]
    layers, entries = [], []
    fl_in = INPUT_FL
    for i, (cin, cout) in enumerate(zip(widths[:-1], widths[1:])):
        last = i == num_layers - 1
        k = draw(st.sampled_from([1, 3, 5]))
        shift = draw(st.integers(0, 16))
        if last:
            fl_o = INPUT_FL + draw(st.integers(0, 10))
            fl_w = fl_o + shift - fl_in
        else:
            fl_w = draw(st.integers(-2, 12))
            fl_o = fl_w + fl_in - shift
        fl_b = fl_w + fl_in - draw(st.integers(0, 12))
        layers.append(DFPLayer(rng.integers(-w_max, w_max, size=(cout, cin, k, k)),
                               rng.integers(-b_max, b_max, size=cout),
                               draw(st.booleans()) and not last))
        entries.append(LayerFL(fl_w, fl_b, fl_o))
        fl_in = fl_o
    model = DFPModel(cfg, layers, FLTable(entries))
    plane = rng.integers(0, cfg.pixel_max + 1, size=(draw(st.integers(1, 9)),
                                                    draw(st.integers(1, 9))))
    band_bytes = draw(st.sampled_from([1, 300, 2000, tensor.BAND_BYTES]))
    return model, plane.astype(np.uint8 if bit_depth == 8 else np.uint16), \
        draw(st.integers(0, 51)), band_bytes, draw(st.sampled_from([1, 2, 3]))


class TestQuantizeValue:
    def test_zero_maps_to_zero(self):
        assert quantize_value(0.0, DFPFormat(8, 8)) == 0

    def test_half_clips_at_positive_limit(self):
        fmt = DFPFormat(8, 8)
        m = quantize_value(0.5, fmt)
        assert m == 127
        assert dequantize_value(m, fmt) == 0.49609375

    def test_point_three_nearest_representable(self):
        fmt = DFPFormat(8, 8)
        m = int(quantize_value(0.3, fmt))
        assert m == 77
        assert dequantize_value(m, fmt) == 0.30078125
        # brute force over every representable mantissa
        all_m = np.arange(-128, 128)
        best = all_m[np.argmin(np.abs(all_m / 256.0 - 0.3))]
        assert m == best

    def test_negative_clips_at_negative_limit(self):
        assert quantize_value(-1.0, DFPFormat(8, 8)) == -128

    @given(st.floats(-0.49, 0.49), st.integers(4, 12))
    @settings(max_examples=300)
    def test_quantization_error_bound(self, v, fl):
        fmt = DFPFormat(8, fl)
        lo = fmt.min_mantissa * 2.0 ** -fl
        hi = fmt.max_mantissa * 2.0 ** -fl
        if not (lo <= v <= hi):
            return
        err = abs(v - dequantize_value(quantize_value(v, fmt), fmt))
        assert err <= 2.0 ** -(fl + 1) * (1 + 1e-12)

    def test_roundtrip_idempotence_exhaustive_8bit(self):
        for fl in (0, 3, 8, -2, 13):
            fmt = DFPFormat(8, fl)
            m = np.arange(-128, 128)
            v = dequantize_value(m, fmt)
            assert np.array_equal(quantize_value(v, fmt), m)

    def test_half_away_tie_direction(self):
        fmt = DFPFormat(8, 1)
        assert quantize_value(0.25, fmt) == 1    # 0.5 -> 1
        assert quantize_value(-0.25, fmt) == -1  # -0.5 -> -1


class TestEstimateFl:
    def test_point_nine_gives_seven(self):
        assert estimate_fl(np.array([0.9]), 8) == 7
        # fl 7 holds it, fl 8 would clip: 0.9 * 256 = 230 > 127
        assert round(0.9 * 2 ** 7) <= 127
        assert round(0.9 * 2 ** 8) > 127

    def test_exactly_one_gives_six(self):
        # 1.0 * 2^7 = 128 > 127 would clip, so the no-clip rule lands at 6
        assert estimate_fl(np.array([1.0]), 8) == 6

    def test_tiny_power_of_two(self):
        # the no-clip rule: largest fl with round(2^-10 * 2^fl) <= 127 is 16
        # (at fl 17 the scaled maximum is exactly 128 and would clip)
        value = 2.0 ** -10
        brute = max(fl for fl in range(-40, 80)
                    if round(value * 2.0 ** fl) <= 127)
        assert brute == 16
        assert estimate_fl(np.array([value]), 8) == 16

    def test_never_clips_calibration_maximum(self, rng):
        for _ in range(200):
            values = rng.normal(scale=10.0 ** rng.uniform(-6, 3), size=7)
            if not values.any():
                continue
            for bits in (8, 16, 32):
                fl = estimate_fl(values, bits)
                fmt = DFPFormat(bits, fl)
                a = np.abs(values).max()
                m = int(quantize_value(a, fmt))
                assert m <= fmt.max_mantissa  # representable, not clipped
                assert abs(a - dequantize_value(m, fmt)) <= 2.0 ** -fl
                # and fl + 1 would clip (maximality)
                assert float(np.trunc(a * 2.0 ** (fl + 1) + 0.5)) > fmt.max_mantissa

    def test_all_zero_gives_max_precision(self):
        assert estimate_fl(np.zeros(4), 8) == 7
        assert estimate_fl(np.zeros(4), 16) == 15
        assert estimate_fl(np.zeros(4), 32) == 31


class TestRequantize:
    """Requantization's rounding, ``_round_shift``; its saturation is covered by
    ``test_matches_integer_loop_oracle`` and its shift rule by ``TestAccumulatorBound``."""

    def test_zero(self):
        assert dfp._round_shift(np.array([0.0]), 1)[0] == 0

    def test_positive_half_rounds_up(self):
        assert dfp._round_shift(np.array([768.0]), 1)[0] == 384
        assert dfp._round_shift(np.array([769.0]), 1)[0] == 385

    def test_exact_negative_multiple_not_biased(self):
        # -768 / 2 is exactly -384; rounding must not pull it to -385
        assert dfp._round_shift(np.array([-768.0]), 1)[0] == -384
        assert dfp._round_shift(np.array([-769.0]), 1)[0] == -385


class TestFLTable:
    def test_reference_preset_values(self):
        table = reference_fl_8layer()
        assert [e.fl_w for e in table.layers] == [9, 8, 8, 8, 8, 8, 8, 10]
        assert [e.fl_b for e in table.layers] == [17, 15, 14, 16, 15, 13, 13, 16]
        assert [e.fl_o for e in table.layers] == [15, 14, 14, 15, 15, 15, 16, 18]
        assert table.fl_concat == 15 and table.fl_sum == 15
        table.check_complete(8)
        with pytest.raises(ConfigError):
            table.check_complete(9)

    def test_reference_preset_loads_on_matching_architecture(self):
        model = fold_batchnorm(build_cnnf(NetworkConfig(), rng_seed=1, zero_init_output=False))
        for layer in model.layers:
            layer.conv.weights *= 0.02
            layer.conv.bias *= 0.001
        dm = quantize_model(model, reference_fl_8layer())
        assert dm.num_layers == 8

    def test_weight_band_maps_to_fl8(self):
        model = small_weight_model()
        w = model.layers[0].conv.weights
        w *= 0.3 / np.abs(w).max()  # max|w| = 0.3, inside [2^-2, 2^-1)
        table = build_fl_table(model, [(make_test_image(24, 24, seed=1), 27)])
        assert table.layers[0].fl_w == 8

    def test_zero_activation_layer_gets_fl15(self):
        model = small_weight_model()
        # a zero final layer produces constant-zero conv output
        model.layers[-1].conv.weights[:] = 0.0
        model.layers[-1].conv.bias[:] = 0.0
        table = build_fl_table(model, [(make_test_image(24, 24, seed=1), 27)])
        assert table.layers[-1].fl_o == OUTPUT_BITS - 1 == 15

    def test_bias_fl_capped_by_accumulator(self):
        model = small_weight_model()
        model.layers[0].conv.bias[:] = 1e-9  # raw estimate would exceed the accumulator fl
        table = build_fl_table(model, [(make_test_image(24, 24, seed=1), 27)])
        e = table.layers[0]
        assert e.fl_b <= e.fl_w + INPUT_FL

    def test_empty_calibration_rejected(self):
        for calibration in ([], iter([])):
            with pytest.raises(ConfigError, match="empty"):
                build_fl_table(small_weight_model(), calibration)

    def test_dict_round_trip(self):
        table = reference_fl_8layer()
        again = FLTable.from_dict(table.to_dict())
        assert again.layers == table.layers

    def test_concat_fl_other_than_input_fl_rejected(self):
        # input mantissas are always at INPUT_FL, so no other concat fl describes them;
        # load_model's rejection is the "fl-concat-not-input-fl" header defect in test_tooling
        stored = reference_fl_8layer().to_dict()
        assert stored["fl_concat"] == stored["fl_sum"] == INPUT_FL
        with pytest.raises(ConfigError, match="fl_concat 14 is not the input fl"):
            FLTable.from_dict({**stored, "fl_concat": 14})


def make_golden_module():
    """``tests/data/make_golden.py``, which builds the golden float models."""
    path = Path(__file__).resolve().parent / "data" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def forward_network_max_abs(model, calibration):
    """Each layer's max |conv output| over ``calibration``, read from the caches of the
    training forward at one BLAS thread: the oracle of ``dfp._calibration_max_abs``."""
    maxima = np.zeros(model.num_layers)
    with blas_count(1):
        for plane, qp in calibration:
            _, caches = forward_network(model, normalize_inputs(plane, qp, model.config),
                                        keep_cache=True)
            maxima = np.maximum(maxima, [np.abs(cache["z"]).max() for cache in caches])
    return maxima.tolist()


def calibration_model(kind):
    """A BN-folded float model: a golden model of ``tests/data``, or a small one split into
    3x3 and 1x1 layers, or one whose output layer has a ReLU."""
    if kind in ("golden8", "golden16"):
        return make_golden_module().golden_float_model(int(kind[6:]))
    model = small_weight_model()
    if kind == "decomposed":
        # 3x3 bases of ranks 2 and 2, each followed by a 1x1 combine layer
        model, _ = decompose_model(model, ranks=[2, 2, 1])
        assert [layer.conv.weights.shape[2] for layer in model.layers] == [3, 1, 3, 1, 3]
    elif kind == "relu-head":
        model.layers[-1].relu = True
        model.layers[-1].conv.bias[:] = -0.02  # so the ReLU clips some of the head's sums
    return model


CALIBRATION_SHAPES = {"1x12": [(1, 12)], "12x1": [(12, 1)], "2x2": [(2, 2)],
                      "35x35": [(35, 35)], "mixed": [(35, 35), (1, 12), (12, 1), (2, 2), (9, 17)]}


def calibration_set(shapes, bit_depth):
    planes = [make_test_image(h, w, seed=30 + i) for i, (h, w) in enumerate(shapes)]
    if bit_depth > 8:
        planes = [plane.astype(np.uint16) * 257 for plane in planes]
    return [(plane, (22, 37)[i % 2]) for i, plane in enumerate(planes)]


class TestCalibration:
    """``build_fl_table`` reads each layer's max |pre-ReLU output| from the DFP wavefront."""

    @pytest.mark.parametrize("shapes", list(CALIBRATION_SHAPES))
    @pytest.mark.parametrize("kind", ["golden8", "golden16", "decomposed", "relu-head"])
    def test_maxima_and_table_match_the_training_forward(self, kind, shapes):
        model = calibration_model(kind)
        calibration = calibration_set(CALIBRATION_SHAPES[shapes], model.config.bit_depth)
        want = forward_network_max_abs(model, calibration)
        got = dfp._calibration_max_abs(model, calibration)
        assert min(want) > 0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        with mock.patch.object(dfp, "_calibration_max_abs", forward_network_max_abs):
            oracle_table = build_fl_table(model, calibration)
        assert build_fl_table(model, calibration).layers == oracle_table.layers

    def test_maxima_do_not_depend_on_workers_schedule_or_bands(self):
        model = calibration_model("golden8")
        calibration = calibration_set(CALIBRATION_SHAPES["mixed"], 8)
        with blas_count(1):
            want = dfp._calibration_max_abs(model, calibration)
            table = build_fl_table(model, calibration)
        for workers in (1, 2, 3):
            with blas_count(workers):
                assert dfp._calibration_max_abs(model, calibration) == want, workers
                assert build_fl_table(model, calibration).layers == table.layers
                for seed in range(3):
                    with schedule_shaker(seed):
                        assert dfp._calibration_max_abs(model, calibration) == want, seed
        # one-row bands: the GEMMs change shape, so the maxima may move in the last place
        # and the table must stay the same
        layer_band, starts = tensor._layer_band, set()

        def spy(conv, src, dst, pad, r0, *rest):
            starts.add(r0)
            layer_band(conv, src, dst, pad, r0, *rest)

        with mock.patch.object(tensor, "BAND_BYTES", 1), blas_count(2), \
                mock.patch.object(tensor, "_layer_band", spy):
            np.testing.assert_allclose(dfp._calibration_max_abs(model, calibration), want,
                                       rtol=1e-12, atol=0)
            assert build_fl_table(model, calibration).layers == table.layers
        assert starts == set(range(35))

    def test_never_runs_the_training_conv(self):
        model = calibration_model("decomposed")
        calibration = calibration_set(CALIBRATION_SHAPES["mixed"], 8)
        with mock.patch.object(tensor, "conv2d", side_effect=AssertionError("conv2d ran")):
            build_fl_table(model, calibration)

    @pytest.mark.parametrize("pixel, qp, message", [(256, 27, r"pixel values outside \[0, 255\]"),
                                                     (255, 52, r"qp 52 outside \[0, 51\]")])
    def test_bad_input_is_data_error_before_any_block(self, pixel, qp, message):
        plane = make_test_image(12, 12, seed=3).astype(np.uint16)
        plane[5, 7] = pixel
        with mock.patch.object(tensor, "_layer_band", side_effect=AssertionError("a block ran")):
            with pytest.raises(DataError, match=message):
                build_fl_table(small_weight_model(), [(plane, qp)])


@pytest.mark.parametrize("shape", [(1, 12), (12, 1), (2, 2), (35, 35)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("kind", ["benchmark", "decomposed", "relu-head"])
def test_plane_runner_with_relu_epilogue_matches_forward_network(kind, shape):
    """The float oracle of the plane runner: ``tensor._run_planes`` over a folded model's
    convolutions, with a ReLU epilogue and plus the normalized reconstruction, is
    ``forward_network``'s output, at 1, 2 and 3 workers and with one-row bands."""
    model = benchmark_shaped_float_model() if kind == "benchmark" else calibration_model(kind)
    ((plane, qp),) = calibration_set([shape], model.config.bit_depth)
    inp = normalize_inputs(plane, qp, model.config)
    with blas_count(1):
        want = forward_network(model, inp)[0][0, 0]

    def relu(l, j, sums, interior):
        if model.layers[l].relu:
            np.maximum(sums, 0.0, out=sums)

    for workers, band_bytes in [(1, tensor.BAND_BYTES), (2, tensor.BAND_BYTES),
                                (3, tensor.BAND_BYTES), (2, 1)]:
        with blas_count(workers), mock.patch.object(tensor, "BAND_BYTES", band_bytes):
            resid = tensor._run_planes([layer.conv for layer in model.layers], inp[0], relu)
        np.testing.assert_allclose(resid + inp[0, 0], want, rtol=1e-12, atol=0,
                                   err_msg=f"{workers} workers, BAND_BYTES {band_bytes}")


class TestQuantizeModel:
    def test_zero_model_zero_mantissas(self):
        model = small_weight_model()
        for layer in model.layers:
            layer.conv.weights[:] = 0.0
            layer.conv.bias[:] = 0.0
        table = FLTable([LayerFL(8, 16, 15)] * len(model.layers))
        dm = quantize_model(model, table)
        for layer in dm.layers:
            assert not layer.weights_m.any()
            assert not layer.bias_m.any()

    def test_quantize_dequantize_quantize_idempotent(self):
        dm, _ = quantized_small_model()
        deq = dm.dequantized()
        again = quantize_model(deq, dm.fl_table)
        for a, b in zip(dm.layers, again.layers):
            assert np.array_equal(a.weights_m, b.weights_m)
            assert np.array_equal(a.bias_m, b.bias_m)

    def test_per_tensor_error_bound(self, rng):
        model = small_weight_model()
        calib = [(make_test_image(24, 24, seed=3), 27)]
        table = build_fl_table(model, calib)
        dm = quantize_model(model, table)
        for layer, fl, src in zip(dm.layers, table.layers, model.layers):
            w = dequantize_value(layer.weights_m, DFPFormat(WEIGHT_BITS, fl.fl_w))
            assert np.abs(w - src.conv.weights).max() <= 2.0 ** -(fl.fl_w + 1) + 1e-15

    def test_bn_model_rejected(self, tiny_model):
        table = FLTable([LayerFL(8, 16, 15)] * len(tiny_model.layers))
        with pytest.raises(ConfigError, match="folded"):
            quantize_model(tiny_model, table)


class TestDfpForward:
    def test_zero_model_is_exact_identity_all_pixel_values(self):
        model = small_weight_model()
        for layer in model.layers:
            layer.conv.weights[:] = 0.0
            layer.conv.bias[:] = 0.0
        table = FLTable([LayerFL(8, 16, 15)] * len(model.layers))
        dm = quantize_model(model, table)
        plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
        for qp in (0, 22, 37, 51):
            assert np.array_equal(dfp_forward(dm, plane, qp), plane)

    def test_input_mantissa_roundtrip_all_values(self):
        cfg = NetworkConfig()
        plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
        m, _ = input_mantissas(plane, 22, cfg)
        back = np.clip((m * 255 + (1 << 14)) >> 15, 0, 255)
        assert np.array_equal(back, plane)

    def test_repeat_runs_bit_identical(self):
        dm, _ = quantized_small_model()
        plane = make_test_image(40, 40, seed=9)
        a = dfp_forward(dm, plane, 32)
        b = dfp_forward(dm, plane, 32)
        assert np.array_equal(a, b)
        assert hashlib.sha256(a.tobytes()).digest() == hashlib.sha256(b.tobytes()).digest()

    @given(small_dfp_case())
    @settings(max_examples=200, deadline=None)
    def test_matches_integer_loop_oracle(self, case):
        model, plane, qp, band_bytes, workers = case
        with mock.patch.object(tensor, "BAND_BYTES", band_bytes), blas_count(workers):
            got = dfp_forward(model, plane, qp)
        assert np.array_equal(got, dfp_forward_loops(model, plane, qp))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("band_bytes", [1, tensor.BAND_BYTES], ids=["one-row", "default"])
    def test_shaken_wavefront_matches_integer_loop_oracle(self, workers, band_bytes):
        model = mixed_kernel_model()
        plane = make_test_image(13, 9, seed=4)
        want = dfp_forward_loops(model, plane, 32)
        assert len(np.unique(want)) > 20  # the model does not saturate
        with mock.patch.object(tensor, "BAND_BYTES", band_bytes), blas_count(workers):
            for seed in range(6):
                with schedule_shaker(seed):
                    assert np.array_equal(dfp_forward(model, plane, 32), want), seed

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (11, 5)])
    def test_degenerate_and_ragged_planes_match_oracle(self, shape):
        dm, _ = quantized_small_model()
        plane = make_test_image(*shape, seed=14)
        # one output row per band, so every height is several bands
        with mock.patch.object(tensor, "BAND_BYTES", 1):
            got = dfp_forward(dm, plane, 37)
        assert np.array_equal(got, dfp_forward_loops(dm, plane, 37))

    def test_close_to_float_forward_of_dequantized_model(self):
        dm, _ = quantized_small_model()
        plane = make_test_image(48, 48, seed=11)
        float_out = filter_plane(dm.dequantized(), plane, 27)
        int_out = dfp_forward(dm, plane, 27)
        assert psnr(float_out, int_out) > 50.0

    def test_digest_independent_of_blas_threads(self):
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join([str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")])
        digests = []
        # serial, 2 workers, and more workers than this host's cores with uneven bands
        for blas_threads in ("1", "2", "3"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": blas_threads}
            done = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=env, cwd=root,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            workers, digest = done.stdout.split()
            if tensor._openblas() is not None:
                assert workers == blas_threads
            digests.append(digest)
        assert len(digests[0]) == 64 and digests[0] == digests[1] == digests[2]


@given(st.integers(1, 40), st.sampled_from([1, 3000, 20000, tensor.BAND_BYTES]),
       st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_wavefront_waits_for_exactly_the_blocks_it_conflicts_with(h, band_bytes, reaches):
    # block (l, j) reads rows r0 - p .. r1 + p of one buffer and writes its band's rows of
    # the other, plus the ring rows beyond them if it holds the first or the last row
    pad, rs = max(reaches), 9 + 2 * max(reaches)
    with mock.patch.object(tensor, "BAND_BYTES", band_bytes):
        bands = tensor._row_bands(h, 8 * 64 * rs, least=3)
    count = len(bands)
    assert count >= min(h, 3)

    def read(l, j):
        return set(range(bands[j][0] - reaches[l], bands[j][1] + reaches[l]))

    def written(j):
        r0, r1 = bands[j]
        return set(range(r0 - pad if j == 0 else r0, r1 + pad if j == count - 1 else r1))

    after = tensor._wavefront(bands, reaches)
    assert len(after) == len(reaches) * count
    for l in range(len(reaches)):
        for j in range(count):
            want = {(l - 1) * count + m for m in range(count)
                    if l and (written(m) & read(l, j) or read(l - 1, m) & written(j))}
            assert set(after[l * count + j]) == want, (l, j)


class TestWorkers:
    """The BLAS thread count a DFP forward spends on workers, and gives back."""

    @pytest.fixture
    def blas_get(self):
        blas = tensor._openblas()
        if blas is None:
            pytest.skip("no OpenBLAS thread control")
        return blas.get

    def test_count_spent_inside_and_restored_on_return_and_raise(self, blas_get):
        dm, _ = quantized_small_model()
        plane = make_test_image(40, 40, seed=9)
        seen = []
        layer_band = tensor._layer_band

        def spy(*args):
            seen.append((blas_get(), tensor._workers()))
            layer_band(*args)

        with blas_count(3):
            with mock.patch.object(tensor, "_layer_band", spy):
                dfp_forward(dm, plane, 32)
            assert blas_get() == 3 and tensor.worker_threads() == 3
            assert set(seen) == {(1, 3)}
            with mock.patch.object(tensor, "_layer_band", side_effect=RuntimeError("layer")):
                with pytest.raises(RuntimeError, match="layer"):
                    dfp_forward(dm, plane, 32)
            assert blas_get() == 3 and tensor._workers() == 1 and tensor._inside == 0

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_block_raising_mid_wavefront_reaches_the_caller(self, workers):
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join([str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": workers}
        done = subprocess.run([sys.executable, "-c", RAISE_CHILD], env=env, cwd=root,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        message, inside, started = done.stdout.rsplit(maxsplit=2)
        # no block starts once the failure is seen; at most the other workers' blocks
        # were already running
        assert message == "block 12 failed" and inside == "0"
        assert 13 <= int(started) <= 12 + int(workers)

    def test_no_thread_control_gives_the_same_digest(self):
        dm, _ = quantized_small_model()
        plane = make_test_image(40, 56, seed=9)
        with blas_count(2):
            want = dfp_forward(dm, plane, 32)
        with mock.patch.object(tensor, "_openblas", lambda: None):
            assert tensor.worker_threads() == 1
            got = dfp_forward(dm, plane, 32)
        assert np.array_equal(got, want)

    def test_concurrent_forwards_save_and_restore_the_count_once(self, blas_get):
        dm, _ = quantized_small_model()
        plane = make_test_image(40, 40, seed=9)
        want = dfp_forward(dm, plane, 32)
        got = [None] * 4

        def run(j):
            got[j] = dfp_forward(dm, plane, 32)

        interval = sys.getswitchinterval()
        with blas_count(3):
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=run, args=(j,)) for j in range(len(got))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert blas_get() == 3 and tensor._inside == 0
        assert all(g is not None and np.array_equal(g, want) for g in got)

    def test_nested_entry_keeps_blas_at_one_until_the_outer_exit(self, blas_get):
        with blas_count(3):
            with tensor._spend_blas_threads():
                assert blas_get() == 1 and tensor._workers() == 3
                with tensor._spend_blas_threads():
                    assert blas_get() == 1 and tensor._workers() == 3
                assert blas_get() == 1 and tensor._workers() == 3
            assert blas_get() == 3 and tensor._workers() == 1

    def test_repeated_forwards_reuse_one_pool(self, blas_get):
        dm, _ = quantized_small_model()
        plane = make_test_image(40, 40, seed=9)
        submit = ThreadPoolExecutor.submit
        pools = []

        def spy(pool, *args):
            pools[-1].add(pool)
            return submit(pool, *args)

        with blas_count(2), mock.patch.object(ThreadPoolExecutor, "submit", spy):
            for _ in range(3):
                pools.append(set())
                dfp_forward(dm, plane, 32)
        pool = tensor._pool(os.getpid())
        assert pools == [{pool}] * 3 and not pool._shutdown

    # the fork is the point; Python 3.12 warns about forking a process that has threads
    @pytest.mark.filterwarnings("ignore:.*use of fork:DeprecationWarning")
    def test_forked_child_starts_its_own_pool(self):
        dm, _ = quantized_small_model()
        plane = make_test_image(40, 40, seed=9)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        with blas_count(2):
            want = hashlib.sha256(dfp_forward(dm, plane, 32).tobytes()).hexdigest()
            child = ctx.Process(target=lambda: send.send(
                hashlib.sha256(dfp_forward(dm, plane, 32).tobytes()).hexdigest()))
            child.start()
        try:
            got = receive.recv() if receive.poll(60) else "no answer within 60 s"
        finally:
            child.kill()
            child.join()
        assert got == want


class TestDFPModelChain:
    def test_broken_layer_chain_rejected(self):
        # a 4-channel layer fed by a 2-channel one would read channels no layer wrote
        layers = [DFPLayer(np.ones((4, 2, 3, 3), np.int64), np.zeros(4, np.int64), True),
                  DFPLayer(np.ones((1, 6, 3, 3), np.int64), np.zeros(1, np.int64), False)]
        cfg = NetworkConfig(num_conv_layers=2, base_filters=4, per_layer_filters=(4,))
        table = FLTable([LayerFL(8, 16, 15), LayerFL(8, 16, 15)])
        with pytest.raises(ShapeError, match="layer 2 expects 6 input channels"):
            DFPModel(cfg, layers, table)

    def test_layers_follow_the_float_kernel_rule(self, tmp_path):
        # the shapes a ConvParams refuses: an even kernel, and a bias not of length Cout
        dm, _ = quantized_small_model()
        for layers, match in (
                ([DFPLayer(l.weights_m[:, :, :2, :2], l.bias_m, l.relu) for l in dm.layers],
                 "square with odd side, got 2x2"),
                ([DFPLayer(l.weights_m, l.bias_m[:1], l.relu) for l in dm.layers],
                 "bias length")):
            with pytest.raises(ShapeError, match=match):
                DFPModel(dm.config, layers, dm.fl_table)
        # a container of 2x2 layers, written from the valid model with its layers swapped
        dm.layers = [DFPLayer(l.weights_m[:, :, :2, :2], l.bias_m, l.relu) for l in dm.layers]
        save_model(dm, tmp_path / "even.clf")
        with pytest.raises(ModelFormatError, match="square with odd side"):
            load_model(tmp_path / "even.clf")


class TestAccumulatorBound:
    def test_crafted_fl_table_rejected(self):
        dm, _ = quantized_small_model()
        with pytest.raises(ConfigError, match="2\\^53"):
            DFPModel(dm.config, dm.layers, bias_fl_lowered(dm.fl_table, 40))

    def test_negative_shifts_rejected(self):
        dm, _ = quantized_small_model()
        first = dm.fl_table.layers[0]
        fl_acc = first.fl_w + dm.fl_table.fl_concat
        for bad, match in ((LayerFL(first.fl_w, fl_acc + 1, first.fl_o), "bias fl"),
                           (LayerFL(first.fl_w, first.fl_b, fl_acc + 1), "output fl")):
            table = FLTable([bad] + dm.fl_table.layers[1:])
            with pytest.raises(ConfigError, match=match):
                DFPModel(dm.config, dm.layers, table)
        with pytest.raises(ConfigError, match="fl_sum 40"):
            FLTable.from_dict({**dm.fl_table.to_dict(), "fl_sum": 40})

    def test_benchmark_shaped_model_passes(self):
        dm = benchmark_shaped_model()
        assert dm.num_layers == 8
        bounds = dm.accumulator_bounds()
        assert len(bounds) == 8 and 0 < max(bounds) < 2.0 ** 53

    @pytest.mark.parametrize("weight, bias_shift, out_shift, accepted", [
        (-128, 6, 0, True),    # 2*128*2^15 + 2^31*2^6
        (-128, 21, 1, True),   # 2^23 + 2^52 + 1
        (0, 22, 0, False),     # exactly 2^53
        (0, 21, 53, False),    # 2^52 and the rounding offset 2^52
        (-1, 21, 53, False),
    ])
    def test_bound_at_the_float64_limit(self, weight, bias_shift, out_shift, accepted):
        # one 1x1 layer on both inputs with the largest 32-bit bias
        cfg = NetworkConfig(num_conv_layers=2, kernel_size=1, base_filters=1,
                            per_layer_filters=(1,))
        layers = [DFPLayer(np.full((1, 2, 1, 1), weight), np.array([-(1 << 31)]), False),
                  DFPLayer(np.full((1, 1, 1, 1), 127), np.array([0]), False)]
        table = FLTable([LayerFL(0, INPUT_FL - bias_shift, INPUT_FL - out_shift),
                         LayerFL(out_shift, INPUT_FL, INPUT_FL)])
        want = (2 * abs(weight) * 2 ** 15 + 2 ** (31 + bias_shift)
                + (2 ** (out_shift - 1) if out_shift else 0))
        if accepted:
            assert DFPModel(cfg, layers, table).accumulator_bounds()[0] == want
        else:
            with pytest.raises(ConfigError, match="layer 1 accumulator bound"):
                DFPModel(cfg, layers, table)

    @given(st.integers(0, 52), st.data())
    @settings(max_examples=300)
    def test_round_shift_matches_integer_oracle(self, shift, data):
        # every magnitude the bound admits: |a| + 2^(shift-1) < 2^53
        limit = 2 ** 53 - (2 ** (shift - 1) if shift else 0) - 1
        a = data.draw(st.integers(-limit, limit))
        got = dfp._round_shift(np.array([float(a)]), shift)[0]
        assert got == round_half_away_int(a, shift)


class TestConformance:
    def corpus(self, n=3):
        return [(make_test_image(32, 32, seed=50 + i), qp)
                for i in range(n) for qp in (22, 37)]

    def test_empty_corpus_hash_is_empty_stream_constant(self):
        dm, _ = quantized_small_model()
        assert corpus_digest(make_conformance(dm, [])) == hashlib.sha256(b"").hexdigest()

    def test_reordered_corpus_changes_hash(self):
        dm, _ = quantized_small_model()
        corpus = self.corpus()
        assert (corpus_digest(make_conformance(dm, corpus))
                != corpus_digest(make_conformance(dm, corpus[::-1])))

    def test_container_round_trip_and_replay(self, tmp_path):
        dm, _ = quantized_small_model()
        entries = make_conformance(dm, self.corpus())
        path = tmp_path / "vectors.bin"
        write_conformance(path, entries)
        loaded = read_conformance(path)
        assert len(loaded) == len(entries)
        digest = replay_conformance(dm, loaded)
        assert digest == corpus_digest(make_conformance(dm, self.corpus()))

    def test_replay_names_plane_and_pixel_on_mismatch(self, tmp_path):
        dm, _ = quantized_small_model()
        entries = make_conformance(dm, self.corpus())
        # corrupt the second entry's expected output
        entries[1].output[3, 5] ^= 1
        entries[1].output_hash = hashlib.sha256(entries[1].output.tobytes()).digest()
        with pytest.raises(VerificationError, match=r"plane 1.*y=3, x=5"):
            replay_conformance(dm, entries)

    def test_truncated_container_rejected(self, tmp_path):
        dm, _ = quantized_small_model()
        entries = make_conformance(dm, self.corpus(1))
        path = tmp_path / "vectors.bin"
        write_conformance(path, entries)
        data = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(data[:len(data) // 2])
        from cnnlf.errors import ModelFormatError
        with pytest.raises(ModelFormatError):
            read_conformance(tmp_path / "cut.bin")

    @given(conformance_file())
    @settings(max_examples=30, deadline=None)
    def test_truncation_and_header_bit_flips_are_format_errors(self, tmp_path_factory, case):
        entries, bit_depth, header = case
        path = tmp_path_factory.mktemp("cnfv") / "vectors.bin"
        write_conformance(path, entries, bit_depth)
        data = path.read_bytes()
        assert len(read_conformance(path)) == len(entries)
        for end in range(len(data)):
            path.write_bytes(data[:end])
            with pytest.raises(ModelFormatError):
                read_conformance(path)
        for pos in header:
            for bit in range(8):
                flipped = bytearray(data)
                flipped[pos] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                try:
                    assert isinstance(read_conformance(path), list)
                except ModelFormatError:
                    pass

    @pytest.mark.parametrize("data", [
        b"CNFV\x01",                                                  # cut in the version
        b"CNFV" + struct.pack("<HH", 1, 6) + b"sha256\x01",           # cut in the count
        b"CNFV" + struct.pack("<HH", 1, 6) + b"sha25\xff" + bytes(36),  # non-ASCII hash name
    ], ids=["five-bytes", "no-count", "non-ascii-name"])
    def test_malformed_header_is_format_error(self, tmp_path, data):
        path = tmp_path / "vectors.bin"
        path.write_bytes(data)
        with pytest.raises(ModelFormatError, match="conformance header"):
            read_conformance(path)

    def test_flipped_corpus_digest_rejected(self, tmp_path):
        dm, _ = quantized_small_model()
        path = tmp_path / "vectors.bin"
        write_conformance(path, make_conformance(dm, self.corpus(1)))
        data = bytearray(path.read_bytes())
        data[-1] ^= 1
        path.write_bytes(bytes(data))
        from cnnlf.errors import ModelFormatError
        with pytest.raises(ModelFormatError, match="corpus digest") as err:
            read_conformance(path)
        assert err.value.offset == len(data) - 32


def test_monotone_relu_commutes_with_dequantization(rng):
    m = rng.integers(-32768, 32768, size=100)
    fmt = DFPFormat(16, 12)
    lhs = np.maximum(m, 0) * 2.0 ** -12
    rhs = np.maximum(dequantize_value(m, fmt), 0.0)
    assert np.array_equal(lhs, rhs)
