import numpy as np
import pytest

from cnnlf.compress import (LowRankLayer, count_parameters, decompose_model,
                            fold_batchnorm, prune_by_bn_scale, select_rank, svd_lowrank)
from cnnlf.errors import ConfigError
from cnnlf.model_io import model_hash
from cnnlf.network import NetworkConfig, build_cnnf, normalize_inputs
from cnnlf.tensor import ConvParams

from .conftest import float_output
from .oracles import bn_inference_forward


def random_inputs(rng, n=3, size=12):
    return [(rng.integers(0, 256, size=(size, size)), int(rng.integers(0, 52)))
            for _ in range(n)]


def forward_all(model, inputs):
    return [float_output(model, plane, qp) for plane, qp in inputs]


class TestPrune:
    def test_threshold_zero_is_identity(self, tiny_model):
        before = model_hash(tiny_model)
        pruned, report = prune_by_bn_scale(tiny_model, 0.0)
        assert model_hash(pruned) == before
        assert report.kept_counts == [6, 5]
        assert not any(len(i) for i in report.pruned_indices)
        assert report.param_ratio == 1.0

    def test_zero_scale_zero_shift_bit_identical(self, tiny_model, rng):
        model = tiny_model.copy()
        model.layers[0].bn.scale[2] = 0.0
        model.layers[0].bn.shift[2] = 0.0
        pruned, report = prune_by_bn_scale(model, 1e-6)
        assert report.kept_counts[0] == 5
        inputs = random_inputs(rng)
        for a, b in zip(forward_all(model, inputs), forward_all(pruned, inputs)):
            assert np.array_equal(a, b)

    def test_zero_scale_positive_shift_bias_fold_exact(self, tiny_model, rng):
        model = tiny_model.copy()
        model.layers[0].bn.scale[1] = 0.0
        model.layers[0].bn.shift[1] = 0.3
        pruned, _ = prune_by_bn_scale(model, 1e-6)
        inputs = random_inputs(rng)
        for a, b in zip(forward_all(model, inputs), forward_all(pruned, inputs)):
            assert np.abs(a - b).max() < 1e-10

    def test_zero_scale_negative_shift_fold_exact(self, tiny_model, rng):
        # ReLU kills a negative constant, so removal is exact with zero fold
        model = tiny_model.copy()
        model.layers[1].bn.scale[0] = 0.0
        model.layers[1].bn.shift[0] = -0.7
        pruned, _ = prune_by_bn_scale(model, 1e-6)
        inputs = random_inputs(rng)
        for a, b in zip(forward_all(model, inputs), forward_all(pruned, inputs)):
            assert np.abs(a - b).max() < 1e-10

    def test_fold_into_final_layer(self, tiny_model, rng):
        # pruning the last hidden layer folds into the residual-output conv
        model = tiny_model.copy()
        model.layers[-2].bn.scale[3] = 0.0
        model.layers[-2].bn.shift[3] = 0.45
        pruned, _ = prune_by_bn_scale(model, 1e-6)
        inputs = random_inputs(rng)
        for a, b in zip(forward_all(model, inputs), forward_all(pruned, inputs)):
            assert np.abs(a - b).max() < 1e-10

    def test_multiple_channels_pruned_at_once(self, tiny_model, rng):
        model = tiny_model.copy()
        for c, beta in [(0, 0.2), (3, -0.1), (4, 0.05)]:
            model.layers[0].bn.scale[c] = 0.0
            model.layers[0].bn.shift[c] = beta
        pruned, report = prune_by_bn_scale(model, 1e-6)
        assert report.kept_counts[0] == 3
        inputs = random_inputs(rng)
        for a, b in zip(forward_all(model, inputs), forward_all(pruned, inputs)):
            assert np.abs(a - b).max() < 1e-10

    def test_never_prunes_layer_to_zero(self, tiny_model):
        model = tiny_model.copy()
        model.layers[0].bn.scale[:] = 1e-9
        model.layers[0].bn.scale[4] = 2e-9
        pruned, report = prune_by_bn_scale(model, 0.5)
        assert report.kept_counts[0] == 1
        assert pruned.layers[0].conv.out_channels == 1
        assert any("kept the largest" in w for w in report.warnings)

    def test_report_counts_and_max_scale(self, tiny_model):
        model = tiny_model.copy()
        model.layers[0].bn.scale[2] = 1e-5
        model.layers[1].bn.scale[1] = -2e-5
        pruned, report = prune_by_bn_scale(model, 1e-4)
        assert report.original_counts == [6, 5]
        assert report.kept_counts == [5, 4]
        assert [list(i) for i in report.pruned_indices] == [[2], [1]]
        assert abs(report.max_pruned_scale - 2e-5) < 1e-18
        assert report.kept_counts[0] + 1 == report.original_counts[0]

    def test_negative_threshold_rejected(self, tiny_model):
        with pytest.raises(ConfigError):
            prune_by_bn_scale(tiny_model, -1.0)

    def test_table1_fixture_parameter_ratio(self):
        """Exact arithmetic for the published per-layer counts on the 64-filter model."""
        full = build_cnnf(NetworkConfig(), rng_seed=0)
        counts = (45, 54, 58, 48, 51, 40, 31)
        compressed = build_cnnf(NetworkConfig(per_layer_filters=counts), rng_seed=0)

        def conv_params(model):
            return sum(l.conv.weights.size + l.conv.bias.size for l in model.layers)

        # independent hand count of conv weights + biases
        chain_full = [2] + [64] * 7 + [1]
        chain_small = [2] + list(counts) + [1]
        expect_full = sum(chain_full[i] * chain_full[i + 1] * 9 + chain_full[i + 1]
                          for i in range(8))
        expect_small = sum(chain_small[i] * chain_small[i + 1] * 9 + chain_small[i + 1]
                           for i in range(8))
        assert conv_params(full) == expect_full == 223361
        assert conv_params(compressed) == expect_small == 128083
        ratio = conv_params(compressed) / conv_params(full)
        assert abs(ratio - 0.57344) < 5e-4


class TestFoldBatchnorm:
    def test_fold_matches_infer_forward(self, tiny_bn_model, rng):
        folded = fold_batchnorm(tiny_bn_model)
        assert not folded.has_bn
        inputs = random_inputs(rng)
        for (plane, qp), a in zip(inputs, forward_all(folded, inputs)):
            recon, qpmap = normalize_inputs(plane, qp, folded.config)[0]
            assert np.abs(a - bn_inference_forward(tiny_bn_model, recon, qpmap)).max() < 1e-10

    def test_fold_is_idempotent(self, tiny_model):
        folded = fold_batchnorm(tiny_model)
        again = fold_batchnorm(folded)
        assert model_hash(folded) == model_hash(again)

    def test_model_without_bn_is_returned_as_is(self, tiny_model):
        folded = fold_batchnorm(tiny_model)
        assert fold_batchnorm(folded) is folded


class TestSvdLowRank:
    def test_exact_rank_one_layer(self, rng):
        u = rng.normal(size=(6, 1))
        v = rng.normal(size=(1, 4 * 9))
        layer = ConvParams((u @ v).reshape(6, 4, 3, 3), rng.normal(size=6))
        lr = svd_lowrank(layer, rank=1)
        x = rng.normal(size=(1, 4, 7, 7))
        from cnnlf.tensor import conv2d
        basis, combine = lr.as_conv_pair()
        composed = conv2d(conv2d(x, basis), combine)
        assert np.abs(composed - conv2d(x, layer)).max() < 1e-9

    def test_full_rank_reconstruction(self, rng):
        layer = ConvParams(rng.normal(size=(5, 3, 3, 3)), rng.normal(size=5))
        lr = svd_lowrank(layer, rank=5)
        assert lr.reconstruction_error < 1e-9
        x = rng.normal(size=(2, 3, 6, 6))
        from cnnlf.tensor import conv2d
        basis, combine = lr.as_conv_pair()
        assert np.abs(conv2d(conv2d(x, basis), combine) - conv2d(x, layer)).max() < 1e-9

    def test_truncation_error_equals_sigma_tail(self, rng):
        import scipy.linalg
        layer = ConvParams(rng.normal(size=(8, 4, 3, 3)), np.zeros(8))
        lr = svd_lowrank(layer, rank=3)
        mat = layer.weights.reshape(8, -1)
        # independent SVD of the same matrix
        s = scipy.linalg.svdvals(mat)
        expected = np.sqrt((s[3:] ** 2).sum())
        assert abs(lr.reconstruction_error - expected) < 1e-9
        recon = (lr.combine.reshape(8, 3) @ lr.basis.reshape(3, -1))
        assert abs(np.linalg.norm(mat - recon, "fro") - expected) < 1e-9

    def test_invalid_rank(self, rng):
        layer = ConvParams(rng.normal(size=(4, 2, 3, 3)), np.zeros(4))
        with pytest.raises(ConfigError):
            svd_lowrank(layer, 0)
        with pytest.raises(ConfigError):
            svd_lowrank(layer, 5)

    def test_eckart_young_beats_random_alternatives(self, rng):
        layer = ConvParams(rng.normal(size=(6, 3, 3, 3)), np.zeros(6))
        rank = 2
        lr = svd_lowrank(layer, rank)
        mat = layer.weights.reshape(6, -1)
        best = lr.reconstruction_error
        for _ in range(1000):
            a = rng.normal(size=(6, rank))
            b = rng.normal(size=(rank, mat.shape[1]))
            scale = np.linalg.norm(mat) / max(np.linalg.norm(a @ b), 1e-12)
            err = np.linalg.norm(mat - scale * (a @ b), "fro")
            assert err >= best - 1e-12


class TestSelectRank:
    def test_single_nonzero_singular_value(self):
        assert select_rank(np.array([3.0, 0.0, 0.0]), 0.1) == 1
        assert select_rank(np.array([3.0, 0.0, 0.0]), 1.0) == 1

    def test_full_energy_counts_nonzeros(self):
        assert select_rank(np.array([2.0, 1.0, 0.5, 0.0]), 1.0) == 3

    def test_two_one_one_at_066(self):
        # energies 4,1,1: 4/6 = 0.667 >= 0.66 at rank 1
        assert select_rank(np.array([2.0, 1.0, 1.0]), 0.66) == 1
        assert select_rank(np.array([2.0, 1.0, 1.0]), 0.70) == 2

    def test_empty_vector_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            select_rank(np.array([]), 0.9)

    def test_ascending_rejected(self):
        with pytest.raises(ConfigError):
            select_rank(np.array([1.0, 2.0]), 0.9)


class TestDecomposeModel:
    def test_requires_folded_model(self, tiny_model):
        with pytest.raises(ConfigError, match="BN-folded"):
            decompose_model(tiny_model)

    @pytest.mark.parametrize("ranks", [[2], [2, 2, 1, 5, 7], [2, 0, 1], [2, -3, 1], []])
    def test_ranks_need_one_positive_entry_per_layer(self, tiny_model, ranks):
        with pytest.raises(ConfigError, match="one positive rank per layer"):
            decompose_model(fold_batchnorm(tiny_model), ranks=ranks)

    def test_rank_above_the_matrix_rank_clamps(self, tiny_model):
        # layer 1 is 6 x 18 and layer 3 is 1 x 45: ranks 6 and 1 are their matrix ranks
        folded = fold_batchnorm(tiny_model)
        _, info = decompose_model(folded, ranks=[99, 1, 99])
        assert [e["kept"] for e in info] == [True, False, True]
        _, same = decompose_model(folded, ranks=[6, 1, 1])
        assert [e["rank"] for e in info] == [e["rank"] for e in same]

    def test_structure_and_fidelity_at_full_energy(self, tiny_model, rng):
        folded = fold_batchnorm(tiny_model)
        # force decomposition with explicit low ranks where they save params
        decomposed, info = decompose_model(folded, energy_keep=1.0)
        inputs = random_inputs(rng)
        for a, b in zip(forward_all(folded, inputs), forward_all(decomposed, inputs)):
            assert np.abs(a - b).max() < 1e-6  # full-rank layers kept intact

    def test_relu_placement_after_combine(self, tiny_model):
        folded = fold_batchnorm(tiny_model)
        ranks = [1] * len(folded.layers)
        decomposed, info = decompose_model(folded, ranks=ranks)
        # every decomposed pair: basis has no relu, combine inherits it
        i = 0
        for entry in info:
            if entry["kept"]:
                i += 1
                continue
            assert decomposed.layers[i].relu is False
            assert decomposed.layers[i].conv.kernel_size == folded.config.kernel_size
            assert decomposed.layers[i + 1].conv.kernel_size == 1
            i += 2

    def test_rank_one_changes_outputs_but_keeps_shapes(self, tiny_model, rng):
        folded = fold_batchnorm(tiny_model)
        decomposed, _ = decompose_model(folded, ranks=[1] * len(folded.layers))
        out = float_output(decomposed, rng.integers(0, 256, size=(10, 10)), 26)
        assert out.shape == (10, 10)
