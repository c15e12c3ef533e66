import hashlib
import json
import struct
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cnnlf import cli, compress
from cnnlf.cli import main
from cnnlf.codec import (load_patchset, make_dataset, make_test_image, read_pgm, save_patchset,
                         write_pgm)
from cnnlf.compress import decompose_model, fold_batchnorm, prune_by_bn_scale
from cnnlf.dfp import (build_fl_table, dfp_forward, make_conformance, quantize_model,
                       read_conformance, write_conformance)
from cnnlf.errors import ModelFormatError
from cnnlf.model_io import load_model, model_hash, save_model
from cnnlf.network import NetworkConfig, build_cnnf
from cnnlf.tensor import worker_threads
from cnnlf.trainer import TrainConfig

from .conftest import damaged
from .test_dfp import bias_fl_lowered, quantized_small_model

pytest_plugins = ["pytester"]
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture
def dfp_model():
    cfg = NetworkConfig(num_conv_layers=3, base_filters=6, per_layer_filters=(6, 5))
    model = build_cnnf(cfg, rng_seed=5, zero_init_output=False)
    for layer in model.layers:
        layer.conv.weights *= 0.15
    folded = fold_batchnorm(model)
    calib = [(make_test_image(24, 24, seed=3), 27)]
    return quantize_model(folded, build_fl_table(folded, calib))


def rewrite_header(path, edit):
    """Replace the JSON header of a saved model with ``edit(header)`` and re-seal
    the container's digest, so only the header's content is wrong."""
    data = path.read_bytes()
    (length,) = struct.unpack_from("<Q", data, 8)
    header = edit(json.loads(data[16:16 + length]))
    encoded = json.dumps(header).encode("utf-8")
    body = data[:8] + struct.pack("<Q", len(encoded)) + encoded + data[16 + length:-32]
    path.write_bytes(body + hashlib.sha256(body).digest())


HEADER_DEFECTS = {
    "no-config": lambda h: {k: v for k, v in h.items() if k != "config"},
    "no-blobs": lambda h: {k: v for k, v in h.items() if k != "blobs"},
    "no-kind": lambda h: {k: v for k, v in h.items() if k != "kind"},
    "no-layers": lambda h: {k: v for k, v in h.items() if k != "layers"},
    "no-fl-table": lambda h: {k: v for k, v in h.items() if k != "fl_table"},
    "not-an-object": lambda h: [h],
    "layers-not-a-list": lambda h: {**h, "layers": 7},
    "foreign-dtype": lambda h: {**h, "blobs": [{**b, "dtype": ",f8"} for b in h["blobs"]]},
    # the table still covers every byte, but no blob is named layer0.weights_m
    "blob-missing": lambda h: {**h, "blobs": [{**h["blobs"][0], "name": "renamed"}]
                               + h["blobs"][1:]},
    "layer-shapes-contradict-blobs": lambda h: {**h, "layers": [{**d, "in": 99, "out": 99}
                                                                for d in h["layers"]]},
    "widths-contradict-config": lambda h: {**h, "config": {**h["config"],
                                                           "per_layer_filters": [6, 6]}},
    "config-lacks-key": lambda h: {**h, "config": {k: v for k, v in h["config"].items()
                                                   if k != "bit_depth"}},
    "config-unknown-key": lambda h: {**h, "config": {**h["config"], "stride": 2}},
    "config-wrong-type": lambda h: {**h, "config": {**h["config"], "kernel_size": "3"}},
    "config-not-an-object": lambda h: {**h, "config": [3, 64]},
    "config-float-integer": lambda h: {**h, "config": {**h["config"], "bit_depth": 8.0}},
    "fl-concat-not-input-fl": lambda h: {**h, "fl_table": {**h["fl_table"], "fl_concat": 14}},
    "fl-sum-not-input-fl": lambda h: {**h, "fl_table": {**h["fl_table"], "fl_sum": 14}},
    "fl-non-integer": lambda h: {**h, "fl_table": {**h["fl_table"], "layers": [
        {**h["fl_table"]["layers"][0], "fl_o": h["fl_table"]["layers"][0]["fl_o"] + 0.9},
        *h["fl_table"]["layers"][1:]]}},
}


class TestModelContainer:
    def test_float_round_trip_bit_exact(self, tiny_model, tmp_path):
        path = tmp_path / "m.clf"
        save_model(tiny_model, path, provenance={"seed": 77})
        loaded = load_model(path)
        assert model_hash(loaded) == model_hash(tiny_model)
        for a, b in zip(tiny_model.layers, loaded.layers):
            assert np.array_equal(a.conv.weights, b.conv.weights)
            assert np.array_equal(a.bn.running_var if a.bn else np.array([]),
                                  b.bn.running_var if b.bn else np.array([]))

    def test_dfp_round_trip_and_replay(self, dfp_model, tmp_path):
        path = tmp_path / "m.clf"
        save_model(dfp_model, path)
        loaded = load_model(path)
        assert model_hash(loaded) == model_hash(dfp_model)
        corpus = [(make_test_image(24, 24, seed=60 + i), qp)
                  for i, qp in enumerate((22, 37))]
        for plane, qp in corpus:
            assert np.array_equal(dfp_forward(loaded, plane, qp),
                                  dfp_forward(dfp_model, plane, qp))

    def test_truncated_file_rejected_without_partial_model(self, tiny_model, tmp_path):
        path = tmp_path / "m.clf"
        save_model(tiny_model, path)
        data = path.read_bytes()
        for cut in (3, 10, len(data) // 2, len(data) - 1):
            (tmp_path / "cut.clf").write_bytes(data[:cut])
            with pytest.raises(ModelFormatError) as err:
                load_model(tmp_path / "cut.clf")
            assert err.value.offset is not None

    def test_foreign_file_rejected(self, tmp_path):
        (tmp_path / "x.clf").write_bytes(b"garbage here, not a model container....")
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(tmp_path / "x.clf")

    def test_version_mismatch_distinct_error(self, tiny_model, tmp_path):
        path = tmp_path / "m.clf"
        save_model(tiny_model, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_trailing_garbage_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "m.clf"
        save_model(tiny_model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)

    @pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
    def test_malformed_header_is_format_error(self, dfp_model, tmp_path, defect):
        path = tmp_path / "m.clf"
        save_model(dfp_model, path)
        rewrite_header(path, HEADER_DEFECTS[defect])
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert err.value.offset == 16

    @pytest.mark.parametrize("which", ["float", "dfp"])
    def test_any_header_bit_flip_is_format_error(self, which, tiny_model, dfp_model,
                                                 tmp_path):
        path = tmp_path / "m.clf"
        save_model(tiny_model if which == "float" else dfp_model, path)
        data = path.read_bytes()
        (length,) = struct.unpack_from("<Q", data, 8)
        for offset in range(16, 16 + length):
            for bit in (0, 2, 4, 6):
                flipped = bytearray(data)
                flipped[offset] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                with pytest.raises(ModelFormatError):
                    load_model(path)

    def test_blob_or_digest_bit_flip_is_format_error(self, dfp_model, tmp_path):
        path = tmp_path / "m.clf"
        save_model(dfp_model, path)
        data = path.read_bytes()
        (length,) = struct.unpack_from("<Q", data, 8)
        # the first blob byte, the last blob byte and the first and last digest bytes
        for offset in (16 + length, len(data) - 33, len(data) - 32, len(data) - 1):
            flipped = bytearray(data)
            flipped[offset] ^= 1
            path.write_bytes(bytes(flipped))
            with pytest.raises(ModelFormatError, match="digest"):
                load_model(path)

    @pytest.mark.parametrize("which", ["float", "dfp"])
    def test_damaged_model_loads_or_is_format_error(self, which, tiny_model, dfp_model,
                                                    tmp_path):
        model = tiny_model if which == "float" else dfp_model
        save_model(model, tmp_path / "m.clf")
        for data in damaged((tmp_path / "m.clf").read_bytes(), 1500):
            (tmp_path / "hurt.clf").write_bytes(data)
            try:
                loaded = load_model(tmp_path / "hurt.clf")
            except ModelFormatError as exc:
                assert "hurt.clf" in str(exc)
            else:
                assert model_hash(loaded) == model_hash(model)

    def test_hash_is_the_container_digest(self, dfp_model, tmp_path):
        save_model(dfp_model, tmp_path / "m.clf")
        data = (tmp_path / "m.clf").read_bytes()
        assert model_hash(dfp_model) == data[-32:].hex() == hashlib.sha256(data[:-32]).hexdigest()

    def test_pruned_and_decomposed_models_round_trip(self, tiny_model, tmp_path):
        for layer in tiny_model.layers[:-1]:
            layer.bn.scale[::2] = 0.0
        pruned, _ = prune_by_bn_scale(tiny_model, 1e-6)
        decomposed, _ = decompose_model(fold_batchnorm(pruned), ranks=[1, 1, 1])
        assert decomposed.num_layers > pruned.num_layers
        for model in (pruned, decomposed):
            save_model(model, tmp_path / "m.clf")
            assert model_hash(load_model(tmp_path / "m.clf")) == model_hash(model)

    def test_hash_stable_across_builds(self, tiny_config):
        a = build_cnnf(tiny_config, rng_seed=9)
        b = build_cnnf(tiny_config, rng_seed=9)
        assert model_hash(a) == model_hash(b)

    def test_hash_changes_on_single_bit_flip(self, dfp_model):
        before = model_hash(dfp_model)
        dfp_model.layers[0].weights_m[0, 0, 0, 0] ^= 1
        assert model_hash(dfp_model) != before


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    @pytest.fixture
    def workspace(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def _make_pipeline(self, ws):
        assert self.run("dataset", "--synthetic", "3", "--synthetic-size", "70x70",
                        "--qps", "22,37", "--out", "ds.npz", "--seed", "1") == 0
        assert self.run("train", "--dataset", "ds.npz", "--out", "m.clf",
                        "--layers", "3", "--filters", "6", "--epochs", "1",
                        "--batch-size", "8", "--lr", "0.002", "--seed", "2") == 0
        assert self.run("quantize", "--model", "m.clf", "--dataset", "ds.npz",
                        "--out", "md.clf", "--calib-count", "4") == 0

    @staticmethod
    def _save_patchset(path, bit_depth):
        img = make_test_image(40, 40, seed=2).astype(np.uint16) << (bit_depth - 8)
        save_patchset(path, make_dataset([("a", img)], qps=(22, 37), patch=16,
                                         bit_depth=bit_depth))

    def test_train_on_a_10_bit_set_makes_a_10_bit_model(self, workspace):
        self._save_patchset("ds.npz", 10)
        assert self.run("train", "--dataset", "ds.npz", "--out", "m.clf", "--layers", "3",
                        "--filters", "4", "--epochs", "1", "--batch-size", "4",
                        "--lr", "0.002", "--seed", "2") == 0
        assert load_model("m.clf").config.bit_depth == 10

    @pytest.mark.parametrize("model_depth, set_depth", [(10, 8), (8, 10)])
    def test_quantize_on_a_set_of_another_bit_depth_exit_code(self, workspace, capsys, monkeypatch,
                                                              model_depth, set_depth):
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 4),
                            bit_depth=model_depth)
        save_model(build_cnnf(cfg, rng_seed=1), "m.clf")
        self._save_patchset("ds.npz", set_depth)

        def calibrate(*args):
            raise AssertionError("calibrated")

        monkeypatch.setattr(cli, "build_fl_table", calibrate)
        assert self.run("quantize", "--model", "m.clf", "--dataset", "ds.npz",
                        "--out", "q.clf") == 5
        err = capsys.readouterr().err
        assert err.count("cnnlf:") == 1
        assert f"patch set is {set_depth}-bit, model {model_depth}-bit" in err
        assert not (workspace / "q.clf").exists()

    def test_dataset_train_quantize_chain(self, workspace):
        self._make_pipeline(workspace)
        assert load_patchset("ds.npz").qps.count(22) > 0
        assert (workspace / "m.clf.history.jsonl").exists()
        assert (workspace / "m.clf.run.json").exists()
        run = json.loads((workspace / "md.clf.run.json").read_text())
        assert "m.clf" in run["inputs"]
        record = json.loads((workspace / "m.clf.history.jsonl").read_text()
                            .splitlines()[0])
        assert {"epoch", "step", "mse", "reg_w", "reg_s", "reg_lda", "total",
                "lr"} <= set(record)

    def test_prune_lowrank_finetune_verify_chain(self, workspace):
        self._make_pipeline(workspace)
        assert self.run("prune", "--model", "m.clf", "--out", "p.clf") == 0
        # ranks 2 and 2 split the two 6-filter layers; the 1-channel head stays whole
        assert self.run("lowrank", "--model", "p.clf", "--out", "l.clf",
                        "--ranks", "2,2,1") == 0
        assert load_model("l.clf").num_layers == 5
        assert self.run("quantize", "--model", "l.clf", "--dataset", "ds.npz", "--out", "q.clf",
                        "--calib-count", "4", "--finetune", "--finetune-epochs", "1",
                        "--vectors", "v.bin", "--log", "log") == 0
        (record,) = [json.loads(line) for line in (workspace / "log").read_text().splitlines()]
        assert record["finetuned"] is True and record["layers"] == 5
        assert self.run("verify", "--model", "q.clf", "--vectors", "v.bin") == 0

    @pytest.mark.parametrize("ranks", ["2", "2,2,1,5,7", "2,0,1", "2,-3,1"])
    def test_lowrank_ranks_not_one_positive_per_layer_exit_code(self, workspace, tiny_model,
                                                               capsys, ranks):
        save_model(tiny_model, "m.clf")
        assert self.run("lowrank", "--model", "m.clf", "--out", "l.clf", f"--ranks={ranks}") == 5
        err = capsys.readouterr().err
        assert err.count("cnnlf:") == 1 and "one positive rank per layer" in err
        assert not (workspace / "l.clf").exists()

    @pytest.mark.parametrize("patch", ["0", "-3"])
    def test_dataset_patch_below_one_exit_code(self, workspace, capsys, patch):
        assert self.run("dataset", "--synthetic", "1", "--synthetic-size", "40x40",
                        f"--patch={patch}", "--out", "d.npz") == 5
        err = capsys.readouterr().err
        assert err.count("cnnlf:") == 1 and "patch size must be at least 1" in err
        assert not (workspace / "d.npz").exists()

    def test_infer_dfp_twice_byte_identical(self, workspace):
        self._make_pipeline(workspace)
        write_pgm("in.pgm", make_test_image(48, 48, seed=9))
        assert self.run("infer", "--model", "md.clf", "--input", "in.pgm",
                        "--qp", "37", "--out", "a.pgm", "--dfp", "--log", "log") == 0
        assert self.run("infer", "--model", "md.clf", "--input", "in.pgm",
                        "--qp", "37", "--out", "b.pgm", "--dfp") == 0
        assert (workspace / "a.pgm").read_bytes() == (workspace / "b.pgm").read_bytes()
        (record,) = [json.loads(line) for line in (workspace / "log").read_text().splitlines()]
        assert record["event"] == "infer" and record["dfp"] is True
        assert record["workers"] == worker_threads() >= 1

    def test_infer_float_on_plane_narrower_than_kernel(self, workspace, tiny_model):
        save_model(tiny_model, "m.clf")
        write_pgm("in.pgm", make_test_image(1, 12, seed=9))
        assert self.run("infer", "--model", "m.clf", "--input", "in.pgm",
                        "--qp", "22", "--out", "o.pgm", "--log", "log") == 0
        assert read_pgm("o.pgm").shape == (1, 12)
        # the float path has no workers to report
        (record,) = [json.loads(line) for line in (workspace / "log").read_text().splitlines()]
        assert record["dfp"] is False and "workers" not in record

    def test_infer_dfp_flag_on_float_model_fails(self, workspace):
        self._make_pipeline(workspace)
        write_pgm("in.pgm", make_test_image(48, 48, seed=9))
        assert self.run("infer", "--model", "m.clf", "--input", "in.pgm",
                        "--qp", "37", "--out", "x.pgm", "--dfp") == 5

    def test_eval_zero_model_gives_zero_bdrate(self, workspace, capsys):
        # an all-zero model is an exact identity, so curves coincide
        cfg = NetworkConfig(num_conv_layers=3, base_filters=4, per_layer_filters=(4, 4))
        model = build_cnnf(cfg, rng_seed=0)
        for layer in model.layers:
            layer.conv.weights[:] = 0.0
            layer.conv.bias[:] = 0.0
            if layer.bn is not None:
                layer.bn.shift[:] = 0.0
        save_model(model, "zero.clf")
        assert self.run("eval", "--model", "zero.clf", "--synthetic", "2",
                        "--synthetic-size", "64x64", "--qps", "22,27,32,37",
                        "--out-dir", "ev", "--seed", "3") == 0
        bd = float((workspace / "ev" / "bdrate.txt").read_text())
        assert bd == 0.0

    def test_eval_folds_bn_once_and_keeps_its_output(self, workspace, tiny_bn_model,
                                                     monkeypatch):
        model = tiny_bn_model.copy()
        # a small residual keeps the filtered RD curve inside the anchor's quality range
        model.layers[-1].conv.weights *= 0.01
        model.layers[-1].conv.bias[:] = 0.0
        save_model(model, "bn.clf")
        argv = ("eval", "--model", "bn.clf", "--synthetic", "2", "--synthetic-size", "40x40",
                "--qps", "22,27,32,37", "--seed", "3", "--out-dir")
        folds = []

        def counting_fold(model):
            folds.append(model.has_bn)
            return fold_batchnorm(model)

        monkeypatch.setattr(cli, "fold_batchnorm", counting_fold)
        monkeypatch.setattr(compress, "fold_batchnorm", counting_fold)
        assert self.run(*argv, "once") == 0
        # the loaded model is folded once; filter_plane then gets a model without BN
        assert folds.count(True) == 1
        # without the fold at load, filter_plane folds the BN model for every plane x QP
        monkeypatch.setattr(cli, "_load_for_inference", load_model)
        assert self.run(*argv, "per-plane") == 0
        assert folds.count(True) == 9
        for name in ("bdrate.txt", "filtered.csv"):
            once = (workspace / "once" / name).read_bytes()
            assert once == (workspace / "per-plane" / name).read_bytes()

    def test_verify_pass_and_fail_exit_codes(self, workspace, dfp_model):
        save_model(dfp_model, "md.clf")
        corpus = [(make_test_image(32, 32, seed=70 + i), qp)
                  for i in range(2) for qp in (22, 37)]
        entries = make_conformance(dfp_model, corpus)
        write_conformance("v.bin", entries)
        assert self.run("verify", "--model", "md.clf", "--vectors", "v.bin", "--log", "log") == 0
        (record,) = [json.loads(line) for line in (workspace / "log").read_text().splitlines()]
        assert record["event"] == "verify" and record["vectors"] == 4
        assert record["workers"] == worker_threads() >= 1
        # a perturbed model must fail verification with the dedicated code
        dfp_model.layers[-1].bias_m[:] += 1 << 12
        save_model(dfp_model, "bad.clf")
        assert self.run("verify", "--model", "bad.clf", "--vectors", "v.bin") == 4

    def test_quantize_writes_vectors_verify_replays(self, workspace):
        self._make_pipeline(workspace)
        assert self.run("quantize", "--model", "m.clf", "--dataset", "ds.npz",
                        "--out", "md2.clf", "--calib-count", "4", "--vectors", "v.bin") == 0
        # writing vectors leaves the model as quantize writes it without them
        assert (workspace / "md2.clf").read_bytes() == (workspace / "md.clf").read_bytes()
        assert len(read_conformance("v.bin")) == 4
        assert self.run("verify", "--model", "md2.clf", "--vectors", "v.bin") == 0

    def test_missing_input_exit_code(self, workspace):
        assert self.run("train", "--dataset", "nope.npz", "--out", "m.clf") == 3

    def test_log_that_cannot_be_opened_exit_code(self, workspace, capsys):
        (workspace / "adir").mkdir()
        assert self.run("dataset", "--synthetic", "1", "--out", "d.npz", "--log", "adir") == 3
        assert "cnnlf: missing input: " in capsys.readouterr().err
        assert not (workspace / "d.npz").exists()

    def test_directory_as_input_exit_code(self, workspace, tiny_model):
        (workspace / "adir").mkdir()
        save_model(tiny_model, "m.clf")
        write_pgm("in.pgm", make_test_image(16, 16, seed=1))
        assert self.run("train", "--dataset", "adir", "--out", "m2.clf", "--log", "log") == 3
        assert self.run("infer", "--model", "adir", "--input", "in.pgm", "--qp", "22",
                        "--out", "o.pgm", "--log", "log") == 3
        assert self.run("infer", "--model", "m.clf", "--input", "adir", "--qp", "22",
                        "--out", "o.pgm", "--log", "log") == 3
        records = [json.loads(line) for line in (workspace / "log").read_text().splitlines()]
        assert [r["kind"] for r in records] == ["missing-input"] * 3
        assert all("adir" in r["message"] for r in records)

    def test_truncated_vectors_exit_code(self, workspace, dfp_model):
        save_model(dfp_model, "md.clf")
        (workspace / "v.bin").write_bytes(b"CNFV\x01")
        assert self.run("verify", "--model", "md.clf", "--vectors", "v.bin") == 3

    @pytest.mark.parametrize("content", ["not-a-zip", "no-original"])
    def test_bad_patch_set_exit_code(self, workspace, capsys, content):
        if content == "not-a-zip":
            (workspace / "ds.npz").write_bytes(b"not a zip file")
        else:
            np.savez("ds.npz", decoded=np.zeros((2, 35, 35)), qps=np.array([22, 37]))
        assert self.run("train", "--dataset", "ds.npz", "--out", "m.clf") == 5
        assert "ds.npz" in capsys.readouterr().err

    def test_corrupt_model_exit_code(self, workspace):
        (workspace / "bad.clf").write_bytes(b"not a model")
        write_pgm("in.pgm", make_test_image(16, 16, seed=1))
        assert self.run("infer", "--model", "bad.clf", "--input", "in.pgm",
                        "--qp", "22", "--out", "o.pgm") == 3

    def test_model_header_missing_key_exit_code(self, workspace, dfp_model, capsys):
        save_model(dfp_model, workspace / "bad.clf")
        rewrite_header(workspace / "bad.clf", HEADER_DEFECTS["no-fl-table"])
        write_pgm("in.pgm", make_test_image(16, 16, seed=1))
        assert self.run("infer", "--model", "bad.clf", "--input", "in.pgm",
                        "--qp", "22", "--out", "o.pgm", "--dfp") == 3
        assert "'fl_table'" in capsys.readouterr().err
        assert not (workspace / "o.pgm").exists()

    def test_model_failing_accumulator_bound_exit_code(self, workspace, capsys):
        dm, _ = quantized_small_model()
        save_model(dm, workspace / "bad.clf")
        # every bias shift grows by 40 bits: the accumulator bound passes 2^53
        rewrite_header(workspace / "bad.clf",
                       lambda h: {**h, "fl_table": bias_fl_lowered(dm.fl_table, 40).to_dict()})
        with pytest.raises(ModelFormatError, match="2\\^53"):
            load_model(workspace / "bad.clf")
        write_pgm("in.pgm", make_test_image(16, 16, seed=1))
        assert self.run("infer", "--model", "bad.clf", "--input", "in.pgm",
                        "--qp", "22", "--out", "o.pgm", "--dfp") == 3
        assert "2^53" in capsys.readouterr().err
        assert not (workspace / "o.pgm").exists()

    def test_dataset_of_small_synthetic_images_reports_empty(self, workspace, capsys):
        with pytest.warns(UserWarning, match="smaller than patch"):
            assert self.run("dataset", "--synthetic", "1", "--synthetic-size", "16x16",
                            "--out", "d.npz") == 5
        assert "dataset is empty" in capsys.readouterr().err

    def test_config_file_fills_defaults_flags_win(self, workspace):
        (workspace / "run.json").write_text(json.dumps(
            {"synthetic": 2, "synthetic_size": "70x70", "qps": "22,37", "seed": 4}))
        assert self.run("dataset", "--config", "run.json", "--out", "d1.npz") == 0
        # explicit flag beats the config value
        assert self.run("dataset", "--config", "run.json", "--qps", "27",
                        "--out", "d2.npz") == 0
        assert set(load_patchset("d1.npz").qps) == {22, 37}
        assert set(load_patchset("d2.npz").qps) == {27}

    def test_unknown_config_key_rejected(self, workspace):
        (workspace / "run.json").write_text(json.dumps({"bogus_key": 1}))
        assert self.run("dataset", "--config", "run.json", "--synthetic", "1",
                        "--out", "d.npz") == 5

    def test_threads_flag_and_config_key_rejected(self, workspace):
        # the worker count is BLAS's thread count, so there is no flag or key to set it
        with pytest.raises(SystemExit) as exc:
            self.run("verify", "--model", "m.clf", "--vectors", "v.bin", "--threads", "2")
        assert exc.value.code == 2
        (workspace / "run.json").write_text(json.dumps({"threads": 2}))
        assert self.run("dataset", "--config", "run.json", "--synthetic", "1",
                        "--out", "d.npz") == 5

    def test_config_directory_exit_code(self, workspace, capsys):
        (workspace / "run.json").mkdir()
        assert self.run("dataset", "--config", "run.json", "--synthetic", "1",
                        "--out", "d.npz") == 3
        assert "run.json" in capsys.readouterr().err

    def test_config_not_utf8_exit_code(self, workspace, capsys):
        (workspace / "run.json").write_bytes(b'{"seed": "\xff"}')
        assert self.run("dataset", "--config", "run.json", "--synthetic", "1",
                        "--out", "d.npz") == 5
        assert "run.json" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("synthetic", [1]), ("synthetic", "2"),
                                            ("seed", True), ("seed", None), ("qps", 22),
                                            ("images", "a.pgm"), ("patch", 35.5)])
    def test_config_value_of_wrong_type_exit_code(self, workspace, capsys, key, value):
        (workspace / "run.json").write_text(json.dumps({key: value}))
        assert self.run("dataset", "--config", "run.json", "--synthetic", "1",
                        "--out", "d.npz") == 5
        err = capsys.readouterr().err
        assert "run.json" in err and repr(key) in err

    def test_config_value_types_the_flags_take(self, workspace):
        (workspace / "run.json").write_text(json.dumps(
            {"lr": 1, "lambda_w": 0.0, "prune_at": None, "preset": "desk"}))
        assert self.run("train", "--config", "run.json", "--dataset", "nope.npz",
                        "--out", "m.clf") == 3
        (workspace / "run.json").write_text(json.dumps({"preset": "huge"}))
        assert self.run("train", "--config", "run.json", "--dataset", "nope.npz",
                        "--out", "m.clf") == 5

    @pytest.mark.parametrize("preset, base", [("desk", TrainConfig.desk()),
                                              ("paper", TrainConfig())], ids=["desk", "paper"])
    def test_train_preset_resolves_with_flag_overrides(self, preset, base):
        args = cli.build_parser().parse_args(
            ["train", "--dataset", "d.npz", "--out", "m.clf", "--preset", preset,
             "--lr", "0.2", "--epochs", "3", "--seed", "5"])
        assert cli._train_config(args) == replace(base, base_lr=0.2, epochs=3, rng_seed=5)

    def test_damaged_run_config_runs_or_is_one_line_error(self, workspace, capsys):
        good = json.dumps({"synthetic": 1, "synthetic_size": "40x40", "qps": "22,37",
                           "seed": 4}).encode()
        for trial, data in enumerate(damaged(good, 300)):
            (workspace / "run.json").write_bytes(data)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = self.run("dataset", "--config", "run.json", "--out", f"d{trial}.npz")
            assert all("smaller than patch" in str(w.message) for w in caught), data
            # besides the JSONL log records, stderr holds one "cnnlf:" line on failure
            said = [line for line in capsys.readouterr().err.splitlines()
                    if not line.startswith("{")]
            assert code in (0, 5), data
            assert len(said) == (code != 0), (data, said)
            assert all(line.startswith("cnnlf: ") for line in said), (data, said)

    def test_resolved_config_written_next_to_output(self, workspace):
        assert self.run("dataset", "--synthetic", "1", "--synthetic-size", "70x70",
                        "--qps", "22,27,32,37", "--out", "ds.npz") == 0
        resolved = json.loads((workspace / "ds.npz.run.json").read_text())
        assert resolved["command"] == "dataset"
        assert resolved["resolved"]["qps"] == "22,27,32,37"


def test_failing_hypothesis_test_fails_only_itself(pytester):
    # Hypothesis's plugin imports libcst to write the failing example's patch, which warns;
    # under the project's warning filters that must not abort the session
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_inner="""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_inner.py")
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.assert_outcomes(failed=1, passed=1)
