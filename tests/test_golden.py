"""Replay the committed golden DFP pairs: DFP output may not change across commits.

``tests/data/make_golden.py`` wrote each pair (a model container and the
conformance vectors of its filtered planes).  A failure here means the
integer path's output changed; if that is intended, regenerate the pairs
and say why in CHANGES.md.
"""

import gc
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from cnnlf.dfp import corpus_digest, read_conformance, replay_conformance
from cnnlf.model_io import load_model, save_model

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
BIT_DEPTHS = (8, 16)

# run by a child interpreter: replays every pair, prints one corpus digest per pair
REPLAY_CHILD = """
from cnnlf.dfp import read_conformance, replay_conformance
from cnnlf.model_io import load_model
from tests.test_golden import DATA, BIT_DEPTHS
for b in BIT_DEPTHS:
    print(replay_conformance(load_model(DATA / f"golden{b}.clf"),
                             read_conformance(DATA / f"golden{b}.cnfv")))
"""


def golden_pair(bit_depth):
    return (load_model(DATA / f"golden{bit_depth}.clf"),
            read_conformance(DATA / f"golden{bit_depth}.cnfv"))


def test_pairs_cover_the_layer_kinds():
    for b in BIT_DEPTHS:
        model, entries = golden_pair(b)
        shapes = [layer.weights_m.shape for layer in model.layers]
        assert {k for _, _, k, _ in shapes} == {1, 3}
        assert {layer.relu for layer in model.layers} == {True, False}
        # layers with k*k*cout <= cin, among them a ReLU layer and the output head
        narrow = [i for i, (cout, cin, k, _) in enumerate(shapes) if k * k * cout <= cin]
        assert len(shapes) - 1 in narrow and any(model.layers[i].relu for i in narrow)
        assert all(bshift > 0 for bshift, _ in model.shifts()[0])
        assert model.config.bit_depth == b
        assert {e.plane.shape for e in entries} == {(1, 12), (17, 9), (24, 24)}


def test_reading_a_pair_closes_both_files():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        golden_pair(8)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("bit_depth", BIT_DEPTHS)
def test_golden_pair_replays(bit_depth):
    model, entries = golden_pair(bit_depth)
    replay_conformance(model, entries)


@pytest.mark.parametrize("bit_depth", BIT_DEPTHS)
def test_golden_model_resaves_byte_identically(bit_depth, tmp_path):
    # pins the container serialization, config header included
    path = DATA / f"golden{bit_depth}.clf"
    save_model(load_model(path), tmp_path / "again.clf")
    assert (tmp_path / "again.clf").read_bytes() == path.read_bytes()


def test_golden_pairs_replay_with_one_blas_thread():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", REPLAY_CHILD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    want = [corpus_digest(golden_pair(b)[1]) for b in BIT_DEPTHS]
    assert done.stdout.split() == want
