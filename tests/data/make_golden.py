"""Write the golden DFP pairs that ``tests/test_golden.py`` replays.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_golden.py

Each pair is a quantized model container and a conformance file of its
filtered planes, one pair per bit depth (a model has one input bit depth).
The model mixes 3x3 and 1x1 layers (a low-rank basis and 1x1 combine pair
from ``decompose_model``), ReLU and non-ReLU layers, and layers whose
``k*k*cout`` does not exceed ``cin`` (an 18->2 ReLU layer, the rank-1
basis and the 12->1 output head).  The conformance files store their input
planes, so replaying them does not depend on numpy's random streams.

Regenerating the pairs changes what the replay test pins: do it only for a
deliberate change of DFP output, and say why in CHANGES.md.
"""

from pathlib import Path

import numpy as np

from cnnlf.codec import make_test_image
from cnnlf.compress import decompose_model, fold_batchnorm
from cnnlf.dfp import (FLTable, LayerFL, build_fl_table, make_conformance, quantize_model,
                       write_conformance)
from cnnlf.model_io import save_model
from cnnlf.network import NetworkConfig, build_cnnf

HERE = Path(__file__).resolve().parent
SHAPES = [(1, 12), (17, 9), (24, 24)]
QPS = (22, 37)


def golden_float_model(bit_depth: int):
    cfg = NetworkConfig(num_conv_layers=5, base_filters=18, per_layer_filters=(18, 2, 12, 12),
                        bit_depth=bit_depth)
    model = fold_batchnorm(build_cnnf(cfg, rng_seed=6, zero_init_output=False))
    rng = np.random.default_rng(6)
    for layer in model.layers:
        layer.conv.weights *= 0.5
        layer.conv.bias[:] = rng.uniform(-0.05, 0.05, size=layer.conv.bias.shape)
    # rank 1 splits 12->12 into a 12->1 3x3 basis and a 1->12 1x1 combine; the rest stay
    model, _ = decompose_model(model, ranks=[18, 2, 12, 1, 1])
    return model


def golden_planes(bit_depth: int) -> list:
    planes = []
    for i, (h, w) in enumerate(SHAPES):
        plane = make_test_image(h, w, seed=80 + i)
        if bit_depth > 8:
            noise = np.random.default_rng(90 + i).integers(0, 257, size=plane.shape)
            plane = (plane.astype(np.int64) * 257 + noise).clip(0, (1 << bit_depth) - 1)
            plane = plane.astype(np.uint16)
        planes.append(plane)
    return planes


def main():
    for bit_depth in (8, 16):
        model = golden_float_model(bit_depth)
        planes = golden_planes(bit_depth)
        corpus = [(p, qp) for p in planes for qp in QPS]
        # the float forward filters any plane; leaving out the 1x12 plane only keeps the
        # calibration set, and so the FL table, that the committed pairs were written with
        calib = [(p, qp) for p, qp in corpus if min(p.shape) >= 3]
        table = build_fl_table(model, calib)
        # a coarser bias grid, so every layer aligns its bias by a nonzero left shift
        table = FLTable([LayerFL(e.fl_w, e.fl_b - 3, e.fl_o) for e in table.layers])
        dfp = quantize_model(model, table)
        save_model(dfp, HERE / f"golden{bit_depth}.clf")
        write_conformance(HERE / f"golden{bit_depth}.cnfv",
                          make_conformance(dfp, corpus), bit_depth)


if __name__ == "__main__":
    main()
