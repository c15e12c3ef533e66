"""The three workloads, the loop that times them, and their metrics.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come from the seed; set-up is
repeated and timed; then operations run until their summed time reaches
the requested seconds.  Every operation is checked against a reference
computed outside the timed region; a wrong result or an exception counts
as a failed operation and the run goes on.

The program is driven through its public functions, always looked up on
the module (``dfp.dfp_forward``), so a traced run sees the wrapped ones.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from cnnlf import codec, compress, dfp, model_io, network, trainer

from . import reference
from .reference import ReferenceWorker
from .tracing import LAYERS, Tracer

NPROC = len(os.sched_getaffinity(0))
# Timed DFP frames run at one thread.  On a small shared host the integer
# path at threads=nproc varies by about 16% from frame to frame and its run
# medians spread 2.5 times as wide as at one thread (see README, Noise), so
# the threaded path is checked once per run instead of timed.
DFP_THREADS = 1
QPS = codec.DEFAULT_QPS
LUMA = (120, 208)      # H x W: a quarter-area HEVC class D frame
CHROMA = (60, 104)     # its 4:2:0 chroma planes
PATCH = codec.PATCH_SIZE
BATCH = 16
PIXEL_TOLERANCE = 1    # float path: per-pixel distance to the reference
BD_RATE_TOLERANCE = 0.05   # float path: percentage points
LOSS_RTOL = 1e-6       # training loss, relative

END_TO_END = {"setup_s": "s", "mpix_per_s": "Mpix/s", "op_s_p50": "s", "peak_rss_mb": "MB"}

# (metric, phase, function, statistic).  Loop figures are per operation
# (frame, plane x QP, or training step), set-up figures per set-up.
FUNCTION_METRICS = [
    ("dfp.dfp_forward.self_s", "loop", "dfp.dfp_forward", "self_s"),
    ("dfp.dfp_forward.calls", "loop", "dfp.dfp_forward", "calls"),
    ("dfp.dfp_forward.gmac_per_s", "loop", "dfp.dfp_forward", "gmac_per_s"),
    ("dfp.dfp_forward.luma_s", "loop", "dfp.dfp_forward", "luma"),
    ("dfp.dfp_forward.chroma_s", "loop", "dfp.dfp_forward", "chroma"),
    ("dfp.input_mantissas.s", "loop", "dfp.input_mantissas", "s"),
    ("dfp.plane_bytes.s", "loop", "dfp.plane_bytes", "s"),
    ("dfp.build_fl_table.s", "setup", "dfp.build_fl_table", "s"),
    ("dfp.quantize_model.s", "setup", "dfp.quantize_model", "s"),
    ("compress.fold_batchnorm.s", "setup", "compress.fold_batchnorm", "s"),
    ("model_io.save_model.s", "setup", "model_io.save_model", "s"),
    ("model_io.load_model.s", "setup", "model_io.load_model", "s"),
    ("tensor.conv2d.s", "loop", "tensor.conv2d", "s"),
    ("tensor.conv2d.calls", "loop", "tensor.conv2d", "calls"),
    ("tensor.conv2d.gmac_per_s", "loop", "tensor.conv2d", "gmac_per_s"),
    ("tensor.batchnorm_forward.s", "loop", "tensor.batchnorm_forward", "s"),
    ("tensor.relu.s", "loop", "tensor.relu", "s"),
    ("network.forward_network.self_s", "loop", "network.forward_network", "self_s"),
    ("network.normalize_inputs.s", "loop", "network.normalize_inputs", "s"),
    ("network.denormalize.s", "loop", "network.denormalize", "s"),
    ("tensor.conv2d_grad.s", "loop", "tensor.conv2d_grad", "s"),
    ("tensor.conv2d_grad.gmac_per_s", "loop", "tensor.conv2d_grad", "gmac_per_s"),
    ("tensor.batchnorm_backward.s", "loop", "tensor.batchnorm_backward", "s"),
    ("tensor.relu_grad.s", "loop", "tensor.relu_grad", "s"),
    ("trainer.backward_network.self_s", "loop", "trainer.backward_network", "self_s"),
    ("trainer.lda_regularizer.s", "loop", "trainer.lda_regularizer", "s"),
    ("trainer.sgd_step.s", "loop", "trainer.sgd_step", "s"),
    ("trainer.loss_eq1.self_s", "loop", "trainer.loss_eq1", "self_s"),
    ("codec.encode_intra_plane.s", "loop", "codec.encode_intra_plane", "s"),
    ("codec.psnr.s", "loop", "codec.psnr", "s"),
    ("codec.bd_rate.s", "loop", "codec.bd_rate", "s"),
    ("codec.make_dataset.s", "setup", "codec.make_dataset", "s"),
]
_STAT_UNITS = {"s": "s", "self_s": "s", "luma": "s", "chroma": "s",
               "calls": "count", "gmac_per_s": "GMAC/s"}
PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update({"other_s": "s", "trace.wall_s": "s", "trace.ops": "count",
                  "trace.overhead_pct": "%"})
PER_LAYER.update({name: _STAT_UNITS[stat] for name, _, _, stat in FUNCTION_METRICS})


def _conv_macs(args) -> tuple:
    x, params = args[0], args[1]
    n, _, h, w = np.shape(x)
    return n * h * w * params.weights.size, None


def _dfp_macs(args) -> tuple:
    model, plane = args[0], np.asarray(args[1])
    macs = plane.size * sum(layer.weights_m.size for layer in model.layers)
    return macs, "luma" if plane.shape == LUMA else "chroma"


# Multiply-accumulates computed from layer shapes and pixel counts, not counted.
HOOKS = {
    "tensor.conv2d": _conv_macs,
    "tensor.conv2d_grad": lambda args: (2 * _conv_macs(args)[0], None),
    "dfp.dfp_forward": _dfp_macs,
}


def network_config(smoke: bool) -> network.NetworkConfig:
    """The paper's 8-layer 64-filter 3x3 model, or the 3-layer test shape in smoke mode."""
    if smoke:
        return network.NetworkConfig(num_conv_layers=3, base_filters=8, per_layer_filters=(6, 5))
    return network.NetworkConfig()


def stand_in_model(config, seed: int):
    """A BN model standing in for a trained filter.

    Built with ``build_cnnf``; BN statistics are drawn so that folding
    and inference-mode BN do real work.  Each output-head kernel is made
    to sum to zero and scaled down, so the residual is a zero-mean
    correction of about one level instead of a seed-dependent offset that
    could push the filtered RD curve out of the anchor's quality range.
    """
    model = network.build_cnnf(config, rng_seed=seed, zero_init_output=False)
    rng = np.random.default_rng(seed + 1)
    for layer in model.layers[:-1]:
        c = layer.bn.channels
        layer.bn.scale[:] = rng.uniform(0.5, 1.5, c)
        layer.bn.shift[:] = rng.normal(0.0, 0.1, c)
        layer.bn.running_mean[:] = rng.normal(0.0, 0.1, c)
        layer.bn.running_var[:] = rng.uniform(0.5, 2.0, c)
    head = model.layers[-1].conv.weights
    head -= head.mean(axis=(2, 3), keepdims=True)
    head *= 0.1
    return model


def float_layers(model) -> list:
    """Copies of a float model's parameters in the reference's plain format."""
    out = []
    for layer in model.layers:
        bn = layer.bn
        bn_arrays = None if bn is None else (bn.scale.copy(), bn.shift.copy(),
                                             bn.running_mean.copy(), bn.running_var.copy(),
                                             bn.epsilon)
        out.append((layer.conv.weights.copy(), layer.conv.bias.copy(), bn_arrays, layer.relu))
    return out


def _digest(plane, bit_depth) -> str:
    return hashlib.sha256(dfp.plane_bytes(plane, bit_depth)).hexdigest()


class Workload:
    """Inputs, set-up, one operation and its correctness gate."""

    name = ""
    setup_repeats = 9

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.config = network_config(smoke)
        self.model_path = workdir / f"{self.name}.clf"

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Untimed work before operation ``i``."""

    def op(self, i: int):
        raise NotImplementedError

    def pixels(self, i: int) -> int:
        raise NotImplementedError

    def check(self, i: int, result, worker) -> bool:
        raise NotImplementedError

    def final_checks(self, worker) -> list:
        """Extra untimed checks once per run; each counts as an attempted operation."""
        return []

    def describe(self) -> dict:
        cfg = self.config
        return {"conv_layers": cfg.num_conv_layers, "filters": list(cfg.per_layer_filters),
                "kernel": cfg.kernel_size,
                "param_count": compress.count_parameters(self.float_model)}


class InferDFP(Workload):
    """Integer-path inference of whole 4:2:0 frames (Y, U, V) at ``DFP_THREADS``."""

    name = "infer-dfp"
    frames = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.float_model = stand_in_model(self.config, seed)
        rng = np.random.default_rng(seed)
        self.inputs = []
        for f in range(self.frames):
            qp = int(rng.choice(QPS))
            planes = [codec.encode_intra_plane(
                codec.make_test_image(*shape, seed=int(rng.integers(1 << 31))), qp)[0]
                for shape in (LUMA, CHROMA, CHROMA)]
            self.inputs.append((planes, qp))
        luma, qp = self.inputs[0][0][0], self.inputs[0][1]
        self.calibration = [(luma[y:y + PATCH, x:x + PATCH], qp)
                            for y in (0, LUMA[0] - PATCH) for x in (0, LUMA[1] - PATCH)]
        self._references = {}

    def setup(self):
        folded = compress.fold_batchnorm(self.float_model)
        table = dfp.build_fl_table(folded, self.calibration)
        model_io.save_model(dfp.quantize_model(folded, table), self.model_path)
        self.model = model_io.load_model(self.model_path)

    def op(self, i):
        planes, qp = self.inputs[i % self.frames]
        return [_digest(dfp.dfp_forward(self.model, plane, qp, threads=DFP_THREADS),
                        self.config.bit_depth) for plane in planes]

    def pixels(self, i):
        return sum(p.size for p in self.inputs[i % self.frames][0])

    def reference(self, frame: int, worker) -> list:
        """Reference digests of one frame's planes, computed once per run."""
        if frame not in self._references:
            m = self.model
            layers = [(layer.weights_m, layer.bias_m, layer.relu, fl.fl_w, fl.fl_b, fl.fl_o)
                      for layer, fl in zip(m.layers, m.fl_table.layers)]
            planes, qp = self.inputs[frame]
            self._references[frame] = [
                worker.call(reference.dfp_digest, layers, m.fl_table.fl_concat,
                            m.fl_table.fl_sum, plane, qp, m.config.bit_depth, m.config.qp_max)
                for plane in planes]
        return self._references[frame]

    def check(self, i, result, worker):
        return result == self.reference(i % self.frames, worker)

    def final_checks(self, worker):
        """One chroma plane again at ``threads=nproc``: the digest may not depend on threads."""
        planes, qp = self.inputs[0]
        out = dfp.dfp_forward(self.model, planes[1], qp, threads=NPROC)
        return [_digest(out, self.config.bit_depth) == self.reference(0, worker)[1]]

    def describe(self):
        return {**super().describe(), "frames": self.frames, "luma": list(LUMA),
                "chroma": list(CHROMA), "threads": DFP_THREADS, "checked_threads": NPROC}


class EvalFloat(Workload):
    """The ``cnnlf eval`` pipeline with the float BN model: encode, filter and PSNR per
    plane x QP, and one BD-rate per pass over the QPs."""

    name = "eval-float"
    setup_repeats = 25

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.float_model = stand_in_model(self.config, seed)
        self.image = codec.make_test_image(*LUMA, seed=seed)
        self._rows = {}
        self._references = {}

    def setup(self):
        model_io.save_model(self.float_model, self.model_path)
        self.model = model_io.load_model(self.model_path)

    def op(self, i):
        qp = QPS[i % len(QPS)]
        recon, bits = codec.encode_intra_plane(self.image, qp)
        filtered = network.filter_plane(self.model, recon, qp)
        bpp = bits / self.image.size
        self._rows[qp] = (bpp, codec.psnr(self.image, recon), codec.psnr(self.image, filtered))
        delta = None
        if qp == QPS[-1]:
            anchor = codec.RDCurve([codec.RDPoint(r[0], r[1], q) for q, r in self._rows.items()])
            test = codec.RDCurve([codec.RDPoint(r[0], r[2], q) for q, r in self._rows.items()])
            delta = codec.bd_rate(anchor, test)
        return qp, recon, bpp, filtered, delta

    def pixels(self, i):
        return self.image.size

    def reference(self, qp, recon, bpp, worker) -> tuple:
        """Reference filtered plane and its RD row for one QP, computed once per run."""
        if qp not in self._references:
            cfg = self.model.config
            ref = worker.call(reference.float_filter, float_layers(self.model), recon, qp,
                              cfg.bit_depth, cfg.qp_max)
            row = (bpp, reference.psnr(self.image, recon), reference.psnr(self.image, ref))
            self._references[qp] = (ref, row)
        return self._references[qp]

    def check(self, i, result, worker):
        qp, recon, bpp, filtered, delta = result
        ref, _ = self.reference(qp, recon, bpp, worker)
        ok = int(np.abs(filtered.astype(np.int64) - ref).max()) <= PIXEL_TOLERANCE
        if delta is not None:
            rows = [self._references[q][1] for q in QPS]
            ref_delta = reference.bd_rate([(r[0], r[1]) for r in rows],
                                          [(r[0], r[2]) for r in rows])
            ok = ok and abs(delta - ref_delta) <= BD_RATE_TOLERANCE
        return ok

    def describe(self):
        return {**super().describe(), "plane": list(LUMA), "qps": list(QPS)}


class TrainStep(Workload):
    """``trainer.train`` steps of the desk preset (batch 16 of 35x35 patches at four QPs)."""

    name = "train-step"
    setup_repeats = 15
    images = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.pictures = [(f"synthetic{j}", codec.make_test_image(*LUMA, seed=seed + j))
                         for j in range(self.images)]
        self.train_config = trainer.TrainConfig.desk(epochs=1, rng_seed=seed)

    def setup(self):
        self.dataset = codec.make_dataset(self.pictures, qps=QPS, rng_seed=self.seed).items()
        self.model = network.build_cnnf(self.config, rng_seed=self.seed)

    @property
    def float_model(self):
        return self.model

    def _batch(self, i) -> list:
        b = i % (len(self.dataset) // BATCH)
        return self.dataset[b * BATCH:(b + 1) * BATCH]

    def prepare(self, i):
        self._before = float_layers(self.model)

    def op(self, i):
        """One ``train`` call over exactly one batch is one SGD step; the callback
        reports that step's loss."""
        losses = []
        self.model, _ = trainer.train(self.model, self._batch(i), self.train_config,
                                      callbacks=lambda epoch, step, b, lr: losses.append(b.total))
        return losses

    def pixels(self, i):
        return BATCH * PATCH * PATCH

    def reference(self, i, worker) -> float:
        """Reference loss of batch ``i`` at the parameters held before its step."""
        decoded, original, qps = zip(*self._batch(i))
        cfg, tc = self.model.config, self.train_config
        return worker.call(reference.train_loss, self._before, np.stack(decoded),
                           np.stack(original), list(qps), cfg.bit_depth, cfg.qp_max,
                           (tc.lambda_w, tc.lambda_s, tc.lambda_lda))

    def check(self, i, result, worker):
        if len(result) != 1 or not np.isfinite(result[0]):
            return False
        ref = self.reference(i, worker)
        return abs(result[0] - ref) <= LOSS_RTOL * abs(ref)

    def describe(self):
        return {**super().describe(), "batch": BATCH, "patch": PATCH, "qps": list(QPS),
                "patches": len(self.dataset)}


WORKLOADS = {w.name: w for w in (InferDFP, EvalFloat, TrainStep)}


def timed_loop(wl: Workload, worker, seconds: float, count: int | None = None,
               tracer: Tracer | None = None) -> dict:
    """Run operations until their summed time reaches ``seconds`` (or ``count`` of them).

    Only the operation itself is timed; its check runs after the clock stops.
    """
    lat, oks, pixels = [], [], 0
    i = 0
    while (sum(lat) < seconds) if count is None else (i < count):
        wl.prepare(i)
        if tracer is not None:
            tracer.op, tracer.phase = i, "loop"
        t0 = time.perf_counter()
        try:
            result = wl.op(i)
            raised = False
        except Exception:
            raised = True
        lat.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.phase = None
        if raised:
            traceback.print_exc()
            oks.append(False)
        else:
            pixels += wl.pixels(i)
            oks.append(_guarded(wl.check, i, result, worker))
        i += 1
    return {"latencies": lat, "oks": oks, "pixels": pixels}


def _guarded(fn, *args) -> bool:
    """A check that raises fails its operation instead of ending the run."""
    try:
        return bool(fn(*args))
    except Exception:
        traceback.print_exc()
        return False


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, overhead_pct: float) -> dict:
    """Per-layer figures: loop spans per operation, set-up spans per set-up."""
    stats = {"loop": tracer.stats("loop"), "setup": tracer.stats("setup")}
    loop = stats["loop"]
    out = {f"{layer}.self_s": sum(st.self_s for name, st in loop.items()
                                  if name.split(".")[0] == layer) / ops for layer in LAYERS}
    out["other_s"] = (traced_s - tracer.root_s("loop")) / ops
    out["trace.wall_s"] = traced_s / ops
    out["trace.ops"] = ops
    out["trace.overhead_pct"] = overhead_pct
    for metric, phase, fn, stat in FUNCTION_METRICS:
        st = stats[phase].get(fn)
        per = ops if phase == "loop" else 1
        if st is None:
            value = 0.0
        elif stat == "gmac_per_s":
            value = st.work / st.s / 1e9 if st.s > 0 else 0.0
        elif stat in ("luma", "chroma"):
            value = st.by_tag.get(stat, 0.0) / per
        else:
            value = getattr(st, stat) / per
        out[metric] = value
    return out


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path):
    """One benchmark run; returns (result, run facts)."""
    wl = WORKLOADS[name](seed, smoke, workdir)
    tracer = Tracer(hooks=HOOKS) if trace else None
    with ReferenceWorker() as worker, (tracer or nullcontext()):
        setup_s = []
        for r in range(wl.setup_repeats):
            if tracer is not None and r == wl.setup_repeats - 1:
                tracer.phase = "setup"
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.phase = None
        loop = timed_loop(wl, worker, seconds, tracer=tracer)
        oks = list(loop["oks"])
        if tracer is not None:
            tracer.uninstall()
            replay = timed_loop(wl, worker, seconds, count=len(loop["latencies"]))
            oks += replay["oks"]
        try:
            oks += [bool(ok) for ok in wl.final_checks(worker)]
        except Exception:
            traceback.print_exc()
            oks.append(False)

    lat = loop["latencies"]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "mpix_per_s": loop["pixels"] / sum(lat) / 1e6,
            "op_s_p50": statistics.median(lat),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    else:
        # The first operation carries one-time warm-up; leave it out when there are more.
        first = 1 if len(lat) > 1 else 0
        traced, untraced = sum(lat[first:]), sum(replay["latencies"][first:])
        metrics = layer_metrics(tracer, len(lat), sum(lat), (traced - untraced) / untraced * 100)
        units = PER_LAYER
    failed = oks.count(False)
    result = {"correct": failed == 0, "attempted": len(oks), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    facts = {"inputs": wl.describe(), "setup_s": setup_s, "op_s": lat}
    if tracer is not None:
        facts["untraced_op_s"] = replay["latencies"]
    return result, facts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
