"""Tests of the benchmark itself, on the 3-layer model (smoke mode).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

bench.import_program()

from cnnlf import dfp, network  # noqa: E402
from perfbench import reference, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_known_workloads_and_every_metric():
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    proc = _cli("--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        covered = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS) + values["other_s"]
        assert covered == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())
    record = json.loads(lines[-2])["run_record"]
    assert record["workload"] == name and record["src_lines"] > 0


_WRONG = {
    "infer-dfp": lambda ref: ["0" * 64 for _ in ref],
    "eval-float": lambda ref: ((ref[0].astype(np.int64) + 3).astype(ref[0].dtype), ref[1]),
    "train-step": lambda ref: ref * 1.01,
}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_reference_fails_every_operation(name, monkeypatch, tmp_path):
    cls = workloads.WORKLOADS[name]
    right = cls.reference
    monkeypatch.setattr(cls, "reference", lambda self, *a: _WRONG[name](right(self, *a)))
    result, _ = workloads.run(name, 5, 0.2, trace=False, smoke=True, workdir=tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_imported_bindings_and_restores_them():
    original = network.forward_network
    model = network.build_cnnf(workloads.network_config(smoke=True), rng_seed=1)
    plane = np.full((24, 20), 100, dtype=np.uint8)
    with tracing.Tracer() as tracer:
        assert dfp.forward_network is network.forward_network is not original
        tracer.phase = "loop"
        network.filter_plane(model, plane, 30)
        tracer.phase = None
        network.filter_plane(model, plane, 30)
    assert dfp.forward_network is network.forward_network is original
    stats = tracer.stats("loop")
    assert stats["network.filter_plane"].calls == 1
    assert stats["tensor.conv2d"].calls == model.num_layers
    total_self = sum(st.self_s for st in stats.values())
    assert total_self == pytest.approx(tracer.root_s("loop"), rel=1e-9)


def test_reference_worker_answers_and_is_waited_for():
    plane = np.arange(64, dtype=np.uint8).reshape(8, 8)
    with reference.ReferenceWorker() as worker:
        assert worker.call(reference.psnr, plane, plane) == 99.0
        with pytest.raises(RuntimeError, match="bd_rate"):
            worker.call(reference.bd_rate, [], [])
        proc = worker._proc
    assert proc.returncode == 0
