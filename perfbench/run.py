"""Benchmark entry point.

    python3 perfbench/run.py --workload infer-dfp --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; without it the run stops with exit code 2 before
measuring anything.  Every thread count is capped at the number of usable
cores: BLAS through its environment variables (set here, before numpy is
imported) and the library through its ``threads`` argument.

The last line of standard output is the result object; the line before
it is the run record (machine, versions, model, geometry, commit, the
``src/`` line count and the raw per-operation times).  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--smoke`` runs the same code with the 3-layer test model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)


def import_program():
    """Import cnnlf from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "cnnlf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'cnnlf'}")
    sys.path.insert(0, str(src))
    if str(ROOT) not in sys.path:
        sys.path.insert(1, str(ROOT))
    import cnnlf
    if Path(cnnlf.__file__).resolve().parent != (src / "cnnlf").resolve():
        raise SystemExit(f"perfbench: cnnlf imported from {cnnlf.__file__}, not {src}")
    return cnnlf


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_sizes() -> dict:
    """Data/unified cache sizes of cpu0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                sizes[f"L{(index / 'level').read_text().strip()}"] = \
                    (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def run_record(args, facts) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "machine": {"nproc": NPROC, "cpu": _cpu_model(), "caches": _cache_sizes()},
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(), "src_lines": src_lines,
        **facts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # A termination request unwinds like an error, so the reference worker is
    # closed and waited for on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cap_threads()
    import_program()
    from perfbench.workloads import WORKLOADS, run
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        result, facts = run(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.smoke, Path(workdir))
    print(json.dumps({"run_record": run_record(args, facts)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
