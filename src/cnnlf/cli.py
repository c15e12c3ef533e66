"""Command-line front end chaining the pipeline stages.

One binary, subcommand style::

    cnnlf dataset   encode images and tile aligned training patches
    cnnlf train     fit a model on a patch set
    cnnlf prune     BN-scale filter pruning with bias folding
    cnnlf lowrank   fold BN and split layers via truncated SVD
    cnnlf quantize  estimate fractional lengths, optionally fine-tune, quantize,
                    optionally write conformance vectors
    cnnlf infer     filter one plane (float model, or integer path with --dfp)
    cnnlf eval      RD curves and BD-rate against the unfiltered anchor
    cnnlf verify    replay conformance vectors

Flags can be preloaded from a JSON run-config file (``--config``);
explicit flags win.  Every artifact-producing command writes a
``<output>.run.json`` with its fully resolved configuration and the
SHA-256 of each input, and one machine-parseable JSON record per line to
``--log`` (default stderr).  All randomness sits behind ``--seed``.

Exit codes: 0 success, 2 usage error, 3 missing or unreadable input,
4 verification failure, 5 invalid data or configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import codec
from .codec import (load_patchset, make_dataset, make_test_image, read_pgm, read_yuv420,
                    save_patchset, write_pgm, write_rd_csv)
from .compress import decompose_model, fold_batchnorm, prune_by_bn_scale
from .dfp import (DFPModel, build_fl_table, dfp_forward, make_conformance, read_conformance,
                  reference_fl_8layer, replay_conformance, quantize_model, write_conformance)
from .errors import (CnnlfError, ConfigError, DataError, ModelFormatError,
                     VerificationError)
from .model_io import load_model, model_hash, save_model
from .network import NetworkConfig, NetworkModel, build_cnnf, filter_plane
from .tensor import worker_threads
from .trainer import TrainConfig, quant_aware_finetune, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_VERIFY_FAILED = 4
EXIT_BAD_DATA = 5


class _Log:
    def __init__(self, path=None):
        self._fh = open(path, "a") if path else sys.stderr

    def write(self, event: str, **fields):
        record = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh is not sys.stderr:
            self._fh.close()


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_run_config(out_path, command, args, inputs):
    resolved = {k: v for k, v in sorted(vars(args).items())
                if k not in ("func", "config", "log")}
    record = {
        "command": command,
        "resolved": resolved,
        "inputs": {str(p): _sha256_file(p) for p in inputs if Path(p).exists()},
    }
    Path(str(out_path) + ".run.json").write_text(json.dumps(record, indent=2, sort_keys=True))


def _parse_qps(text) -> tuple:
    try:
        qps = tuple(int(q) for q in str(text).split(","))
    except ValueError:
        raise ConfigError(f"cannot parse QP list {text!r}") from None
    if not qps:
        raise ConfigError("empty QP list")
    return qps


def _load_planes(args) -> list:
    """(name, plane) pairs from --images globs and/or --synthetic count."""
    planes = []
    for pattern in args.images or []:
        matches = sorted(Path().glob(pattern)) if any(c in pattern for c in "*?[") \
            else [Path(pattern)]
        if not matches:
            raise FileNotFoundError(f"no files match {pattern!r}")
        for path in matches:
            if path.suffix.lower() == ".pgm":
                planes.append((path.name, read_pgm(path)))
            elif path.suffix.lower() == ".yuv":
                for fi, (y, u, v) in enumerate(read_yuv420(path)):
                    planes.append((f"{path.name}#f{fi}.y", y))
                    planes.append((f"{path.name}#f{fi}.u", u))
                    planes.append((f"{path.name}#f{fi}.v", v))
            else:
                raise DataError(f"{path}: unsupported image format (need .pgm or .yuv)")
    for i in range(getattr(args, "synthetic", 0) or 0):
        h, w = (int(t) for t in args.synthetic_size.split("x"))
        planes.append((f"synthetic{i}", make_test_image(h, w, seed=args.seed + i)))
    if not planes:
        raise ConfigError("no input images: pass --images and/or --synthetic")
    return planes


def _require_float_model(model, what):
    if not isinstance(model, NetworkModel):
        raise ConfigError(f"{what} needs a float model, got a DFP model")
    return model


# ---------------------------------------------------------------------------
# subcommands

def cmd_dataset(args, log):
    planes = _load_planes(args)
    qps = _parse_qps(args.qps)
    ds = make_dataset(planes, qps=qps, patch=args.patch, rng_seed=args.seed)
    if len(ds) == 0:
        raise DataError("dataset is empty (images smaller than the patch size?)")
    save_patchset(args.out, ds)
    log.write("dataset", patches=len(ds), images=len(planes), qps=list(qps), out=str(args.out))
    _write_run_config(args.out, "dataset", args, [])
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    base = TrainConfig.desk() if args.preset == "desk" else TrainConfig()
    overrides = {}
    for field, flag in [("batch_size", "batch_size"), ("base_lr", "lr"),
                        ("lambda_w", "lambda_w"), ("lambda_s", "lambda_s"),
                        ("lambda_lda", "lambda_lda"), ("epochs", "epochs"),
                        ("grad_clip_norm", "clip"), ("lr_decay_epoch", "decay_epoch")]:
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    overrides["rng_seed"] = args.seed
    if args.prune_at is not None:
        overrides["prune_at_epochs"] = tuple(int(e) for e in args.prune_at.split(","))
        overrides["prune_threshold"] = args.prune_threshold
    from dataclasses import replace
    return replace(base, **overrides)


def cmd_train(args, log):
    ds = load_patchset(args.dataset)
    config = _train_config(args)
    arch = NetworkConfig(num_conv_layers=args.layers, kernel_size=args.kernel,
                         base_filters=args.filters, bit_depth=ds.bit_depth,
                         per_layer_filters=(args.filters,) * (args.layers - 1))
    model = build_cnnf(arch, rng_seed=args.seed)
    history_path = Path(str(args.out) + ".history.jsonl")
    with open(history_path, "w") as hist_fh:
        def on_step(epoch, step, b, lr):
            hist_fh.write(json.dumps({
                "epoch": epoch, "step": step, "mse": b.mse, "reg_w": b.reg_w,
                "reg_s": b.reg_s, "reg_lda": b.reg_lda, "total": b.total, "lr": lr,
            }, sort_keys=True) + "\n")

        model, history = train(model, ds, config, callbacks=on_step)
    provenance = {"seed": args.seed,
                  "config_digest": hashlib.sha256(
                      json.dumps(vars(args), sort_keys=True, default=str).encode()
                  ).hexdigest()}
    save_model(model, args.out, provenance=provenance)
    log.write("train", epochs=config.epochs, patches=len(ds),
              final_mse=history[-1].mse if history else None,
              model_hash=model_hash(model), out=str(args.out))
    _write_run_config(args.out, "train", args, [args.dataset])
    return EXIT_OK


def cmd_prune(args, log):
    model = _require_float_model(load_model(args.model), "prune")
    pruned, report = prune_by_bn_scale(model, args.threshold)
    save_model(pruned, args.out)
    report_path = args.report or str(args.out) + ".prune.json"
    Path(report_path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    log.write("prune", kept=report.kept_counts, ratio=report.param_ratio,
              warnings=report.warnings, out=str(args.out))
    _write_run_config(args.out, "prune", args, [args.model])
    return EXIT_OK


def cmd_lowrank(args, log):
    model = fold_batchnorm(_require_float_model(load_model(args.model), "lowrank"))
    ranks = None
    if args.ranks:
        ranks = [int(r) for r in args.ranks.split(",")]
    decomposed, info = decompose_model(model, energy_keep=args.energy_keep, ranks=ranks)
    save_model(decomposed, args.out)
    summary = [{"layer": e["layer"], "rank": e["rank"], "kept": e["kept"]} for e in info]
    log.write("lowrank", layers=decomposed.num_layers, plan=summary, out=str(args.out))
    _write_run_config(args.out, "lowrank", args, [args.model])
    return EXIT_OK


def cmd_quantize(args, log):
    model = fold_batchnorm(_require_float_model(load_model(args.model), "quantize"))
    ds = load_patchset(args.dataset)
    if ds.bit_depth != model.config.bit_depth:
        raise ConfigError(f"patch set is {ds.bit_depth}-bit, model {model.config.bit_depth}-bit")
    count = min(args.calib_count, len(ds)) if args.calib_count else len(ds)
    calibration = [(ds.decoded[i], ds.qps[i]) for i in range(count)]
    if args.fl_preset == "reference-8layer":
        table = reference_fl_8layer()
        table.check_complete(len(model.layers))
    else:
        table = build_fl_table(model, calibration)
    if args.finetune:
        config = TrainConfig(batch_size=args.batch_size or 16,
                             base_lr=args.lr if args.lr is not None else 1e-4,
                             epochs=args.finetune_epochs,
                             lr_decay_epoch=args.finetune_epochs,
                             rng_seed=args.seed)
        model, _ = quant_aware_finetune(model, ds, table, config)
        table = build_fl_table(model, calibration) if args.fl_preset is None else table
    dfp = quantize_model(model, table)
    save_model(dfp, args.out)
    if args.vectors:
        write_conformance(args.vectors, make_conformance(dfp, calibration), dfp.config.bit_depth)
    log.write("quantize", layers=dfp.num_layers, finetuned=bool(args.finetune),
              fl_table=dfp.fl_table.to_dict(), model_hash=model_hash(dfp),
              out=str(args.out), vectors=args.vectors)
    _write_run_config(args.out, "quantize", args, [args.model, args.dataset])
    return EXIT_OK


def _load_for_inference(path):
    """The model at ``path``, a float model with its BN folded once, here, rather than
    by every :func:`cnnlf.network.filter_plane` call."""
    model = load_model(path)
    return fold_batchnorm(model) if isinstance(model, NetworkModel) else model


def _filter_with(model, plane, qp):
    if isinstance(model, DFPModel):
        return dfp_forward(model, plane, qp)
    return filter_plane(model, plane, qp)


def cmd_infer(args, log):
    model = _load_for_inference(args.model)
    plane = read_pgm(args.input)
    if args.dfp and not isinstance(model, DFPModel):
        raise ConfigError("--dfp needs a quantized model file")
    write_pgm(args.out, _filter_with(model, plane, args.qp))
    dfp = isinstance(model, DFPModel)
    # the integer path's parallel mode: its row bands ran on this many workers
    workers = {"workers": worker_threads()} if dfp else {}
    log.write("infer", qp=args.qp, dfp=dfp, input=str(args.input), out=str(args.out),
              **workers)
    _write_run_config(args.out, "infer", args, [args.model, args.input])
    return EXIT_OK


def cmd_eval(args, log):
    model = _load_for_inference(args.model)
    planes = _load_planes(args)
    qps = _parse_qps(args.qps)
    if len(qps) < 4:
        raise ConfigError("BD-rate needs at least 4 QPs")
    anchor_rows, test_rows = [], []
    for name, plane in planes:
        for qp in qps:
            recon, bits = codec.encode_intra_plane(plane, qp)
            filtered = _filter_with(model, recon, qp)
            anchor_rows.append((qp, plane, recon, bits, plane.size))
            test_rows.append((qp, plane, filtered, bits, plane.size))
    anchor = codec.rd_curve_for_planes(anchor_rows)
    test = codec.rd_curve_for_planes(test_rows)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_rd_csv(out_dir / "anchor.csv", anchor)
    write_rd_csv(out_dir / "filtered.csv", test)
    delta = codec.bd_rate(anchor, test)
    (out_dir / "bdrate.txt").write_text(f"{delta:.4f}\n")
    log.write("eval", bd_rate_percent=round(delta, 4), planes=len(planes),
              qps=list(qps), out_dir=str(out_dir))
    _write_run_config(out_dir / "eval", "eval", args, [args.model])
    print(f"BD-rate vs unfiltered anchor: {delta:+.4f}%")
    return EXIT_OK


def cmd_verify(args, log):
    model = load_model(args.model)
    if not isinstance(model, DFPModel):
        raise ConfigError("verify needs a quantized model file")
    entries = read_conformance(args.vectors)
    digest = replay_conformance(model, entries)
    log.write("verify", vectors=len(entries), corpus_digest=digest, workers=worker_threads())
    print(f"verified {len(entries)} vectors, corpus digest {digest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(sub):
    sub.add_argument("--config", help="JSON file with default values for these flags")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (all randomness)")
    sub.add_argument("--log", help="append JSONL log records here instead of stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnnlf",
        description="deterministic QP-conditioned CNN loop filter pipeline")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dataset", help="encode images and tile training patches")
    p.add_argument("--images", nargs="*", help="PGM/YUV paths or globs")
    p.add_argument("--synthetic", type=int, default=0, help="add N procedural images")
    p.add_argument("--synthetic-size", default="80x80", help="HxW of procedural images")
    p.add_argument("--qps", default="22,27,32,37")
    p.add_argument("--patch", type=int, default=35)
    p.add_argument("--out", required=True, help="output patch set (.npz)")
    _add_common(p)
    p.set_defaults(func=cmd_dataset)

    p = subs.add_parser("train", help="train a model on a patch set")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--preset", choices=["desk", "paper"], default="desk")
    p.add_argument("--layers", type=int, default=8)
    p.add_argument("--filters", type=int, default=64)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--lambda-w", type=float, dest="lambda_w")
    p.add_argument("--lambda-s", type=float, dest="lambda_s")
    p.add_argument("--lambda-lda", type=float, dest="lambda_lda")
    p.add_argument("--clip", type=float)
    p.add_argument("--decay-epoch", type=int, dest="decay_epoch")
    p.add_argument("--prune-at", dest="prune_at",
                   help="comma-separated epochs to prune between (schedule)")
    p.add_argument("--prune-threshold", type=float, default=1e-3, dest="prune_threshold")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("prune", help="BN-scale filter pruning with bias folding")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--report", help="pruning report path (JSON)")
    _add_common(p)
    p.set_defaults(func=cmd_prune)

    p = subs.add_parser("lowrank", help="fold BN and decompose layers via SVD")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--energy-keep", type=float, default=0.95, dest="energy_keep")
    p.add_argument("--ranks", help="explicit per-layer ranks, comma separated")
    _add_common(p)
    p.set_defaults(func=cmd_lowrank)

    p = subs.add_parser("quantize",
                        help="estimate fractional lengths, fine-tune, quantize to DFP")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True, help="calibration patch set (.npz)")
    p.add_argument("--out", required=True)
    p.add_argument("--calib-count", type=int, dest="calib_count",
                   help="use only the first N patches for calibration")
    p.add_argument("--fl-preset", choices=["reference-8layer"], dest="fl_preset")
    p.add_argument("--finetune", action="store_true",
                   help="quantization-aware fine-tune before quantizing")
    p.add_argument("--finetune-epochs", type=int, default=2, dest="finetune_epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--vectors", help="also write conformance vectors of the calibration "
                                      "planes for 'cnnlf verify'")
    _add_common(p)
    p.set_defaults(func=cmd_quantize)

    p = subs.add_parser("infer", help="filter one plane")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="PGM plane")
    p.add_argument("--qp", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dfp", action="store_true", help="require the integer path")
    _add_common(p)
    p.set_defaults(func=cmd_infer)

    p = subs.add_parser("eval", help="RD curves and BD-rate against unfiltered anchor")
    p.add_argument("--model", required=True)
    p.add_argument("--images", nargs="*", help="PGM/YUV paths or globs")
    p.add_argument("--synthetic", type=int, default=0)
    p.add_argument("--synthetic-size", default="96x96", dest="synthetic_size")
    p.add_argument("--qps", default="22,27,32,37")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("verify", help="replay conformance vectors")
    p.add_argument("--model", required=True)
    p.add_argument("--vectors", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _check_config_value(path, key, value, action) -> None:
    """Reject a JSON value of a type the flag behind ``action`` cannot take."""
    if action.nargs == 0:
        kind, fits = "true or false", isinstance(value, bool)
    elif action.nargs == "*":
        kind = "a list of strings"
        fits = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif action.type is int:
        kind, fits = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif action.type is float:
        kind, fits = "a number", isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        kind, fits = "a string", isinstance(value, str)
    if action.choices is not None:
        kind, fits = f"one of {list(action.choices)}", fits and value in action.choices
    if not fits and not (value is None and action.default is None):
        raise ConfigError(f"config file {path}: {key!r} takes {kind}, got {json.dumps(value)}")


def _apply_config_file(parser, args, argv):
    """Values from --config fill in anything not given explicitly on the CLI."""
    if not getattr(args, "config", None):
        return args
    try:
        defaults = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise OSError(f"config file {args.config}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config file {args.config}: not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {args.config}: invalid JSON ({exc})") from None
    if not isinstance(defaults, dict):
        raise ConfigError(f"config file {args.config}: expected a JSON object")
    known = {k for k in vars(args)} - {"func", "command", "config"}
    unknown = set(defaults) - known
    if unknown:
        raise ConfigError(f"config file {args.config}: unknown keys {sorted(unknown)}")
    # re-parse so explicit flags keep precedence over config-file values
    sub = next(a for a in parser._subparsers._group_actions[0].choices.values()
               if a.get_default("func") is args.func)
    actions = {a.dest: a for a in sub._actions}
    for key, value in defaults.items():
        _check_config_value(args.config, key, value, actions[key])
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(parser, args, argv)
    except (CnnlfError, OSError) as exc:
        print(f"cnnlf: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT if isinstance(exc, OSError) else EXIT_BAD_DATA
    log = _Log()
    try:
        log = _Log(getattr(args, "log", None))
        return args.func(args, log)
    except OSError as exc:
        log.write("error", kind="missing-input", message=str(exc))
        print(f"cnnlf: missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ModelFormatError as exc:
        log.write("error", kind="bad-model-file", message=str(exc))
        print(f"cnnlf: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except VerificationError as exc:
        log.write("error", kind="verification", message=str(exc))
        print(f"cnnlf: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (CnnlfError, ValueError) as exc:
        log.write("error", kind="bad-data", message=str(exc))
        print(f"cnnlf: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    finally:
        log.close()


if __name__ == "__main__":
    sys.exit(main())
