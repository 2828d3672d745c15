"""Command line interface.

Subcommands: synth, convert, train, eval, gradcheck, export-attention.
Exit codes: 0 success, 2 usage/config/data problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from .config import RunConfig, load_config, parse_overrides
from .data import (MAX_SYNTH_RATE, SynthConfig, load_dataset, read_data_manifest,
                   series_from_events, split_dataset, synth_generate, write_data_manifest,
                   write_dataset)
from .dla import anchor_times
from .errors import ConfigError, DataError, EvaluationError, TadaError
from .gradcheck import grad_check
from .model import TadaModel, label_rows
from .training import evaluate, run_manifest, train
from .uci import convert_uci_activity

EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRADCHECK_THRESHOLD = 1e-4
# features whose default synth rates, 2 * 2^d, all stay within MAX_SYNTH_RATE
MAX_DEFAULT_RATE_FEATURES = int(math.log2(MAX_SYNTH_RATE))

MODULE_GROUPS = (
    ("temporal-embedding", ("te.",)),
    ("local-attention", ("dla.", "grid.")),
    ("mixer", ("mixer.",)),
    ("fusion-classifier", ("fusion.", "head.")),
)


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised while creating or writing ``path`` as exit 2."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from None


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as comma-separated numbers") from None


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as comma-separated integers") from None


def _load_splits(data_dir: str):
    manifest = read_data_manifest(data_dir)
    splits = {}
    for name in ("train", "val", "test"):
        path = os.path.join(data_dir, f"{name}.jsonl")
        if not os.path.exists(path):
            raise DataError(f"missing split file {path}")
        splits[name] = load_dataset(path, manifest["D"])
    return manifest, splits


def _write_splits(out: str, tr, va, te) -> None:
    os.makedirs(out, exist_ok=True)
    for name, samples in (("train", tr), ("val", va), ("test", te)):
        write_dataset(os.path.join(out, f"{name}.jsonl"), samples)


# synth -----------------------------------------------------------------------

def cmd_synth(args) -> int:
    n_feat = args.features
    if not args.rates and n_feat > MAX_DEFAULT_RATE_FEATURES:
        raise ConfigError(f"synth: the default rates serve at most "
                          f"{MAX_DEFAULT_RATE_FEATURES} features; give --rates "
                          f"for {n_feat}")
    rates = _floats(args.rates) if args.rates else tuple(2.0 * 2 ** d for d in range(n_feat))
    freqs = _floats(args.freqs) if args.freqs else None
    if args.counts:
        counts = _ints(args.counts)
        if len(counts) != 3 or min(counts) < 0 or sum(counts) < 1:
            raise ConfigError("--counts needs three non-negative integers")
        n_total = sum(counts)
        ratios = tuple(c / n_total for c in counts)
    else:
        n_total = args.n
        ratios = _floats(args.ratios)
    cfg = SynthConfig(n_samples=n_total, n_features=n_feat, rates=rates,
                      n_classes=args.classes, noise=args.noise, seed=args.seed,
                      freqs=freqs, offset_scale=args.offset_scale)
    samples, meta = synth_generate(cfg)
    tr, va, te = split_dataset(samples, ratios, seed=cfg.seed, stratify=True)
    with _writing(args.out):
        _write_splits(args.out, tr, va, te)
        write_data_manifest(args.out, n_feat, "sequence", args.classes)
        _write_json(os.path.join(args.out, "gen_meta.json"), meta)
    print(f"synth: wrote {len(tr)}/{len(va)}/{len(te)} samples to {args.out}")
    return 0


# convert ---------------------------------------------------------------------

def cmd_convert(args) -> int:
    samples, manifest = convert_uci_activity(args.csv, window=args.window)
    ratios = _floats(args.ratios)
    tr, va, te = split_dataset(samples, ratios, seed=args.seed, stratify=False)
    with _writing(args.out):
        _write_splits(args.out, tr, va, te)
        write_data_manifest(args.out, manifest["D"], manifest["task"], manifest["n_classes"])
        _write_json(os.path.join(args.out, "convert_info.json"), {
            "source": os.path.basename(args.csv),
            "window_steps": args.window,
            "split_ratios": list(ratios),
            "split_seed": args.seed,
            "n_samples": len(samples),
        })
    print(f"convert: {len(samples)} windows -> {len(tr)}/{len(va)}/{len(te)} in {args.out}")
    return 0


# train -----------------------------------------------------------------------

def _train_single(cfg: RunConfig, manifest, splits, out_dir: str, verbose: bool) -> dict:
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    started = time.monotonic()
    result = train(cfg, splits["train"], splits["val"], manifest["D"],
                   manifest["n_classes"], manifest["task"],
                   log=print if verbose else None)
    model_path = os.path.join(out_dir, "model.bin")
    with _writing(model_path):
        result.model.save(model_path)
    try:
        report = evaluate(result.model, splits["test"])
    except EvaluationError as e:
        raise EvaluationError(f"test split: {e} (the trained model is saved in "
                              f"{model_path})") from None
    wall = time.monotonic() - started
    counts = {f"n_{k}": len(v) for k, v in splits.items()}
    manifest_obj = run_manifest(cfg, result.model, result, report, counts)
    manifest_path = os.path.join(out_dir, "manifest.json")
    with _writing(manifest_path):
        _write_json(manifest_path, manifest_obj)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    with _writing(metrics_path), open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(report.csv_line() + "\n")
    print(f"seed {cfg.seed}: auroc {report.auroc:.4f} auprc {report.auprc:.4f} "
          f"accuracy {report.accuracy:.4f} (best epoch {result.best_epoch}, "
          f"wall {wall:.1f}s)")
    return report.as_dict()


def _require_scorable_test_split(samples, manifest) -> None:
    """Refuse, before any training, a test split the trained model could not
    score: a sample whose labels ``prepare`` refuses, or labels of fewer than
    two classes (AUROC needs both outcomes of some class)."""
    classes = {y for s in samples
               for y in label_rows(s, manifest["task"], manifest["n_classes"])}
    if len(classes) < 2:
        held = f"holds only class {classes.pop()}" if classes else "is empty"
        raise DataError(f"test split {held}; scoring it needs labels of two classes")


def cmd_train(args) -> int:
    manifest, splits = _load_splits(args.data)
    _require_scorable_test_split(splits["test"], manifest)
    cfg = load_config(args.config, args.set)
    if args.seeds is not None:
        seeds = _ints(args.seeds)
        repeated = sorted({s for s in seeds if seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"--seeds repeats {', '.join(map(str, repeated))}")
        run_cfgs = [dataclasses.replace(cfg, seed=seed).validate() for seed in seeds]
        per_seed = {c.seed: _train_single(c, manifest, splits,
                                          os.path.join(args.out, f"seed{c.seed}"), args.verbose)
                    for c in run_cfgs}
        agg = {"seeds": list(seeds), "per_seed": {str(s): m for s, m in per_seed.items()}}
        for key in ("auroc", "auprc", "accuracy"):
            vals = np.array([m[key] for m in per_seed.values()])
            agg[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
            print(f"{key}: {vals.mean():.4f} +/- {vals.std():.4f}")
        agg_path = os.path.join(args.out, "aggregate.json")
        with _writing(agg_path):
            _write_json(agg_path, agg)
    else:
        _train_single(cfg, manifest, splits, args.out, args.verbose)
    return 0


# eval ------------------------------------------------------------------------

def cmd_eval(args) -> int:
    model = TadaModel.load(args.model)
    manifest, splits = _load_splits(args.data)
    if manifest["D"] != model.n_features or manifest["n_classes"] != model.n_classes \
            or manifest["task"] != model.task:
        raise DataError("eval: dataset manifest does not match the model dimensions")
    samples = splits[args.split]
    if not samples:
        raise EvaluationError(f"eval: split {args.split!r} is empty")
    report = evaluate(model, samples)
    line = report.csv_line()
    print(line)
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return 0


# gradcheck ---------------------------------------------------------------------

def gradcheck_setup(cfg: RunConfig, n_features: int = 3, n_samples: int = 3):
    """Small model plus a random batch for finite-difference verification.

    Steps carry one to n_features observations so the per-step softmax has
    real work to do (single-observation steps give it exactly zero
    gradient).
    """
    rng = np.random.default_rng(cfg.seed + 1)
    samples = []
    for i in range(n_samples):
        n_steps = int(rng.integers(8, 13))
        times = np.sort(rng.uniform(0.02, 0.98, size=n_steps))
        events = []
        for t in times.tolist():
            feats = sorted(rng.permutation(n_features)[:int(rng.integers(1, n_features + 1))])
            events += [(t, int(f), float(rng.normal(0.0, 1.0))) for f in feats]
        samples.append(series_from_events(f"gc-{i:02d}", events, i % 2, n_features))
    model = TadaModel(cfg, n_features, 2, "sequence")

    # Redraw weights at a generic full-scale point.  The training init keeps
    # attention queries near 0.02 and biases at 0, where score-path gradients
    # sit below central-difference noise and ReLU kinks hug the origin.
    def draw(name: str, shape: tuple[int, ...]) -> np.ndarray:
        leaf = name.rsplit(".", 1)[-1]
        if len(shape) >= 2:
            bound = 1.0 / np.sqrt(shape[0])
        elif leaf == "b" or (leaf.startswith("b") and leaf[1:].isdigit()):
            bound = 0.2
        else:
            bound = 0.5
        return rng.uniform(-bound, bound, size=shape)

    for name, p in model.params.items():
        if name == "dla.range_raw":
            # radii off the init's 1/L lattice, where hard-window edges
            # would land exactly on the first and last step times
            radius = np.logaddexp(0.0, p.data) * rng.uniform(0.8, 1.25, size=p.data.shape)
            p.data = np.log(np.expm1(radius))
        else:
            p.data = draw(name, p.data.shape)
    preps = [model.prepare(s) for s in samples]
    return model, preps


def small_gradcheck_config(**overrides) -> RunConfig:
    # gate_temperature stays at 0.05 here: the sharper training default
    # saturates the soft gates, pushing their gradients under the
    # finite-difference noise floor.
    base = dict(te_feature_dim=4, embed_dim=8, n_queries=8, n_heads=2, attn_dim=8,
                patch_channels=8, patch_size=2, merge_factor=2, n_layers=2,
                window_mode="soft", gate_temperature=0.05, seed=0)
    base.update(overrides)
    return RunConfig(**base).validate()


def cmd_gradcheck(args) -> int:
    # a step that moves nothing or a threshold no error can exceed checks nothing
    if not (math.isfinite(args.eps) and args.eps > 0.0):
        raise ConfigError(f"--eps must be finite and > 0, got {args.eps}")
    if not (math.isfinite(args.threshold) and args.threshold >= 0.0):
        raise ConfigError(f"--threshold must be finite and >= 0, got {args.threshold}")
    cfg = small_gradcheck_config(**{"seed": args.seed, **parse_overrides(args.set)})
    model, preps = gradcheck_setup(cfg)
    report = grad_check(lambda: model.batch_loss(preps), model.trainable(), eps=args.eps)
    for label, prefixes in MODULE_GROUPS:
        names = [name for name in report.per_param if name.startswith(prefixes)]
        if names:
            print(f"{label}: max rel err {max(report.per_param[n] for n in names):.3e} "
                  f"(norm-wise {report.norm_error(names):.3e})")
    print(f"end-to-end: max rel err {report.max_rel_error:.3e} "
          f"over {report.n_elements} elements at seed {cfg.seed} (worst {report.worst()})")
    if report.max_rel_error > args.threshold:
        print(f"gradcheck FAILED: {report.max_rel_error:.3e} > {args.threshold:.1e}",
              file=sys.stderr)
        return EXIT_NUMERIC
    print("gradcheck OK")
    return 0


# export-attention ----------------------------------------------------------------

def cmd_export_attention(args) -> int:
    model = TadaModel.load(args.model)
    if model.cfg.no_dla:
        raise DataError("export-attention: model was trained without local attention")
    if args.window_mode:
        model.cfg = dataclasses.replace(model.cfg, window_mode=args.window_mode).validate()
    manifest, splits = _load_splits(args.data)
    samples = splits[args.split]
    if args.sample:
        matches = [s for s in samples if s.sample_id == args.sample]
        if not matches:
            raise DataError(f"export-attention: sample {args.sample!r} not in split")
        sample = matches[0]
    else:
        if not samples:
            raise EvaluationError(f"export-attention: split {args.split!r} is empty")
        sample = samples[0]
    prep = model.prepare(sample)
    attention = model.attention_maps(prep)[0]
    anchors, radii = anchor_times(model.cfg.n_queries), model.radii()
    with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
        fh.write("head,query_index,anchor_time,time_index,time,feature,weight,window_radius\n")
        n_heads, L, T, d_eff = attention.shape
        for h in range(n_heads):
            for i in range(L):
                for j in range(T):
                    for d in range(d_eff):
                        fh.write(f"{h},{i},{float(anchors[i])!r},{j},"
                                 f"{float(prep.times[j])!r},{d},"
                                 f"{float(attention[h, i, j, d])!r},"
                                 f"{float(radii[d])!r}\n")
    print(f"export-attention: wrote {n_heads * L * T * d_eff} rows for "
          f"sample {sample.sample_id} to {args.out}")
    return 0


# parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tada",
        description="Attention-to-grid classifier for irregularly sampled series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic frequency task")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=700)
    p.add_argument("--counts", help="exact train,val,test sizes (overrides --n/--ratios)")
    p.add_argument("--features", type=int, default=4)
    p.add_argument("--rates", help="per-feature event rates, comma separated")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--freqs", help="per-class frequencies, comma separated")
    p.add_argument("--offset-scale", type=float, default=2.0)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("convert", help="convert the localization-activity CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override, repeatable")
    p.add_argument("--seeds", help="comma-separated seeds for a multi-seed protocol")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out", help="also write the CSV line here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=3e-5)
    p.add_argument("--threshold", type=float, default=GRADCHECK_THRESHOLD)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("export-attention", help="dump attention weights to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--sample", help="sample id; defaults to the split's first sample")
    p.add_argument("--out", required=True)
    p.add_argument("--window-mode", choices=("soft", "hard"),
                   help="override the stored window mode for the dump")
    p.set_defaults(fn=cmd_export_attention)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataError, EvaluationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TadaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
