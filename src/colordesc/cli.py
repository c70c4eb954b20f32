"""Command-line entry points.

Subcommands: train, eval, compare, sample, top1, denotation.

Exit codes are a stable scripting contract: 0 success, 2 for bad usage,
configuration, or input files, 3 for runtime/numeric failures (training
divergence, undefined metrics, unwritable outputs).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .colors import checked_hsv
from .corpus import Description, load_manifest, read_key_values, tokenize
from .errors import ColordescError, ConfigError
from .evaluation import (DEFAULT_BEAM_WIDTH, DEFAULT_PERMUTATION_SEED, DEFAULT_ROUNDS,
                         EvalReport, evaluate, hit_flags, permutation_test)
from .features import SCHEMES
from .models import (DEFAULT_MAX_LEN, PRNG_ID, check_family_scheme, load_checkpoint,
                     save_checkpoint, train_model)
from .nn import CONDITIONING_MODES, TrainingConfig
from .viz import (DEFAULT_GRID, GridSpec, cross_sections, describe_slug,
                  probability_field, render)

FAMILY_ALIASES = {
    "rnn": "sequence",
    "sequence": "sequence",
    "atomic": "atomic",
    "hm": "histogram",
    "histogram": "histogram",
}

# train option dest -> TrainingConfig field; the option takes the
# field's default and type, and --config keys are these dests
TRAIN_FIELDS = {
    "seed": "seed", "epochs": "max_epochs", "batch_size": "batch_size",
    "lr": "learning_rate", "dropout": "dropout", "hidden": "hidden_size",
    "embedding_dim": "embedding_dim", "patience": "patience",
    "evals_per_epoch": "evals_per_epoch", "conditioning": "conditioning",
}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_run_meta(path: Path, **fields) -> None:
    """Write ``fields`` with the PRNG, version and timestamp as JSON."""
    meta = {**fields, "prng": PRNG_ID, "version": __version__,
            "timestamp": _now()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_triple(text: str, what: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--{what} expects three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--{what} expects numbers, got {text!r}") from exc


def _color_from_args(args) -> np.ndarray:
    """The canonical HSV row of --hsv or --hsl, by the corpus loader's rule."""
    if args.hsv and args.hsl:
        raise ConfigError("give either --hsv or --hsl, not both")
    if not (args.hsv or args.hsl):
        raise ConfigError("a color is required: --hsv h,s,v or --hsl h,s,l")
    space = "hsv" if args.hsv else "hsl"
    text = getattr(args, space)
    valid, hsv = checked_hsv(np.array([_parse_triple(text, space)]), space == "hsl")
    if not len(valid):
        raise ConfigError(f"--{space} {text!r} is not a color: h must be finite and "
                          f"{space[1]}, {space[2]} in [0, 100]")
    return hsv[0]


def _check_int_flags(args) -> None:
    """Reject out-of-range --beam, --max-len, --n, --rounds, --seed and
    --subsample-train before any file is read; a command is checked for
    the flags it has."""
    for flag, low in (("beam", 1), ("max_len", 0), ("n", 0), ("rounds", 1),
                      ("seed", 0), ("subsample_train", 0)):
        value = getattr(args, flag, low)
        if value < low:
            name = "--" + flag.replace("_", "-")
            raise ConfigError(f"{name} must be >= {low}, got {value}")


def _load_counts(splits: dict) -> dict:
    """run-meta ``counts``: records each loaded split skipped as unparseable."""
    return {"skipped_records": {name: ds.skipped for name, ds in splits.items()}}


# -- subcommands


def cmd_train(args) -> int:
    if not args.data:
        raise ConfigError("missing required option: data (split manifest path)")
    if not args.out:
        raise ConfigError("missing required option: out (output directory)")
    family = FAMILY_ALIASES[args.family]
    check_family_scheme(family, args.features)
    config = TrainingConfig(**{field: getattr(args, dest)
                               for dest, field in TRAIN_FIELDS.items()}).validate()
    splits = load_manifest(args.data)
    if "train" not in splits:
        raise ConfigError(f"manifest {args.data} does not define a train split")
    train_ds = splits["train"]
    dev_ds = splits.get("dev")
    if args.subsample_train:
        train_ds = train_ds.subsample(args.subsample_train, args.seed)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model, history = train_model(family, train_ds, config,
                                 scheme=args.features, dev=dev_ds)
    ckpt_path = outdir / "model.ckpt"
    save_checkpoint(model, ckpt_path)
    log_path = outdir / "train-log.txt"
    with open(log_path, "w", encoding="utf-8") as fh:
        for rec in history:
            line = (f"epoch={rec['epoch']:.4f} split={rec['split']} "
                    f"perplexity={rec['perplexity']:.6f}")
            fh.write(line + "\n")
            print(line)
    settings = {
        "family": family, "features": args.features, "data": str(args.data),
        "out": str(outdir), "subsample_train": args.subsample_train,
        "config": config.to_dict(),
    }
    _write_run_meta(outdir / "run-meta.json", command="train", settings=settings,
                    counts=_load_counts(splits))
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_eval(args) -> int:
    start = time.perf_counter()
    model = load_checkpoint(args.ckpt)
    splits = load_manifest(args.data)
    if args.split not in splits:
        raise ConfigError(f"manifest {args.data} does not define split {args.split!r}")
    ds = splits[args.split]
    loaded = time.perf_counter()
    # scoring and the beam-search accuracy pass are timed apart
    report = evaluate(model, ds, split=args.split,
                      on_zero="exclude" if args.allow_zero else "error",
                      timestamp=_now())
    scored = time.perf_counter()
    if not args.skip_accuracy:
        report = report.with_hits(hit_flags(model, ds, args.beam), args.beam)
    timings = {"load_s": loaded - start, "score_s": scored - loaded,
               "beam_s": time.perf_counter() - scored}
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / f"eval-{args.split}.json"
    report.save(report_path)
    _write_run_meta(outdir / "run-meta.json", command="eval", settings={
        "ckpt": str(args.ckpt), "data": str(args.data), "split": args.split,
        "beam": args.beam, "skip_accuracy": args.skip_accuracy,
        "allow_zero": args.allow_zero, "out": str(outdir),
    }, timings=timings, counts=_load_counts(splits))
    print(report.summary_line())
    print(f"skipped_records: {ds.skipped}")
    print("timings: " + " ".join(f"{k}={v:.3f}" for k, v in timings.items()))
    print(f"report: {report_path}")
    return 0


def _paired_vectors(ra: EvalReport, rb: EvalReport, metric: str):
    if ra.n_items != rb.n_items:
        raise ConfigError(
            f"reports cover different item counts ({ra.n_items} vs {rb.n_items})")
    if metric == "perplexity":
        a = np.asarray(ra.log2_probs, dtype=np.float64)
        b = np.asarray(rb.log2_probs, dtype=np.float64)
    elif metric == "accuracy":
        if ra.hits is None or rb.hits is None:
            raise ConfigError("both reports need per-item hits; rerun eval without --skip-accuracy")
        a = np.asarray(ra.hits, dtype=np.float64)
        b = np.asarray(rb.hits, dtype=np.float64)
    else:
        raise ConfigError(f"unknown metric {metric!r}")
    finite = np.isfinite(a) & np.isfinite(b)
    return a[finite], b[finite], int((~finite).sum())


def cmd_compare(args) -> int:
    ra = EvalReport.load(args.report_a)
    rb = EvalReport.load(args.report_b)
    a, b, dropped = _paired_vectors(ra, rb, args.metric)
    p = permutation_test(a, b, rounds=args.rounds, seed=args.seed)
    record = {
        "metric": args.metric,
        "n_pairs": int(a.size),
        "dropped_pairs": dropped,
        "mean_a": float(a.mean()),
        "mean_b": float(b.mean()),
        "mean_difference": float((a - b).mean()),
        "p_value": p,
        "rounds": args.rounds,
        "seed": args.seed,
        "report_a": str(args.report_a),
        "report_b": str(args.report_b),
    }
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "compare.json").write_text(text + "\n", encoding="utf-8")
        _write_run_meta(outdir / "run-meta.json", command="compare",
                        settings={k: record[k] for k in ("metric", "rounds", "seed",
                                                         "report_a", "report_b")})
    return 0


def cmd_sample(args) -> int:
    model = load_checkpoint(args.ckpt)
    colors = np.tile(_color_from_args(args), (args.n, 1))
    rng = np.random.default_rng(args.seed)
    for tokens in model.sample_batch(colors, rng, max_len=args.max_len):
        print(" ".join(tokens))
    return 0


def cmd_top1(args) -> int:
    model = load_checkpoint(args.ckpt)
    color = _color_from_args(args)
    desc = model.predict_top1(color, beam_width=args.beam, max_len=args.max_len)
    print(" ".join(desc.tokens))
    return 0


def cmd_denotation(args) -> int:
    model = load_checkpoint(args.ckpt)
    tokens = tokenize(args.desc)
    if not tokens:
        raise ConfigError("description is empty after tokenization")
    if model.family == "sequence":
        known = [t for t in tokens if t in model.vocab.token_to_id]
        if not known:
            raise ConfigError(
                f"every token of {args.desc!r} is out of vocabulary")
    else:
        if tuple(tokens) not in model.index:
            raise ConfigError(
                f"description {args.desc!r} is not in the model inventory")
    grid = GridSpec.parse(args.grid)
    desc = Description(raw=args.desc, tokens=tokens)
    field = probability_field(model, desc, grid)
    sec_l, sec_r = cross_sections(field)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    slug = describe_slug(desc)
    path_l = outdir / f"{slug}-L.pgm"
    path_r = outdir / f"{slug}-R.pgm"
    render(sec_l, path_l)
    render(sec_r, path_r)
    _write_run_meta(outdir / f"{slug}-meta.json", description=args.desc,
                    tokens=tokens, grid=list(grid.dims), checkpoint=str(args.ckpt),
                    files={"L": path_l.name, "R": path_r.name})
    print(f"wrote {path_l} and {path_r}")
    return 0


# -- parser


def build_parser(train_defaults: dict | None = None):
    """The colordesc argument parser; ``train_defaults`` (a config file's
    values, by option name) replace the train subcommand's defaults and
    are converted by each option's type when no flag overrides them."""
    parser = argparse.ArgumentParser(
        prog="colordesc",
        description="Train, evaluate, and probe color-description models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a split manifest")
    p_train.add_argument("--config", default="", help="key=value defaults file")
    p_train.add_argument("--family", default="rnn",
                         choices=sorted(FAMILY_ALIASES))
    p_train.add_argument("--features", default="fourier", choices=SCHEMES)
    p_train.add_argument("--data", default="", help="split manifest path")
    p_train.add_argument("--out", default="", help="output directory")
    config = TrainingConfig()
    choices = {"conditioning": CONDITIONING_MODES}
    for dest, field in TRAIN_FIELDS.items():
        default = getattr(config, field)
        p_train.add_argument("--" + dest.replace("_", "-"), type=type(default),
                             default=default, choices=choices.get(dest))
    p_train.add_argument("--subsample-train", type=int, default=0,
                         help="train on a seeded random subsample of this size")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", default="dev",
                        choices=("train", "dev", "test"))
    p_eval.add_argument("--beam", type=int, default=DEFAULT_BEAM_WIDTH)
    p_eval.add_argument("--skip-accuracy", action="store_true")
    p_eval.add_argument("--allow-zero", action="store_true",
                        help="exclude zero-probability items instead of failing")
    p_eval.add_argument("--out", required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="paired permutation test on two reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.add_argument("--metric", default="perplexity",
                       choices=("perplexity", "accuracy"))
    p_cmp.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    p_cmp.add_argument("--seed", type=int, default=DEFAULT_PERMUTATION_SEED)
    p_cmp.add_argument("--out", default="")

    # the two commands that decode one color share their options, declared
    # here in the order their usage lines list them
    for name, help_text, own in (
            ("sample", "sample descriptions for a color", (("--n", 1), ("--seed", 0))),
            ("top1", "most likely description for a color",
             (("--beam", DEFAULT_BEAM_WIDTH),))):
        p_color = sub.add_parser(name, help=help_text)
        p_color.add_argument("--ckpt", required=True)
        p_color.add_argument("--hsv", default="")
        p_color.add_argument("--hsl", default="")
        for flag, default in own:
            p_color.add_argument(flag, type=int, default=default)
        p_color.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)

    p_den = sub.add_parser("denotation",
                           help="render cross-section images for a description")
    p_den.add_argument("--ckpt", required=True)
    p_den.add_argument("--desc", required=True)
    p_den.add_argument("--grid", default="x".join(map(str, DEFAULT_GRID)))
    p_den.add_argument("--outdir", required=True)

    if train_defaults:
        actions = {a.dest: a for a in p_train._actions}
        unknown = set(train_defaults) - set(actions)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # argparse checks choices only for values given as flags
        for key, value in train_defaults.items():
            choices = actions[key].choices
            if choices is not None and value not in choices:
                raise ConfigError(
                    f"config key {key}: invalid choice {value!r} "
                    f"(choose from {', '.join(map(repr, choices))})")
        p_train.set_defaults(**train_defaults)
    return parser


COMMANDS = {"train": cmd_train, "eval": cmd_eval, "compare": cmd_compare,
            "sample": cmd_sample, "top1": cmd_top1, "denotation": cmd_denotation}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train" and args.config:
            # the file's key=value lines become the train parser's
            # defaults, so explicit flags win
            values = read_key_values(args.config, "config file")
            defaults = {k.replace("-", "_"): v for k, v in values.items()}
            args = build_parser(defaults).parse_args(argv)
        # after the re-parse, so that a config file's values are checked too
        _check_int_flags(args)
        return COMMANDS[args.command](args)
    except (ColordescError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
