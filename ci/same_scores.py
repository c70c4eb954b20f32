"""Check that two `colordesc eval` runs scored the same dev rows alike.

    python ci/same_scores.py RUN_A RUN_B [KEY ...] [--rows N] [--order FILE]
        [--within BITS] [--ppl-within REL]

RUN_A and RUN_B are `eval --out` directories. Neither run may have skipped
a dev record, and each KEY of their eval-dev.json (log2_probs if none is
named) must be equal in both; a per-row KEY must hold one value per row.
--rows N: the runs scored N rows. --order FILE: RUN_B scored a shuffle of
RUN_A's rows, and line i of FILE is the row of RUN_A that is RUN_B's row i.
--within BITS: log2_probs agree where each row's two values are equal or
differ by at most BITS; the script then reports the largest |difference|,
the count of rows that differ and both runs' perplexities.
--ppl-within REL: the two runs' perplexities also agree to within REL of
the larger, relative; the script prints both and their relative gap.
Exits 1 with a message on the first check that fails.
"""

import argparse
import json
import math
import sys
from pathlib import Path

PER_ROW = ("log2_probs", "hits")


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(message)


def log2_gap(x: list, y: list) -> tuple:
    """(max |x - y|, rows that differ) of two log2_probs lists, in which
    null stands for -inf: a row null in one list only differs by inf."""
    worst, changed = 0.0, 0
    for u, v in zip(x, y):
        if u != v:
            changed += 1
            worst = max(worst, math.inf if u is None or v is None else abs(u - v))
    return worst, changed


def bound(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"not a finite bound >= 0: {text}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs=2, type=Path, metavar="RUN")
    parser.add_argument("keys", nargs="*", default=["log2_probs"], metavar="KEY")
    parser.add_argument("--rows", type=int)
    parser.add_argument("--order", type=Path)
    parser.add_argument("--within", type=bound, metavar="BITS")
    parser.add_argument("--ppl-within", type=bound, metavar="REL")
    args = parser.parse_args()
    a, b = (json.loads((run / "eval-dev.json").read_text()) for run in args.runs)
    what = " and ".join(run.name for run in args.runs)
    for run in args.runs:
        meta = json.loads((run / "run-meta.json").read_text())
        skipped = meta["counts"]["skipped_records"]["dev"]
        check(skipped == 0, f"{run.name}: {skipped} dev records skipped")
    n = len(a["log2_probs"])
    check(args.rows in (None, n), f"{what}: {n} rows, expected {args.rows}")
    order = [int(i) for i in args.order.read_text().split()] if args.order else None
    for key in args.keys:
        x, y = a[key], b[key]
        if key in PER_ROW:
            check(x is not None and y is not None and len(x) == len(y) == len(order or x),
                  f"{what}: {key} does not hold one value per row")
            if order:
                y, shuffled = [None] * len(y), y
                for at, row in enumerate(order):
                    y[row] = shuffled[at]
        if key == "log2_probs" and args.within is not None:
            worst, changed = log2_gap(x, y)
            print(f"{what}: max |delta log2 p| {worst:.3g} bits, {changed} of {n} rows "
                  f"changed, perplexity {a['perplexity']} and {b['perplexity']}")
            check(worst <= args.within, f"{what}: log2_probs differ by more than "
                                        f"{args.within:g} bits")
        else:
            check(x == y, f"{what}: {key} differs")
    agreed = [f"{key} within {args.within:g} bits"
              if key == "log2_probs" and args.within is not None else f"{key} equal"
              for key in args.keys]
    if args.ppl_within is not None:
        x, y = a["perplexity"], b["perplexity"]
        gap = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
        print(f"{what}: perplexity {x} and {y}, relative gap {gap:.3g}")
        check(gap <= args.ppl_within, f"{what}: perplexities differ by more than "
                                      f"{args.ppl_within:g} relative")
        agreed.append(f"perplexity within {args.ppl_within:g} relative")
    print(f"{what}: {n} rows, {', '.join(agreed)}")


if __name__ == "__main__":
    main()
