"""Check that two `colordesc eval` runs scored the same dev rows alike.

    python ci/same_scores.py RUN_A RUN_B [KEY ...] [--rows N] [--order FILE]

RUN_A and RUN_B are `eval --out` directories. Neither run may have skipped
a dev record, and each KEY of their eval-dev.json (log2_probs if none is
named) must be equal in both; a per-row KEY must hold one value per row.
--rows N: the runs scored N rows. --order FILE: RUN_B scored a shuffle of
RUN_A's rows, and line i of FILE is the row of RUN_A that is RUN_B's row i.
Exits 1 with a message on the first check that fails.
"""

import argparse
import json
import sys
from pathlib import Path

PER_ROW = ("log2_probs", "hits")


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(message)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs=2, type=Path, metavar="RUN")
    parser.add_argument("keys", nargs="*", default=["log2_probs"], metavar="KEY")
    parser.add_argument("--rows", type=int)
    parser.add_argument("--order", type=Path)
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
        check(x == y, f"{what}: {key} differs")
    print(f"{what}: {n} rows, {', '.join(args.keys)} equal")


if __name__ == "__main__":
    main()
