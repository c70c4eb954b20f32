"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload train-seq|eval-seq|baselines \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It generates the seeded synthetic corpus
in a child process (and, for eval-seq, trains the sequence checkpoint in
another), so neither counts toward the workload's time or memory. It then
measures set-up in fresh processes, runs the workload process, and prints
a report whose last line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``). Generated corpora, fixtures, traces and
full results are kept under ``.perfbench-cache/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = Path(".perfbench-cache")
BLAS_THREADS = 1  # the model's GEMMs are small; threads add only noise
SETUP_SAMPLES = 5  # fresh processes; setup_s is their median
KEEP_CACHED = 24  # corpora, fixtures and digests kept per kind, newest first
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, args: list, what: str) -> tuple:
        """Run a python child to completion; (stdout, monotonic start)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before {what}")
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, *map(str, args)], env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{what} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return proc.stdout, start


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])


def source_digest() -> str:
    """sha256 of the library source and of the workload code that trains
    with it."""
    h = hashlib.sha256()
    for path in [*sorted(Path("src/colordesc").rglob("*.py")), HERE / "workload.py"]:
        h.update(path.name.encode() if path.parent == HERE else path.as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def prune(directory: Path, keep_name: str) -> None:
    """Keep the newest KEEP_CACHED entries of a cache directory."""
    entries = sorted(directory.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in [p for p in entries if p.name != keep_name][KEEP_CACHED - 1:]:
        if old.is_dir():
            shutil.rmtree(old, ignore_errors=True)
        else:
            old.unlink(missing_ok=True)


def ensure_corpus(runner: Runner, seed: int) -> Path:
    """The seeded corpus, cached per seed and generator source."""
    generator = hashlib.sha256((HERE / "synth.py").read_bytes()).hexdigest()
    root = CACHE / "corpus"
    out = root / f"{generator[:16]}-seed-{seed}"
    if not (out / "meta.json").is_file():
        root.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(out, ignore_errors=True)
        runner.run([HERE / "synth.py", "--seed", seed, "--out", out], "corpus generation")
    prune(root, out.name)
    return out


def ensure_fixture(runner: Runner, corpus: Path, seed: int, src_digest: str) -> Path:
    """The eval-seq checkpoint, trained by the code under test; cached per
    corpus (generator and seed) and source tree."""
    root = CACHE / "fixture"
    out = root / f"{src_digest[:16]}-{corpus.name}.ckpt"
    if not out.is_file():
        root.mkdir(parents=True, exist_ok=True)
        runner.run([HERE / "workload.py", "fixture", "--corpus", corpus,
                    "--seed", seed, "--out", out], "fixture training")
    prune(root, out.name)
    return out


def agree_checkpoint(corpus: Path, src_digest: str, sha: str) -> list:
    """Same-seed checkpoints of one source tree have the same bytes, across
    runs and between train-seq and the eval-seq fixture: the first digest
    recorded for a corpus and source tree is the one later ones must match."""
    root = CACHE / "checkpoints"
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{src_digest[:16]}-{corpus.name}.sha256"
    if path.is_file():
        first = path.read_text().strip()
        if first != sha:
            return [f"checkpoint sha256 {sha} != {first}, recorded earlier for this "
                    f"seed and source tree"]
    else:
        path.write_text(sha + "\n")
    prune(root, path.name)
    return []


def environment(seed: int, src_digest: str, child_env_record: dict) -> dict:
    git_sha = None
    if Path(".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "git_sha": git_sha,
        "source_sha256": src_digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seeds": {"corpus": seed, "training": seed, "subsamples": f"{seed}+1..{seed}+8"},
        **child_env_record,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="colordesc layered benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not Path("src/colordesc/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("run from the repository root: src/colordesc and BENCHMARK.json are needed",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    runner = Runner(deadline)
    try:
        src_digest = source_digest()
        corpus = ensure_corpus(runner, args.seed)
        fixture = (ensure_fixture(runner, corpus, args.seed, src_digest)
                   if args.workload == "eval-seq" else None)
        fixture_args = ["--fixture", fixture] if fixture else []

        setup_samples = []
        for _ in range(SETUP_SAMPLES - 1):
            out, start = runner.run([HERE / "workload.py", "setup", "--corpus", corpus,
                                        *fixture_args], "set-up probe")
            setup_samples.append(last_json(out)["ready"] - start)

        scratch = CACHE / "scratch" / str(os.getpid())
        per_layer = [m["name"] for m in spec["per_layer"]]
        try:
            out, start = runner.run(
                [HERE / "workload.py", "run", "--corpus", corpus, "--workload", args.workload,
                 "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
                 "--scratch", scratch, *fixture_args, "--per-layer", *per_layer],
                f"workload {args.workload}")
            record = last_json(out)
            if args.trace:
                traces = CACHE / "traces"
                traces.mkdir(parents=True, exist_ok=True)
                spans = traces / f"{args.workload}-seed-{args.seed}.npz"
                shutil.move(str(scratch / "spans.npz"), spans)
                record["spans_file"] = str(spans)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        setup_samples.append(record["ready"] - start)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    sha = record["extra"].get("checkpoint_sha256")
    if sha:
        mismatch = agree_checkpoint(corpus, src_digest, sha)
        record["failures"] += mismatch
        record["failed"] += len(mismatch)
    meta = json.loads((corpus / "meta.json").read_text())
    record["setup_samples_s"] = setup_samples
    record["corpus"] = meta
    record["environment"] = environment(args.seed, src_digest, record.pop("env"))

    if args.trace:
        values = record["per_layer"]
        declared = spec["per_layer"]
    else:
        ph = record["phases"]
        values = {
            "setup_s": statistics.median(setup_samples),
            "session_s": ph["metrics"]["session_s"]["value"],
            "dev_perplexity": record["extra"]["dev_perplexity"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-seed-{args.seed}-trace-{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(full record: {result_path})")
    shown = dict(metrics)
    if not args.trace:
        shown.update(record["phases"]["metrics"])
    for name, m in shown.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for key, value in sorted(record["extra"].items()):
        if key not in shown:
            print(f"  {key:36s} {value}")
    print(f"  corpus: V={meta['vocab_size']} inventory={meta['inventory_size']} "
          f"true dev perplexity={meta['true_dev_perplexity']:.4f}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
