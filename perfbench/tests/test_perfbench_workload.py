"""A repeated operation whose output changes fails, and so does a
checkpoint whose bytes differ from the one recorded for its seed."""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workload  # noqa: E402


def _returning(*outputs):
    it = iter(outputs)
    return (lambda: next(it), (), {})


def test_a_repeated_operation_must_reproduce_its_first_output():
    s = workload.Session()
    call = _returning(np.zeros(3), np.zeros(3), np.array([0.0, 0.0, 1e-12]))
    for _ in range(3):
        s.op("score", 0, call)
    assert s.attempted == 3
    assert len(s.failures) == 1 and "differs" in s.failures[0]
    assert len(s.ops["score"]) == 3


def test_an_operation_that_raises_fails_and_is_not_timed():
    s = workload.Session()

    def boom():
        raise ValueError("injected")
    s.op("top1", 0, (boom, (), {}))
    s.op("top1", 1, _returning("blue"))
    assert s.attempted == 2 and len(s.failures) == 1
    assert len(s.ops["top1"]) == 1


def test_untimed_operations_are_checked_but_not_timed():
    s = workload.Session()
    call = _returning(1.0, 2.0)
    s.op("compare", 0, call, timed=False)
    s.op("compare", 0, call)
    assert len(s.failures) == 1
    assert s.ops["compare"] and len(s.ops["compare"]) == 1


def test_checkpoint_digest_must_match_the_one_recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE", tmp_path)
    corpus = tmp_path / "abc-seed-1"
    assert run.agree_checkpoint(corpus, "f" * 64, "aa") == []
    assert run.agree_checkpoint(corpus, "f" * 64, "aa") == []
    assert len(run.agree_checkpoint(corpus, "f" * 64, "ab")) == 1
    assert run.agree_checkpoint(tmp_path / "abc-seed-2", "f" * 64, "ab") == []
