"""The CI workflows run the scripts under ci/, so that a local run is the
run CI makes. The workflows are read as plain text: PyYAML is no
dependency of the tests."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.yml"))
SCRIPTS = sorted((ROOT / "ci").glob("*.sh"))


def test_no_workflow_run_is_a_block():
    assert WORKFLOWS
    for workflow in WORKFLOWS:
        for ln, line in enumerate(workflow.read_text().splitlines(), 1):
            assert not re.match(r"\s*(- )?\s*run:\s*[|>]", line), f"{workflow.name}:{ln}"


def test_every_script_is_called_by_a_workflow():
    assert SCRIPTS
    text = "\n".join(workflow.read_text() for workflow in WORKFLOWS)
    for script in SCRIPTS:
        assert f"ci/{script.name}" in text, script.name


@pytest.mark.parametrize("script", SCRIPTS + sorted((ROOT / "ci").glob("*.bash")),
                         ids=lambda path: path.name)
def test_bash_accepts_the_script(script):
    result = subprocess.run(["bash", "-n", str(script)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _eval_run(path: Path, log2_probs: list, perplexity: float = 4.0) -> Path:
    """An `eval --out` directory holding what ci/same_scores.py reads."""
    path.mkdir()
    (path / "eval-dev.json").write_text(json.dumps(
        {"log2_probs": log2_probs, "perplexity": perplexity}))
    (path / "run-meta.json").write_text(json.dumps(
        {"counts": {"skipped_records": {"dev": 0}}}))
    return path


def _same_scores(*args):
    return subprocess.run([sys.executable, str(ROOT / "ci" / "same_scores.py"), *map(str, args)],
                          capture_output=True, text=True)


def test_same_scores_within_bounds_the_largest_difference(tmp_path):
    a = _eval_run(tmp_path / "a", [-1.0, -2.0, -3.0])
    b = _eval_run(tmp_path / "b", [-1.0, -2.0 + 3e-6, -3.0 - 1e-6], 3.9999965)
    # equality stays the default
    assert _same_scores(a, b).returncode == 1
    ok = _same_scores(a, b, "--within", "5e-6")
    assert ok.returncode == 0, ok.stderr
    assert "max |delta log2 p| 3e-06 bits, 2 of 3 rows changed" in ok.stdout
    assert "perplexity 4.0 and 3.9999965" in ok.stdout
    assert _same_scores(a, b, "--within", "2e-6").returncode == 1
    # a row -inf (null) in one run only is an infinite difference
    c = _eval_run(tmp_path / "c", [-1.0, None, -3.0])
    assert "max |delta log2 p| inf bits" in _same_scores(a, c, "--within", "1").stdout
    assert _same_scores(a, c, "--within", "1").returncode == 1
    assert _same_scores(a, a, "--within", "0").returncode == 0


def test_same_scores_ppl_within_bounds_the_relative_perplexity_gap(tmp_path):
    a = _eval_run(tmp_path / "a", [-1.0, -2.0, -3.0])
    b = _eval_run(tmp_path / "b", [-1.0, -2.0 + 3e-6, -3.0], 3.9999996)
    ok = _same_scores(a, b, "--within", "5e-6", "--ppl-within", "2e-7")
    assert ok.returncode == 0, ok.stderr
    assert "perplexity 4.0 and 3.9999996, relative gap 1e-07" in ok.stdout
    assert "log2_probs within 5e-06 bits, perplexity within 2e-07 relative" in ok.stdout
    bad = _same_scores(a, b, "--within", "5e-6", "--ppl-within", "5e-8")
    assert bad.returncode == 1
    assert "perplexities differ by more than 5e-08 relative" in bad.stderr
    # the rows are checked as well: equality by default, so b fails
    assert _same_scores(a, b, "--ppl-within", "1").returncode == 1
    assert _same_scores(a, a, "--ppl-within", "0").returncode == 0
    for value in ("-1e-7", "inf", "nan", "x"):
        refused = _same_scores(a, b, "--ppl-within", value)
        assert refused.returncode == 2 and "--ppl-within" in refused.stderr, value
