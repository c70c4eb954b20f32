"""The CI workflows run the scripts under ci/, so that a local run is the
run CI makes. The workflows are read as plain text: PyYAML is no
dependency of the tests."""

import re
import subprocess
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
