"""The CI workflow file parses, and each of its steps runs something."""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_workflow_steps_each_have_one_of_run_or_uses():
    # a step that lost the space after `run:` no longer parses as a mapping,
    # and a runner rejects a workflow file it cannot parse
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [(job, step) for job, spec in workflow["jobs"].items() for step in spec["steps"]]
    assert steps
    for job, step in steps:
        assert isinstance(step, dict) and len({"run", "uses"} & step.keys()) == 1, (job, step)
