"""The artifact bytes still match the committed ledger.

``experiments/record_ledger.py`` computes the sha256 of the default-config
train and sample artifacts in both modes, of each mode's exact terminal
distribution and the reward-proportional target at desk cap 3, and of one
seed-0 infer-baseline sample and evaluate report. ``tests/artifact_ledger.json`` holds them per
environment: in an environment with a row, any difference fails and names
the artifact; in one without, the test skips and names the fields that
differ.
"""

import json
from pathlib import Path

import pytest

from conftest import load_file

ledger = load_file(Path(__file__).resolve().parents[1] / "experiments" / "record_ledger.py", "experiments_record_ledger")


def row_for(env: dict, rows: list[dict]) -> dict:
    """The artifacts of the row recorded in ``env``; skip when there is none."""
    for row in rows:
        if row["environment"] == env:
            return row["artifacts"]
    nearest = min(([k for k in env if row["environment"].get(k) != env[k]] for row in rows), key=len, default=list(env))
    pytest.skip(f"no ledger row for this environment: {', '.join(nearest)} differ from the nearest row; "
                f"experiments/record_ledger.py prints the row to add")


@pytest.fixture(scope="module")
def recorded():
    return row_for(ledger.environment(), json.loads(ledger.LEDGER.read_text())["rows"])


def test_environment_without_a_row_skips_naming_the_fields():
    rows = json.loads(ledger.LEDGER.read_text())["rows"]
    env = dict(rows[0]["environment"], numpy="0.0", machine="other")
    with pytest.raises(pytest.skip.Exception, match="machine, numpy differ from the nearest row"):
        row_for(env, rows)


def test_artifacts_match_ledger(recorded):
    computed = ledger.artifacts()
    assert sorted(computed) == sorted(recorded)
    changed = [name for name in sorted(recorded) if computed[name] != recorded[name]]
    assert not changed, f"artifact bytes differ from the ledger: {', '.join(changed)}"
