"""The CLI's output bytes against the committed fingerprint table
(`golden.py`): the determinism contract across commits."""

import json

import golden


def test_cli_outputs_match_the_committed_fingerprints():
    recorded = json.loads(golden.TABLE.read_text(encoding="utf-8"))
    problems = golden.differences(recorded, golden.table())
    assert not problems, "\n".join(problems)
