"""The perfbench comparison script on synthetic result lines."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / ".github"))
import compare_perfbench  # noqa: E402

TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
WIDE = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2]


def _line(value):
    """A strict perfbench result line with one metric, round_s."""
    metrics = {"round_s": {"value": value, "unit": "s"}}
    return json.dumps({"correct": True, "failed": 0, "metrics": metrics}) + "\n"


def _compare(tmp_path, capsys, parent, change):
    benchmark = {"end_to_end": [{"name": "round_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    (tmp_path / "benchmark.json").write_text(json.dumps(benchmark))
    (tmp_path / "parent.jsonl").write_text("".join(map(_line, parent)))
    (tmp_path / "change.jsonl").write_text("".join(map(_line, change)))
    code = compare_perfbench.main(
        [str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl"),
         "--benchmark", str(tmp_path / "benchmark.json")]
    )
    return code, capsys.readouterr().out.splitlines()[-1]


def test_worse_than_its_bound_fails(tmp_path, capsys):
    code, row = _compare(tmp_path, capsys, TIGHT, [v * 1.2 for v in TIGHT])
    assert code == 1
    assert "WORSE THAN ITS BOUND" in row and "unresolved" not in row


@pytest.mark.parametrize("change, unresolved", [(WIDE[::-1], True), ([0.6] * 6, False)])
def test_wide_parent_spread_is_unresolved(tmp_path, capsys, change, unresolved):
    # the parent's quartiles lie 0.39 of its median apart, wider than the bound of 0.1;
    # a change whose every run beats every parent run is resolved all the same
    code, row = _compare(tmp_path, capsys, WIDE, change)
    assert code == 0
    assert ("unresolved" in row) == unresolved
    assert "38.6%" in row


def test_clean_comparison_passes(tmp_path, capsys):
    code, row = _compare(tmp_path, capsys, TIGHT, TIGHT[::-1])
    assert code == 0
    assert "unresolved" not in row and "WORSE" not in row
