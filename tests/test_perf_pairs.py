"""tools/perf_pairs.py: the summary of alternating benchmark pairs, and a
run that gives no result object stopping the tool."""

import importlib.util
import os

import pytest

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "perf_pairs.py")

METRICS = [{"name": "step_rel_p50", "unit": "ratio", "better": "lower", "bound": 0.2},
           {"name": "score", "unit": "1/s", "better": "higher", "bound": 0.1}]


@pytest.fixture(scope="module")
def pairs_tool():
    spec = importlib.util.spec_from_file_location("perf_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(step, score, failed=0, attempted=10):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"step_rel_p50": {"value": step, "unit": "ratio"},
                        "score": {"value": score, "unit": "1/s"}}}


def test_summary_of_canned_pairs(pairs_tool):
    # parent steps 10, 12, 11, 13, 14 against 9, 12 (a tie), 12, 12, 13
    pairs = [(result(10, 5), result(9, 6)),
             (result(12, 5), result(12, 5)),
             (result(11, 5, failed=1), result(12, 4)),
             (result(13, 7), result(12, 7, attempted=12)),
             (result(14, 6), result(13, 6.5))]
    summary = pairs_tool.summarize(METRICS, pairs)
    step, score = summary["metrics"]
    assert summary["pairs"] == 5
    assert (step["parent_median"], step["change_median"]) == (12, 12)
    # statistics.quantiles' exclusive method on 10, 11, 12, 13, 14
    assert (step["parent_q1"], step["parent_q3"]) == (10.5, 13.5)
    assert step["change_wins"] == 3  # lower is better; the tie counts for neither
    assert (score["parent_median"], score["change_median"]) == (5, 6)
    assert score["change_wins"] == 2  # higher is better; two ties
    assert summary["units"] == {"parent": {"failed": 1, "attempted": 50},
                                "change": {"failed": 0, "attempted": 52}}
    lines = pairs_tool.report(summary)
    assert lines[1].split() == ["step_rel_p50", "12", "12", "10.5", "13.5", "3", "3", "of", "5"]
    assert lines[-1] == "units failed/attempted: parent 1/50, change 0/52"


def test_one_pair_has_no_spread(pairs_tool):
    summary = pairs_tool.summarize(METRICS, [(result(10, 5), result(11, 5))])
    step = summary["metrics"][0]
    assert (step["parent_q1"], step["parent_q3"], step["change_wins"]) == (10, 10, 0)


@pytest.mark.parametrize("script", [
    "import sys\nprint('a result', flush=True)\nsys.exit('boom: the unit broke')\n",
    "import sys\nprint('no json here')\nprint('boom: the unit broke', file=sys.stderr)\n",
], ids=["exit-1", "no-result-line"])
def test_a_run_without_a_result_stops_with_its_stderr(pairs_tool, tmp_path, script):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(script)
    with pytest.raises(SystemExit) as stop:
        pairs_tool.run_once(str(tmp_path), "train_w4a4", 3, 1)
    message = str(stop.value.code)
    assert "train_w4a4 seed 3" in message and message.endswith("boom: the unit broke")


def test_the_result_object_is_the_last_line(pairs_tool, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\nprint('manifest {}')\n"
        f"print(json.dumps({result(10, 5)!r}))\n")
    assert pairs_tool.run_once(str(tmp_path), "fit_scaling", 1, 1) == result(10, 5)
