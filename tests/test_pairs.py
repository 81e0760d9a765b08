"""tools/pairs.py: report parsing and pair statistics, with no benchmark run."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import pairs  # noqa: E402

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower",
               "bound": 0.24},
              {"name": "rate", "unit": "1/s", "better": "higher",
               "bound": 0.1}]


def _stdout(wall, rate, failed=0):
    """Canned perfbench/run.py output: human lines, then the JSON line."""
    report = {"correct": failed == 0, "attempted": 2, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "rate": {"value": rate, "unit": "1/s"}}}
    return ("workload mc-trajectories  seed 0  rounds 3 (0 traced)\n"
            f"  wall_s {wall} s\n  check PASS mc: ok\n"
            + json.dumps(report) + "\n")


def test_parse_report_reads_the_last_line():
    report = pairs.parse_report(_stdout(1.25, 8.0, failed=1))
    assert report["metrics"]["wall_s"]["value"] == 1.25
    assert (report["correct"], report["failed"]) == (False, 1)


@pytest.mark.parametrize("stdout", ["", "perfbench: workload failed\n",
                                    '{"correct": true'])
def test_parse_report_counts_a_run_without_a_report_as_failed(stdout):
    report = pairs.parse_report(stdout)
    assert (report["correct"], report["failed"]) == (False, 1)
    assert report["metrics"] == {}


def test_summarize_medians_quartiles_and_wins():
    parent_wall = [1.0, 1.4, 1.2, 1.1, 1.3]
    tree_wall = [0.9, 1.4, 1.3, 1.0, 1.2]
    parent_rate = [5.0, 5.0, 6.0, 7.0, 8.0]
    tree_rate = [6.0, 4.0, 6.0, 8.0, 9.0]
    runs = [{"parent": pairs.parse_report(_stdout(pw, pr)),
             "tree": pairs.parse_report(_stdout(tw, tr, failed=int(i == 2)))}
            for i, (pw, tw, pr, tr) in enumerate(
                zip(parent_wall, tree_wall, parent_rate, tree_rate))]
    out = pairs.summarize(runs, END_TO_END)
    assert out["pairs"] == 5
    assert (out["parent_correct"], out["parent_failed"]) == (5, 0)
    assert (out["tree_correct"], out["tree_failed"]) == (4, 1)
    wall = out["metrics"]["wall_s"]
    assert wall["parent"] == parent_wall and wall["tree"] == tree_wall
    assert wall["parent_median"] == 1.2 and wall["tree_median"] == 1.2
    # perfbench's quartiles, statistics.quantiles(values, n=4): the
    # exclusive method puts q1 and q3 at ranks 1.5 and 4.5 of 5
    assert wall["parent_quartiles"] == pytest.approx([1.05, 1.35])
    assert wall["tree_quartiles"] == pytest.approx([0.95, 1.35])
    # lower is better: the tree wins pairs 0, 3 and 4; pair 1 is a tie
    assert wall["tree_wins"] == 3
    assert wall["median_change"] == pytest.approx(0.0)
    assert wall["bound"] == 0.24
    # higher is better: the tree wins pairs 0, 3 and 4; pair 2 is a tie
    rate = out["metrics"]["rate"]
    assert rate["tree_wins"] == 3
    assert rate["median_change"] == pytest.approx(0.0)


def test_summarize_leaves_statistics_out_when_a_run_has_no_value():
    runs = [{"parent": pairs.parse_report(_stdout(1.0, 5.0)),
             "tree": pairs.parse_report("")}]
    wall = pairs.summarize(runs, END_TO_END)["metrics"]["wall_s"]
    assert wall["tree"] == [None]
    assert "tree_median" not in wall and "tree_wins" not in wall


def test_parse_blas_reads_numpy_show_config():
    # the line BLAS_PROBE prints: numpy.show_config(mode="dicts")'s
    # "Build Dependencies" -> "blas" record
    record = {"name": "scipy-openblas", "found": True,
              "version": "0.3.31.188.0", "detection method": "pkgconfig",
              "openblas configuration": "OpenBLAS 0.3.31.188.0 DYNAMIC_ARCH"}
    assert pairs.parse_blas(json.dumps(record) + "\n") == {
        "blas": "scipy-openblas", "blas_version": "0.3.31.188.0"}
    assert pairs.parse_blas("") == {"blas": None, "blas_version": None}
