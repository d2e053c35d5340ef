"""tools/bench_compare.py on small synthetic trajectories: its gain and
worse verdicts and its exit status."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

BENCHMARK = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "lat", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "thr", "unit": "x", "better": "higher", "bound": 0.25},
    ],
}
# parent runs with quartiles 97.25 and 102.75: an IQR of 5.5
PARENT = [95.0, 96.0, 97.0, 98.0, 99.0, 101.0, 102.0, 103.0, 104.0, 105.0]


def run(run_values, tmp_path, capsys, **change_fields):
    """Compare one workload whose change runs read ``run_values`` for both
    metrics against PARENT; returns (exit status, {metric: verdict})."""
    pairs = [
        {
            "workload": "w",
            "seed": i,
            "parent": {"correct": True, "failed": 0, "attempted": 10,
                       "metrics": {"lat": {"value": p}, "thr": {"value": p}}},
            "change": {"correct": True, "failed": 0, "attempted": 10,
                       "metrics": {"lat": {"value": c}, "thr": {"value": c}}, **change_fields},
        }
        for i, (p, c) in enumerate(zip(PARENT, run_values))
    ]
    (tmp_path / "bench.json").write_text(json.dumps(BENCHMARK))
    (tmp_path / "traj.json").write_text(json.dumps({"command": "synthetic", "pairs": pairs}))
    status = bench_compare.main(
        [str(tmp_path / "traj.json"), "--benchmark", str(tmp_path / "bench.json")]
    )
    verdicts = {}
    for line in capsys.readouterr().out.splitlines():
        words = line.split()
        if words and words[0] in ("lat", "thr"):
            verdicts[words[0]] = words[-1] if words[-1] in ("gain", "worse") else ""
    return status, verdicts


def shifted(delta, wins=10):
    """The parent runs moved by ``delta``, with the last 10 - ``wins``
    pairs moved the other way instead."""
    return [p + (delta if i < wins else -delta) for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("wins", [9, 10])
def test_gain_needs_nine_wins_and_a_median_gap_past_the_parent_iqr(tmp_path, capsys, wins):
    status, verdicts = run(shifted(-8.0, wins), tmp_path, capsys)
    assert verdicts["lat"] == "gain"
    assert status == 0


def test_eight_wins_is_no_gain(tmp_path, capsys):
    _, verdicts = run(shifted(-8.0, wins=8), tmp_path, capsys)
    assert verdicts["lat"] == ""


def test_every_pair_won_by_less_than_the_parent_iqr_is_no_gain(tmp_path, capsys):
    _, verdicts = run(shifted(-5.0), tmp_path, capsys)
    assert verdicts["lat"] == ""
    _, verdicts = run(shifted(-6.0), tmp_path, capsys)
    assert verdicts["lat"] == "gain"


@pytest.mark.parametrize(
    "delta, lat, thr, status",
    [
        (+30.0, "worse", "gain", 1),  # lower-is-better median 30% up
        (-30.0, "gain", "worse", 1),  # higher-is-better median 30% down
        (+20.0, "", "gain", 0),  # 20% moves stay inside the 25% bound
        (-20.0, "gain", "", 0),
    ],
)
def test_worse_is_a_median_past_the_bound_in_either_direction(
    tmp_path, capsys, delta, lat, thr, status
):
    # every change run moves by delta percent of its parent
    change = [p * (1.0 + delta / 100.0) for p in PARENT]
    got_status, verdicts = run(change, tmp_path, capsys)
    assert verdicts == {"lat": lat, "thr": thr}
    assert got_status == status


@pytest.mark.parametrize(
    "fields, status",
    [({"correct": False}, 1), ({"failed": 1}, 1), ({"failed": 0}, 0)],
)
def test_exit_1_when_a_change_run_is_incorrect_or_fails_more_steps(
    tmp_path, capsys, fields, status
):
    got_status, verdicts = run(PARENT, tmp_path, capsys, **fields)
    assert verdicts == {"lat": "", "thr": ""}
    assert got_status == status
