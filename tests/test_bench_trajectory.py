import json
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parents[1] / "BENCH_trajectory.json"
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_every_entry_holds_parent_and_change_medians():
    doc = json.loads(TRAJECTORY.read_text())
    bench = json.loads(BENCHMARK.read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    assert set(doc["metrics"]) == metrics
    labels = [e["label"] for e in doc["entries"]]
    assert len(labels) == len(set(labels))
    for entry in doc["entries"]:
        assert set(entry) == {"label", "source", "workloads"}
        assert set(entry["workloads"]) == workloads
        for values in entry["workloads"].values():
            assert set(values) == metrics
            for pair in values.values():
                assert set(pair) == {"parent", "change"}
                assert all(isinstance(v, float) and v > 0 for v in pair.values())
