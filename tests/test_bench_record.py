import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def doc(wall_s_each, failed=0):
    """A recorded file holding one workload whose every metric reads 1
    except wall_s."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    metrics = {name: bench_record.spread([1.0, 1.0, 1.0]) for name in names}
    metrics["wall_s"] = bench_record.spread(wall_s_each)
    return {"checkout_path_length": 10, "lanes": 2, "workloads": {
        "w": {"failed": failed, "attempted": 3, "digests": {"1": {}}, "metrics": metrics}}}


@pytest.mark.parametrize("change, failed, code", [
    ([1.9, 2.0, 2.1], 0, 0),   # faster
    ([2.4, 2.5, 2.6], 0, 0),   # 25% slower: at the bound
    ([2.6, 2.7, 2.8], 0, 1),   # 35% slower
    ([1.9, 2.0, 2.1], 1, 1),   # an operation failed
])
def test_compare_exits_1_past_a_bound(tmp_path, capsys, change, failed, code):
    paths = []
    for name, each, fails in (("a", [1.9, 2.0, 2.1], 0), ("b", change, failed)):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(doc(each, fails), fh)
    assert bench_record.compare(*paths) == code
    out = capsys.readouterr().out
    assert "wall_s" in out and "bound 25%" in out


def test_spread_gives_median_and_quartiles():
    assert bench_record.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "each": [4.0, 1.0, 3.0, 2.0, 5.0]}
