"""Tests of the benchmark itself: its output checks can fail, its wrappers
survive refactors of the program, it runs from any working directory and
refuses to run without the program.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, REPO)

from perfbench import oracle  # noqa: E402
from perfbench.trace import Tracer, attribute  # noqa: E402


# ------------------------------------------------------------ output checks
def test_compare_accepts_reordered_rows_and_float_noise():
    want = [("a", 1, 0.1 + 0.2), ("b", 2, 3.0)]
    got = [("b", 2, 3.0), ("a", 1, 0.3)]
    oracle.compare("q", got, want)


def test_compare_rejects_a_wrong_value():
    want = [("a", 1, 0.3), ("b", 2, 3.0)]
    with pytest.raises(oracle.CheckFailed):
        oracle.compare("q", [("a", 1, 0.3), ("b", 2, 3.1)], want)
    with pytest.raises(oracle.CheckFailed):
        oracle.compare("q", [("a", 1, 0.3)], want)


def test_compare_ordered_and_limit_keys():
    want = [(1, 9.0), (2, 8.0)]
    with pytest.raises(oracle.CheckFailed):
        oracle.compare("q", list(reversed(want)), want, ordered=True)
    # ties at an ORDER BY … LIMIT cut: other row ids, same sort keys
    oracle.compare("q", [(7, 9.0), (5, 8.0)], want, ordered=True,
                   key_cols=[1])


def _events(path):
    pq.write_table(pa.table({
        "lsn": [1, 2, 3, 4], "op": ["upsert", "upsert", "upsert", "delete"],
        "repo": ["r", "r", "s", "s"], "path": ["a", "a", "b", "b"],
        "content": ["x1", "x2", "y", None],
        "size_bytes": pa.array([2, 2, 1, None], pa.int64())}), path)


def test_repeated_result_is_checked_again_when_it_differs():
    from perfbench import layers, workloads

    bench = workloads.Tail(0, 1, False, "/nonexistent", Tracer(),
                           layers.ShuffleCounter())
    want = "SELECT * FROM (VALUES (1, 'a'), (2, 'b'))"
    good = [(2, "b"), (1, "a")]
    bench.compare_rows("q", good, "q", want, {})
    bench.compare_rows("q", list(good), "q", want, {})
    with pytest.raises(oracle.CheckFailed):
        bench.compare_rows("q", [(2, "b"), (1, "x")], "q", want, {})


def test_lake_state_check_fails_on_a_wrong_row(tmp_path):
    ev = str(tmp_path / "e.parquet")
    _events(ev)
    con = oracle.connect()
    good = pa.table({"repo": ["r"], "path": ["a"], "lsn": [2],
                     "content": ["x2"], "size_bytes": pa.array([2],
                                                                pa.int64())})
    oracle.check_lake_state(con, good, [ev], "good")
    for bad in (good.set_column(3, "content", pa.array(["x1"])),
                good.set_column(2, "lsn", pa.array([1])),
                pa.concat_tables([good, good])):
        with pytest.raises(oracle.CheckFailed):
            oracle.check_lake_state(con, bad, [ev], "bad")


def test_components_oracle():
    # edges 0→1, 1→2, 2→3 (i % 7 < 3), then 7→8 …; 4, 5, 6 stay alone
    got = dict(oracle.components_oracle(list(range(10))))
    assert got == {0: 0, 1: 0, 2: 0, 3: 0, 7: 7, 8: 7, 9: 7}


# ------------------------------------------------------------------ tracing
class _Target:
    @staticmethod
    def stat(x):
        return x + 1

    @classmethod
    def cls(cls, x):
        return (cls.__name__, x)

    def meth(self, x):
        return x * 2


def test_wrappers_keep_method_kinds_and_restore():
    tr = Tracer()
    originals = {k: _Target.__dict__[k] for k in ("stat", "cls", "meth")}
    for name in originals:
        assert tr.wrap(_Target, name, f"t.{name}")
    assert isinstance(_Target.__dict__["stat"], staticmethod)
    assert isinstance(_Target.__dict__["cls"], classmethod)
    tr.enabled = True
    obj = _Target()
    assert obj.stat(1) == _Target.stat(1) == 2
    assert obj.cls(3) == ("_Target", 3)
    assert obj.meth(4) == 8
    assert tr.count("t.stat") == 2 and tr.count("t.meth") == 1
    tr.enabled = False
    obj.stat(1)
    assert tr.count("t.stat") == 2  # disabled wrappers record nothing
    tr.restore()
    for k, v in originals.items():
        assert _Target.__dict__[k] is v


def test_missing_target_is_null_not_an_error():
    tr = Tracer()
    assert not tr.wrap(_Target, "renamed_away", "gone")
    assert tr.total("gone") is None and tr.count("gone") is None
    assert tr.warnings


def test_attribution_sums_to_the_window():
    spans = [("a", 0.0, 2.0), ("b", 1.0, 3.0), ("x", 0.0, 9.0)]
    out = attribute(spans, [(0.0, 4.0)], {"a": "A", "b": "B"})
    assert out == {"A": 1.5, "B": 1.5, "other": 1.0}


def test_benchmark_json_matches_the_metrics():
    from perfbench import layers, workloads

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bench = workloads.Tail(0, 1, True, "/nonexistent", Tracer(),
                           layers.ShuffleCounter())
    e2e = set(bench.end_to_end(1.0, 1.0))
    assert e2e == {m["name"] for m in spec["end_to_end"]}
    per_layer = set(bench.layer_metrics()) | {"host.decode_mrows_s",
                                              "host.loadavg_1m"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == \
        sorted(workloads.WORKLOADS, key=["backfill", "tail", "sql"].index)


def test_class_median_weighs_kinds_equally_and_mirrors():
    from perfbench import layers, workloads

    bench = workloads.Tail(0, 1, False, "/nonexistent", Tracer(),
                           layers.ShuffleCounter())
    bench.samples["txn"]["tail_txn"] += [1.0, 3.0, 2.0]
    bench.samples["lake_read"]["a"] += [5.0] * 9
    bench.samples["lake_read"]["b"] += [1.0, 9.0, 2.0]
    assert bench.class_median("txn") == 2.0
    assert bench.class_median("lake_read") == 3.5
    # tail has no DML statements or (a) queries: they mirror txn latency
    assert bench.class_median("dml") == bench.class_median("query") == 2.0
    assert workloads.Sql.mirrors == {}


# -------------------------------------------------------------- end to end
TINY_TAIL = """
import sys
sys.path.insert(0, {repo!r})
from perfbench import run, workloads
workloads.SIZES["tail"].update(base_events=4000, keys=800, base_segments=4,
                               partitions=4, step_events=400)
sys.exit(run.main(["--workload", "tail", "--seed", "7", "--seconds", "1",
                   "--trace", "{trace}"]))
"""


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_tail_from_a_foreign_cwd(tmp_path, trace):
    """The repo is only on the driver's sys.path (not PYTHONPATH) and the
    cwd is elsewhere: Ray workers must still import the program."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", TINY_TAIL.format(repo=REPO, trace=trace)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    if trace:
        assert result["metrics"]["map.busy_s"]["value"] > 0
        assert result["metrics"]["replay.layers_share"]["value"] > 0.5
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not glob.glob(os.path.join(REPO, ".pbrun", "tail-7-*"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
