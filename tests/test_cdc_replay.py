"""CDC replay engine tests (FIXTURES.md §5 invariants):

- final lake state sha256-matches the naive in-memory oracle replay
- delete-as-final-event removes the key
- resume from checkpoint converges to the same state as a full run
- replaying a committed LSN range is a no-op (exactly-once, manifest stable)
- additive schema evolution null-backfills old rows
- extreme hot-key skew (one key = half the stream) preserves LWW results:
  the per-batch combiner collapses the hot key to ≤1 row per map batch, so
  no salting is needed for last-writer-wins ingest (TestHotKeySkew)
- determinism: two runs → identical manifest content
"""

import json
import os

import pyarrow.parquet as pq
import pytest

from conftest import SF_TINY


@pytest.fixture(scope="module")
def events_dir(ray_session, tmp_path_factory):
    from qwery_ray.cdc.synth import synth_change_events

    d = tmp_path_factory.mktemp("events")
    synth_change_events(str(d), n_keys=300, n_events=2000, seed=7,
                        n_segments=4, evolve_after_lsn=1200)
    return str(d)


@pytest.fixture(scope="module")
def oracle_state(events_dir):
    from qwery_ray.cdc.oracle import naive_replay, sha256_of_state

    state = naive_replay(events_dir)
    return state, sha256_of_state(state)


def make_engine(tmp_path, **kw):
    from qwery_ray.cdc.engine import CDCLakeEngine

    kw.setdefault("num_partitions", 8)
    return CDCLakeEngine(str(tmp_path / "lake"), **kw)


def lake_sha(engine):
    from qwery_ray.cdc.oracle import sha256_of_table

    return sha256_of_table(engine.table())


class TestReplayCorrectness:
    def test_full_replay_matches_oracle(self, events_dir, oracle_state, tmp_path):
        state, expected = oracle_state
        eng = make_engine(tmp_path)
        manifest = eng.replay(events_dir)
        assert manifest["watermark_lsn"] == 2000
        got = lake_sha(eng)
        assert got == expected  # per-row sha256(content) equality

    def test_deleted_keys_absent(self, events_dir, oracle_state, tmp_path):
        state, _ = oracle_state
        eng = make_engine(tmp_path)
        eng.replay(events_dir)
        table = eng.table()
        keys = set(zip(table.column("repo").to_pylist(),
                       table.column("path").to_pylist()))
        assert len(keys) == len(table)  # key uniqueness
        assert keys == set(state)

    def test_chunked_replay_matches(self, events_dir, oracle_state, tmp_path):
        _, expected = oracle_state
        eng = make_engine(tmp_path)
        manifest = eng.replay(events_dir, chunk_lsns=500)
        assert len(manifest["committed_txns"]) == 4
        assert lake_sha(eng) == expected

    def test_bounded_incremental_merge_matches(self, events_dir, oracle_state,
                                               tmp_path, monkeypatch):
        # the reduce flushes (concat + LWW winner select) a partition's
        # pending slices once they reach its accumulator's size, floor
        # REDUCE_FLUSH_FLOOR rows. An instance floor of 1 forces several
        # flushes per partition — the bounded-state path for hot partitions
        # — run in-process over a shuffle dir the map step wrote
        from collections import Counter

        import pyarrow as pa
        import ray.data as rd

        from qwery_ray.cdc import engine as E
        from qwery_ray.cdc.oracle import sha256_of_table

        _, expected = oracle_state
        sdir = str(tmp_path / "shuffle")
        os.makedirs(sdir)
        write = E.MultiTxnShuffleWrite(8, [(0, 2000, sdir)])
        stats = []
        for f in sorted(os.listdir(events_dir)):
            seg = pq.read_table(os.path.join(events_dir, f))
            stats += [write(seg.slice(i, 200))
                      for i in range(0, seg.num_rows, 200)]
        E.CDCLakeEngine._collect_shuffle_index(
            rd.from_arrow(pa.concat_tables(stats)))

        flushes = Counter()
        winners = E.lww_winner_indices

        def counting(t, key_cols):
            flushes[t.column("pkey")[0].as_py()] += 1
            return winners(t, key_cols)

        monkeypatch.setattr(E, "lww_winner_indices", counting)
        pids = list(range(8))
        one = E.MergePartitionFS(str(tmp_path), "t", {}, sdir) \
            ._reduce_shuffle(pids)
        assert dict(flushes) == {p: 1 for p in pids}
        flushes.clear()
        merge = E.MergePartitionFS(str(tmp_path), "t", {}, sdir)
        merge.REDUCE_FLUSH_FLOOR = 1
        inc = merge._reduce_shuffle(pids)
        assert set(flushes) == set(pids)
        assert min(flushes.values()) > 1

        def canon(t):
            return t.select(sorted(t.column_names)).sort_by(
                [("repo", "ascending"), ("path", "ascending")])

        for p in pids:
            assert canon(inc[p]).equals(canon(one[p])), p
        lake = E.resolve_with_deltas(None, list(inc.values()), E.KEY_COLS)
        assert sha256_of_table(lake) == expected


class TestExactlyOnce:
    def test_recommit_is_noop(self, events_dir, tmp_path):
        eng = make_engine(tmp_path)
        m1 = eng.replay(events_dir, chunk_lsns=1000)
        with open(eng.manifest_path) as f:
            bytes1 = f.read()
        # replay an already-committed range explicitly
        m2 = eng.apply_chunk(events_dir, 0, 1000)
        with open(eng.manifest_path) as f:
            bytes2 = f.read()
        assert bytes1 == bytes2
        assert m2["version"] == m1["version"]

    def test_rerun_whole_stream_is_noop(self, events_dir, oracle_state, tmp_path):
        _, expected = oracle_state
        eng = make_engine(tmp_path)
        eng.replay(events_dir, chunk_lsns=700)
        with open(eng.manifest_path) as f:
            before = f.read()
        eng.replay(events_dir, chunk_lsns=700)  # watermark already at max
        with open(eng.manifest_path) as f:
            after = f.read()
        assert before == after
        assert lake_sha(eng) == expected


class TestReplayWaves:
    """replay() maps its chunks in waves through one map step, _map_all.
    A failed call removes the staging of every txn it did not commit (the
    writer id is random per engine, so nothing else ever would), and each
    commit record carries the txn's share of its map pass."""

    @pytest.mark.parametrize("budget", [None, 1])
    def test_failed_replay_leaves_no_staging(self, events_dir, tmp_path,
                                             monkeypatch, budget):
        from qwery_ray.cdc import engine as E

        def failing_merge(self, *args):
            raise OSError("merge failed")

        monkeypatch.setattr(E.CDCLakeEngine, "_run_merge", failing_merge)
        if budget is not None:  # one chunk per wave: a prefetch is running
            monkeypatch.setattr(E, "MAP_LOOKAHEAD_BYTES", budget)
        eng = make_engine(tmp_path)
        with pytest.raises(OSError, match="merge failed"):
            eng.replay(events_dir, chunk_lsns=700)
        staging = os.path.join(eng.lake_dir, "_staging")
        assert os.listdir(staging) == []
        with pytest.raises(OSError, match="merge failed"):
            eng.apply_chunk(events_dir, 0, 700)
        assert os.listdir(staging) == []
        assert eng.load_manifest()["version"] == 0

    def test_one_chunk_per_wave_prefetches(self, events_dir, oracle_state,
                                           tmp_path, monkeypatch):
        import threading

        from qwery_ray.cdc import engine as E

        _, expected = oracle_state
        calls = []
        real_map = E.CDCLakeEngine._map_all

        def spy(self, events_path, spans):
            calls.append((list(spans), threading.get_ident()))
            return real_map(self, events_path, spans)

        monkeypatch.setattr(E.CDCLakeEngine, "_map_all", spy)
        monkeypatch.setattr(E, "MAP_LOOKAHEAD_BYTES", 1)
        eng = make_engine(tmp_path)
        m = eng.replay(events_dir, chunk_lsns=500)
        assert [s for s, _ in calls] == [[(0, 500)], [(500, 1000)],
                                         [(1000, 1500)], [(1500, 2000)]]
        main = threading.get_ident()
        assert calls[0][1] == main
        assert all(t != main for _, t in calls[1:])
        assert len(m["committed_txns"]) == 4
        assert lake_sha(eng) == expected
        assert os.listdir(os.path.join(eng.lake_dir, "_staging")) == []

    def test_commit_records_include_map_time(self, events_dir, tmp_path):
        eng = make_engine(tmp_path)
        eng.replay(events_dir, chunk_lsns=700)
        recs = [r for r in eng.stats_records() if r.get("type") != "inflight"]
        assert [(r["lo"], r["hi"]) for r in recs] == \
            [(0, 700), (700, 1400), (1400, 2000)]
        for r in recs:
            assert r["map_sec"] > 0
            assert r["elapsed_sec"] >= r["map_sec"]
            # throughput over the whole txn wall, map share included
            assert r["events_per_sec"] <= (r["hi"] - r["lo"]) / r["map_sec"]


class TestResume:
    def test_resume_mid_stream(self, events_dir, oracle_state, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import naive_replay, sha256_of_state

        _, expected = oracle_state
        eng = make_engine(tmp_path)
        # run only the first half (simulates a crash after checkpoint 2)
        eng.replay(events_dir, chunk_lsns=500, max_lsn=1000)
        mid = lake_sha(eng)
        mid_expected = sha256_of_state(naive_replay(events_dir, upto_lsn=1000))
        assert mid == mid_expected
        # a FRESH engine instance resumes from the manifest watermark
        eng2 = CDCLakeEngine(eng.lake_dir, num_partitions=8)
        manifest = eng2.replay(events_dir, chunk_lsns=500)
        assert manifest["watermark_lsn"] == 2000
        assert lake_sha(eng2) == expected

    def test_checkpoints_surface(self, events_dir, tmp_path):
        eng = make_engine(tmp_path)
        eng.replay(events_dir, chunk_lsns=1000)
        cps = eng.checkpoints()
        assert {"partition_id", "last_applied_lsn", "row_count", "lineage"} \
            <= set(cps.columns)
        assert cps["row_count"].sum() > 0
        assert (cps["last_applied_lsn"] <= 2000).all()


class TestSchemaEvolution:
    def test_new_column_null_backfilled(self, events_dir, oracle_state, tmp_path):
        state, _ = oracle_state
        eng = make_engine(tmp_path)
        # chunk boundary straddles the evolution LSN (1200)
        eng.replay(events_dir, chunk_lsns=600)
        table = eng.table()
        assert "size_bytes" in table.column_names
        rows = {(r["repo"], r["path"]): r for r in table.to_pylist()}
        for key, expect in state.items():
            got = rows[key]
            assert got["size_bytes"] == expect.get("size_bytes")
        # keys last-written before evolution carry NULL size_bytes
        pre = [k for k, v in state.items() if v["lsn"] <= 1200]
        assert pre, "fixture should have pre-evolution survivors"
        assert all(rows[k]["size_bytes"] is None for k in pre)


class TestDeterminism:
    def test_two_runs_identical_manifest(self, events_dir, tmp_path):
        eng1 = make_engine(tmp_path / "a")
        eng2 = make_engine(tmp_path / "b")
        eng1.replay(events_dir, chunk_lsns=650)
        eng2.replay(events_dir, chunk_lsns=650)
        with open(eng1.manifest_path) as f:
            m1 = f.read()
        with open(eng2.manifest_path) as f:
            m2 = f.read()
        assert m1 == m2
        assert lake_sha(eng1) == lake_sha(eng2)


class TestLookup:
    def test_point_lookup(self, events_dir, oracle_state, tmp_path):
        state, _ = oracle_state
        eng = make_engine(tmp_path)
        eng.replay(events_dir)
        key, expect = next(iter(state.items()))
        row = eng.lookup(*key)
        assert row is not None
        assert row["content"] == expect["content"]
        assert row["lsn"] == expect["lsn"]
        assert eng.lookup("no/such-repo", "nope.py") is None


class TestRandomizedStreams:
    @pytest.mark.parametrize("seed,n_keys,n_events,chunks,delete_frac", [
        (11, 50, 900, 3, 0.3),    # heavy deletes
        (23, 1000, 1200, 2, 0.05),  # mostly-unique keys
        (37, 20, 1500, 5, 0.15),  # tiny key space = extreme hot keys
    ])
    def test_random_stream_matches_oracle(self, ray_session, tmp_path,
                                          seed, n_keys, n_events, chunks,
                                          delete_frac):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import naive_replay, sha256_of_state, \
            sha256_of_table
        from qwery_ray.cdc.synth import synth_change_events

        ev = str(tmp_path / "ev")
        synth_change_events(ev, n_keys=n_keys, n_events=n_events, seed=seed,
                            n_segments=3, delete_frac=delete_frac,
                            evolve_after_lsn=n_events // 2)
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=5)
        eng.replay(ev, chunk_lsns=n_events // chunks + 1)
        expected = sha256_of_state(naive_replay(ev))
        assert sha256_of_table(eng.table()) == expected


class TestWideContent:
    def test_wide_rows_small_batches(self, ray_session, tmp_path):
        """~50 KB contents: the bytes-aware combiner batch size must shrink
        (wide-record stressor, FIXTURES.md §2) and results stay exact."""
        from qwery_ray.cdc.engine import CDCLakeEngine, _batch_size, \
            _row_size
        from qwery_ray.cdc.oracle import naive_replay, sha256_of_state, \
            sha256_of_table
        from qwery_ray.cdc.synth import synth_change_events
        from qwery_ray.cdc.tail import resolve_tail

        ev = str(tmp_path / "ev")
        synth_change_events(ev, n_keys=60, n_events=400, seed=5,
                            n_segments=2, mean_content_len=50_000)
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        bs = _batch_size(_row_size(resolve_tail(ev)), 10**9, ncpu=1)
        assert bs < 20_000  # bytes-aware: far below the row-count cap
        eng.replay(ev, chunk_lsns=200)
        expected = sha256_of_state(naive_replay(ev))
        assert sha256_of_table(eng.table()) == expected


class TestMultiWriterOCC:
    """Optimistic concurrency: two replay drivers racing on the same lake
    commit each txn exactly once and converge to the single-writer state
    (Delta-style version check under the commit lock)."""

    def test_concurrent_replayers_converge(self, ray_session, tmp_path):
        import threading

        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)
        from qwery_ray.cdc.synth import synth_change_events

        ev = str(tmp_path / "ev")
        synth_change_events(ev, n_keys=150, n_events=900, seed=11,
                            n_segments=3)
        lake = str(tmp_path / "lake")
        errs = []

        def run():
            try:
                eng = CDCLakeEngine(lake, num_partitions=4)
                eng.replay(ev, chunk_lsns=300)
            except Exception as e:  # surfaced below
                errs.append(e)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs, errs
        eng = CDCLakeEngine(lake, num_partitions=4)
        m = eng.load_manifest()
        assert len(m["committed_txns"]) == len(set(m["committed_txns"])) == 3
        assert m["watermark_lsn"] == 900
        assert sha256_of_table(eng.table()) == \
            sha256_of_state(naive_replay(ev))

    def test_killed_holder_releases_lock(self, tmp_path):
        """A writer SIGKILLed inside the commit lock must not wedge the
        lake: the kernel releases its lock when the process dies."""
        import signal
        import subprocess
        import sys
        import threading

        from qwery_ray.cdc.engine import CDCLakeEngine

        lake = str(tmp_path / "lake2")
        eng = CDCLakeEngine(lake, num_partitions=2)
        holder = (
            "import os, signal, sys\n"
            "from qwery_ray.cdc.engine import CDCLakeEngine\n"
            "lock = CDCLakeEngine(sys.argv[1], num_partitions=2)"
            "._commit_lock()\n"
            "lock.__enter__()\n"
            "print('held', flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", holder, lake], capture_output=True,
            text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": repo})
        assert proc.stdout == "held\n", proc.stderr
        assert proc.returncode == -signal.SIGKILL
        entered = threading.Event()

        def take():
            with eng._commit_lock():
                entered.set()

        taker = threading.Thread(target=take, daemon=True)
        taker.start()
        assert entered.wait(timeout=5)
        taker.join(timeout=5)
        assert not taker.is_alive()


class TestGcUnderCommitLock:
    """VACUUM and compaction GC run under the commit lock: started while a
    commit has moved its new files in but not yet written its manifest,
    they wait for that commit instead of deleting its files."""

    @pytest.mark.parametrize("maintenance", ["vacuum", "compact"])
    def test_gc_waits_for_inflight_commit(self, ray_session, tmp_path,
                                          monkeypatch, maintenance):
        import threading

        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)
        from qwery_ray.cdc.synth import synth_change_events

        events = str(tmp_path / "events")
        synth_change_events(events, n_keys=400, n_events=1100, seed=3,
                            n_segments=2)
        lake = str(tmp_path / "lake")
        eng = CDCLakeEngine(lake, num_partitions=4, merge_mode="auto")
        eng.replay(events, max_lsn=1000, chunk_lsns=1000)
        eng.replay(events, max_lsn=1050, chunk_lsns=50)  # pending deltas
        assert any(i.get("deltas")
                   for i in eng.load_manifest()["partitions"].values())

        real_commit_manifest = CDCLakeEngine._commit_manifest
        workers, errs = [], []

        def maintain():
            try:
                getattr(CDCLakeEngine.open(lake), maintenance)()
            except Exception as e:  # surfaced below
                errs.append(e)

        def commit_manifest_racing_gc(self_eng, manifest):
            if not workers:
                # flock excludes a second open in the same thread too, so
                # the maintenance call must run on its own thread
                workers.append(threading.Thread(target=maintain))
                workers[0].start()
                workers[0].join(timeout=2)
            return real_commit_manifest(self_eng, manifest)

        monkeypatch.setattr(CDCLakeEngine, "_commit_manifest",
                            commit_manifest_racing_gc)
        eng.replay(events, chunk_lsns=50)
        workers[0].join(timeout=120)
        assert not workers[0].is_alive()
        assert not errs, errs
        m = eng.load_manifest()
        assert m["watermark_lsn"] == 1100
        if maintenance == "compact":
            assert not any(i.get("deltas") for i in m["partitions"].values())
        for info in m["partitions"].values():
            for rel in [info["file"]] + [d["file"] for d in
                                         info.get("deltas") or []]:
                assert os.path.exists(os.path.join(lake, rel)), rel
        assert sha256_of_table(eng.table()) == \
            sha256_of_state(naive_replay(events))


class TestTimeTravel:
    """Versioned snapshot reads (Delta-style manifest log, bounded
    retention): dataset(version=N) reproduces the state as of txn N."""

    def test_versions_match_incremental_oracle(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)
        from qwery_ray.cdc.synth import synth_change_events

        ev = str(tmp_path / "ev")
        synth_change_events(ev, n_keys=120, n_events=900, seed=5,
                            n_segments=3)
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        eng.replay(ev, chunk_lsns=300)
        assert eng.versions() == [1, 2, 3]
        for v, upto in [(1, 300), (2, 600), (3, 900)]:
            got = sha256_of_table(eng.table(version=v))
            want = sha256_of_state(naive_replay(ev, upto_lsn=upto))
            assert got == want, f"version {v}"
        with pytest.raises(ValueError, match="not available"):
            eng.dataset(version=99)

    def test_retention_gc(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.synth import synth_change_events

        ev = str(tmp_path / "ev2")
        synth_change_events(ev, n_keys=40, n_events=600, seed=9,
                            n_segments=2)
        eng = CDCLakeEngine(str(tmp_path / "lake2"), num_partitions=2)
        eng.TIME_TRAVEL_RETAIN = 2
        eng.replay(ev, chunk_lsns=100)  # 6 versions
        assert eng.versions() == [5, 6]
        # retained snapshots still read; files for them survived GC
        assert eng.table(version=5).num_rows > 0
        assert eng.table(version=6).num_rows == eng.table().num_rows


class TestChangeFeed:
    """changes(v_from, v_to): per-key diff between retained snapshots,
    proportional to touched partitions only."""

    def test_changes_match_state_diff(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import naive_replay
        from qwery_ray.cdc.synth import synth_change_events

        ev = str(tmp_path / "ev")
        synth_change_events(ev, n_keys=100, n_events=800, seed=21,
                            n_segments=2)
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        eng.replay(ev, chunk_lsns=400)  # versions 1, 2

        cdf = eng.changes(1, 2).to_pandas()
        s1 = naive_replay(ev, upto_lsn=400)
        s2 = naive_replay(ev, upto_lsn=800)
        want_upserts = {k for k in s2
                        if k not in s1 or s2[k]["lsn"] != s1[k]["lsn"]}
        want_deletes = {k for k in s1 if k not in s2}
        got_up = set(zip(*[cdf[cdf["change"] == "upsert"][c]
                           for c in ("repo", "path")])) \
            if (cdf["change"] == "upsert").any() else set()
        got_del = set(zip(*[cdf[cdf["change"] == "delete"][c]
                            for c in ("repo", "path")])) \
            if (cdf["change"] == "delete").any() else set()
        assert got_up == want_upserts
        assert got_del == want_deletes
        # upsert rows carry the new state's lsn
        for r in cdf[cdf["change"] == "upsert"].itertuples():
            assert s2[(r.repo, r.path)]["lsn"] == r.lsn

    def test_unchanged_partitions_skipped(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine

        eng = CDCLakeEngine(str(tmp_path / "lake2"), num_partitions=4)
        import pyarrow as pa_
        import pyarrow.parquet as pq_

        ev = str(tmp_path / "ev2")
        os.makedirs(ev)
        pq_.write_table(pa_.table({
            "lsn": [1, 2], "op": ["upsert"] * 2,
            "repo": ["r1", "r1"], "path": ["a", "b"],
            "commit": ["c", "c"], "lang": ["py", "py"],
            "content": ["x", "y"]}), f"{ev}/seg0.parquet")
        pq_.write_table(pa_.table({
            "lsn": [3], "op": ["upsert"],
            "repo": ["r1"], "path": ["a"],
            "commit": ["c"], "lang": ["py"],
            "content": ["z"]}), f"{ev}/seg1.parquet")
        eng.replay(ev, chunk_lsns=2)
        cdf = eng.changes(1).to_pandas()
        # only key (r1, a) changed in txn 2
        assert set(zip(cdf["repo"], cdf["path"])) == {("r1", "a")}
        assert cdf["change"].tolist() == ["upsert"]


class TestMergeOnRead:
    """merge_mode="auto" deltas: a txn whose reduced rows are small relative
    to the partition stages a delta file (merge-on-read) instead of a full
    copy-on-write base rewrite; compaction folds deltas back once they
    accumulate. Every read surface must resolve base+deltas to the exact
    COW-equivalent state."""

    @pytest.fixture(scope="class")
    def wide_events(self, ray_session, tmp_path_factory):
        from qwery_ray.cdc.synth import synth_change_events

        d = tmp_path_factory.mktemp("mor_events")
        synth_change_events(str(d), n_keys=5000, n_events=14000, seed=13,
                            n_segments=6, evolve_after_lsn=9000)
        return str(d)

    @pytest.fixture(scope="class")
    def delta_lake(self, wide_events, tmp_path_factory):
        from qwery_ray.cdc.engine import CDCLakeEngine

        lake = tmp_path_factory.mktemp("mor") / "lake"
        eng = CDCLakeEngine(str(lake), num_partitions=8, merge_mode="auto")
        eng.replay(wide_events, max_lsn=10000, chunk_lsns=10000)  # big base
        eng.replay(wide_events, chunk_lsns=400)  # 10 small txns → deltas
        return eng

    def test_delta_files_created_and_bounded(self, delta_lake):
        from qwery_ray.cdc.engine import MergePartitionFS

        m = delta_lake.load_manifest()
        counts = [len(i.get("deltas") or [])
                  for i in m["partitions"].values()]
        assert any(c > 0 for c in counts), "delta path never fired"
        assert all(c < MergePartitionFS.COMPACT_AT for c in counts)
        # compaction actually happened: 10 small txns each touch every
        # partition (400 events over 5000 uniform keys), so a partition that
        # never compacted would hold 10 live deltas — the rows-ratio trigger
        # (COMPACT_ROWS_RATIO=0.5 of ~625 base rows, ~50 rows/delta) must
        # have folded at least once, leaving every count well below that.
        n_delta_txns = len(m["committed_txns"]) - 1
        assert max(counts) < n_delta_txns, \
            f"no compaction ever fired: counts={counts}"

    def test_resolved_state_matches_oracle(self, delta_lake, wide_events):
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)

        state = naive_replay(wide_events)
        assert sha256_of_table(delta_lake.table()) == sha256_of_state(state)
        assert delta_lake.dataset().count() == len(state)

    def test_lookup_through_deltas(self, delta_lake, wide_events):
        from qwery_ray.cdc.oracle import naive_replay

        state = naive_replay(wide_events)
        keys = sorted(state)[::max(1, len(state) // 7)]
        for k in keys:
            row = delta_lake.lookup(*k)
            assert row is not None
            assert row["content"] == state[k]["content"]
            assert row["lsn"] == state[k]["lsn"]

    def test_time_travel_through_delta_versions(self, delta_lake,
                                                wide_events):
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)

        v = delta_lake.versions()[-2]
        wm = delta_lake.load_manifest_version(v)["watermark_lsn"]
        old = naive_replay(wide_events, upto_lsn=wm)
        assert sha256_of_table(delta_lake.table(version=v)) \
            == sha256_of_state(old)

    def test_changes_across_delta_versions(self, delta_lake, wide_events):
        from qwery_ray.cdc.oracle import naive_replay

        vs = delta_lake.versions()
        v_from, v_to = vs[-3], vs[-1]
        s1 = naive_replay(
            wide_events,
            upto_lsn=delta_lake.load_manifest_version(v_from)["watermark_lsn"])
        s2 = naive_replay(
            wide_events,
            upto_lsn=delta_lake.load_manifest_version(v_to)["watermark_lsn"])
        cdf = delta_lake.changes(v_from, v_to).to_pandas()
        got_up = set(zip(*[cdf.loc[cdf.change == "upsert", c]
                           for c in ("repo", "path")])) \
            if len(cdf) else set()
        want_up = {k for k in s2 if k not in s1 or s1[k] != s2[k]}
        assert got_up == want_up

    def test_cow_mode_never_stages_deltas(self, wide_events, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)

        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=8,
                            merge_mode="cow")
        eng.replay(wide_events, chunk_lsns=2000)
        m = eng.load_manifest()
        assert not any(i.get("deltas") for i in m["partitions"].values())
        state = naive_replay(wide_events)
        assert sha256_of_table(eng.table()) == sha256_of_state(state)

    def test_delta_and_cow_lakes_identical_state(self, delta_lake,
                                                 wide_events, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import sha256_of_table

        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=8,
                            merge_mode="cow")
        eng.replay(wide_events, max_lsn=10000, chunk_lsns=10000)
        eng.replay(wide_events, chunk_lsns=400)
        assert sha256_of_table(eng.table()) \
            == sha256_of_table(delta_lake.table())


class TestPropertyFuzzCDC:
    """Hypothesis fuzz over the full engine contract (random op sequences,
    deletes of live/dead keys, additive schema evolution at a random point,
    random chunking, merge mode, and a mid-replay kill + re-open): final
    state must equal a naive in-memory replay, always."""

    def test_random_ops_resume_and_modes(self, ray_session, tmp_path_factory):
        from hypothesis import given, settings, HealthCheck
        from hypothesis import strategies as st

        import pyarrow as pa_
        import pyarrow.parquet as pq_
        from qwery_ray.cdc.engine import CDCLakeEngine

        op_st = st.tuples(st.integers(0, 14),          # key index (hot: 15)
                          st.sampled_from(["upsert", "upsert", "delete"]),
                          st.integers(0, 50))          # content length
        seq_st = st.lists(op_st, min_size=8, max_size=60)

        @settings(max_examples=12, deadline=None,
                  suppress_health_check=list(HealthCheck))
        @given(ops=seq_st, data=st.data())
        def run(ops, data):
            n = len(ops)
            evolve_at = data.draw(st.integers(0, n), label="evolve_at")
            n_txns = data.draw(st.integers(1, 6), label="n_txns")
            chunk = max(1, -(-n // n_txns))
            kill_at = data.draw(st.integers(0, n), label="kill_at")
            mode = data.draw(st.sampled_from(["auto", "cow"]), label="mode")
            nparts = data.draw(st.sampled_from([1, 3, 8]), label="nparts")

            rows = []
            for i, (ki, op, clen) in enumerate(ops):
                lsn = i + 1
                r = {"repo": f"r{ki % 3}", "path": f"p{ki}", "lsn": lsn,
                     "op": op, "content": "x" * clen + str(lsn)}
                if lsn > evolve_at:
                    r["stars"] = lsn * 7  # additive evolution mid-stream
                rows.append(r)
            # segment files split AT the evolve boundary so each file is
            # schema-homogeneous (from_pylist takes the first row's keys —
            # a mixed file would silently drop the evolved column)
            d = tmp_path_factory.mktemp("fuzz")
            ev = d / "ev"
            os.makedirs(ev)
            for si, part in enumerate((rows[:evolve_at], rows[evolve_at:])):
                if part:
                    pq_.write_table(
                        pa_.Table.from_pylist(part), f"{ev}/s{si}.parquet")

            # oracle: naive dict replay
            state = {}
            for r in rows:
                k = (r["repo"], r["path"])
                if r["op"] == "delete":
                    state.pop(k, None)
                else:
                    state[k] = r

            lake = str(d / "lake")
            eng = CDCLakeEngine(lake, num_partitions=nparts,
                                merge_mode=mode)
            if kill_at > 0:
                # partial replay, then a fresh engine instance resumes from
                # the on-disk manifest (the mid-replay-kill contract)
                eng.replay(str(ev), max_lsn=kill_at, chunk_lsns=chunk)
                eng = CDCLakeEngine(lake, num_partitions=nparts,
                                    merge_mode=mode)
            eng.replay(str(ev), chunk_lsns=chunk)

            got = {(r["repo"], r["path"]): r
                   for r in eng.table().to_pylist()}
            assert set(got) == set(state)
            for k, want in state.items():
                assert got[k]["content"] == want["content"], k
                assert got[k]["lsn"] == want["lsn"], k
                # evolved column: value when written post-evolution,
                # null-backfilled otherwise
                assert got[k].get("stars") == want.get("stars"), k

        run()


class TestExplicitCompaction:
    """CDCLakeEngine.compact() + SQL OPTIMIZE: fold pending merge-on-read
    deltas into partition bases on demand (maintenance surface; the
    automatic rows-ratio trigger is tested in TestMergeOnRead)."""

    @pytest.fixture()
    def delta_heavy_lake(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.synth import synth_change_events

        events = str(tmp_path / "events")
        synth_change_events(events, n_keys=2000, n_events=4400, seed=7,
                            n_segments=4)
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4,
                            merge_mode="auto")
        eng.replay(events, max_lsn=4000, chunk_lsns=4000)   # big base
        # 2 small txns (~50 rows/partition vs ~500-row bases): both stage
        # deltas and stay far below the rows-ratio auto-compaction trigger,
        # so the fixture deterministically ends with pending deltas
        eng.replay(events, chunk_lsns=200)
        return eng, events

    def test_compact_folds_all_deltas(self, delta_heavy_lake):
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)

        eng, events = delta_heavy_lake
        before = eng.load_manifest()
        assert any(i.get("deltas")
                   for i in before["partitions"].values()), "fixture stale"
        after = eng.compact()
        assert not any(i.get("deltas") for i in after["partitions"].values())
        assert after["version"] == before["version"] + 1
        assert after["watermark_lsn"] == before["watermark_lsn"]
        # state is exactly the pre-compaction (and oracle) state
        state = naive_replay(events)
        assert sha256_of_table(eng.table()) == sha256_of_state(state)
        # a fully-compacted lake reads as plain parquet (fast path)
        assert eng.dataset().count() == len(state)
        # idempotent: nothing pending → no version bump
        again = eng.compact()
        assert again["version"] == after["version"]

    def test_compact_subset_of_partitions(self, delta_heavy_lake):
        eng, _ = delta_heavy_lake
        before = eng.load_manifest()
        with_deltas = [int(p) for p, i in before["partitions"].items()
                       if i.get("deltas")]
        pick = with_deltas[:1]
        after = eng.compact(partitions=pick)
        for p, info in after["partitions"].items():
            if int(p) in pick:
                assert not info.get("deltas")
        rest = [int(p) for p, i in after["partitions"].items()
                if i.get("deltas")]
        assert set(rest) == set(with_deltas) - set(pick)

    def test_time_travel_survives_compaction(self, delta_heavy_lake):
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)

        eng, events = delta_heavy_lake
        v_before = eng.load_manifest()["version"]
        eng.compact()
        wm = eng.load_manifest_version(v_before)["watermark_lsn"]
        old = naive_replay(events, upto_lsn=wm)
        assert sha256_of_table(eng.table(version=v_before)) \
            == sha256_of_state(old)

    def test_sql_optimize_statement(self, delta_heavy_lake):
        from qwery_ray.engine.session import QweryEngine

        eng, _ = delta_heavy_lake
        n_delta_parts = sum(
            1 for i in eng.load_manifest()["partitions"].values()
            if i.get("deltas"))
        res = QweryEngine().sql(f"OPTIMIZE '{eng.lake_dir}'")
        assert res.column("PARTITIONS_COMPACTED")[0].as_py() == n_delta_parts
        assert not any(i.get("deltas")
                       for i in eng.load_manifest()["partitions"].values())


class TestVacuum:
    """VACUUM '<lake>' [RETAIN n VERSIONS] — retention GC on demand."""

    def test_vacuum_trims_versions_and_files(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)
        from qwery_ray.cdc.synth import synth_change_events
        from qwery_ray.engine.session import QweryEngine

        events = str(tmp_path / "events")
        synth_change_events(events, n_keys=100, n_events=800, seed=31,
                            n_segments=2)
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        eng.replay(events, chunk_lsns=160)  # 5 versions
        assert len(eng.versions()) == 5

        res = QweryEngine().sql(
            f"VACUUM '{eng.lake_dir}' RETAIN 2 VERSIONS")
        assert res.column("VERSIONS_DROPPED")[0].as_py() == 3
        assert res.column("FILES_REMOVED")[0].as_py() > 0
        assert len(eng.versions()) == 2
        # current state untouched; oldest retained version still readable
        state = naive_replay(events)
        assert sha256_of_table(eng.table()) == sha256_of_state(state)
        v_old = eng.versions()[0]
        assert eng.table(version=v_old).num_rows > 0
        # expired versions now raise
        import pytest as _pytest
        with _pytest.raises(ValueError, match="not available"):
            eng.load_manifest_version(1)

    def test_vacuum_roundtrip_decompile(self):
        from qwery_ray.sqlc.decompiler import to_sql
        from qwery_ray.sqlc.parser import parse

        s = parse("VACUUM '/tmp/lake' RETAIN 3 VERSIONS")[0]
        assert parse(to_sql(s))[0] == s
        s2 = parse("VACUUM '/tmp/lake'")[0]
        assert s2.retain is None and parse(to_sql(s2))[0] == s2


class TestHotKeySkew:
    """North-rule hot-key clause: replay must survive pathological key skew
    (popular repos). This engine needs no salted sub-partitioning for LWW
    ingest — the per-batch combiner bounds every key's shuffle volume at
    one row per map batch, so a key holding half the stream ships the same
    number of shuffle rows as a cold key. These tests pin (a) correctness
    under 50%-one-key skew incl. deletes + schema evolution, and (b) the
    combiner's collapse invariant measured on real map batches."""

    @pytest.fixture(scope="class")
    def skew_events(self, tmp_path_factory):
        from qwery_ray.cdc.synth import synth_change_events

        d = tmp_path_factory.mktemp("skew_events")
        synth_change_events(str(d), n_keys=400, n_events=6000, seed=11,
                            n_segments=6, evolve_after_lsn=4000,
                            hot_key_frac=0.5)
        return str(d)

    def test_skewed_replay_matches_oracle(self, ray_session, skew_events,
                                          tmp_path):
        from qwery_ray.cdc.oracle import naive_replay, sha256_of_state

        state = naive_replay(skew_events)
        eng = make_engine(tmp_path, num_partitions=8)
        eng.replay(skew_events, chunk_lsns=1500)
        assert lake_sha(eng) == sha256_of_state(state)

    def test_hot_key_really_is_hot(self, skew_events):
        import pyarrow.parquet as _pq

        n_hot = total = 0
        for f in sorted(os.listdir(skew_events)):
            t = _pq.read_table(os.path.join(skew_events, f),
                               columns=["path"])
            paths = t.column("path").to_pylist()
            n_hot += sum(p == paths[0] or p.endswith("file_0.py") or
                         p.split("/")[-1].startswith("file_0.")
                         for p in paths)
            total += len(paths)
        assert n_hot / total > 0.4  # the stream is genuinely pathological

    def test_combiner_collapses_hot_key(self, skew_events, tmp_path):
        # the scale argument itself: the shuffle file the map step writes
        # for a batch carries at most ONE row per key — shuffle volume for
        # the hot key is O(batches), independent of its event share
        import pyarrow.parquet as _pq

        from qwery_ray.cdc.engine import MultiTxnShuffleWrite
        from qwery_ray.cdc.tail import resolve_tail

        sdir = str(tmp_path / "shuffle")
        os.makedirs(sdir)
        lo, hi = resolve_tail(skew_events).lsn_range()
        write = MultiTxnShuffleWrite(8, [(lo - 1, hi, sdir)])
        for f in sorted(os.listdir(skew_events)):
            batch = _pq.read_table(os.path.join(skew_events, f))
            fname = write(batch).column("fname")[0].as_py()
            out = _pq.read_table(os.path.join(sdir, fname))
            keys = list(zip(out.column("repo").to_pylist(),
                            out.column("path").to_pylist()))
            assert len(keys) == len(set(keys))
            assert len(out) < batch.num_rows
