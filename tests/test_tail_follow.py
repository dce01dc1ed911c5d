"""Pluggable tail sources (reference KafkaInputDevice.scala:14-90
seek/rewind/poll contract) + in-flight progress statistics (reference
StatisticsGenerator.scala:49-80):

- register_tail/resolve_tail: scheme-keyed factory registry, ParquetTail
  default, EventTail passthrough, unknown scheme error
- CDCLakeEngine.follow() consuming a REGISTERED non-parquet tail (in-memory
  Arrow log) end-to-end: replay → grow the tail → re-poll picks up the new
  span; final state matches an in-memory LWW oracle
- replay appends ≥1 {"type": "inflight"} snapshot with phase/%complete/ETA
  while a transaction is still running; a multi-txn map wave's snapshots
  name the wave's real txns and count every shuffle dir of the wave
- footer-pruned span reads: ParquetTail reads only the segments whose lsn
  min/max overlaps a span, from one cached footer read per segment
"""

import glob
import os

import pyarrow as pa
import pytest

from conftest import scramble_data_pages


def _events_table(rows):
    return pa.table({
        "repo": pa.array([r[0] for r in rows]),
        "path": pa.array([r[1] for r in rows]),
        "lsn": pa.array([r[2] for r in rows], type=pa.int64()),
        "op": pa.array([r[3] for r in rows]),
        "content": pa.array([r[4] for r in rows]),
    })


def _oracle(rows):
    state = {}
    for repo, path, lsn, op, content in sorted(rows, key=lambda r: r[2]):
        if op == "delete":
            state.pop((repo, path), None)
        else:
            state[(repo, path)] = (lsn, content)
    return state


def _lake_state(engine):
    return {(r["repo"], r["path"]): (r["lsn"], r["content"])
            for r in engine.table().to_pylist()}


class TestTailRegistry:
    def test_parquet_default_and_passthrough(self, tmp_path):
        import pyarrow.parquet as pq

        from qwery_ray.cdc.tail import ArrowTail, ParquetTail, resolve_tail

        f = tmp_path / "seg.parquet"
        pq.write_table(_events_table([("r", "a", 1, "upsert", "x")]), str(f))
        t = resolve_tail(str(f))
        assert isinstance(t, ParquetTail)
        assert t.lsn_range() == (1, 1)
        at = ArrowTail(_events_table([("r", "a", 5, "upsert", "y")]))
        assert resolve_tail(at) is at

    def test_scheme_registry(self):
        from qwery_ray.cdc.tail import (ArrowTail, register_tail,
                                        resolve_tail)

        store = {"mem": ArrowTail(_events_table([("r", "p", 1, "upsert",
                                                  "v")]))}
        register_tail("memtail", lambda url: store[url.split("://", 1)[1]])
        assert resolve_tail("memtail://mem") is store["mem"]
        with pytest.raises(ValueError, match="no tail source registered"):
            resolve_tail("kafka-nope://topic")

    def test_arrow_tail_span_reads(self, ray_session):
        from qwery_ray.cdc.tail import ArrowTail

        t = ArrowTail(_events_table([("r", "a", 1, "upsert", "x"),
                                     ("r", "b", 2, "upsert", "y"),
                                     ("r", "a", 3, "delete", "")]))
        assert t.lsn_range() == (1, 3)
        span = t.dataset(1, 3).to_pandas()
        assert sorted(span["lsn"]) == [2, 3]


class TestFollowRegisteredTail:
    def test_follow_consumes_growing_tail(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.tail import ArrowTail, register_tail

        rows1 = [("r1", f"f{i}", i + 1, "upsert", f"v{i}") for i in range(40)]
        rows1 += [("r1", "f3", 41, "delete", ""),
                  ("r1", "f5", 42, "upsert", "v5-final")]
        tail = ArrowTail(_events_table(rows1))
        register_tail("growtail", lambda url: tail)

        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        eng.follow("growtail://only", poll_interval=0.01, idle_rounds=2,
                   chunk_lsns=20)
        assert _lake_state(eng) == _oracle(rows1)

        # the tail grows; a later follow() round picks up only the new span
        rows2 = [("r1", "f5", 43, "delete", ""),
                 ("r2", "new", 44, "upsert", "fresh")]
        tail.append(_events_table(rows2))
        eng.follow("growtail://only", poll_interval=0.01, idle_rounds=2)
        assert _lake_state(eng) == _oracle(rows1 + rows2)
        m = eng.load_manifest()
        assert m["watermark_lsn"] == 44
        # second follow replayed ONE txn covering exactly the new span
        assert m["lineage"][-1]["lo"] == 42 and m["lineage"][-1]["hi"] == 44


class TestInflightStats:
    def test_inflight_snapshots_during_replay(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.synth import synth_change_events

        events = str(tmp_path / "events")
        synth_change_events(events, n_keys=200, n_events=1500, seed=3,
                            n_segments=3)
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4,
                            stats_interval_sec=0.02)
        eng.replay(events, chunk_lsns=500)
        recs = eng.stats_records()
        inflight = [r for r in recs if r.get("type") == "inflight"]
        assert inflight, "no in-flight snapshot for a multi-second replay"
        for r in inflight:
            assert r["phase"] in ("map", "merge")
            assert 0.0 <= r["pct_complete"] <= 0.99
            assert r["elapsed_sec"] >= 0
        # per-txn commit records still present alongside
        assert any("events_per_sec" in r for r in recs)

    def test_wave_map_records_name_committed_txns(self, ray_session,
                                                  tmp_path, monkeypatch):
        """One map wave covers 4 txns: every map snapshot names only txns
        that commit, and once the wave's files are all written a snapshot
        counts the files of every shuffle dir, not just the first one."""
        import time

        from qwery_ray.cdc import engine as E
        from qwery_ray.cdc.synth import synth_change_events

        events = str(tmp_path / "events")
        synth_change_events(events, n_keys=300, n_events=2000, seed=5,
                            n_segments=4)
        eng = E.CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4,
                              stats_interval_sec=0.02)
        per_dir = {}
        real_collect = E.CDCLakeEngine._collect_shuffle_index

        def collect_then_hold(stats):
            real_collect(stats)  # drains the map: every shuffle file exists
            for sdir in glob.glob(os.path.join(eng.lake_dir, "_staging",
                                               "*", "*", "shuffle")):
                per_dir[sdir] = len(glob.glob(os.path.join(sdir,
                                                           "*.parquet")))
            time.sleep(0.3)  # the reporter samples the finished wave

        monkeypatch.setattr(E.CDCLakeEngine, "_collect_shuffle_index",
                            staticmethod(collect_then_hold))
        m = eng.replay(events, chunk_lsns=500)
        assert len(m["committed_txns"]) == 4 and len(per_dir) == 4
        first = per_dir[min(per_dir)]  # txn names sort in LSN order
        total = sum(per_dir.values())
        assert total > first
        maps = [r for r in eng.stats_records()
                if r.get("type") == "inflight" and r["phase"] == "map"]
        assert maps
        for r in maps:
            assert r["txns"] and set(r["txns"]) <= set(m["committed_txns"])
        assert max(r["shuffle_files"] for r in maps) == total

    def test_interval_zero_disables(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.synth import synth_change_events

        events = str(tmp_path / "events")
        synth_change_events(events, n_keys=50, n_events=200, seed=4,
                            n_segments=2)
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4,
                            stats_interval_sec=0)
        eng.replay(events)
        assert not [r for r in eng.stats_records()
                    if r.get("type") == "inflight"]


class TestEventSink:
    """EventSink — the output analog of EventTail (reference
    KafkaOutputDevice.scala:9-36): atomic LSN-ordered segment publishing,
    scheme registry, SQL INSERT INTO 'tail://...' device parity, and the
    produce→follow round trip."""

    def test_segment_sink_roundtrip(self, tmp_path):
        from qwery_ray.cdc.tail import ParquetSegmentSink, ParquetTail

        d = str(tmp_path / "log")
        sink = ParquetSegmentSink(d)
        assert sink.publish(_events_table(
            [("r", "a", 1, "upsert", "x"), ("r", "b", 2, "upsert", "y")])) == 2
        assert sink.publish(_events_table([("r", "a", 3, "upsert", "z")])) == 1
        tail = ParquetTail(d)
        assert tail.lsn_range() == (1, 3)
        got = tail.dataset(1, 3).take_all()
        assert sorted(r["lsn"] for r in got) == [2, 3]

    def test_sink_requires_lsn(self, tmp_path):
        import pyarrow as pa_

        from qwery_ray.cdc.tail import ParquetSegmentSink

        with pytest.raises(ValueError, match="lsn"):
            ParquetSegmentSink(str(tmp_path / "log")).publish(
                pa_.table({"x": pa_.array([1])}))

    def test_sink_registry_and_arrow_self_sink(self):
        from qwery_ray.cdc.tail import (ArrowTail, register_sink,
                                        resolve_sink)

        at = ArrowTail()
        assert resolve_sink(at) is at
        register_sink("memlog", lambda url: at)
        assert resolve_sink("memlog://any") is at
        assert at.publish(_events_table([("r", "a", 7, "upsert", "v")])) == 1
        assert at.lsn_range() == (7, 7)
        with pytest.raises(ValueError, match="register_sink"):
            resolve_sink("nosuch://x")

    def test_sql_insert_into_tail_device(self, ray_session, tmp_path):
        """INSERT INTO 'tail:///dir' SELECT ... publishes segments that a
        ParquetTail (and follow()) can consume — the Kafka-out device shape
        on the SQL surface."""
        import pyarrow.parquet as pq

        from qwery_ray.cdc.tail import ParquetTail
        from qwery_ray.engine.session import QweryEngine

        src = str(tmp_path / "src.parquet")
        pq.write_table(_events_table(
            [("r", "a", 1, "upsert", "x"), ("r", "b", 2, "upsert", "yy"),
             ("r", "a", 3, "delete", "")]), src)
        log = str(tmp_path / "log")
        eng = QweryEngine()
        res = eng.sql(f"INSERT INTO 'tail://{log}' (repo, path, lsn, op, "
                      f"content) SELECT repo, path, lsn, op, content "
                      f"FROM '{src}' WHERE lsn <= 2")
        assert res.column("ROWS_INSERTED")[0].as_py() == 2
        tail = ParquetTail(log)
        assert tail.lsn_range() == (1, 2)
        # append the rest — segments accumulate, never overwrite
        eng.sql(f"INSERT INTO 'tail://{log}' (repo, path, lsn, op, content) "
                f"SELECT repo, path, lsn, op, content FROM '{src}' "
                f"WHERE lsn > 2")
        assert tail.lsn_range() == (1, 3)

    def test_publish_then_follow(self, ray_session, tmp_path):
        """Produce through the sink, consume with CDCLakeEngine.follow():
        the full streaming loop over the default parquet log."""
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.tail import ParquetSegmentSink

        log = str(tmp_path / "log")
        sink = ParquetSegmentSink(log)
        rows1 = [("r", f"k{i}", i + 1, "upsert", f"v{i}") for i in range(20)]
        sink.publish(_events_table(rows1))
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        eng.follow(log, poll_interval=0.05, idle_rounds=1)
        rows2 = [("r", "k0", 21, "delete", ""),
                 ("r", "k1", 22, "upsert", "V1")]
        sink.publish(_events_table(rows2))
        eng.follow(log, poll_interval=0.05, idle_rounds=1)
        assert _lake_state(eng) == _oracle(rows1 + rows2)


def _segment_log(d, spans, no_stats=()):
    """One segment per (lo, hi) span of lsns lo+1..hi, keys cycling over 7
    paths with every 5th event a delete; spans in ``no_stats`` are written
    without column statistics. Returns the rows."""
    import pyarrow.parquet as pq

    os.makedirs(d, exist_ok=True)
    rows = []
    for lo, hi in spans:
        seg = [("r", f"k{lsn % 7}", lsn, "delete" if lsn % 5 == 0
                else "upsert", f"v{lsn}") for lsn in range(lo + 1, hi + 1)]
        pq.write_table(_events_table(seg),
                       os.path.join(d, f"seg-{lo:06d}.parquet"),
                       write_statistics=(lo, hi) not in no_stats)
        rows += seg
    return rows


class TestFooterPrunedTail:
    """ParquetTail reads a span from only the segments whose footer lsn
    statistics can hold it, and reads each footer once per instance."""

    def test_replay_skips_segments_outside_the_span(self, ray_session,
                                                    tmp_path):
        import pyarrow.parquet as pq

        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import (naive_replay, sha256_of_state,
                                          sha256_of_table)
        from qwery_ray.cdc.synth import synth_change_events

        events = str(tmp_path / "events")
        synth_change_events(events, n_keys=150, n_events=1200, seed=7,
                            n_segments=4)
        expected = sha256_of_state(naive_replay(events))
        segs = sorted(glob.glob(os.path.join(events, "*.parquet")))
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        eng.replay(events, max_lsn=900, chunk_lsns=300)
        assert eng.load_manifest()["watermark_lsn"] == 900
        for f in segs[:-1]:  # lsns 1..900: footers intact, data unreadable
            scramble_data_pages(f)
        with pytest.raises(Exception):
            pq.read_table(segs[0])
        eng.replay(events)
        assert eng.load_manifest()["watermark_lsn"] == 1200
        assert sha256_of_table(eng.table()) == expected

    def test_span_reads_only_overlapping_segments(self, ray_session,
                                                  tmp_path):
        from qwery_ray.cdc.tail import ParquetTail

        d = str(tmp_path / "log")
        _segment_log(d, [(0, 10), (10, 20), (20, 30), (30, 40)])
        tail = ParquetTail(d)
        assert tail.lsn_range() == (1, 40)

        def names(ds):
            return sorted(os.path.basename(f) for f in ds.input_files())

        assert names(tail.dataset(10, 20)) == ["seg-000010.parquet"]
        ds = tail.dataset(15, 25)
        assert names(ds) == ["seg-000010.parquet", "seg-000020.parquet"]
        assert sorted(r["lsn"] for r in ds.take_all()) == list(range(16, 26))
        assert tail.size_estimate(15, 25)[0] == 20
        assert tail.size_estimate()[0] == 40

    def test_segment_without_statistics_is_read(self, ray_session,
                                                tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.tail import ParquetTail

        d = str(tmp_path / "log")
        rows = _segment_log(d, [(0, 10), (10, 20), (20, 30)],
                            no_stats=[(10, 20)])
        tail = ParquetTail(d)
        ds = tail.dataset(20, 30)
        assert "seg-000010.parquet" in {os.path.basename(f)
                                        for f in ds.input_files()}
        assert sorted(r["lsn"] for r in tail.dataset(5, 15).take_all()) \
            == list(range(6, 16))
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        eng.replay(d, chunk_lsns=10)
        assert _lake_state(eng) == _oracle(rows)

    def test_span_between_segments_is_empty(self, ray_session, tmp_path,
                                            monkeypatch):
        from qwery_ray.cdc import engine as E
        from qwery_ray.cdc.tail import ParquetTail

        d = str(tmp_path / "log")
        rows = _segment_log(d, [(0, 10), (30, 40)])
        ds = ParquetTail(d).dataset(12, 28)
        assert ds.count() == 0 and ds.input_files() == []
        # one chunk of 10 lsns per wave: the waves (10, 20] and (20, 30]
        # fall in the gap and map an empty span
        monkeypatch.setattr(E, "MAP_LOOKAHEAD_BYTES", 1)
        eng = E.CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        m = eng.replay(d, chunk_lsns=10)
        assert m["watermark_lsn"] == 40 and len(m["committed_txns"]) == 4
        assert _lake_state(eng) == _oracle(rows)

    def test_file_rewritten_in_place_is_read_again(self, tmp_path):
        """A single-file tail rewritten with more events (a new size and
        mtime) is not served from the cached footer."""
        import pyarrow.parquet as pq

        from qwery_ray.cdc.tail import ParquetTail

        f = str(tmp_path / "events.parquet")
        rows = [("r", "a", 1, "upsert", "x"), ("r", "b", 2, "upsert", "y")]
        pq.write_table(_events_table(rows), f)
        tail = ParquetTail(f)
        assert tail.lsn_range() == (1, 2)
        pq.write_table(_events_table(rows + [("r", "a", 3, "delete", "")]),
                       f)
        assert tail.lsn_range() == (1, 3)
        assert tail.size_estimate()[0] == 3

    def test_follow_reads_each_footer_once(self, ray_session, tmp_path,
                                           monkeypatch):
        import pyarrow.parquet as pq

        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.tail import ParquetSegmentSink

        log = str(tmp_path / "log")
        sink = ParquetSegmentSink(log)
        reads = {}
        real_read = pq.read_metadata

        def counting_read(where, *args, **kwargs):
            if isinstance(where, str) and where.startswith(log):
                reads[where] = reads.get(where, 0) + 1
            return real_read(where, *args, **kwargs)

        monkeypatch.setattr(pq, "read_metadata", counting_read)
        rows = [("r", f"k{i % 9}", i + 1, "upsert", f"v{i}")
                for i in range(60)]
        rounds = [rows[0:20], rows[20:40], rows[40:60]]

        def publish_round():
            part = rounds.pop(0)
            for i in range(0, len(part), 5):  # 4 segments per round
                sink.publish(_events_table(part[i:i + 5]))

        publish_round()
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        real_replay = eng.replay

        def replay_then_publish(*args, **kwargs):
            m = real_replay(*args, **kwargs)
            if rounds:
                publish_round()  # the next poll finds new segments
            return m

        eng.replay = replay_then_publish
        m = eng.follow(log, poll_interval=0.01, idle_rounds=1)
        assert m["watermark_lsn"] == 60 and len(m["committed_txns"]) == 3
        assert _lake_state(eng) == _oracle(rows)
        segs = glob.glob(os.path.join(log, "*.parquet"))
        assert len(segs) == 12
        assert reads == {f: 1 for f in segs}
