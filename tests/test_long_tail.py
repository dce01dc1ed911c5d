"""Long-tail parity: NATIVE SQL escape hatch, CDC follow (streaming tail),
Avro gating."""

import os

import pytest

from conftest import SF_TINY, to_pandas


class TestNativeSQL:
    def test_native_sql_duckdb(self, engine):
        out = to_pandas(engine.sql(
            "NATIVE SQL 'SELECT COUNT(*) AS n FROM region'"))
        assert out["n"][0] == 5

    def test_native_sql_var_expansion(self, engine):
        engine.variables["minKey"] = 3
        out = to_pandas(engine.sql(
            "NATIVE SQL 'SELECT COUNT(*) AS n FROM nation "
            "WHERE n_nationkey >= {{ minKey }}'"))
        assert out["n"][0] == 22


class TestFollow:
    def test_follow_picks_up_new_segments(self, ray_session, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import naive_replay, sha256_of_state, \
            sha256_of_table
        from qwery_ray.cdc.synth import synth_change_events

        ev = str(tmp_path / "ev")
        # synthesize the full stream elsewhere, then release segments in two
        # steps to simulate a growing binlog tail
        full = str(tmp_path / "full")
        synth_change_events(full, n_keys=100, n_events=600, seed=3,
                            n_segments=4)
        os.makedirs(ev)
        segs = sorted(os.listdir(full))
        for s in segs[:2]:
            os.rename(os.path.join(full, s), os.path.join(ev, s))

        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        eng.follow(ev, poll_interval=0.05, idle_rounds=2)
        m1 = eng.load_manifest()
        assert m1["watermark_lsn"] == 300

        for s in segs[2:]:
            os.rename(os.path.join(full, s), os.path.join(ev, s))
        eng.follow(ev, poll_interval=0.05, idle_rounds=2)
        m2 = eng.load_manifest()
        assert m2["watermark_lsn"] == 600
        expected = sha256_of_state(naive_replay(ev))
        assert sha256_of_table(eng.table()) == expected

        # progress statistics: one throughput snapshot per replay round
        # (reference StatisticsGenerator records/s surface)
        stats = eng.stats_records()
        assert len(stats) == len(m2["committed_txns"])
        for rec in stats:
            assert rec["events_per_sec"] > 0 and rec["elapsed_sec"] > 0


class TestAvroCodec:
    """Vendored pure-Python Avro codec (Apache Avro 1.11 binary spec):
    round-trips an analytics-hit shaped schema — wrapped primitives,
    nullable unions, arrays of records, enums — the same shape as the
    reference's pixall fixture (reference pixall-v5.avsc.json,
    core/sources/AvroInputSource.scala:14-35)."""

    SCHEMA = {
        "type": "record", "name": "Hit", "namespace": "t.analytics",
        "fields": [
            {"name": "visitor_id",
             "type": {"type": "string", "avro.java.string": "String"}},
            {"name": "ts", "type": {"type": "long"}},
            {"name": "code", "type": ["null", {"type": "string"}],
             "default": None},
            {"name": "score", "type": "double"},
            {"name": "kind", "type": {"type": "enum", "name": "Kind",
                                      "symbols": ["view", "click"]}},
            {"name": "tags", "type": {"type": "array", "items": "string"}},
            {"name": "attrs", "type": {"type": "map", "values": "long"}},
            {"name": "nested", "type": ["null", {
                "type": "record", "name": "Geo", "fields": [
                    {"name": "lat", "type": "double"},
                    {"name": "lon", "type": "double"}]}]},
        ],
    }
    ROWS = [
        {"visitor_id": "v1", "ts": 1700000000123, "code": "d42",
         "score": 0.5, "kind": "view", "tags": ["a", "b"],
         "attrs": {"n": 3}, "nested": {"lat": 1.25, "lon": -2.5}},
        {"visitor_id": "v2", "ts": -7, "code": None, "score": -1.75,
         "kind": "click", "tags": [], "attrs": {}, "nested": None},
    ]

    def test_ocf_round_trip_null_and_deflate(self):
        from qwery_ray.sources.avro_codec import read_ocf, write_ocf

        for codec in ("null", "deflate"):
            blob = write_ocf(self.ROWS, self.SCHEMA, codec=codec)
            schema, records = read_ocf(blob)
            assert schema["name"] == "Hit"
            assert records == self.ROWS

    def test_read_avro_dataset(self, ray_session, tmp_path):
        from qwery_ray.sources.avro import read_avro
        from qwery_ray.sources.avro_codec import write_ocf

        p = str(tmp_path / "hits.avro")
        with open(p, "wb") as f:
            f.write(write_ocf(self.ROWS, self.SCHEMA, codec="deflate"))
        df = read_avro(p).to_pandas()
        assert sorted(df["visitor_id"]) == ["v1", "v2"]
        assert df["ts"].abs().max() == 1700000000123

    def test_write_avro_flat_schema(self, ray_session, tmp_path):
        import ray.data as rd

        from qwery_ray.sources.avro import read_avro, write_avro

        schema = {"type": "record", "name": "Flat", "fields": [
            {"name": "sym", "type": "string"},
            {"name": "px", "type": "double"},
            {"name": "qty", "type": ["null", "long"], "default": None}]}
        rows = [{"sym": "AAPL", "px": 145.5, "qty": 3},
                {"sym": "MSFT", "px": 99.0, "qty": None}]
        p = str(tmp_path / "flat.avro")
        assert write_avro(rd.from_items(rows), p, schema) == 2
        back = read_avro(p).to_pandas().sort_values("sym", ignore_index=True)
        assert back["sym"].tolist() == ["AAPL", "MSFT"]
        assert back["px"].tolist() == [145.5, 99.0]


class TestInSubquery:
    def test_semi_join_in_subquery(self, engine, duck):
        from conftest import assert_frames_match

        sql = ("SELECT s_suppkey, s_name FROM supplier WHERE s_nationkey IN "
               "(SELECT n_nationkey FROM nation WHERE n_regionkey = 2)")
        mine = engine.sql(sql)
        oracle = duck.execute(sql).fetch_df()
        assert_frames_match(mine, oracle)

    def test_anti_join_not_in_subquery(self, engine, duck):
        from conftest import assert_frames_match

        sql = ("SELECT c_custkey FROM customer WHERE c_custkey NOT IN "
               "(SELECT o_custkey FROM orders)")
        mine = engine.sql(sql)
        # ANSI NOT IN with possible NULLs poisons; both sides here are
        # null-free so DuckDB agrees with the engine's set semantics
        oracle = duck.execute(sql).fetch_df()
        assert_frames_match(mine, oracle)


class TestStaleStagingRecovery:
    def test_stale_staging_cleared_and_replay_converges(self, ray_session,
                                                        tmp_path):
        """Simulates a crash after staging but before commit: leftover
        _staging/{txn} content must not corrupt a rerun (exactly-once)."""
        import os

        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.oracle import naive_replay, sha256_of_state, \
            sha256_of_table
        from qwery_ray.cdc.synth import synth_change_events

        ev = str(tmp_path / "ev")
        synth_change_events(ev, n_keys=100, n_events=800, seed=9, n_segments=2)
        eng = CDCLakeEngine(str(tmp_path / "lake"), num_partitions=4)
        # run only txn 1, then plant a garbage partial attempt of txn 2
        eng.replay(ev, chunk_lsns=400, max_lsn=400)
        stale = os.path.join(eng.lake_dir, "_staging",
                             "txn-000000000400-000000000800")
        os.makedirs(os.path.join(stale, "shuffle"), exist_ok=True)
        with open(os.path.join(stale, "shuffle", "task-dead.parquet"), "w") as f:
            f.write("not parquet")
        with open(os.path.join(stale, "part-00001.parquet"), "w") as f:
            f.write("garbage staged file")
        # resume: the txn attempt must clear its shuffle dir and re-stage
        eng2 = CDCLakeEngine(eng.lake_dir, num_partitions=4)
        eng2.replay(ev, chunk_lsns=400)
        expected = sha256_of_state(naive_replay(ev))
        assert sha256_of_table(eng2.table()) == expected


class TestUpsertIntoLake:
    def test_sql_upsert_routes_through_lake_engine(self, ray_session, tmp_path):
        """UPSERT INTO a WITH LAKE target = the exactly-once CDC engine:
        the SQL surface IS the declarative layer over the change tail."""
        import pyarrow.parquet as pq

        from conftest import SF_TINY, to_pandas
        from qwery_ray import QweryEngine

        lake = str(tmp_path / "events_lake")
        eng = QweryEngine(table_root=SF_TINY)
        r1 = eng.sql(
            f"UPSERT INTO '{lake}' WITH LAKE "
            f"SELECT event_id AS lsn, user_id, event_type, value "
            f"FROM events WHERE event_id <= 500 KEYED ON user_id, event_type")
        assert to_pandas(r1)["ROWS_INSERTED"][0] > 0
        assert os.path.exists(os.path.join(lake, "manifest.json"))

        # second statement continues the SAME lake (resume from watermark)
        eng.sql(
            f"UPSERT INTO '{lake}' "
            f"SELECT event_id AS lsn, user_id, event_type, value "
            f"FROM events KEYED ON user_id, event_type")

        from qwery_ray.cdc.engine import CDCLakeEngine

        lake_eng = CDCLakeEngine(lake, key_cols=["user_id", "event_type"])
        final = lake_eng.table().to_pandas()
        # last-writer-wins oracle via pandas over the raw events
        import pandas as pd

        ev = pq.read_table(f"{SF_TINY}/events.parquet").to_pandas()
        expect = ev.sort_values("event_id").drop_duplicates(
            ["user_id", "event_type"], keep="last")
        assert len(final) == len(expect)
        got = final.set_index(["user_id", "event_type"])["value"].to_dict()
        want = expect.set_index(["user_id", "event_type"])["value"].to_dict()
        assert got == want


class TestLakeSqlReads:
    """FROM '<lake_dir>' WITH LAKE [VERSION n] — SQL snapshot reads through
    the manifest (incl. time travel)."""

    def test_sql_lake_read_and_version(self, ray_session, tmp_path):
        from qwery_ray import QweryEngine
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.synth import synth_change_events

        ev = str(tmp_path / "ev3")
        synth_change_events(ev, n_keys=80, n_events=600, seed=13,
                            n_segments=2)
        lake = str(tmp_path / "lake3")
        eng = CDCLakeEngine(lake, num_partitions=4)
        eng.replay(ev, chunk_lsns=300)

        q = QweryEngine(table_root=str(tmp_path))
        now = q.sql(f"SELECT COUNT(*) AS n FROM '{lake}' WITH LAKE"
                    ).to_pandas()["n"][0]
        v1 = q.sql(f"SELECT COUNT(*) AS n FROM '{lake}' WITH LAKE VERSION 1"
                   ).to_pandas()["n"][0]
        assert now == eng.table().num_rows
        assert v1 == eng.table(version=1).num_rows
        # snapshot rows differ across versions (deletes/upserts applied)
        assert v1 != now or eng.versions() == [1]

    def test_lake_read_adopts_key_cols(self, ray_session, tmp_path):
        import ray.data as rd

        from qwery_ray import QweryEngine
        from qwery_ray.cdc.engine import CDCLakeEngine

        lake = str(tmp_path / "lake4")
        eng = CDCLakeEngine(lake, num_partitions=2,
                            key_cols=["uid", "kind"])
        import pyarrow.parquet as pq_

        evdir = str(tmp_path / "ev4")
        os.makedirs(evdir)
        import pyarrow as pa_

        pq_.write_table(pa_.table({
            "lsn": [1, 2, 3], "op": ["upsert"] * 3,
            "uid": [1, 1, 2], "kind": ["a", "a", "b"],
            "value": [1.0, 2.0, 3.0]}), f"{evdir}/seg0.parquet")
        eng.replay(evdir)
        q = QweryEngine(table_root=str(tmp_path))
        df = q.sql(f"SELECT uid, kind, value FROM '{lake}' WITH LAKE "
                   f"ORDER BY uid").to_pandas()
        assert df["value"].tolist() == [2.0, 3.0]  # LWW applied


class TestLakeChangesSql:
    """FROM '<lake_dir>' WITH LAKE CHANGES VERSION a [TO b] — the change
    data feed between two retained snapshots on the SQL surface."""

    def test_sql_changes_feed(self, ray_session, tmp_path):
        from qwery_ray import QweryEngine
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.synth import synth_change_events

        ev = str(tmp_path / "ev")
        synth_change_events(ev, n_keys=60, n_events=500, seed=21,
                            n_segments=2)
        lake = str(tmp_path / "lake")
        eng = CDCLakeEngine(lake, num_partitions=4)
        eng.replay(ev, chunk_lsns=250)
        assert eng.versions() == [1, 2]

        q = QweryEngine()
        df = q.sql(f"SELECT change, COUNT(*) AS n FROM '{lake}' "
                   f"WITH LAKE CHANGES VERSION 1 TO 2 "
                   f"GROUP BY change ORDER BY change").to_pandas()
        api = eng.changes(1, 2).to_pandas()
        want = api.groupby("change").size()
        got = dict(zip(df["change"], df["n"]))
        assert got == want.to_dict()
        assert sum(got.values()) > 0
