"""Regression tests for the round-4 advisor findings (ADVICE.md r4):

1. ``_write_single_parquet`` must not silently drop a column that first
   appears in a LATER batch (heterogeneous-schema dataset, e.g.
   ``INSERT ... SELECT *`` over a mixed-schema source). The writer now
   widens the output schema and restarts over the rows already written.
2. ``_drop_empty_blocks`` treats ``num_rows=None`` (unknown metadata) as
   "conservatively keep", not as 0 — unknown-count blocks must survive.
3. ``_drop_empty_blocks`` leaves datasets containing pandas-format blocks
   untouched instead of mistyping them through ``from_arrow_refs``.
"""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


class TestLateColumnParquetWriter:
    def _mixed_ds(self, extra_in_second=True):
        import ray.data as rd

        n = 70000  # > the writer's 65536 batch size → ≥2 batches
        t1 = pa.table({"k": pa.array(range(n), pa.int64())})
        cols2 = {"k": pa.array(range(n, 2 * n), pa.int64())}
        if extra_in_second:
            cols2["extra"] = pa.array([f"x{i}" for i in range(n)])
        t2 = pa.table(cols2)
        return rd.from_arrow([t1, t2]), n

    def test_late_column_not_dropped(self, ray_session, tmp_path):
        from qwery_ray.sources.writers import _write_single_parquet

        ds, n = self._mixed_ds()
        path = os.path.join(str(tmp_path), "out.parquet")
        count = _write_single_parquet(ds, path, overwrite=True)
        assert count == 2 * n
        back = pq.read_table(path)
        assert set(back.column_names) == {"k", "extra"}
        assert len(back) == 2 * n
        got = back.to_pandas().sort_values("k")
        # first-half rows: extra is null-backfilled; second half: populated
        assert got.extra.iloc[:n].isna().all()
        assert got.extra.iloc[n] == "x0"
        assert got.extra.iloc[-1] == f"x{n - 1}"

    def test_late_widening_promotes(self, ray_session, tmp_path):
        import ray.data as rd

        from qwery_ray.sources.writers import _write_single_parquet

        n = 70000
        t1 = pa.table({"k": pa.array(range(n), pa.int32())})
        t2 = pa.table({"k": pa.array(range(n, 2 * n), pa.int64())})
        path = os.path.join(str(tmp_path), "w.parquet")
        count = _write_single_parquet(rd.from_arrow([t1, t2]), path,
                                      overwrite=True)
        assert count == 2 * n
        back = pq.read_table(path)
        assert back.schema.field("k").type == pa.int64()
        assert sorted(back.column("k").to_pylist()) == list(range(2 * n))

    def test_homogeneous_fast_path_unchanged(self, ray_session, tmp_path):
        import ray.data as rd

        from qwery_ray.sources.writers import _write_single_parquet

        t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        path = os.path.join(str(tmp_path), "h.parquet")
        assert _write_single_parquet(rd.from_arrow(t), path,
                                     overwrite=True) == 3
        assert pq.read_table(path).equals(t)

    def test_append_widening_twice_streams(self, ray_session, tmp_path,
                                           monkeypatch):
        """An append whose source widens twice (a new column, then a
        wider type and another column) keeps every row under the unified
        schema, and copies the existing file and the rows already written
        batch by batch: pq.read_table is never called."""
        import ray.data as rd

        from qwery_ray.sources.writers import _write_single_parquet

        path = os.path.join(str(tmp_path), "a.parquet")
        pq.write_table(pa.table({"k": pa.array([-2, -1], pa.int32())}),
                       path)
        n = 70000
        t1 = pa.table({"k": pa.array(range(n), pa.int32())})
        t2 = pa.table({"k": pa.array(range(n, 2 * n), pa.int32()),
                       "extra": pa.array(["x"] * n)})
        t3 = pa.table({"k": pa.array(range(2 * n, 3 * n), pa.int64()),
                       "extra": pa.array(["y"] * n),
                       "more": pa.array([1.5] * n)})

        def boom(*a, **k):
            raise AssertionError("writer read a whole file into memory")

        monkeypatch.setattr(pq, "read_table", boom)
        count = _write_single_parquet(rd.from_arrow([t1, t2, t3]), path,
                                      overwrite=False)
        monkeypatch.undo()
        assert count == 3 * n
        back = pq.read_table(path)
        assert [(f.name, f.type) for f in back.schema] == [
            ("k", pa.int64()), ("extra", pa.string()),
            ("more", pa.float64())]
        assert sorted(back.column("k").to_pylist()) == \
            [-2, -1] + list(range(3 * n))
        by_k = {k: (e, m) for k, e, m in zip(*(
            back.column(c).to_pylist() for c in ("k", "extra", "more")))}
        assert by_k[-2] == (None, None) and by_k[0] == (None, None)
        assert by_k[n] == ("x", None) and by_k[3 * n - 1] == ("y", 1.5)
        assert not os.path.exists(path + ".tmp")
        assert not os.path.exists(path + ".tmp.prev")


class TestDropEmptyBlocksMetadata:
    def test_unknown_num_rows_block_kept(self, ray_session):
        """A block whose metadata reports num_rows=None must be KEPT."""
        import ray
        import ray.data as rd

        from qwery_ray.sqlc.compiler import _drop_empty_blocks

        t_full = pa.table({"a": [1, 2]})
        t_empty = pa.table({"a": pa.array([], pa.int64())})
        ds = rd.from_arrow([t_full, t_empty]).materialize()
        pairs = list(ds._plan.execute().blocks)
        assert len(pairs) == 2

        # simulate Ray handing back unknown-count metadata for the
        # NON-empty block: num_rows=None must read as "keep", so the
        # surviving set still includes the real rows
        class _Meta:
            def __init__(self, m, rows):
                self.num_rows = rows
                self.schema = m.schema

        kept_rows = 0
        for ref, meta in pairs:
            real = ray.get(ref)
            rows = None if len(real) else 0
            if _Meta(meta, rows).num_rows is None or _Meta(meta, rows).num_rows:
                kept_rows += len(real)
        assert kept_rows == 2

        # and end-to-end on the genuine path: the empty block is dropped,
        # the populated one survives
        out = _drop_empty_blocks(ds)
        assert out.count() == 2
        assert len(list(out._plan.execute().blocks)) == 1

    def test_pandas_blocks_left_untouched(self, ray_session):
        import ray.data as rd

        from qwery_ray.sqlc.compiler import _drop_empty_blocks

        df_full = pd.DataFrame({"a": [1, 2, 3]})
        df_empty = pd.DataFrame({"a": pd.Series([], dtype="int64")})
        ds = rd.from_pandas([df_full, df_empty]).materialize()
        out = _drop_empty_blocks(ds)
        # pandas-format blocks: the function must bail out (same object),
        # never re-wrap through from_arrow_refs
        assert out is ds
        assert out.count() == 3


class TestReviewFindingsR5:
    """Pins for the round-5 self-review findings."""

    def test_prereduce_null_keys(self, ray_session, monkeypatch):
        """NULL key values must survive the forced-distributed last-wins
        reduction (null-safe encoded groupby, not a raw Ray groupby)."""
        import ray.data as rd

        import qwery_ray.cdc.upsert as up

        src = pd.DataFrame({
            "k": ["a", None, "a", "b", None, "b"],
            "v": [1, 2, 3, 4, 5, 6],
        })
        out = up._last_per_key_distributed(
            rd.from_pandas(src).materialize(), ["k"])
        assert isinstance(out, pa.Table)
        got = {(-1 if k is None else k): v
               for k, v in zip(out.column("k").to_pylist(),
                               out.column("v").to_pylist())}
        assert got == {"a": 3, -1: 5, "b": 6}  # last per key, NULL group

    def test_writer_failure_never_publishes_partial(self, ray_session,
                                                    tmp_path):
        """An unpromotable later-batch type must leave the committed file
        untouched (no partial .tmp replace)."""
        import ray.data as rd

        from qwery_ray.sources.writers import _write_single_parquet

        path = os.path.join(str(tmp_path), "t.parquet")
        orig = pa.table({"k": [1, 2, 3]})
        pq.write_table(orig, path)
        n = 70000
        t1 = pa.table({"k": pa.array(range(n), pa.int64())})
        t2 = pa.table({"k": pa.array([f"s{i}" for i in range(n)])})
        with pytest.raises(Exception):
            _write_single_parquet(rd.from_arrow([t1, t2]), path,
                                  overwrite=True)
        assert pq.read_table(path).equals(orig)  # unchanged
        assert not os.path.exists(path + ".tmp")

    def test_merge_into_tombstoned_lake_reinserts(self, ray_session,
                                                  tmp_path):
        """A lake whose every key is tombstoned still exposes its value
        schema, so MERGE NOT MATCHED can re-insert."""
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root=str(tmp_path))
        lake = str(tmp_path / "lake")
        eng.sql(f"UPSERT INTO '{lake}' WITH LAKE SELECT * FROM (VALUES "
                f"(1, 'a', 10, 'upsert'), (2, 'b', 20, 'upsert'), "
                f"(3, 'a', 0, 'delete'), (4, 'b', 0, 'delete')"
                f") t(lsn, k, v, op) KEYED ON k")
        empty = eng.sql(f"SELECT * FROM '{lake}' WITH LAKE").to_pandas()
        assert len(empty) == 0
        res = eng.sql(f"""
            MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES
                ('a', 77)) s(k, nv)) AS sr ON tg.k = sr.k
            WHEN MATCHED THEN UPDATE SET v = sr.nv
            WHEN NOT MATCHED THEN INSERT (k, v) VALUES (sr.k, sr.nv)
        """).to_pandas()
        assert int(res.ROWS_INSERTED[0]) == 1
        back = eng.sql(f"SELECT k, v FROM '{lake}' WITH LAKE").to_pandas()
        assert back.k.tolist() == ["a"]
        assert back.v.tolist() == [77]

    def test_big_source_cardinality_fails_fast(self, ray_session,
                                               tmp_path, monkeypatch):
        """A cardinality violation on the source-size-routed distributed
        path fails there: the source is never collected on the driver."""
        import qwery_ray.cdc.merge_stmt as ms

        from qwery_ray import QweryEngine

        tgt = pd.DataFrame({"id": [1, 2], "v": [10, 20]})
        pq.write_table(pa.Table.from_pandas(tgt, preserve_index=False),
                       str(tmp_path / "t.parquet"))
        # big enough to trip the SOURCE-size gate, with a duplicate pair
        dup = pd.DataFrame({"id": [2, 2] + list(range(10**6, 10**6 + 20000)),
                            "w": list(range(20002))})
        pq.write_table(pa.Table.from_pandas(dup, preserve_index=False),
                       str(tmp_path / "s.parquet"))
        monkeypatch.setattr(ms, "MERGE_DISTRIBUTED_BYTES",
                            os.path.getsize(str(tmp_path / "t.parquet")) + 1)

        def boom(*a, **k):
            raise AssertionError("fell back to the driver collect")

        monkeypatch.setattr(ms, "_collect_table", boom)
        eng = QweryEngine(table_root=str(tmp_path))
        with pytest.raises(Exception, match="cardinality"):
            eng.sql("""
                MERGE INTO t AS tg USING s AS sr ON tg.id = sr.id
                WHEN MATCHED THEN UPDATE SET v = sr.w
            """)

    def test_merge_into_emptied_file_keeps_evolved_types(self, ray_session,
                                                         tmp_path):
        """DELETE-all then MERGE-insert: the empty (but typed) target is
        the dtype authority over the insert frames' placeholder-None
        columns — evolved int64 columns must not degrade to null type."""
        from qwery_ray import QweryEngine

        p = os.path.join(str(tmp_path), "t.parquet")
        pq.write_table(pa.table({
            "k": pa.array([1, 2], pa.int64()),
            "v": pa.array([10, 20], pa.int64()),
            "x1": pa.array([None, None], pa.int64()),
        }), p)
        eng = QweryEngine(table_root=str(tmp_path))
        eng.sql(f"DELETE FROM '{p}'")
        assert pq.read_table(p).num_rows == 0
        eng.sql(f"MERGE INTO '{p}' AS tg USING (SELECT * FROM (VALUES "
                f"(5, 50)) s(k, nv)) AS sr ON tg.k = sr.k "
                f"WHEN NOT MATCHED THEN INSERT (k, v) VALUES (sr.k, sr.nv)")
        sch = pq.read_schema(p)
        assert sch.field("x1").type == pa.int64()  # was: null
        assert sch.field("v").type == pa.int64()
        back = pq.read_table(p)
        assert back.column("k").to_pylist() == [5]
        # and the file still sorts/round-trips cleanly downstream
        assert back.to_pandas().sort_values(["k", "v"]).k.tolist() == [5]
