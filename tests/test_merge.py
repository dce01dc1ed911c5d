"""ANSI MERGE INTO — semantics vs a hand-built expected state."""

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import SF_TINY, scramble_data_pages


@pytest.fixture()
def workdir(tmp_path):
    tgt = pd.DataFrame({
        "id": [1, 2, 3, 4, 5],
        "qty": [10, 20, 30, 40, 50],
        "status": ["old", "old", "old", "old", "old"],
    })
    pq.write_table(pa.Table.from_pandas(tgt, preserve_index=False),
                   str(tmp_path / "inv.parquet"))
    src = pd.DataFrame({
        "id": [2, 3, 6, 7],
        "qty": [99, 0, 60, 70],
    })
    pq.write_table(pa.Table.from_pandas(src, preserve_index=False),
                   str(tmp_path / "delta.parquet"))
    return tmp_path


def _engine(root):
    from qwery_ray import QweryEngine

    return QweryEngine(table_root=str(root))


@pytest.mark.usefixtures("ray_session")
class TestMerge:
    def test_three_arm_merge(self, workdir):
        eng = _engine(workdir)
        res = eng.sql("""
            MERGE INTO inv AS t USING delta AS s ON t.id = s.id
            WHEN MATCHED AND s.qty = 0 THEN DELETE
            WHEN MATCHED THEN UPDATE SET qty = s.qty, status = 'merged'
            WHEN NOT MATCHED THEN INSERT (id, qty, status)
                VALUES (s.id, s.qty, 'new')
        """).to_pandas()
        assert res.ROWS_UPDATED[0] == 1
        assert res.ROWS_DELETED[0] == 1
        assert res.ROWS_INSERTED[0] == 2
        final = pq.read_table(
            str(workdir / "inv.parquet")).to_pandas().sort_values("id")
        assert final.id.tolist() == [1, 2, 4, 5, 6, 7]       # 3 deleted
        assert final.qty.tolist() == [10, 99, 40, 50, 60, 70]
        assert final.status.tolist() == \
            ["old", "merged", "old", "old", "new", "new"]

    def test_first_match_wins_order(self, workdir):
        """Arm order decides: an unconditional UPDATE before the DELETE
        means the qty=0 row updates instead of deleting."""
        eng = _engine(workdir)
        eng.sql("""
            MERGE INTO inv AS t USING delta AS s ON t.id = s.id
            WHEN MATCHED THEN UPDATE SET qty = s.qty
            WHEN MATCHED AND s.qty = 0 THEN DELETE
            WHEN NOT MATCHED THEN INSERT (id, qty, status)
                VALUES (s.id, s.qty, 'new')
        """)
        final = pq.read_table(
            str(workdir / "inv.parquet")).to_pandas().sort_values("id")
        assert final.id.tolist() == [1, 2, 3, 4, 5, 6, 7]
        assert final.qty.tolist() == [10, 99, 0, 40, 50, 60, 70]

    def test_insert_star(self, workdir):
        """INSERT * maps source columns by name; missing target columns
        become NULL."""
        eng = _engine(workdir)
        eng.sql("""
            MERGE INTO inv AS t USING delta AS s ON t.id = s.id
            WHEN NOT MATCHED THEN INSERT *
        """)
        final = pq.read_table(
            str(workdir / "inv.parquet")).to_pandas().sort_values("id")
        assert final.id.tolist() == [1, 2, 3, 4, 5, 6, 7]
        new = final[final.id >= 6]
        assert new.qty.tolist() == [60, 70]
        assert new.status.isna().all()

    def test_not_matched_by_source_delete(self, workdir):
        """T-SQL/Databricks extension: prune target rows absent from the
        source (full-sync semantics)."""
        eng = _engine(workdir)
        eng.sql("""
            MERGE INTO inv AS t USING delta AS s ON t.id = s.id
            WHEN MATCHED THEN UPDATE SET qty = s.qty
            WHEN NOT MATCHED BY SOURCE THEN DELETE
        """)
        final = pq.read_table(
            str(workdir / "inv.parquet")).to_pandas().sort_values("id")
        assert final.id.tolist() == [2, 3]
        assert final.qty.tolist() == [99, 0]

    def test_residual_on_condition(self, workdir):
        """Non-equi conjuncts of ON filter the pairs: a key match failing
        the residual counts as NOT MATCHED."""
        eng = _engine(workdir)
        eng.sql("""
            MERGE INTO inv AS t USING delta AS s
            ON t.id = s.id AND s.qty > 50
            WHEN MATCHED THEN UPDATE SET qty = s.qty
            WHEN NOT MATCHED THEN INSERT (id, qty, status)
                VALUES (s.id, s.qty, 'new')
        """)
        final = pq.read_table(
            str(workdir / "inv.parquet")).to_pandas()
        # id=2 (qty 99) matched+updated; id=3 (qty 0) failed residual ->
        # re-inserted as a new row; 6/7 inserted
        assert sorted(final.id.tolist()) == [1, 2, 3, 3, 4, 5, 6, 7]
        assert final[final.id == 2].qty.tolist() == [99]
        assert sorted(final[final.id == 3].qty.tolist()) == [0, 30]

    def test_cardinality_violation_raises(self, workdir):
        dup = pd.DataFrame({"id": [2, 2], "qty": [1, 2]})
        pq.write_table(pa.Table.from_pandas(dup, preserve_index=False),
                       str(workdir / "dup.parquet"))
        eng = _engine(workdir)
        with pytest.raises(Exception, match="cardinality"):
            eng.sql("""
                MERGE INTO inv AS t USING dup AS s ON t.id = s.id
                WHEN MATCHED THEN UPDATE SET qty = s.qty
            """)

    def test_subquery_source_and_counts(self, workdir):
        eng = _engine(workdir)
        res = eng.sql("""
            MERGE INTO inv AS t
            USING (SELECT id, qty * 2 AS dbl FROM delta WHERE qty > 0) AS s
            ON t.id = s.id
            WHEN MATCHED THEN UPDATE SET qty = s.dbl
        """).to_pandas()
        assert res.ROWS_UPDATED[0] == 1  # only id=2 survives the filter+match
        final = pq.read_table(str(workdir / "inv.parquet")).to_pandas()
        assert final[final.id == 2].qty.tolist() == [198]

    def test_decompile_round_trip(self):
        from qwery_ray.sqlc.decompiler import to_sql
        from qwery_ray.sqlc.parser import parse_one

        sql = ("MERGE INTO inv AS t USING (SELECT * FROM delta) AS s "
               "ON t.id = s.id WHEN MATCHED AND s.qty = 0 THEN DELETE "
               "WHEN MATCHED THEN UPDATE SET qty = s.qty "
               "WHEN NOT MATCHED THEN INSERT (id, qty) VALUES (s.id, s.qty) "
               "WHEN NOT MATCHED BY SOURCE THEN DELETE")
        stmt = parse_one(sql)
        again = parse_one(to_sql(stmt))
        assert again == stmt


class TestMergeFuzz:
    """Property fuzz: random targets/sources/arms vs a naive row-at-a-time
    reference implementing the ANSI first-match-wins semantics."""

    @staticmethod
    def _naive_merge(target, source, arms, key="id"):
        """arms: list of (kind, cond_fn(row)->bool|None, action, payload).
        matched rows: first matching 'matched' arm; source-only rows:
        first 'not_matched' arm; target-only rows: first
        'not_matched_by_source' arm. payload: for update a dict
        col -> fn(combined_row); for insert a dict col -> fn(src_row)."""
        tgt = target.to_dict("records")
        src = source.to_dict("records")
        skeys = {r[key] for r in src}
        out = []
        for trow in tgt:
            match = [s for s in src if s[key] == trow[key]]
            assert len(match) <= 1
            if match:
                combined = {**{f"t.{k}": v for k, v in trow.items()},
                            **{f"s.{k}": v for k, v in match[0].items()}}
                for kind, cond, action, payload in arms:
                    if kind != "matched":
                        continue
                    if cond is not None and not cond(combined):
                        continue
                    if action == "delete":
                        break
                    row = dict(trow)
                    for col, fn in payload.items():
                        row[col] = fn(combined)
                    out.append(row)
                    break
                else:
                    out.append(dict(trow))
            else:
                for kind, cond, action, payload in arms:
                    if kind != "not_matched_by_source":
                        continue
                    srow = {f"t.{k}": v for k, v in trow.items()}
                    if cond is not None and not cond(srow):
                        continue
                    if action == "delete":
                        break
                    row = dict(trow)
                    for col, fn in payload.items():
                        row[col] = fn(srow)
                    out.append(row)
                    break
                else:
                    out.append(dict(trow))
        tkeys = {r[key] for r in tgt}
        for srow in src:
            if srow[key] in tkeys:
                continue
            ctx = {f"s.{k}": v for k, v in srow.items()}
            for kind, cond, action, payload in arms:
                if kind != "not_matched":
                    continue
                if cond is not None and not cond(ctx):
                    continue
                out.append({col: fn(ctx) for col, fn in payload.items()})
                break
        return pd.DataFrame(out)

    def test_fuzz_vs_naive(self, ray_session, tmp_path):
        import numpy as np

        rng = np.random.default_rng(7)
        eng = _engine(tmp_path)
        for trial in range(12):
            n_t, n_s = int(rng.integers(0, 40)) + 1, int(rng.integers(0, 40))
            tgt = pd.DataFrame({
                "id": rng.choice(100, size=n_t, replace=False),
                "v": rng.integers(-50, 50, size=n_t),
            })
            src = pd.DataFrame({
                "id": rng.choice(100, size=n_s, replace=False),
                "w": rng.integers(-50, 50, size=n_s),
            })
            pq.write_table(pa.Table.from_pandas(tgt, preserve_index=False),
                           str(tmp_path / f"t{trial}.parquet"))
            pq.write_table(pa.Table.from_pandas(src, preserve_index=False),
                           str(tmp_path / f"s{trial}.parquet"))
            thresh = int(rng.integers(-20, 20))
            res = eng.sql(f"""
                MERGE INTO t{trial} AS t USING s{trial} AS s ON t.id = s.id
                WHEN MATCHED AND s.w > {thresh} THEN DELETE
                WHEN MATCHED THEN UPDATE SET v = s.w + t.v
                WHEN NOT MATCHED AND s.w < 0 THEN INSERT (id, v)
                    VALUES (s.id, 0 - s.w)
                WHEN NOT MATCHED THEN INSERT (id, v) VALUES (s.id, s.w)
                WHEN NOT MATCHED BY SOURCE AND t.v < {thresh}
                    THEN UPDATE SET v = 0 - t.v
            """).to_pandas()
            got = pq.read_table(str(tmp_path / f"t{trial}.parquet")) \
                .to_pandas().sort_values(["id", "v"]).reset_index(drop=True)
            exp = self._naive_merge(tgt, src, [
                ("matched", lambda r: r["s.w"] > thresh, "delete", None),
                ("matched", None, "update",
                 {"v": lambda r: r["s.w"] + r["t.v"]}),
                ("not_matched", lambda r: r["s.w"] < 0, "insert",
                 {"id": lambda r: r["s.id"], "v": lambda r: -r["s.w"]}),
                ("not_matched", None, "insert",
                 {"id": lambda r: r["s.id"], "v": lambda r: r["s.w"]}),
                ("not_matched_by_source",
                 lambda r: r["t.v"] < thresh, "update",
                 {"v": lambda r: -r["t.v"]}),
            ])
            if exp.empty:
                exp = pd.DataFrame({"id": [], "v": []})
            exp = exp.sort_values(["id", "v"]).reset_index(drop=True)
            assert got.id.astype(int).tolist() == exp.id.astype(int).tolist(), \
                f"trial {trial}"
            assert got.v.astype(int).tolist() == exp.v.astype(int).tolist(), \
                f"trial {trial}"
            n_all = res  # counts sanity: every source row is accounted for
            assert int(n_all.ROWS_INSERTED[0]) + int(n_all.ROWS_UPDATED[0]) \
                + int(n_all.ROWS_DELETED[0]) >= 0


@pytest.mark.usefixtures("ray_session")
class TestMergeDistributed:
    """Forced distributed path (MERGE_DISTRIBUTED_BYTES=0): same semantics
    as the driver path, target never materialized on the driver."""

    @pytest.fixture(autouse=True)
    def _force_distributed(self, monkeypatch):
        import qwery_ray.cdc.merge_stmt as ms

        monkeypatch.setattr(ms, "MERGE_DISTRIBUTED_BYTES", 0)

    def test_three_arm_merge_distributed(self, workdir):
        eng = _engine(workdir)
        res = eng.sql("""
            MERGE INTO inv AS t USING delta AS s ON t.id = s.id
            WHEN MATCHED AND s.qty = 0 THEN DELETE
            WHEN MATCHED THEN UPDATE SET qty = s.qty, status = 'merged'
            WHEN NOT MATCHED THEN INSERT (id, qty, status)
                VALUES (s.id, s.qty, 'new')
        """).to_pandas()
        assert res.ROWS_UPDATED[0] == 1
        assert res.ROWS_DELETED[0] == 1
        assert res.ROWS_INSERTED[0] == 2
        final = pq.read_table(
            str(workdir / "inv.parquet")).to_pandas().sort_values("id")
        assert final.id.tolist() == [1, 2, 4, 5, 6, 7]
        assert final.qty.tolist() == [10, 99, 40, 50, 60, 70]
        assert sorted(final.status.tolist()) == \
            ["merged", "new", "new", "old", "old", "old"]

    def test_residual_and_not_matched_by_source(self, workdir):
        eng = _engine(workdir)
        eng.sql("""
            MERGE INTO inv AS t USING delta AS s
            ON t.id = s.id AND s.qty > 50
            WHEN MATCHED THEN UPDATE SET qty = s.qty
            WHEN NOT MATCHED THEN INSERT (id, qty, status)
                VALUES (s.id, s.qty, 'new')
            WHEN NOT MATCHED BY SOURCE AND t.id = 1 THEN DELETE
        """)
        final = pq.read_table(
            str(workdir / "inv.parquet")).to_pandas()
        assert sorted(final.id.tolist()) == [2, 3, 3, 4, 5, 6, 7]
        assert final[final.id == 2].qty.tolist() == [99]
        assert sorted(final[final.id == 3].qty.tolist()) == [0, 30]

    def test_driver_never_reads_target(self, workdir, monkeypatch):
        """Bounded driver memory: the distributed path must never call
        pq.read_table (the driver-side whole-target materialization)."""
        import qwery_ray.cdc.merge_stmt as ms

        def boom(*a, **k):
            raise AssertionError("driver materialized the MERGE target")

        monkeypatch.setattr(ms.pq, "read_table", boom)
        eng = _engine(workdir)
        res = eng.sql("""
            MERGE INTO inv AS t USING delta AS s ON t.id = s.id
            WHEN MATCHED THEN UPDATE SET qty = s.qty
        """).to_pandas()
        assert res.ROWS_UPDATED[0] == 2

    def test_cardinality_violation_distributed(self, workdir):
        dup = pd.DataFrame({"id": [2, 2], "qty": [1, 2]})
        pq.write_table(pa.Table.from_pandas(dup, preserve_index=False),
                       str(workdir / "dup.parquet"))
        eng = _engine(workdir)
        with pytest.raises(Exception, match="cardinality"):
            eng.sql("""
                MERGE INTO inv AS t USING dup AS s ON t.id = s.id
                WHEN MATCHED THEN UPDATE SET qty = s.qty
            """)

    def test_randomized_equivalence_with_driver_path(self, tmp_path,
                                                     monkeypatch):
        """Same inputs through BOTH paths → identical final tables and
        counts (distributed row order is free; compare sorted). The last
        two trials have duplicate target keys (150 rows over 60 keys)."""
        import numpy as np

        import qwery_ray.cdc.merge_stmt as ms

        rng = np.random.default_rng(23)
        eng = _engine(tmp_path)
        sql_tpl = """
            MERGE INTO {tgt} AS t USING {src} AS s
            ON t.id = s.id AND s.w <> 13
            WHEN MATCHED AND s.w > 10 THEN DELETE
            WHEN MATCHED THEN UPDATE SET v = s.w + t.v
            WHEN NOT MATCHED AND s.w < 0 THEN INSERT (id, v)
                VALUES (s.id, 0 - s.w)
            WHEN NOT MATCHED THEN INSERT (id, v) VALUES (s.id, s.w)
            WHEN NOT MATCHED BY SOURCE AND t.v < 0 THEN UPDATE SET v = 0
        """
        for trial in range(6):
            tgt = pd.DataFrame({
                "id": rng.choice(300, size=120, replace=False),
                "v": rng.integers(-50, 50, size=120),
            }) if trial < 4 else pd.DataFrame({
                "id": rng.integers(0, 60, size=150),
                "v": rng.integers(-50, 50, size=150),
            })
            src = pd.DataFrame({
                "id": rng.choice(300, size=80, replace=False),
                "w": rng.integers(-50, 50, size=80),
            })
            outs = {}
            for mode, thresh in (("driver", 1 << 60), ("dist", 0)):
                monkeypatch.setattr(ms, "MERGE_DISTRIBUTED_BYTES", thresh)
                tname = f"t_{trial}_{mode}"
                pq.write_table(
                    pa.Table.from_pandas(tgt, preserve_index=False),
                    str(tmp_path / f"{tname}.parquet"))
                pq.write_table(
                    pa.Table.from_pandas(src, preserve_index=False),
                    str(tmp_path / f"s_{trial}_{mode}.parquet"))
                res = eng.sql(sql_tpl.format(
                    tgt=tname, src=f"s_{trial}_{mode}")).to_pandas()
                final = pq.read_table(str(tmp_path / f"{tname}.parquet")) \
                    .to_pandas().sort_values(["id", "v"],
                                             ignore_index=True)
                outs[mode] = (res, final)
            rd_, fd = outs["driver"]
            rx, fx = outs["dist"]
            assert rd_.ROWS_INSERTED[0] == rx.ROWS_INSERTED[0], trial
            assert rd_.ROWS_UPDATED[0] == rx.ROWS_UPDATED[0], trial
            assert rd_.ROWS_DELETED[0] == rx.ROWS_DELETED[0], trial
            assert fd.id.astype(int).tolist() == fx.id.astype(int).tolist()
            assert fd.v.astype(int).tolist() == fx.v.astype(int).tolist()


@pytest.mark.usefixtures("ray_session")
class TestBigSourceBounded:
    """r4 verdict item 3: a LARGE source into a SMALL file target must not
    materialize raw source rows on the driver — MERGE routes to the
    distributed path on source size; UPSERT/UPDATE LWW-reduce the source
    per key distributed before any collect."""

    def test_merge_routes_distributed_on_source_size(self, workdir,
                                                     monkeypatch):
        import qwery_ray.cdc.merge_stmt as ms

        # target ~tiny; force the SOURCE (not the target) over the gate
        tgt_bytes = os.path.getsize(str(workdir / "inv.parquet"))
        monkeypatch.setattr(ms, "MERGE_DISTRIBUTED_BYTES", tgt_bytes + 1)
        called = {}
        real = ms._merge_distributed

        def spy(*a, **k):
            called["yes"] = True
            return real(*a, **k)

        monkeypatch.setattr(ms, "_merge_distributed", spy)
        # a source comfortably larger than tgt_bytes+1 in memory
        big = pd.DataFrame({
            "id": list(range(1, 5001)),
            "qty": [i % 100 for i in range(1, 5001)],
        })
        pq.write_table(pa.Table.from_pandas(big, preserve_index=False),
                       str(workdir / "bigdelta.parquet"))
        eng = _engine(workdir)
        res = eng.sql("""
            MERGE INTO inv AS t USING bigdelta AS s ON t.id = s.id
            WHEN MATCHED THEN UPDATE SET qty = s.qty
            WHEN NOT MATCHED THEN INSERT (id, qty, status)
                VALUES (s.id, s.qty, 'new')
        """).to_pandas()
        assert called.get("yes"), "big source did not route distributed"
        assert res.ROWS_UPDATED[0] == 5
        assert res.ROWS_INSERTED[0] == 4995
        final = pq.read_table(str(workdir / "inv.parquet")).to_pandas()
        assert len(final) == 5000
        assert final[final.id == 3].qty.tolist() == [3]

    def test_merge_dup_key_small_target_big_source(self, workdir,
                                                   monkeypatch):
        """Duplicate-key SMALL target + big source: the source-size-routed
        distributed path merges the duplicate-key target with the same
        result as the plain small path."""
        import qwery_ray.cdc.merge_stmt as ms

        dup_t = pd.DataFrame({"id": [1, 1, 2], "qty": [5, 6, 7],
                              "status": ["a", "b", "c"]})
        pq.write_table(pa.Table.from_pandas(dup_t, preserve_index=False),
                       str(workdir / "dupt.parquet"))
        monkeypatch.setattr(ms, "MERGE_DISTRIBUTED_BYTES",
                            os.path.getsize(str(workdir / "dupt.parquet")) + 1)
        eng = _engine(workdir)
        res = eng.sql("""
            MERGE INTO dupt AS t USING delta AS s ON t.id = s.id
            WHEN MATCHED THEN UPDATE SET qty = s.qty
        """).to_pandas()
        assert res.ROWS_UPDATED[0] == 1  # id=2 row
        final = pq.read_table(str(workdir / "dupt.parquet")).to_pandas()
        assert sorted(final.qty.tolist()) == [5, 6, 99]

    def test_upsert_prereduce_matches_direct(self, tmp_path, monkeypatch):
        import ray.data as rd

        import qwery_ray.cdc.upsert as up

        tgt = pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
        src = pd.DataFrame({
            "k": [2, 4, 2, 5, 4, 2],
            "v": [200, 400, 201, 500, 401, 202],
        })
        for name in ("direct", "reduced"):
            pq.write_table(pa.Table.from_pandas(tgt, preserve_index=False),
                           str(tmp_path / f"{name}.parquet"))

        n = up.upsert_into_parquet(rd.from_pandas(src),
                                   str(tmp_path / "direct.parquet"), ["k"])
        monkeypatch.setattr(up, "SOURCE_PREREDUCE_BYTES", 0)
        m = up.upsert_into_parquet(rd.from_pandas(src),
                                   str(tmp_path / "reduced.parquet"), ["k"])
        assert n == m == (2, 1)  # inserted keys 4,5; updated key 2
        a = pq.read_table(str(tmp_path / "direct.parquet")).to_pandas()
        b = pq.read_table(str(tmp_path / "reduced.parquet")).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        # LAST stream occurrence won on the forced-distributed path
        assert b[b.k == 2].v.tolist() == [202]
        assert b[b.k == 4].v.tolist() == [401]

    def test_prereduce_driver_sees_only_distinct_keys(self, ray_session,
                                                      monkeypatch):
        """The reduced stream the driver collects has exactly one row per
        distinct key — driver memory scales with the OUTPUT, not the raw
        source."""
        import ray.data as rd

        import qwery_ray.cdc.upsert as up

        src = pd.DataFrame({
            "k": [i % 37 for i in range(20000)],
            "v": list(range(20000)),
        })
        out = up._last_per_key_distributed(
            rd.from_pandas(src).materialize(), ["k"])
        assert isinstance(out, pa.Table)
        assert out.num_rows == 37
        assert "__pos" not in out.column_names
        # per key, the max-position (last-stream) value won
        got = out.sort_by("k").column("v").to_pylist()
        want = [max(i for i in range(20000) if i % 37 == k)
                for k in range(37)]
        assert got == want

    def test_update_keyed_prereduce_matches_direct(self, tmp_path,
                                                   monkeypatch):
        import qwery_ray.cdc.upsert as up

        tgt = pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
        src = pd.DataFrame({"k": [2, 2, 3], "nv": [7, 8, 9]})
        for name in ("du", "ru"):
            pq.write_table(pa.Table.from_pandas(tgt, preserve_index=False),
                           str(tmp_path / f"{name}.parquet"))
        pq.write_table(pa.Table.from_pandas(src, preserve_index=False),
                       str(tmp_path / "chg.parquet"))
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root=str(tmp_path))
        sql = ("UPDATE '{t}' SET v = nv * 2 "
               "FROM (SELECT * FROM chg) KEYED ON k")
        n1 = eng.sql(sql.format(t=str(tmp_path / "du.parquet"))) \
            .to_pandas().ROWS_UPDATED[0]
        monkeypatch.setattr(up, "SOURCE_PREREDUCE_BYTES", 0)
        n2 = eng.sql(sql.format(t=str(tmp_path / "ru.parquet"))) \
            .to_pandas().ROWS_UPDATED[0]
        assert n1 == n2 == 2
        a = pq.read_table(str(tmp_path / "du.parquet")).to_pandas()
        b = pq.read_table(str(tmp_path / "ru.parquet")).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        assert b.sort_values("k").v.tolist() == [10, 16, 18]


def _write_events(dirpath, rows, extra=None):
    """One parquet file of lake events ``(lsn, k, v, op)`` plus optional
    extra columns."""
    os.makedirs(dirpath, exist_ok=True)
    cols = {"lsn": pa.array([r[0] for r in rows], pa.int64()),
            "k": pa.array([r[1] for r in rows], pa.int64()),
            "v": pa.array([r[2] for r in rows], pa.int64()),
            "op": pa.array([r[3] for r in rows])}
    cols.update(extra or {})
    pq.write_table(pa.table(cols), os.path.join(dirpath, "e.parquet"))


def _pid(k, nparts=4):
    from qwery_ray.cdc.engine import key_hash_partition_cols

    return int(key_hash_partition_cols([pa.array([k], pa.int64())],
                                       nparts)[0])


def _lake_rows(lake):
    from qwery_ray.cdc.engine import CDCLakeEngine

    t = CDCLakeEngine.open(lake).table()
    return {r["k"]: r for r in t.to_pylist()}


@pytest.mark.usefixtures("ray_session")
class TestMergeIntoLake:
    """r5 superset: ANSI MERGE INTO an exactly-once CDC lake target — the
    arms run against the committed LWW snapshot, co-partitioned with the
    lake (one task per partition the source reaches), and the actions
    commit as ONE transaction of LWW events (deletes as tombstones, fresh
    LSNs above the watermark)."""

    def _lake(self, tmp_path):
        from qwery_ray import QweryEngine

        eng = _engine(tmp_path)
        lake = str(tmp_path / "lake")
        eng.sql(f"UPSERT INTO '{lake}' WITH LAKE SELECT * FROM (VALUES "
                f"(1, 'r1', 'a', 10), (2, 'r1', 'b', 20), "
                f"(3, 'r2', 'a', 30)) t(lsn, repo, path, v) "
                f"KEYED ON repo, path")
        return eng, lake

    def _state(self, eng, lake):
        df = eng.sql(f"SELECT repo, path, v FROM '{lake}' WITH LAKE") \
            .to_pandas().sort_values(["repo", "path"])
        return list(df.itertuples(index=False, name=None))

    def test_all_arms_one_txn(self, tmp_path):
        eng, lake = self._lake(tmp_path)
        res = eng.sql(f"""
            MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES
                ('r1', 'a', 111), ('r1', 'b', -1), ('r3', 'z', 99)
            ) s(repo, path, nv)) AS sr
            ON tg.repo = sr.repo AND tg.path = sr.path
            WHEN MATCHED AND sr.nv < 0 THEN DELETE
            WHEN MATCHED THEN UPDATE SET v = sr.nv
            WHEN NOT MATCHED THEN INSERT (repo, path, v)
                VALUES (sr.repo, sr.path, sr.nv)
            WHEN NOT MATCHED BY SOURCE THEN UPDATE SET v = tg.v + 1000
        """).to_pandas()
        assert (int(res.ROWS_UPDATED[0]), int(res.ROWS_DELETED[0]),
                int(res.ROWS_INSERTED[0])) == (2, 1, 1)
        assert self._state(eng, lake) == [
            ("r1", "a", 111), ("r2", "a", 1030), ("r3", "z", 99)]

    def test_sequential_merges_see_new_state(self, tmp_path):
        eng, lake = self._lake(tmp_path)
        for _ in range(3):
            eng.sql(f"""
                MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES
                    ('r1', 'a', 5)) s(repo, path, nv)) AS sr
                ON tg.repo = sr.repo AND tg.path = sr.path
                WHEN MATCHED THEN UPDATE SET v = tg.v + sr.nv
            """)
        assert ("r1", "a", 25) in self._state(eng, lake)
        # unchanged keys produced no events: watermark advanced by
        # exactly one row per merge
        import json
        m = json.load(open(f"{lake}/manifest.json"))
        assert m["watermark_lsn"] == 3 + 3  # 3 seed rows + 3 merge txns

    def test_wrong_on_keys_rejected(self, tmp_path):
        eng, lake = self._lake(tmp_path)
        with pytest.raises(Exception, match="lake key columns"):
            eng.sql(f"""
                MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES
                    ('r1', 1)) s(repo, nv)) AS sr ON tg.repo = sr.repo
                WHEN MATCHED THEN UPDATE SET v = sr.nv
            """)

    def test_no_match_no_txn(self, tmp_path):
        """A merge whose arms fire on nothing commits NO transaction."""
        import json

        eng, lake = self._lake(tmp_path)
        before = json.load(open(f"{lake}/manifest.json"))["version"]
        res = eng.sql(f"""
            MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES
                ('zz', 'zz', 1)) s(repo, path, nv)) AS sr
            ON tg.repo = sr.repo AND tg.path = sr.path
            WHEN MATCHED THEN UPDATE SET v = sr.nv
        """).to_pandas()
        assert int(res.ROWS_UPDATED[0]) == 0
        assert int(res.ROWS_INSERTED[0]) == 0
        after = json.load(open(f"{lake}/manifest.json"))["version"]
        assert after == before

    # a 4-partition lake keyed on an int64 ``k``, with merge-on-read
    # deltas pending; the source keys reach a subset of the partitions
    NPARTS = 4

    @pytest.fixture()
    def lake(self, tmp_path):
        from qwery_ray.cdc.engine import CDCLakeEngine

        lake = str(tmp_path / "lake")
        eng = CDCLakeEngine(lake, num_partitions=self.NPARTS, key_cols=["k"])
        _write_events(str(tmp_path / "ev1"),
                      [(k + 1, k, 10 * k, "upsert") for k in range(48)])
        eng.replay(str(tmp_path / "ev1"))
        # a small second txn (two updates, two deletes) stages deltas
        # instead of rewriting the bases
        _write_events(str(tmp_path / "ev2"),
                      [(49, 0, -1, "upsert"), (50, 1, 0, "delete"),
                       (51, 2, -2, "upsert"), (52, 3, 0, "delete")])
        eng.replay(str(tmp_path / "ev2"))
        m = eng.load_manifest()
        assert any(info.get("deltas") for info in m["partitions"].values())
        return lake

    def _expected(self, lake, src, thresh=None, nmbs=None):
        """Naive model of the statements below over the visible state."""
        state = {k: r["v"] for k, r in _lake_rows(lake).items()}
        src_keys = {k for k, _ in src}
        for k, nv in src:
            if k in state:
                if thresh is not None and nv < thresh:
                    del state[k]
                else:
                    state[k] = nv
            else:
                state[k] = nv
        if nmbs:
            for k in list(state):
                if k not in src_keys:
                    r = nmbs(k, state[k])
                    if r is None:
                        del state[k]
                    else:
                        state[k] = r
        return state

    def _merge(self, tmp_path, lake, src, arms):
        vals = ", ".join(f"({k}, {nv})" for k, nv in src)
        return _engine(tmp_path).sql(f"""
            MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES {vals})
                s(k, nv)) AS sr ON tg.k = sr.k {arms}""").to_pandas()

    def test_three_arms_across_partitions_with_deltas(self, tmp_path, lake):
        wm = json.load(open(os.path.join(lake, "manifest.json")))[
            "watermark_lsn"]
        before = _lake_rows(lake)
        src = [(0, 5), (2, -7), (4, 44), (5, -3), (7, 77), (100, 1),
               (101, -9)]
        want = self._expected(lake, src, thresh=0)
        res = self._merge(tmp_path, lake, src, """
            WHEN MATCHED AND sr.nv < 0 THEN DELETE
            WHEN MATCHED THEN UPDATE SET v = sr.nv
            WHEN NOT MATCHED THEN INSERT (k, v) VALUES (sr.k, sr.nv)""")
        assert (int(res.ROWS_UPDATED[0]), int(res.ROWS_DELETED[0]),
                int(res.ROWS_INSERTED[0])) == (3, 2, 2)
        after = _lake_rows(lake)
        assert {k: r["v"] for k, r in after.items()} == want
        for k, r in after.items():
            if k in before and before[k]["v"] == r["v"]:
                assert r["lsn"] == before[k]["lsn"]  # untouched row
            else:
                assert r["lsn"] > wm  # fresh LSN above the old watermark

    def test_unreached_partitions_never_read(self, tmp_path, lake):
        """Source keys that all hash to one partition: the merge must not
        read the data of any other partition. Their data pages are
        scrambled during the merge (footers intact) and restored after."""
        from qwery_ray.cdc.engine import CDCLakeEngine

        p0 = _pid(0)
        src = [(k, 1000 + k) for k in range(8, 48) if _pid(k) == p0][:4]
        src.append((next(k for k in range(200, 400) if _pid(k) == p0), 9))
        want = self._expected(lake, src)
        m = CDCLakeEngine.open(lake).load_manifest()
        saved = {}
        for pid, info in m["partitions"].items():
            if int(pid) == p0:
                continue
            for rel in [info["file"]] + [d["file"] for d in
                                          info.get("deltas") or []]:
                path = os.path.join(lake, rel)
                saved[path] = open(path, "rb").read()
                scramble_data_pages(path)
        assert saved
        try:
            res = self._merge(tmp_path, lake, src, """
                WHEN MATCHED THEN UPDATE SET v = sr.nv
                WHEN NOT MATCHED THEN INSERT (k, v) VALUES (sr.k, sr.nv)""")
        finally:
            for path, data in saved.items():
                with open(path, "wb") as f:
                    f.write(data)
        assert (int(res.ROWS_UPDATED[0]), int(res.ROWS_INSERTED[0])) == (4, 1)
        assert {k: r["v"] for k, r in _lake_rows(lake).items()} == want

    def test_nmbs_reaches_unsourced_partitions(self, tmp_path, lake):
        p0 = _pid(0)
        src = [(k, 1) for k in range(8, 48) if _pid(k) == p0][:2]
        assert {_pid(k) for k in range(48)} - {p0}

        def nmbs(k, v):
            return None if v >= 400 else v + 1000

        before = {k: r["v"] for k, r in _lake_rows(lake).items()}
        unsourced = [v for k, v in before.items() if k not in dict(src)]
        want = self._expected(lake, src, nmbs=nmbs)
        res = self._merge(tmp_path, lake, src, """
            WHEN MATCHED THEN UPDATE SET v = sr.nv
            WHEN NOT MATCHED BY SOURCE AND tg.v >= 400 THEN DELETE
            WHEN NOT MATCHED BY SOURCE THEN UPDATE SET v = tg.v + 1000""")
        assert {k: r["v"] for k, r in _lake_rows(lake).items()} == want
        assert int(res.ROWS_DELETED[0]) == sum(v >= 400 for v in unsourced)
        assert int(res.ROWS_UPDATED[0]) == \
            len(src) + sum(v < 400 for v in unsourced)

    def test_empty_source_nmbs(self, tmp_path, lake):
        pq.write_table(pa.table({"k": pa.array([1], pa.int64()),
                                 "nv": pa.array([1], pa.int64())}),
                       str(tmp_path / "src.parquet"))
        before = {k: r["v"] for k, r in _lake_rows(lake).items()}
        res = _engine(tmp_path).sql(f"""
            MERGE INTO '{lake}' AS tg
            USING (SELECT * FROM src WHERE nv > 99) AS sr ON tg.k = sr.k
            WHEN MATCHED THEN UPDATE SET v = sr.nv
            WHEN NOT MATCHED BY SOURCE AND tg.v < 100 THEN DELETE
            WHEN NOT MATCHED BY SOURCE THEN UPDATE SET v = tg.v + 1
        """).to_pandas()
        want = {k: v + 1 for k, v in before.items() if v >= 100}
        assert {k: r["v"] for k, r in _lake_rows(lake).items()} == want
        assert int(res.ROWS_DELETED[0]) == len(before) - len(want)
        assert int(res.ROWS_UPDATED[0]) == len(want)

    def test_update_column_missing_from_some_partitions(self, tmp_path,
                                                        lake):
        """A txn adds column ``x`` on keys of one partition only; a MERGE
        into another partition (whose files lack ``x``) sets it."""
        from qwery_ray.cdc.engine import CDCLakeEngine

        p0 = _pid(0)
        ks = [k for k in range(8, 48) if _pid(k) == p0][:2]
        _write_events(str(tmp_path / "ev3"),
                      [(60 + i, k, 7, "upsert") for i, k in enumerate(ks)],
                      extra={"x": pa.array(["new"] * len(ks))})
        CDCLakeEngine.open(lake).replay(str(tmp_path / "ev3"))
        m = CDCLakeEngine.open(lake).load_manifest()
        other = next(k for k in range(8, 48) if _pid(k) != p0)
        info = m["partitions"][str(_pid(other))]
        for rel in [info["file"]] + [d["file"] for d in
                                      info.get("deltas") or []]:
            assert "x" not in pq.read_schema(os.path.join(lake, rel)).names
        res = _engine(tmp_path).sql(f"""
            MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES
                ({other}, 'set')) s(k, nx)) AS sr ON tg.k = sr.k
            WHEN MATCHED THEN UPDATE SET x = sr.nx""").to_pandas()
        assert int(res.ROWS_UPDATED[0]) == 1
        rows = _lake_rows(lake)
        assert rows[other]["x"] == "set"
        assert rows[other]["v"] == 10 * other
        assert [rows[k]["x"] for k in ks] == ["new", "new"]
        assert all(r["x"] is None for k, r in rows.items()
                   if k not in ks and k != other)

    def test_source_key_narrower_than_lake_key(self, tmp_path, lake):
        """An int32 source key merges into the int64-keyed lake: keys
        match by value and inserted keys keep the lake's type."""
        from qwery_ray.cdc.engine import CDCLakeEngine

        pq.write_table(pa.table({"k": pa.array([4, 6, 300], pa.int32()),
                                 "nv": pa.array([40, 60, 3], pa.int64())}),
                       str(tmp_path / "src32.parquet"))
        want = self._expected(lake, [(4, 40), (6, 60), (300, 3)])
        res = _engine(tmp_path).sql(f"""
            MERGE INTO '{lake}' AS tg USING (SELECT * FROM src32) AS sr
            ON tg.k = sr.k
            WHEN MATCHED THEN UPDATE SET v = sr.nv
            WHEN NOT MATCHED THEN INSERT (k, v) VALUES (sr.k, sr.nv)
        """).to_pandas()
        assert (int(res.ROWS_UPDATED[0]), int(res.ROWS_INSERTED[0])) == (2, 1)
        assert {k: r["v"] for k, r in _lake_rows(lake).items()} == want
        t = CDCLakeEngine.open(lake).table()
        assert t.schema.field("k").type == pa.int64()


@pytest.mark.usefixtures("ray_session")
class TestEmptySourceDistributed:
    """r5: big-target (forced-distributed) MERGE with an EMPTY source —
    only NOT MATCHED BY SOURCE fires, via the shuffle-free per-batch
    path; the source schema survives materialization via the lazy hint."""

    def test_nmbs_only_empty_source(self, workdir, monkeypatch):
        import qwery_ray.cdc.merge_stmt as ms

        monkeypatch.setattr(ms, "MERGE_DISTRIBUTED_BYTES", 0)
        eng = _engine(workdir)
        res = eng.sql("""
            MERGE INTO inv AS t
            USING (SELECT * FROM delta WHERE qty > 99999) AS s
            ON t.id = s.id
            WHEN MATCHED THEN UPDATE SET qty = s.qty
            WHEN NOT MATCHED THEN INSERT (id, qty, status)
                VALUES (s.id, s.qty, 'new')
            WHEN NOT MATCHED BY SOURCE AND t.qty >= 30
                THEN UPDATE SET status = 'stale'
        """).to_pandas()
        assert int(res.ROWS_UPDATED[0]) == 3
        assert int(res.ROWS_INSERTED[0]) == 0
        final = pq.read_table(
            str(workdir / "inv.parquet")).to_pandas().sort_values("id")
        assert final.status.tolist() == \
            ["old", "old", "stale", "stale", "stale"]

    def test_empty_source_no_nmbs_keeps_all(self, workdir, monkeypatch):
        import qwery_ray.cdc.merge_stmt as ms

        monkeypatch.setattr(ms, "MERGE_DISTRIBUTED_BYTES", 0)
        eng = _engine(workdir)
        res = eng.sql("""
            MERGE INTO inv AS t
            USING (SELECT * FROM delta WHERE qty > 99999) AS s
            ON t.id = s.id
            WHEN MATCHED THEN UPDATE SET qty = s.qty
        """).to_pandas()
        assert int(res.ROWS_UPDATED[0]) == 0
        final = pq.read_table(str(workdir / "inv.parquet")).to_pandas()
        assert len(final) == 5


@pytest.mark.usefixtures("ray_session")
class TestLakeMergeOcc:
    """r5 review finding: a concurrent commit between the snapshot read
    and replay must not silently drop the MERGE — the commit-point
    watermark check raises CommitConflict and the merge recomputes
    against the NEW snapshot."""

    INCREMENT = """
        MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES
            ('{key}', 1)) s(k, nv)) AS sr ON tg.k = sr.k
        WHEN MATCHED THEN UPDATE SET v = tg.v + sr.nv
    """

    def _lake(self, tmp_path):
        eng = _engine(tmp_path)
        lake = str(tmp_path / "lake")
        eng.sql(f"UPSERT INTO '{lake}' WITH LAKE SELECT * FROM (VALUES "
                f"(1, 'a', 0), (2, 'b', 0)) t(lsn, k, v) KEYED ON k")
        return eng, lake

    def _values(self, eng, lake):
        back = eng.sql(f"SELECT k, v FROM '{lake}' WITH LAKE").to_pandas()
        return dict(zip(back.k, back.v))

    def test_concurrent_increments_lose_no_update(self, tmp_path):
        """Two threads each run 3 one-row increment MERGEs on their own
        key. Every MERGE starts from some snapshot at watermark W and
        stamps txn W..W+1, so a MERGE that loses the race names the
        winner's txn; it must recompute, not count the winner's commit as
        its own."""
        import threading

        from qwery_ray.cdc.engine import CDCLakeEngine

        _, lake = self._lake(tmp_path)
        updated = {"a": [], "b": []}
        errs = []

        def run(key):
            try:
                eng = _engine(tmp_path)
                for _ in range(3):
                    res = eng.sql(self.INCREMENT.format(lake=lake, key=key))
                    updated[key].append(int(res.column("ROWS_UPDATED")[0]
                                            .as_py()))
            except Exception as e:  # surfaced below
                errs.append(e)

        threads = [threading.Thread(target=run, args=(k,)) for k in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        assert not any(t.is_alive() for t in threads)
        assert not errs, errs
        assert updated == {"a": [1, 1, 1], "b": [1, 1, 1]}
        assert self._values(_engine(tmp_path), lake) == {"a": 3, "b": 3}
        m = CDCLakeEngine.open(lake).load_manifest()
        assert len(m["committed_txns"]) == len(set(m["committed_txns"])) \
            == 7
        assert m["watermark_lsn"] == 2 + 6
        assert not os.listdir(os.path.join(lake, "_staging"))

    def test_same_txn_name_interleave_recomputes(self, tmp_path,
                                                 monkeypatch):
        """Deterministic form of the race above: while the outer MERGE
        merges, a second MERGE of the same source size commits first and
        takes the txn name the outer one stamped. The outer MERGE must
        hit the conflict at its commit and recompute on the new value."""
        import qwery_ray.cdc.engine as ce

        eng, lake = self._lake(tmp_path)
        real_run_merge = ce.CDCLakeEngine._run_merge
        seen = []

        def racing_run_merge(self_eng, manifest, txn, *args):
            if not seen:
                seen.append(txn)
                res = eng.sql(self.INCREMENT.format(lake=lake, key="a"))
                assert int(res.column("ROWS_UPDATED")[0].as_py()) == 1
                assert txn in ce.CDCLakeEngine.open(lake) \
                    .load_manifest()["committed_txns"]
            return real_run_merge(self_eng, manifest, txn, *args)

        monkeypatch.setattr(ce.CDCLakeEngine, "_run_merge", racing_run_merge)
        res = eng.sql(self.INCREMENT.format(lake=lake, key="a"))
        assert seen == ["txn-000000000002-000000000003"]
        assert int(res.column("ROWS_UPDATED")[0].as_py()) == 1
        assert self._values(eng, lake) == {"a": 2, "b": 0}
        m = ce.CDCLakeEngine.open(lake).load_manifest()
        assert m["committed_txns"][-2:] == [
            "txn-000000000002-000000000003", "txn-000000000003-000000000004"]
        assert not os.listdir(os.path.join(lake, "_staging"))

    def test_interleaved_commit_retries(self, tmp_path, monkeypatch):
        import qwery_ray.cdc.engine as ce

        eng = _engine(tmp_path)
        lake = str(tmp_path / "lake")
        eng.sql(f"UPSERT INTO '{lake}' WITH LAKE SELECT * FROM (VALUES "
                f"(1, 'a', 10), (2, 'b', 20)) t(lsn, k, v) KEYED ON k")

        real_replay = ce.CDCLakeEngine.replay
        state = {"interfered": False}

        def racing_replay(self_eng, events_path, **kw):
            if not state["interfered"] and "merge_events" in events_path:
                state["interfered"] = True
                # another writer lands a commit first: k='a' -> 99
                wm = self_eng.load_manifest()["watermark_lsn"]
                eng.sql(f"UPSERT INTO '{lake}' WITH LAKE SELECT * FROM "
                        f"(VALUES ({wm + 1}, 'a', 99)) t(lsn, k, v) "
                        f"KEYED ON k")
            return real_replay(self_eng, events_path, **kw)

        monkeypatch.setattr(ce.CDCLakeEngine, "replay", racing_replay)
        res = eng.sql(f"""
            MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES
                ('a', 5), ('c', 7)) s(k, nv)) AS sr ON tg.k = sr.k
            WHEN MATCHED THEN UPDATE SET v = tg.v + sr.nv
            WHEN NOT MATCHED THEN INSERT (k, v) VALUES (sr.k, sr.nv)
        """).to_pandas()
        assert state["interfered"]
        assert int(res.ROWS_UPDATED[0]) == 1
        back = eng.sql(f"SELECT k, v FROM '{lake}' WITH LAKE") \
            .to_pandas().sort_values("k")
        # all-or-nothing: the stale first attempt applied NOTHING (no
        # partial event leak); the retry recomputed against the
        # interfering writer's state: a = 99 + 5, b untouched, c inserted
        assert list(zip(back.k, back.v)) == [("a", 104), ("b", 20),
                                             ("c", 7)]

    def test_duplicate_insert_keys_rejected(self, tmp_path):
        """Two NOT MATCHED inserts for the same key would LWW-collapse in
        a keyed lake while counts said two — rejected loudly instead."""
        eng = _engine(tmp_path)
        lake = str(tmp_path / "lake")
        eng.sql(f"UPSERT INTO '{lake}' WITH LAKE SELECT * FROM (VALUES "
                f"(1, 'x', 1)) t(lsn, k, v) KEYED ON k")
        with pytest.raises(Exception, match="duplicate source keys"):
            eng.sql(f"""
                MERGE INTO '{lake}' AS tg USING (SELECT * FROM (VALUES
                    ('a', 1), ('a', 2)) s(k, nv)) AS sr ON tg.k = sr.k
                WHEN NOT MATCHED THEN INSERT (k, v) VALUES (sr.k, sr.nv)
            """)


# ---------------------------------------------------------------------------
# Keyed-write pins: UPSERT, UPDATE … KEYED ON and MERGE into a file target,
# each on the driver path and on the forced distributed path (source
# pre-reduce for UPSERT/UPDATE, bucketed MERGE).

KEYED_STMTS = {
    "upsert": "UPSERT INTO '{t}' SELECT {cols} FROM {s} KEYED ON {keys}",
    "update": "UPDATE '{t}' SET {col} = {val} FROM (SELECT * FROM {s}) "
              "KEYED ON {keys}",
    "merge": "MERGE INTO '{t}' AS tg USING {s} AS sr ON {on} "
             "WHEN MATCHED THEN UPDATE SET {col} = sr.{val} "
             "WHEN NOT MATCHED THEN INSERT ({ins}) VALUES ({vals})",
}


def _keyed_sql(stmt, t, s, keys, col, val, cols):
    """One keyed write of source column ``val`` into target column ``col``
    keyed on ``keys``; ``cols`` are the target columns with ``col`` taken
    from ``val``."""
    srcs = [val if c == col else c for c in cols]
    return KEYED_STMTS[stmt].format(
        t=t, s=s, keys=", ".join(keys), col=col, val=val,
        cols=", ".join(val + " AS " + col if c == col else c for c in cols),
        on=" AND ".join(f"tg.{k} = sr.{k}" for k in keys),
        ins=", ".join(cols), vals=", ".join(f"sr.{c}" for c in srcs))


def _sorted_rows(path, cols):
    rows = pq.read_table(path).select(cols).to_pylist()
    return sorted((tuple(r[c] for c in cols) for r in rows),
                  key=lambda r: [(v is None, v if v is not None else 0)
                                 for v in r])


@pytest.mark.usefixtures("ray_session")
class TestKeyedWritePins:
    """Behaviour every keyed file write keeps on both paths: NULL key
    equals NULL key and (1, NULL) differs from (2, NULL); int64 values at
    and above 2^53 with NULLs keep type and value; a source may add a
    column or narrow an int type; an empty source still runs NOT MATCHED
    BY SOURCE; an emptied file keeps its evolved types."""

    @pytest.fixture(params=["driver", "forced"])
    def path_mode(self, request, monkeypatch):
        import qwery_ray.cdc.merge_stmt as ms
        import qwery_ray.cdc.upsert as up

        if request.param == "forced":
            monkeypatch.setattr(ms, "MERGE_DISTRIBUTED_BYTES", 0)
            monkeypatch.setattr(up, "SOURCE_PREREDUCE_BYTES", 0)
        return request.param

    @pytest.mark.parametrize("keys", [["a"], ["a", "b"]],
                             ids=["single", "composite"])
    @pytest.mark.parametrize("stmt", ["upsert", "update", "merge"])
    def test_null_keys(self, tmp_path, path_mode, stmt, keys):
        t = str(tmp_path / "t.parquet")
        pq.write_table(pa.table({
            "a": pa.array([1, 2, None, 3], pa.int64()),
            "b": pa.array([None, None, None, 7], pa.int64()),
            "v": pa.array([10, 20, 30, 40], pa.int64())}), t)
        pq.write_table(pa.table({
            "a": pa.array([1, None, 4], pa.int64()),
            "b": pa.array([None, None, None], pa.int64()),
            "nv": pa.array([91, 93, 94], pa.int64())}),
            str(tmp_path / "s.parquet"))
        res = _engine(tmp_path).sql(_keyed_sql(
            stmt, t, "s", keys, "v", "nv", ["a", "b", "v"])).to_pylist()[0]
        assert res["ROWS_UPDATED"] == 2
        kept = [(1, None, 91), (2, None, 20), (3, 7, 40)]
        if stmt == "update":
            want = kept + [(None, None, 93)]
        else:
            assert res["ROWS_INSERTED"] == 1
            want = kept + [(4, None, 94), (None, None, 93)]
        assert _sorted_rows(t, ["a", "b", "v"]) == want

    @pytest.mark.parametrize("stmt", ["upsert", "update", "merge"])
    def test_int64_above_2_53_with_nulls(self, tmp_path, path_mode, stmt):
        t = str(tmp_path / "t.parquet")
        pq.write_table(pa.table({
            "k": pa.array([1, 2, 3], pa.int64()),
            "big": pa.array([2**53 + 1, None, 2**62 + 3], pa.int64()),
            "v": pa.array([1, 2, 3], pa.int64())}), t)
        pq.write_table(pa.table({
            "k": pa.array([2, 4], pa.int64()),
            "nbig": pa.array([2**60 + 7, None], pa.int64()),
            "v": pa.array([20, 40], pa.int64())}),
            str(tmp_path / "s.parquet"))
        _engine(tmp_path).sql(_keyed_sql(
            stmt, t, "s", ["k"], "big", "nbig", ["k", "big", "v"]))
        back = pq.read_table(t)
        assert back.schema.field("big").type == pa.int64()
        got = dict(zip(back.column("k").to_pylist(),
                       back.column("big").to_pylist()))
        want = {1: 2**53 + 1, 2: 2**60 + 7, 3: 2**62 + 3}
        if stmt != "update":
            want[4] = None
        assert got == want

    @pytest.mark.parametrize("stmt", ["upsert", "update", "merge"])
    def test_source_adds_column_and_narrows_int(self, tmp_path, path_mode,
                                                stmt):
        t = str(tmp_path / "t.parquet")
        pq.write_table(pa.table({
            "k": pa.array([1, 2, 3], pa.int64()),
            "v": pa.array([10, 20, 30], pa.int64())}), t)
        pq.write_table(pa.table({
            "k": pa.array([2, 4], pa.int32()),
            "nv": pa.array([200, 400], pa.int32()),
            "x": pa.array(["p", "q"])}), str(tmp_path / "s.parquet"))
        cols = ["k", "v", "x"] if stmt == "upsert" else ["k", "v"]
        _engine(tmp_path).sql(_keyed_sql(
            stmt, t, "s", ["k"], "v", "nv", cols))
        back = pq.read_table(t)
        assert back.schema.field("k").type == pa.int64()
        assert back.schema.field("v").type == pa.int64()
        want = [(1, 10), (2, 200), (3, 30)]
        if stmt != "update":
            want.append((4, 400))
        assert _sorted_rows(t, ["k", "v"]) == want
        if stmt == "upsert":
            assert back.column_names == ["k", "v", "x"]
            assert _sorted_rows(t, ["k", "x"]) == \
                [(1, None), (2, "p"), (3, None), (4, "q")]
        else:
            assert back.column_names == ["k", "v"]

    def test_empty_source_not_matched_by_source(self, workdir, path_mode):
        res = _engine(workdir).sql("""
            MERGE INTO inv AS t
            USING (SELECT * FROM delta WHERE qty > 99999) AS s
            ON t.id = s.id
            WHEN MATCHED THEN UPDATE SET qty = s.qty
            WHEN NOT MATCHED BY SOURCE AND t.qty > 40 THEN DELETE
            WHEN NOT MATCHED BY SOURCE AND t.qty >= 30
                THEN UPDATE SET status = 'stale'
        """).to_pylist()[0]
        assert (res["ROWS_INSERTED"], res["ROWS_UPDATED"],
                res["ROWS_DELETED"]) == (0, 2, 1)
        assert _sorted_rows(str(workdir / "inv.parquet"),
                            ["id", "qty", "status"]) == \
            [(1, 10, "old"), (2, 20, "old"), (3, 30, "stale"),
             (4, 40, "stale")]

    @pytest.mark.parametrize("stmt", ["upsert", "merge"])
    def test_delete_all_then_insert(self, tmp_path, path_mode, stmt):
        p = str(tmp_path / "t.parquet")
        pq.write_table(pa.table({
            "k": pa.array([1, 2], pa.int64()),
            "v": pa.array([10, 20], pa.int64()),
            "x1": pa.array([None, None], pa.int64())}), p)
        eng = _engine(tmp_path)
        eng.sql(f"DELETE FROM '{p}'")
        assert pq.read_table(p).num_rows == 0
        src = "(SELECT * FROM (VALUES (5, 50)) s(k, nv))"
        if stmt == "upsert":
            eng.sql(f"UPSERT INTO '{p}' SELECT k, nv AS v FROM {src} "
                    f"KEYED ON k")
        else:
            eng.sql(f"MERGE INTO '{p}' AS tg USING {src} AS sr "
                    f"ON tg.k = sr.k WHEN NOT MATCHED THEN "
                    f"INSERT (k, v) VALUES (sr.k, sr.nv)")
        sch = pq.read_schema(p)
        assert [(f.name, f.type) for f in sch] == \
            [("k", pa.int64()), ("v", pa.int64()), ("x1", pa.int64())]
        assert pq.read_table(p).to_pylist() == \
            [{"k": 5, "v": 50, "x1": None}]
