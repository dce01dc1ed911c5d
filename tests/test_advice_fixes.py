"""Regression tests for the round-1 advisor findings (ADVICE.md):

1. outer joins with non-equi ON residuals must keep unmatched rows
2. QUALIFY must survive positional GROUP BY/ORDER BY resolution
3. EXCEPT/INTERSECT treat NULLs as not-distinct (ANSI), and NaNs too
4. cumulative window aggregates use the ANSI default RANGE frame (peers
   tied on the order key share a value)
5. ORDER BY on a nullable column must not crash Ray's sort partitioner
"""

import math
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import assert_frames_match


@pytest.fixture(scope="module")
def nullable_tables(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("advice"))
    pq.write_table(pa.table({"k": [1, 2, 3, None], "a": ["x", "y", "z", "w"]}),
                   os.path.join(d, "t.parquet"))
    pq.write_table(pa.table({"k": [1, 1, 2, None], "v": [5, 9, 7, 9]}),
                   os.path.join(d, "u.parquet"))
    pq.write_table(
        pa.table({"g": ["a", "b", None, "a", None, "c"],
                  "x": [1, 2, 3, 1, 2, 5],
                  "n": [10, 20, 30, 40, 50, 60]}),
        os.path.join(d, "w.parquet"))
    # set-op arms: mixed-type keys with NULLs, NaNs and duplicates on both
    # sides; (NaN, 'y') twice on the left, once on the right
    nan = float("nan")
    pq.write_table(pa.table({
        "a": pa.array([1, 1, 1, 2, 2, None, None, None, 3, 4], pa.int64()),
        "s": ["x", "x", "x", "y", "y", None, None, "z", None, "w"],
        "f": [1.5, 1.5, nan, nan, nan, None, None, 2.5, nan, 0.0]}),
        os.path.join(d, "l.parquet"))
    pq.write_table(pa.table({
        "a": pa.array([1, 2, None, None, None, 3, 5], pa.int64()),
        "s": ["x", "y", None, None, None, None, "v"],
        "f": [1.5, nan, None, None, None, nan, 7.0]}),
        os.path.join(d, "r.parquet"))
    return d


@pytest.fixture(scope="module")
def eng(nullable_tables):
    from qwery_ray import QweryEngine

    return QweryEngine(table_root=nullable_tables)


def duck_on(d):
    con = duckdb.connect()
    for name in ("t", "u", "w", "l", "r"):
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                    f"read_parquet('{os.path.join(d, name)}.parquet')")
    return con


class TestOuterJoinResidual:
    def test_left_join_residual_keeps_unmatched(self, eng, nullable_tables):
        sql = "SELECT * FROM t LEFT JOIN u ON t.k = u.k AND u.v > 8"
        mine = eng.sql(sql).to_pandas()
        oracle = duck_on(nullable_tables).execute(
            "SELECT t.k, t.a, u.v FROM t LEFT JOIN u "
            "ON t.k = u.k AND u.v > 8").df()
        assert_frames_match(mine, oracle)

    def test_right_join_residual_keeps_unmatched(self, eng, nullable_tables):
        sql = "SELECT * FROM t RIGHT JOIN u ON t.k = u.k AND u.v > 8"
        mine = eng.sql(sql).to_pandas()
        # engine key model: single coalesced key column named after the left
        oracle = duck_on(nullable_tables).execute(
            "SELECT u.k, t.a, u.v FROM t RIGHT JOIN u "
            "ON t.k = u.k AND u.v > 8").df()
        assert_frames_match(mine, oracle)

    def test_full_join_residual_keeps_both_sides(self, eng, nullable_tables):
        sql = "SELECT * FROM t FULL JOIN u ON t.k = u.k AND u.v > 8"
        mine = eng.sql(sql).to_pandas()
        oracle = duck_on(nullable_tables).execute(
            "SELECT COALESCE(t.k, u.k) AS k, t.a, u.v FROM t FULL JOIN u "
            "ON t.k = u.k AND u.v > 8").df()
        assert_frames_match(mine, oracle)


class TestQualifyPositional:
    def test_qualify_survives_positional_refs(self, eng, nullable_tables):
        sql = ("SELECT a, ROW_NUMBER() OVER (PARTITION BY k ORDER BY a) AS rn "
               "FROM t QUALIFY rn = 1 ORDER BY 1")
        mine = eng.sql(sql).to_pandas()
        oracle = duck_on(nullable_tables).execute(sql).df()
        assert_frames_match(mine, oracle)


SET_OPS = ["EXCEPT", "INTERSECT", "EXCEPT ALL", "INTERSECT ALL"]


def _rows(result):
    """Sorted rows of a Ray Dataset or a DuckDB cursor, each value tagged
    (0 NULL, 1 NaN, 2 value) so that NULL and NaN stay apart."""
    import ray

    if hasattr(result, "fetchall"):
        rows = result.fetchall()
    else:
        rows = [tuple(r.values()) for t in ray.get(result.to_arrow_refs())
                for r in t.to_pylist()]

    def tag(v):
        if v is None:
            return (0, "")
        if isinstance(v, float) and math.isnan(v):
            return (1, "nan")
        return (2, v)

    return sorted(tuple(tag(v) for v in r) for r in rows)


class TestSetOpNulls:
    def test_intersect_keeps_null_rows(self, eng, nullable_tables):
        sql = "SELECT k FROM t INTERSECT SELECT k FROM t"
        mine = eng.sql(sql).to_pandas()
        oracle = duck_on(nullable_tables).execute(sql).df()
        assert_frames_match(mine, oracle)  # includes the NULL row

    def test_except_identical_inputs_is_empty(self, eng, nullable_tables):
        sql = "SELECT k FROM t EXCEPT SELECT k FROM t"
        mine = eng.sql(sql).to_pandas()
        assert len(mine) == 0

    def test_except_null_matches_null(self, eng, nullable_tables):
        sql = "SELECT k FROM t EXCEPT SELECT k FROM u"
        mine = eng.sql(sql).to_pandas()
        oracle = duck_on(nullable_tables).execute(sql).df()
        assert_frames_match(mine, oracle)  # {3}: NULL ∈ u removes NULL row

    @pytest.mark.parametrize("op", ["INTERSECT ALL", "EXCEPT ALL"])
    def test_all_keeps_nan_rows(self, eng, nullable_tables, op):
        # NaN keys group together, as in DuckDB: (NaN, 'y') is kept once
        sql = f"SELECT f, s FROM l {op} SELECT f, s FROM r"
        mine = _rows(eng.sql(sql))
        assert mine == _rows(duck_on(nullable_tables).execute(sql))
        assert ((1, "nan"), (2, "y")) in mine

    @pytest.mark.parametrize("op", SET_OPS)
    def test_plan_has_no_join(self, eng, monkeypatch, op):
        import ray.data as rd

        joins = []
        join = rd.Dataset.join

        def spy(self, *a, **kw):
            joins.append(kw.get("join_type"))
            return join(self, *a, **kw)

        monkeypatch.setattr(rd.Dataset, "join", spy)
        ds = eng.sql(f"SELECT a, s, f FROM l {op} SELECT a, s, f FROM r")
        ds.materialize()
        assert joins == [] and "Join" not in ds.stats()

    @pytest.mark.parametrize("route", ["default", "bucket"])
    @pytest.mark.parametrize("op", SET_OPS + ["UNION DISTINCT", "DISTINCT"])
    def test_oracle_table(self, eng, nullable_tables, monkeypatch, route,
                          op):
        """Each op over 3-column mixed-type keys, with either side, both
        sides or neither side empty, on the one-task route and on the
        key-hash bucket route of the exchange."""
        from qwery_ray.sqlc.compiler import Compiler

        if route == "bucket":
            monkeypatch.setattr(Compiler, "SMALL_PARTIALS_LIMIT", 0)
        con = duck_on(nullable_tables)
        none = " WHERE a > 99"
        for lw, rw in (("", ""), (none, ""), ("", none), (none, none)):
            if op == "DISTINCT":
                sql = f"SELECT DISTINCT a, s, f FROM l{lw or rw}"
                typed = not (lw or rw)
            else:
                sql = f"SELECT a, s, f FROM l{lw} {op} SELECT a, s, f FROM r{rw}"
                typed = not (lw and rw)  # an arm with rows gives the types
            ds = eng.sql(sql)
            assert _rows(ds) == _rows(con.execute(sql)), sql
            assert ds.schema().names == ["a", "s", "f"], sql
            if typed:
                assert ds.schema().types == \
                    [pa.int64(), pa.string(), pa.float64()], sql


class TestWindowRangeFrame:
    def test_cumulative_sum_peers_share_value(self, eng, nullable_tables):
        sql = ("SELECT g, x, SUM(x) OVER (PARTITION BY g ORDER BY x) AS rt "
               "FROM w")
        mine = eng.sql(sql).to_pandas()
        oracle = duck_on(nullable_tables).execute(sql).df()
        assert_frames_match(mine, oracle, sort_by=["g", "x", "n"]
                            if "n" in mine.columns else None)

    def test_cumulative_count_peers(self, eng, nullable_tables):
        sql = ("SELECT n, COUNT(x) OVER (PARTITION BY g ORDER BY x) AS c "
               "FROM w")
        mine = eng.sql(sql).to_pandas()
        oracle = duck_on(nullable_tables).execute(sql).df()
        assert_frames_match(mine, oracle, sort_by=["n"])


class TestNullableSort:
    def test_order_by_nullable_string(self, eng, nullable_tables):
        mine = eng.sql("SELECT g, n FROM w ORDER BY g").to_pandas()
        # engine contract: NULLs last (DuckDB default null order)
        oracle = duck_on(nullable_tables).execute(
            "SELECT g, n FROM w ORDER BY g NULLS LAST").df()
        assert list(mine["g"].fillna("~")) == list(oracle["g"].fillna("~"))

    def test_order_by_nullable_desc_with_limit(self, eng, nullable_tables):
        mine = eng.sql(
            "SELECT g, n FROM w ORDER BY g DESC, n LIMIT 4").to_pandas()
        oracle = duck_on(nullable_tables).execute(
            "SELECT g, n FROM w ORDER BY g DESC NULLS LAST, n LIMIT 4").df()
        assert_frames_match(mine, oracle, sort_by=["g", "n"])
