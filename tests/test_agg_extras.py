"""ARG_MAX/ARG_MIN, BOOL_*/BIT_* reducers, ANY_VALUE, MODE and
SKEWNESS/KURTOSIS[_POP] aggregates vs DuckDB.

Superset of the reference's aggregate surface (core/expressions/aggregates):
each family rides the same PreAgg-combiner → mergeable-partials
architecture (arg-extrema carry an (av, ak) pair, bitwise reducers merge
exact int64 partials, higher moments extend the raw-moment vector with
Σx³/Σx⁴), so the groupby shuffle still moves one partial row per group per
batch. Edge semantics (NULL handling, n<3 / n<4, zero variance) probed
against and matched to DuckDB.
"""

import math

import numpy as np
import pytest

from conftest import assert_frames_match, to_pandas


def run_both(engine, duck, sql, sort_by=None, rtol=None):
    mine = to_pandas(engine.sql(sql))
    oracle = duck.execute(sql).fetch_df()
    if rtol is None:
        assert_frames_match(mine, oracle, sort_by=sort_by)
        return
    mine = mine.sort_values(sort_by, ignore_index=True)
    oracle = oracle.sort_values(sort_by, ignore_index=True)
    assert list(mine.columns) == list(oracle.columns)
    for c in mine.columns:
        a, e = mine[c], oracle[c]
        if a.dtype.kind == "f" or e.dtype.kind == "f":
            assert np.allclose(a.astype(float), e.astype(float),
                               rtol=rtol, equal_nan=True), c
        else:
            assert (a.astype(str) == e.astype(str)).all(), c


class TestArgExtremum:
    def test_grouped_all_four(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus, "
                 "ARG_MAX(o_orderpriority, o_totalprice) AS am, "
                 "ARG_MIN(o_orderkey, o_totalprice) AS an, "
                 "MAX_BY(o_custkey, o_orderkey) AS mb, "
                 "MIN_BY(o_custkey, o_orderkey) AS nb "
                 "FROM orders GROUP BY o_orderstatus",
                 sort_by=["o_orderstatus"])

    def test_string_key(self, engine, duck):
        # keys sort lexicographically; ties impossible (unique o_orderkey
        # appended to the key expression)
        run_both(engine, duck,
                 "SELECT o_orderstatus, "
                 "ARG_MAX(o_totalprice, o_orderpriority || '-' || "
                 "CAST(o_orderkey AS VARCHAR)) AS am "
                 "FROM orders GROUP BY o_orderstatus",
                 sort_by=["o_orderstatus"])

    def test_null_pairs_ignored(self, engine, duck):
        # rows where EITHER argument is NULL are skipped (DuckDB probed:
        # the max key 5 has a NULL arg, so 'z' at key 3 wins)
        run_both(engine, duck,
                 "SELECT g, ARG_MAX(a, k) AS am, ARG_MIN(a, k) AS an "
                 "FROM (VALUES ('g1', 'x', 1), ('g1', 'y', NULL), "
                 "('g1', NULL, 5), ('g1', 'z', 3), ('g2', NULL, 9)"
                 ") t(g, a, k) GROUP BY g", sort_by=["g"])

    def test_global(self, engine, duck):
        run_both(engine, duck,
                 "SELECT ARG_MAX(o_orderkey, o_totalprice) AS am, "
                 "ARG_MIN(o_orderkey, o_totalprice) AS an FROM orders")

    def test_distinct(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus, "
                 "ARG_MAX(DISTINCT o_orderpriority, o_totalprice) AS am "
                 "FROM orders GROUP BY o_orderstatus",
                 sort_by=["o_orderstatus"])


class TestBoolBitAggregates:
    def test_grouped(self, engine, duck):
        # condition arguments exercise the parse_cond function-arg grammar
        run_both(engine, duck,
                 "SELECT p_brand, BOOL_AND(p_size > 2) AS ba, "
                 "BOOL_OR(p_size > 45) AS bo, BIT_AND(p_size) AS bnd, "
                 "BIT_OR(p_size) AS br, BIT_XOR(p_size) AS bx "
                 "FROM part GROUP BY p_brand", sort_by=["p_brand"])

    def test_nulls_ignored_allnull_group(self, engine, duck):
        run_both(engine, duck,
                 "SELECT g, BOOL_AND(b) AS ba, BOOL_OR(b) AS bo, "
                 "BIT_AND(x) AS bd FROM (VALUES "
                 "('g1', true, 12), ('g1', NULL, NULL), ('g1', false, 10), "
                 "('g2', NULL, NULL)) t(g, b, x) GROUP BY g", sort_by=["g"])

    def test_int64_exact_beyond_2_53(self, engine, duck):
        # float64 round-trips would corrupt these; partials stay int64
        run_both(engine, duck,
                 "SELECT BIT_AND(x) AS ba, BIT_OR(x) AS bo, BIT_XOR(x) AS bx "
                 "FROM (VALUES (4611686018427387904), "
                 "(6917529027641081855), (9223372036854775807)) t(x)")

    def test_distinct_bit_xor(self, engine, duck):
        # XOR is sensitive to duplicate elimination → good DISTINCT probe
        run_both(engine, duck,
                 "SELECT o_orderstatus, BIT_XOR(DISTINCT o_custkey) AS bx "
                 "FROM orders GROUP BY o_orderstatus",
                 sort_by=["o_orderstatus"])


class TestAnyValueMode:
    def test_any_value_constant_per_group(self, engine, duck):
        # deterministic only when all values in the group agree
        run_both(engine, duck,
                 "SELECT l_returnflag, ANY_VALUE(l_returnflag) AS av "
                 "FROM lineitem GROUP BY l_returnflag",
                 sort_by=["l_returnflag"])

    def test_any_value_skips_nulls(self, engine, duck):
        run_both(engine, duck,
                 "SELECT g, ANY_VALUE(x) AS av FROM (VALUES "
                 "('g1', NULL), ('g1', 7), ('g2', NULL)) t(g, x) GROUP BY g",
                 sort_by=["g"])

    def test_mode(self, engine, duck):
        # unique modal value per group (no ties → engine-independent)
        run_both(engine, duck,
                 "SELECT g, MODE(x) AS md FROM (VALUES "
                 "('g1', 3), ('g1', 1), ('g1', 3), ('g2', 9), ('g2', 9), "
                 "('g2', 4), ('g3', NULL)) t(g, x) GROUP BY g",
                 sort_by=["g"])


class TestHigherMoments:
    def test_grouped_vs_duckdb(self, engine, duck):
        run_both(engine, duck,
                 "SELECT l_returnflag, SKEWNESS(l_extendedprice) AS sk, "
                 "KURTOSIS(l_extendedprice) AS ku, "
                 "KURTOSIS_POP(l_extendedprice) AS kp "
                 "FROM lineitem GROUP BY l_returnflag",
                 sort_by=["l_returnflag"], rtol=1e-6)

    def test_small_n_and_zero_variance(self, engine, duck):
        # n<3 → SKEWNESS NULL; n<4 → KURTOSIS NULL; zero variance → NULL
        run_both(engine, duck,
                 "SELECT g, SKEWNESS(v) AS sk, KURTOSIS(v) AS ku, "
                 "KURTOSIS_POP(v) AS kp FROM (VALUES "
                 "('n1', 3.0), ('n2a', 1.0), ('n2b', 1.0), "
                 "('n3a', 1.0), ('n3b', 2.0), ('n3c', 4.0), "
                 "('c', 5.0), ('c', 5.0), ('c', 5.0), ('c', 5.0), "
                 "('n4', 1.0), ('n4', 2.0), ('n4', 4.0), ('n4', 9.0)"
                 ") t(g, v) GROUP BY g", sort_by=["g"], rtol=1e-9)

    def test_merge_independence_multiblock(self, engine, duck):
        run_both(engine, duck,
                 "SELECT l_returnflag, l_linestatus, "
                 "SKEWNESS(l_quantity) AS sk, KURTOSIS(l_quantity) AS ku "
                 "FROM lineitem GROUP BY l_returnflag, l_linestatus",
                 sort_by=["l_returnflag", "l_linestatus"], rtol=1e-9)


class TestConditionArgs:
    def test_count_condition_arg(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus, "
                 "SUM(CASE WHEN o_totalprice > 100000 THEN 1 ELSE 0 END) "
                 "AS big, BOOL_OR(o_totalprice > 400000 AND o_custkey > 0) "
                 "AS any_big FROM orders GROUP BY o_orderstatus",
                 sort_by=["o_orderstatus"])


class TestAggAliasesProductEntropy:
    """LIST/LIST_AGG/LISTAGG/GROUP_CONCAT aliases, PRODUCT, ENTROPY,
    BETWEEN SYMMETRIC, BIT_COUNT, and alias-visible QUALIFY windows."""

    def _cmp(self, engine, duck, sql, oracle_sql=None, rtol=0.0):
        import pandas as pd
        mine = engine.sql(sql).to_pandas()
        orc = duck.execute(oracle_sql or sql).fetch_df()
        cols = sorted(mine.columns)
        pd.testing.assert_frame_equal(
            mine.reindex(cols, axis=1).sort_values(cols, ignore_index=True),
            orc.reindex(cols, axis=1).sort_values(cols, ignore_index=True),
            check_dtype=False, rtol=rtol)

    def test_string_agg_aliases(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT GROUP_CONCAT(o_orderstatus) AS g FROM orders "
                  "WHERE o_orderkey < 50",
                  "SELECT STRING_AGG(o_orderstatus, ',') AS g FROM orders "
                  "WHERE o_orderkey < 50")
        self._cmp(engine, duck,
                  "SELECT LISTAGG(o_orderstatus, '|') AS g FROM orders "
                  "WHERE o_orderkey < 50",
                  "SELECT STRING_AGG(o_orderstatus, '|') AS g FROM orders "
                  "WHERE o_orderkey < 50")

    def test_product_entropy(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT PRODUCT(x) AS p FROM (VALUES (2.0),(3.0),(4.0),"
                  "(NULL)) v(x)")
        # entropy: float-sum order differs per engine → last-ulp tolerance
        self._cmp(engine, duck,
                  "SELECT o_orderstatus, ENTROPY(o_orderpriority) AS e "
                  "FROM orders GROUP BY 1 ORDER BY 1", rtol=1e-12)

    def test_between_symmetric(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT COUNT(*) AS n FROM orders WHERE o_orderkey "
                  "BETWEEN SYMMETRIC 100 AND 7",
                  "SELECT COUNT(*) AS n FROM orders WHERE o_orderkey "
                  "BETWEEN 7 AND 100")
        self._cmp(engine, duck,
                  "SELECT COUNT(*) AS n FROM orders WHERE o_orderkey "
                  "NOT BETWEEN SYMMETRIC 100 AND 7",
                  "SELECT COUNT(*) AS n FROM orders WHERE o_orderkey "
                  "NOT BETWEEN 7 AND 100")

    def test_bit_count(self, engine, duck):
        # literals are BIGINT in this engine: bit_count(-1) = 64
        self._cmp(engine, duck,
                  "SELECT BIT_COUNT(7) AS a, BIT_COUNT(255) AS b, "
                  "BIT_COUNT(-1) AS c, BIT_COUNT(NULL) AS d",
                  "SELECT bit_count(7) AS a, bit_count(255) AS b, "
                  "bit_count(-1::BIGINT) AS c, "
                  "bit_count(NULL::BIGINT) AS d")

    def test_qualify_sees_select_aliases(self, engine, duck):
        # alias of an AGGREGATE used inside the QUALIFY window's ORDER BY
        # rtol: the engine's exactly-rounded sum vs DuckDB's drifting one
        self._cmp(engine, duck,
                  "SELECT o_orderstatus, SUM(o_totalprice) AS s "
                  "FROM orders GROUP BY o_orderstatus "
                  "QUALIFY ROW_NUMBER() OVER (ORDER BY s DESC) = 1",
                  rtol=1e-9)
        # alias of a scalar EXPRESSION in a select-item window
        self._cmp(engine, duck,
                  "SELECT o_orderkey, o_totalprice * 2 AS dbl, "
                  "ROW_NUMBER() OVER (ORDER BY dbl DESC) AS r "
                  "FROM orders QUALIFY r <= 3")

    def test_array_agg_rides_through_qualify_window(self, engine, duck):
        # regression: list-typed agg outputs crossing the pandas window
        # stage must convert back to Arrow ListArrays (Ray's tensor
        # extension cannot encode unicode ndarray cells)
        r = engine.sql(
            "SELECT o_orderstatus, ARRAY_AGG(o_orderpriority) AS a "
            "FROM orders WHERE o_orderkey < 20 GROUP BY 1 "
            "QUALIFY ROW_NUMBER() OVER (ORDER BY o_orderstatus) = 1"
        ).to_pandas()
        o = duck.execute(
            "SELECT o_orderstatus, ARRAY_AGG(o_orderpriority) AS a "
            "FROM orders WHERE o_orderkey < 20 GROUP BY 1 "
            "QUALIFY ROW_NUMBER() OVER (ORDER BY o_orderstatus) = 1"
        ).fetch_df()
        assert list(r.o_orderstatus) == list(o.o_orderstatus)
        assert sorted(list(r.a.iloc[0])) == sorted(list(o.a.iloc[0]))


# k: int key with a NULL-key group and an all-NULL-argument group (k = 2);
# o: a unique in-aggregate ORDER BY column, not in row order
_EXACT_DATA = (
    "(VALUES (1, 4, 1.5, 'a', 7), (1, 2, 2.5, 'b', 3), (1, 4, 1.5, 'a', 5), "
    "(1, NULL, NULL, NULL, 12), (2, NULL, NULL, NULL, 1), "
    "(2, NULL, NULL, NULL, 14), (NULL, 7, 0.5, 'c', 2), "
    "(NULL, 3, 4.0, 'd', 9), (NULL, 7, 0.5, 'c', 4), (3, 5, 2.0, 'e', 11), "
    "(3, 1, 8.0, 'f', 6), (3, 9, 0.25, 'e', 13), (3, 5, 2.0, 'g', 8), "
    "(3, 5, -1.0, 'e', 10)) t(k, v, x, s, o)")

# every HOLISTIC_AGG_NAMES kind, DISTINCT variants of algebraic kinds
# (these reuse the PreAgg/CombinePartials partials inside a bucket), and
# in-aggregate ORDER BY in both directions
_EXACT_AGGS = [
    "MEDIAN(v)",
    "QUANTILE_CONT(x, 0.25)",
    "QUANTILE_DISC(v, 0.5)",
    "PERCENTILE_CONT(0.75) WITHIN GROUP (ORDER BY x)",
    "PERCENTILE_DISC(0.25) WITHIN GROUP (ORDER BY v)",
    "MODE(v)",
    "PRODUCT(x)",
    "ENTROPY(s)",
    "STRING_AGG(s, '|' ORDER BY o)",
    "ARRAY_AGG(v ORDER BY o DESC)",
    "ARRAY_AGG(DISTINCT v ORDER BY v)",
    "COUNT(DISTINCT v)",
    "SUM(DISTINCT v)",
    "AVG(DISTINCT x)",
    "BIT_XOR(DISTINCT v)",
    "ARG_MAX(DISTINCT s, v)",
    "COVAR_POP(DISTINCT x, v)",
]


def _norm_cell(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return tuple(_norm_cell(e) for e in v)
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return None
    if isinstance(v, (int, float, np.integer, np.floating)) \
            and not isinstance(v, bool):
        return float(v)
    return v


def _close(a, b):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def _assert_rows_match(engine, duck, sql):
    """Same rows in any order (the first column orders them: a unique
    group key, or a global aggregate's single row)."""
    def norm(rows):
        rows = [tuple(_norm_cell(c) for c in r) for r in rows]
        return sorted(rows, key=lambda r: (r[0] is None, str(r[0])))

    mine = norm(to_pandas(engine.sql(sql)).itertuples(index=False))
    oracle = norm(duck.execute(sql).fetchall())
    assert len(mine) == len(oracle) and all(map(_close, mine, oracle)), \
        (sql, mine, oracle)


class TestExactAggregatesBothRoutes:
    """The exact (ExactAgg) route, vs DuckDB: keyed and global, once with
    the single-task finish and once through the bucket shuffle."""

    @pytest.mark.parametrize("shuffle", [False, True],
                             ids=["one_task", "bucket_shuffle"])
    @pytest.mark.parametrize("agg", _EXACT_AGGS)
    def test_matches_duckdb(self, engine, duck, monkeypatch, agg, shuffle):
        from qwery_ray.sqlc.compiler import Compiler

        if shuffle:
            monkeypatch.setattr(Compiler, "SMALL_PARTIALS_LIMIT", 0)
        for sql in (f"SELECT k, {agg} AS a FROM {_EXACT_DATA} GROUP BY k",
                    f"SELECT {agg} AS a FROM {_EXACT_DATA}"):
            _assert_rows_match(engine, duck, sql)

    def test_global_over_empty_input_is_one_row(self, engine, duck):
        # DuckDB: a global aggregate yields one row even over no rows
        for sel in ("MEDIAN(v) AS a, COUNT(DISTINCT v) AS b",
                    "SUM(DISTINCT v) AS a", "COUNT(*) AS a, MEDIAN(v) AS b",
                    "ENTROPY(s) AS a, STRING_AGG(s, ',') AS b"):
            _assert_rows_match(
                engine, duck, f"SELECT {sel} FROM {_EXACT_DATA} WHERE v < 0")

    def test_array_agg_keeps_nulls(self, engine, duck):
        # ANSI/DuckDB: ARRAY_AGG collects NULL elements (an all-NULL group
        # is [NULL, NULL], not []); STRING_AGG skips them
        for sql in (f"SELECT k, ARRAY_AGG(v ORDER BY o) AS a, "
                    f"STRING_AGG(s, ',' ORDER BY o) AS b "
                    f"FROM {_EXACT_DATA} GROUP BY k",
                    f"SELECT ARRAY_AGG(v) AS a FROM {_EXACT_DATA} "
                    f"WHERE k = 2"):
            _assert_rows_match(engine, duck, sql)

    def test_order_by_nulls_first(self, engine, duck):
        # an in-aggregate ORDER BY ... NULLS FIRST puts the NULL sort keys
        # first, in either direction (the default is NULLS LAST)
        data = ("(VALUES (1, 'a', 1), (1, 'b', NULL), (1, 'c', 2), "
                "(2, 'd', NULL), (2, 'e', 5)) t(k, s, o)")
        for ob in ("o NULLS FIRST", "o DESC NULLS FIRST", "o DESC",
                   "o NULLS LAST"):
            _assert_rows_match(
                engine, duck,
                f"SELECT k, STRING_AGG(s, ',' ORDER BY {ob}) AS a, "
                f"ARRAY_AGG(s ORDER BY {ob}) AS b FROM {data} GROUP BY k")

    def test_group_ids_of_dictionary_keys(self):
        # a dictionary-typed key (e.g. a parquet column written from a
        # pandas Categorical) groups by value, NULL included
        import pyarrow as pa

        from qwery_ray.sqlc.compiler import _dense_group_ids

        keys = pa.array(["a", None, "b", "a", None]).dictionary_encode()
        gid, first = _dense_group_ids(
            pa.table({"k": keys, "j": [1, 1, 1, 1, 2]}), ["k"])
        assert gid.tolist() == [0, 1, 2, 0, 1]
        assert first.tolist() == [0, 1, 2]
        gid, first = _dense_group_ids(
            pa.table({"k": keys, "j": [1, 1, 1, 1, 2]}), ["k", "j"])
        assert gid.tolist() == [0, 1, 2, 0, 3]
        assert first.tolist() == [0, 1, 2, 4]
