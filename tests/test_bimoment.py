"""Two-argument (co)moment aggregates — COVAR/CORR/REGR_* — vs DuckDB.

Superset of the reference's single-argument aggregate surface
(core/expressions/aggregates): same PreAgg-partials → exact fsum merge
architecture extended to the shared (cnt, Σx, Σy, Σx², Σy², Σxy) partial
vector, so every function in the family merges order-independently at any
parallelism. Edge semantics (NULL-pair exclusion, n=1, zero-variance
groups) probed against and matched to DuckDB.
"""

import numpy as np
import pytest

from conftest import assert_frames_match, to_pandas

ALL_FUNCS = ("COVAR_POP", "COVAR_SAMP", "CORR",
             "REGR_SLOPE", "REGR_INTERCEPT", "REGR_R2", "REGR_COUNT",
             "REGR_AVGX", "REGR_AVGY", "REGR_SXX", "REGR_SYY", "REGR_SXY")


def _select_all(y, x):
    return ", ".join(f"{f}({y}, {x}) AS r_{f.lower()}" for f in ALL_FUNCS)


def run_both(engine, duck, sql, sort_by=None):
    mine = engine.sql(sql)
    oracle = duck.execute(sql).fetch_df()
    assert_frames_match(mine, oracle, sort_by=sort_by)


class TestBimomentAggregates:
    def test_grouped_all_twelve(self, engine, duck):
        run_both(engine, duck,
                 "SELECT l_returnflag, "
                 + _select_all("l_extendedprice", "l_quantity")
                 + " FROM lineitem GROUP BY l_returnflag",
                 sort_by=["l_returnflag"])

    def test_global_no_group(self, engine, duck):
        run_both(engine, duck,
                 "SELECT " + _select_all("o_totalprice", "o_custkey")
                 + " FROM orders")

    def test_expression_arguments(self, engine, duck):
        run_both(engine, duck,
                 "SELECT l_linestatus, "
                 "CORR(l_extendedprice * (1 - l_discount), l_quantity) AS c, "
                 "REGR_SLOPE(l_extendedprice + l_tax, l_quantity) AS s "
                 "FROM lineitem GROUP BY l_linestatus",
                 sort_by=["l_linestatus"])

    def test_null_pair_exclusion(self, engine, duck):
        # a row where EITHER argument is NULL is excluded from the pair set
        sql = ("SELECT g, COVAR_POP(y, x) AS cvp, CORR(y, x) AS c, "
               "REGR_COUNT(y, x) AS n FROM (VALUES "
               "('a', 1.0, 2.0), ('a', NULL, 3.0), ('a', 4.0, NULL), "
               "('a', 5.0, 6.0), ('b', NULL, 1.0), ('b', 2.0, NULL)"
               ") AS t(g, y, x) GROUP BY g")
        run_both(engine, duck, sql, sort_by=["g"])

    def test_edge_single_row_and_zero_variance(self, engine, duck):
        # n=1 → COVAR_POP 0, COVAR_SAMP/CORR/SLOPE NULL; const x → SLOPE/
        # R2/CORR NULL; const y, var(x)>0 → R2 = 1.0, CORR NULL
        sql = ("SELECT g, " + _select_all("y", "x") + " FROM (VALUES "
               "('one', 3.0, 7.0), "
               "('constx', 1.0, 5.0), ('constx', 2.0, 5.0), "
               "('consty', 4.0, 1.0), ('consty', 4.0, 9.0), "
               "('allnull', NULL, NULL), "
               "('norm', 1.0, 2.0), ('norm', 3.0, 5.0), ('norm', 2.0, 4.0)"
               ") AS t(g, y, x) GROUP BY g")
        run_both(engine, duck, sql, sort_by=["g"])

    def test_distinct_pairs(self, engine, duck):
        # DISTINCT dedups the (y, x) PAIR before aggregating (the exact
        # in-bucket ExactAgg route, not the cross-batch partials merge)
        sql = ("SELECT g, COVAR_POP(DISTINCT y, x) AS cvp, "
               "REGR_COUNT(DISTINCT y, x) AS n FROM (VALUES "
               "('a', 1.0, 2.0), ('a', 1.0, 2.0), ('a', 3.0, 4.0), "
               "('b', 5.0, 6.0), ('b', 5.0, 7.0)"
               ") AS t(g, y, x) GROUP BY g")
        run_both(engine, duck, sql, sort_by=["g"])

    def test_merge_order_independence(self, engine, duck):
        # many small blocks: repartitioned input must produce the identical
        # result (exact fsum partial merge) — compare vs single DuckDB pass
        sql = ("SELECT l_returnflag, l_linestatus, "
               "CORR(l_extendedprice, l_quantity) AS c, "
               "REGR_SXY(l_extendedprice, l_quantity) AS sxy "
               "FROM lineitem GROUP BY l_returnflag, l_linestatus")
        mine = to_pandas(engine.sql(sql)).sort_values(
            ["l_returnflag", "l_linestatus"]).reset_index(drop=True)
        oracle = duck.execute(sql).fetch_df().sort_values(
            ["l_returnflag", "l_linestatus"]).reset_index(drop=True)
        # rtol reflects raw-moment cancellation: our Σxy − ΣxΣy/n vs
        # DuckDB's online update agree to ~ eps·Σxy/result precision
        assert np.allclose(mine["c"], oracle["c"], rtol=1e-9)
        assert np.allclose(mine["sxy"], oracle["sxy"], rtol=1e-7)

    def test_having_on_bimoment(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus, CORR(o_totalprice, o_custkey) AS c "
                 "FROM orders GROUP BY o_orderstatus "
                 "HAVING REGR_COUNT(o_totalprice, o_custkey) > 10",
                 sort_by=["o_orderstatus"])
