"""SELECT / WHERE / expressions / aggregation parity vs DuckDB.

Re-expresses the reference's golden e2e suite (coretest/QweryTest.scala:17-273)
over the driver's synthetic tables, comparing order-insensitively against
DuckDB (FIXTURES.md §5: GROUP BY compared sorted by key, not hash order).
"""

import pytest

from conftest import SF_TINY, assert_frames_match, to_pandas


def run_both(engine, duck, my_sql, duck_sql=None, sort_by=None):
    mine = engine.sql(my_sql)
    oracle = duck.execute(duck_sql or my_sql).fetch_df()
    assert_frames_match(mine, oracle, sort_by=sort_by)


class TestLiteralSelect:
    def test_select_literal(self, engine):
        out = to_pandas(engine.sql("SELECT 1 + 2 AS total"))
        assert out["total"].tolist() == [3]

    def test_select_arith(self, engine):
        out = to_pandas(engine.sql(
            "SELECT 100 * 2 AS a, 10 - 4 AS b, 9 / 2 AS c, 2 ** 3 AS d"))
        assert out["a"].tolist() == [200]
        assert out["b"].tolist() == [6]
        assert out["c"].tolist() == [4.5]
        assert out["d"].tolist() == [8.0]

    def test_divide_by_zero_is_null(self, engine):
        # reference Divide.scala returns None on /0
        out = to_pandas(engine.sql("SELECT 1 / 0 AS x"))
        assert out["x"].isna().all()

    def test_concat_operator(self, engine):
        out = to_pandas(engine.sql("SELECT 'a' || 'b' AS ab"))
        assert out["ab"].tolist() == ["ab"]

    def test_case_when(self, engine):
        out = to_pandas(engine.sql(
            "SELECT CASE WHEN 1 > 2 THEN 'x' WHEN 2 > 1 THEN 'y' ELSE 'z' END AS r"))
        assert out["r"].tolist() == ["y"]

    def test_cast(self, engine):
        out = to_pandas(engine.sql("SELECT CAST('123' AS INT) AS n"))
        assert out["n"].tolist() == [123]


class TestScan:
    def test_filter_project(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderkey, o_totalprice FROM orders "
                 "WHERE o_totalprice > 200000")

    def test_select_star_limit(self, engine):
        out = to_pandas(engine.sql("SELECT * FROM region LIMIT 3"))
        assert len(out) == 3
        assert "r_name" in out.columns

    def test_top_n(self, engine):
        out = to_pandas(engine.sql("SELECT TOP 4 * FROM nation"))
        assert len(out) == 4

    def test_where_and_or(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderkey FROM orders WHERE "
                 "(o_orderstatus = 'F' AND o_totalprice < 50000) "
                 "OR o_orderpriority = '1-URGENT'")

    def test_like(self, engine, duck):
        run_both(engine, duck,
                 "SELECT n_name FROM nation WHERE n_name LIKE 'A%'")

    def test_in_between(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderkey, o_totalprice FROM orders "
                 "WHERE o_orderstatus IN ('F', 'P') "
                 "AND o_totalprice BETWEEN 100000 AND 150000")

    def test_is_null(self, engine, duck):
        run_both(engine, duck,
                 "SELECT count(*) AS n FROM orders WHERE o_custkey IS NOT NULL")

    def test_order_by_limit(self, engine, duck):
        # ORDER BY executes here (dead in reference Select.scala:19)
        mine = to_pandas(engine.sql(
            "SELECT o_orderkey, o_totalprice FROM orders "
            "ORDER BY o_totalprice DESC LIMIT 5"))
        oracle = duck.execute(
            "SELECT o_orderkey, o_totalprice FROM orders "
            "ORDER BY o_totalprice DESC LIMIT 5").fetch_df()
        assert mine["o_orderkey"].tolist() == oracle["o_orderkey"].tolist()

    def test_computed_column(self, engine, duck):
        run_both(engine, duck,
                 "SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS revenue "
                 "FROM lineitem WHERE l_quantity > 45")


class TestAggregation:
    def test_global_aggregates(self, engine, duck):
        run_both(engine, duck,
                 "SELECT COUNT(*) AS n, SUM(o_totalprice) AS total, "
                 "AVG(o_totalprice) AS mean, MIN(o_totalprice) AS lo, "
                 "MAX(o_totalprice) AS hi FROM orders")

    def test_group_by(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total "
                 "FROM orders GROUP BY o_orderstatus")

    def test_group_by_multi_key(self, engine, duck):
        # superset: reference uses only the first group field (Select.scala:75)
        run_both(engine, duck,
                 "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
                 "COUNT(*) AS n FROM lineitem GROUP BY l_returnflag, l_linestatus")

    def test_group_by_expression_args(self, engine, duck):
        run_both(engine, duck,
                 "SELECT l_returnflag, SUM(l_extendedprice * (1 - l_discount)) AS rev "
                 "FROM lineitem GROUP BY l_returnflag")

    def test_avg_min_max(self, engine, duck):
        run_both(engine, duck,
                 "SELECT c_mktsegment, AVG(c_acctbal) AS avg_bal, "
                 "MIN(c_acctbal) AS min_bal, MAX(c_acctbal) AS max_bal "
                 "FROM customer GROUP BY c_mktsegment")

    def test_having(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_custkey, COUNT(*) AS n FROM orders "
                 "GROUP BY o_custkey HAVING COUNT(*) > 12")

    def test_post_agg_expression(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus, SUM(o_totalprice) / COUNT(*) AS avg2 "
                 "FROM orders GROUP BY o_orderstatus")

    def test_count_distinct(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus, COUNT(DISTINCT o_custkey) AS nc "
                 "FROM orders GROUP BY o_orderstatus")

    def test_empty_aggregate(self, engine, duck):
        run_both(engine, duck,
                 "SELECT COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders "
                 "WHERE o_totalprice < 0")

    def test_order_by_aggregate(self, engine, duck):
        mine = to_pandas(engine.sql(
            "SELECT o_orderstatus, COUNT(*) AS n FROM orders "
            "GROUP BY o_orderstatus ORDER BY COUNT(*) DESC"))
        oracle = duck.execute(
            "SELECT o_orderstatus, COUNT(*) AS n FROM orders "
            "GROUP BY o_orderstatus ORDER BY COUNT(*) DESC").fetch_df()
        # tie-tolerant: sort order must be non-increasing and contents equal
        assert mine["n"].is_monotonic_decreasing
        assert_frames_match(mine, oracle)


class TestSetOps:
    def test_union_all(self, engine, duck):
        run_both(engine, duck,
                 "SELECT r_name AS name FROM region UNION ALL "
                 "SELECT n_name AS name FROM nation")

    def test_union_distinct(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus AS s FROM orders UNION DISTINCT "
                 "SELECT l_linestatus AS s FROM lineitem")

    def test_select_distinct(self, engine, duck):
        run_both(engine, duck,
                 "SELECT DISTINCT o_orderstatus, o_orderpriority FROM orders")


class TestSubquery:
    def test_from_subquery(self, engine, duck):
        run_both(engine, duck,
                 "SELECT s, n FROM (SELECT o_orderstatus AS s, COUNT(*) AS n "
                 "FROM orders GROUP BY o_orderstatus) WHERE n > 100",
                 "SELECT s, n FROM (SELECT o_orderstatus AS s, COUNT(*) AS n "
                 "FROM orders GROUP BY o_orderstatus) t WHERE n > 100")

    def test_scalar_subquery(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderkey FROM orders WHERE o_totalprice > "
                 "(SELECT AVG(o_totalprice) * 1.8 FROM orders)")


class TestPositionalRefs:
    def test_group_order_by_position(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus, COUNT(*) AS n FROM orders "
                 "GROUP BY 1 ORDER BY 2 DESC")

    def test_group_by_alias(self, engine, duck):
        run_both(engine, duck,
                 "SELECT UPPER(o_orderstatus) AS status, COUNT(*) AS n "
                 "FROM orders GROUP BY status",
                 "SELECT UPPER(o_orderstatus) AS status, COUNT(*) AS n "
                 "FROM orders GROUP BY UPPER(o_orderstatus)")

    def test_order_by_unprojected_column(self, engine, duck):
        mine = to_pandas(engine.sql(
            "SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 5"))
        oracle = duck.execute(
            "SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 5"
        ).fetch_df()
        assert mine["o_orderkey"].tolist() == oracle["o_orderkey"].tolist()
        assert list(mine.columns) == ["o_orderkey"]

    def test_union_positional_alignment(self, engine, duck):
        # ANSI UNION pairs columns by POSITION, not name
        run_both(engine, duck,
                 "SELECT r_regionkey AS a, r_name AS b FROM region UNION ALL "
                 "SELECT n_regionkey AS x, n_name AS y FROM nation",
                 "SELECT r_regionkey AS a, r_name AS b FROM region UNION ALL "
                 "SELECT n_regionkey, n_name FROM nation")

    def test_having_alias(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderstatus, COUNT(*) AS n FROM orders "
                 "GROUP BY o_orderstatus HAVING n > 400",
                 "SELECT o_orderstatus, COUNT(*) AS n FROM orders "
                 "GROUP BY o_orderstatus HAVING COUNT(*) > 400")


class TestSetOpsExceptIntersect:
    def test_except(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_custkey FROM orders EXCEPT "
                 "SELECT c_custkey FROM customer WHERE c_acctbal > 0")

    def test_intersect(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_custkey FROM orders INTERSECT "
                 "SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'")

    def test_except_multi_column(self, engine, duck):
        run_both(engine, duck,
                 "SELECT n_regionkey, n_nationkey FROM nation EXCEPT "
                 "SELECT n_regionkey, n_nationkey FROM nation WHERE n_nationkey < 10")

    def test_setop_as_from_source(self, engine, duck):
        run_both(engine, duck,
                 "SELECT COUNT(*) AS n FROM (SELECT o_custkey FROM orders "
                 "EXCEPT SELECT c_custkey FROM customer WHERE c_acctbal > 5000)",
                 "SELECT COUNT(*) AS n FROM (SELECT o_custkey FROM orders "
                 "EXCEPT SELECT c_custkey FROM customer WHERE c_acctbal > 5000) t")

    def test_union_as_from_source(self, engine, duck):
        run_both(engine, duck,
                 "SELECT COUNT(*) AS n FROM (SELECT r_name AS x FROM region "
                 "UNION ALL SELECT n_name AS x FROM nation)",
                 "SELECT COUNT(*) AS n FROM (SELECT r_name AS x FROM region "
                 "UNION ALL SELECT n_name AS x FROM nation) t")


class TestInSubquerySemiJoin:
    """IN (SELECT ...) key sets above the broadcast cap compile to a hash
    semi/anti join instead of inlining millions of literals."""

    def test_large_keyset_semi_join(self, ray_session, duck, monkeypatch):
        from qwery_ray import QweryEngine
        from qwery_ray.engine.session import QweryEngine as Sess

        monkeypatch.setattr(Sess, "IN_BROADCAST_LIMIT", 2)  # force join path
        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        sql = ("SELECT s_suppkey, s_name FROM supplier WHERE s_nationkey IN "
               "(SELECT n_nationkey FROM nation WHERE n_regionkey = 2)")
        mine = eng.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        assert sorted(mine["s_suppkey"]) == sorted(oracle["s_suppkey"])

    def test_large_keyset_not_in_anti_join(self, ray_session, duck,
                                           monkeypatch):
        from qwery_ray.engine.session import QweryEngine as Sess

        monkeypatch.setattr(Sess, "IN_BROADCAST_LIMIT", 2)
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        sql = ("SELECT s_suppkey FROM supplier WHERE s_nationkey NOT IN "
               "(SELECT n_nationkey FROM nation WHERE n_regionkey = 2)")
        mine = eng.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        assert sorted(mine["s_suppkey"]) == sorted(oracle["s_suppkey"])

    def test_semi_join_with_extra_where(self, ray_session, duck, monkeypatch):
        from qwery_ray.engine.session import QweryEngine as Sess

        monkeypatch.setattr(Sess, "IN_BROADCAST_LIMIT", 2)
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        sql = ("SELECT s_suppkey FROM supplier WHERE s_acctbal > 0 AND "
               "s_nationkey IN (SELECT n_nationkey FROM nation)")
        mine = eng.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        assert sorted(mine["s_suppkey"]) == sorted(oracle["s_suppkey"])


class TestApproxCountDistinct:
    """APPROX_COUNT_DISTINCT via HyperLogLog sketches (constant-size
    mergeable partials) — checked against the exact count within the
    sketch's error bound, not hash-compared (DuckDB's own HLL differs)."""

    def test_grouped_within_tolerance(self, ray_session, duck):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        mine = eng.sql(
            "SELECT o_orderstatus, APPROX_COUNT_DISTINCT(o_custkey) AS nc "
            "FROM orders GROUP BY o_orderstatus").to_pandas()
        exact = duck.execute(
            "SELECT o_orderstatus, COUNT(DISTINCT o_custkey) AS nc "
            "FROM orders GROUP BY o_orderstatus").fetch_df()
        m = mine.set_index("o_orderstatus")["nc"]
        e = exact.set_index("o_orderstatus")["nc"]
        assert set(m.index) == set(e.index)
        for k in e.index:
            assert abs(m[k] - e[k]) / max(1, e[k]) < 0.06

    def test_global_within_tolerance(self, ray_session, duck):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        mine = eng.sql(
            "SELECT APPROX_COUNT_DISTINCT(o_custkey) AS nc FROM orders"
        ).to_pandas()
        exact = duck.execute(
            "SELECT COUNT(DISTINCT o_custkey) AS nc FROM orders").fetchone()[0]
        assert abs(int(mine["nc"][0]) - exact) / exact < 0.06

    def test_mixing_with_other_aggs_refused(self, ray_session):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        with pytest.raises(ValueError, match="approximate aggregates"):
            eng.sql("SELECT COUNT(*) AS n, "
                    "APPROX_COUNT_DISTINCT(o_custkey) AS nc FROM orders")


class TestCorrelatedScalarSubquery:
    """Equality-correlated scalar subqueries decorrelate into a grouped
    join (TPC-H Q17 shape)."""

    def test_above_per_customer_average(self, ray_session, duck):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        sql = ("SELECT o_orderkey, o_custkey, o_totalprice FROM orders o "
               "WHERE o_totalprice > (SELECT AVG(o2.o_totalprice) * 1.2 "
               "FROM orders o2 WHERE o2.o_custkey = o.o_custkey)")
        mine = eng.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        assert sorted(mine["o_orderkey"]) == sorted(oracle["o_orderkey"])

    def test_correlated_with_local_filter(self, ray_session, duck):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        sql = ("SELECT l_orderkey, l_linenumber FROM lineitem l "
               "WHERE l_quantity > (SELECT AVG(l2.l_quantity) "
               "FROM lineitem l2 WHERE l2.l_orderkey = l.l_orderkey "
               "AND l2.l_returnflag = 'N')")
        mine = eng.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        assert sorted(zip(mine["l_orderkey"], mine["l_linenumber"])) == \
            sorted(zip(oracle["l_orderkey"], oracle["l_linenumber"]))

    def test_uncorrelated_still_inlines(self, engine, duck):
        from conftest import assert_frames_match

        sql = ("SELECT o_orderkey FROM orders "
               "WHERE o_totalprice > (SELECT AVG(o_totalprice) FROM orders)")
        mine = engine.sql(sql)
        oracle = duck.execute(sql).fetch_df()
        assert_frames_match(mine, oracle)

    def test_correlated_with_pruned_projection(self, ray_session, duck):
        # projection does NOT include the correlation key — read pruning
        # must keep it anyway
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        sql = ("SELECT COUNT(*) AS n FROM orders o "
               "WHERE o_totalprice > (SELECT AVG(o2.o_totalprice) * 1.2 "
               "FROM orders o2 WHERE o2.o_custkey = o.o_custkey)")
        mine = eng.sql(sql).to_pandas()["n"][0]
        oracle = duck.execute(sql).fetchone()[0]
        assert int(mine) == oracle


class TestGroupingSets:
    """ROLLUP / CUBE / GROUPING SETS — single-input-shuffle design: the
    finest grouping aggregates once, coarser sets re-aggregate its partials
    (sums/counts/moments/min/max merge exactly). GROUPING(key) is a per-set
    constant mask column. Superset of the reference (SURVEY.md §2.5 confirms
    no grouping sets there)."""

    def test_rollup_with_grouping_fn(self, engine, duck):
        sql = ("SELECT l_returnflag, l_linestatus, COUNT(*) AS n, "
               "SUM(l_quantity) AS sq, GROUPING(l_returnflag) AS g1, "
               "GROUPING(l_linestatus) AS g2 FROM lineitem "
               "GROUP BY ROLLUP(l_returnflag, l_linestatus)")
        run_both(engine, duck, sql,
                 sort_by=["g1", "g2", "l_returnflag", "l_linestatus"])

    def test_cube_all_agg_kinds(self, engine, duck):
        sql = ("SELECT l_returnflag, l_linestatus, COUNT(*) AS n, "
               "AVG(l_discount) AS ad, MIN(l_quantity) AS mq, "
               "MAX(l_quantity) AS xq, STDDEV(l_tax) AS st "
               "FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)")
        run_both(engine, duck, sql,
                 sort_by=["l_returnflag", "l_linestatus", "n"])

    def test_grouping_sets_explicit_with_empty(self, engine, duck):
        sql = ("SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n "
               "FROM orders GROUP BY GROUPING SETS "
               "((o_orderstatus, o_orderpriority), (o_orderpriority), ())")
        run_both(engine, duck, sql,
                 sort_by=["o_orderstatus", "o_orderpriority", "n"])

    def test_rollup_with_having(self, engine, duck):
        sql = ("SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n "
               "FROM orders GROUP BY ROLLUP(o_orderstatus, o_orderpriority) "
               "HAVING COUNT(*) > 50")
        run_both(engine, duck, sql,
                 sort_by=["o_orderstatus", "o_orderpriority", "n"])

    def test_group_by_null_keys(self, engine, duck):
        # NULL group keys form their own group (Ray's sort-based groupby
        # shuffle would TypeError on None boundaries without the null-safe
        # key encoding)
        sql = ("SELECT CASE WHEN o_orderstatus = 'O' THEN NULL "
               "ELSE o_orderstatus END AS st, COUNT(*) AS n, "
               "SUM(o_totalprice) AS sp FROM orders GROUP BY st")
        mine = to_pandas(engine.sql(sql))
        oracle = duck.execute(sql).fetch_df()
        assert_frames_match(mine, oracle, sort_by=["n", "sp"])

    def test_rollup_null_keys_distinct_from_subtotals(self, engine, duck):
        # data-NULL finest rows AND generated subtotal rows must both
        # appear; GROUPING() disambiguates them
        sql = ("SELECT CASE WHEN n_regionkey = 0 THEN NULL "
               "ELSE n_name END AS nm, COUNT(*) AS n, "
               "GROUPING(nm) AS g FROM nation GROUP BY ROLLUP(nm)")
        run_both(engine, duck, sql, sort_by=["g", "nm", "n"])


class TestDateIntervalArithmetic:
    """DATE/TIMESTAMP literals and ± INTERVAL arithmetic (TPC-H phrasing);
    calendar-correct month shifts via pandas DateOffset, second offsets via
    arrow duration scalars. Reference has neither (SURVEY.md §2.2 — only
    DATE_FORMAT/DATE_PARSE); superset with DuckDB as the oracle."""

    def test_date_window_filter(self, engine, duck):
        sql = ("SELECT COUNT(*) AS n FROM orders "
               "WHERE o_orderdate >= DATE '1995-01-01' "
               "AND o_orderdate < DATE '1995-01-01' + INTERVAL 1 YEAR")
        run_both(engine, duck, sql)

    def test_projected_month_and_day_offsets(self, engine, duck):
        sql = ("SELECT o_orderkey, o_orderdate + INTERVAL 1 MONTH AS nxt, "
               "o_orderdate - INTERVAL 90 DAY AS back, "
               "o_orderdate + INTERVAL 36 HOUR AS hrs "
               "FROM orders WHERE o_custkey < 50")
        run_both(engine, duck, sql, sort_by=["o_orderkey"])

    def test_month_end_clamping(self, engine, duck):
        # Jan 31 + 1 MONTH clamps to Feb 28/29 (calendar semantics)
        sql = ("SELECT TIMESTAMP '2024-01-31 12:30:00' + INTERVAL 1 MONTH "
               "AS clamped, DATE '2023-01-31' + INTERVAL 1 MONTH AS c2")
        run_both(engine, duck, sql)

    def test_interval_roundtrip_decompile(self):
        from qwery_ray.sqlc.decompiler import to_sql
        from qwery_ray.sqlc.parser import parse

        s = ("SELECT o_orderdate + INTERVAL 3 MONTH AS m FROM orders "
             "WHERE o_orderdate < DATE '1997-06-01' - INTERVAL 45 DAY")
        one = to_sql(parse(s)[0])
        assert to_sql(parse(one)[0]) == one
        assert "INTERVAL 3 MONTH" in one and "INTERVAL 45 DAY" in one


class TestQuantifiedComparisons:
    """op ANY / SOME / ALL (SELECT …): the session reduces the subquery to
    one min/max/count aggregate pass and rewrites to a plain comparison
    (= ANY → IN, <> ALL → NOT IN ride the semi-join path). WHERE
    semantics — UNKNOWN collapses to FALSE, empty set: ALL→TRUE, ANY→FALSE."""

    def test_gt_all(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderkey FROM orders WHERE o_totalprice > ALL "
                 "(SELECT c_acctbal FROM customer)",
                 sort_by=["o_orderkey"])

    def test_lt_any_and_some(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderkey FROM orders WHERE o_totalprice < ANY "
                 "(SELECT c_acctbal FROM customer WHERE c_acctbal > 9000)",
                 sort_by=["o_orderkey"])
        run_both(engine, duck,
                 "SELECT o_orderkey FROM orders WHERE o_totalprice >= SOME "
                 "(SELECT o_totalprice FROM orders WHERE o_orderstatus = 'P')",
                 sort_by=["o_orderkey"])

    def test_eq_any_is_in(self, engine, duck):
        run_both(engine, duck,
                 "SELECT c_custkey FROM customer WHERE c_nationkey = ANY "
                 "(SELECT n_nationkey FROM nation WHERE n_regionkey = 2)",
                 sort_by=["c_custkey"])

    def test_ne_all_is_not_in(self, engine, duck):
        run_both(engine, duck,
                 "SELECT c_custkey FROM customer WHERE c_nationkey <> ALL "
                 "(SELECT n_nationkey FROM nation WHERE n_regionkey = 2)",
                 sort_by=["c_custkey"])

    def test_empty_set_all_true_any_false(self, engine, duck):
        run_both(engine, duck,
                 "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice > ALL "
                 "(SELECT c_acctbal FROM customer WHERE c_acctbal > 1e9)")
        run_both(engine, duck,
                 "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice > ANY "
                 "(SELECT c_acctbal FROM customer WHERE c_acctbal > 1e9)")

    def test_quantified_decompiles(self):
        from qwery_ray.sqlc.decompiler import to_sql
        from qwery_ray.sqlc.parser import parse

        s = ("SELECT x FROM t WHERE x > ALL (SELECT y FROM u) "
             "AND x = ANY (SELECT z FROM v)")
        one = to_sql(parse(s)[0])
        assert to_sql(parse(one)[0]) == one
        assert "> ALL (" in one and "= ANY (" in one


class TestAdaptiveAggregateFinish:
    """The one-task finish and the key-hash bucket route merge the same
    partials with the same kernel (exactly-rounded float sums), so their
    results must be BIT-identical: for every algebraic aggregate family,
    a NULL group key and a ROLLUP."""

    _AGGS = ("COUNT(*) AS n, SUM(o_totalprice) AS s, "
             "MIN(o_totalprice) AS lo, MAX(o_totalprice) AS hi, "
             "AVG(o_totalprice) AS m, BIT_AND(o_custkey) AS b_and, "
             "BIT_OR(o_custkey) AS b_or, BIT_XOR(o_custkey) AS b_xor, "
             "ANY_VALUE(o_orderstatus) AS anyv, "
             "ARG_MAX(o_orderkey, o_totalprice) AS amax, "
             "MIN_BY(o_orderkey, o_totalprice) AS minby, "
             "BOOL_AND(o_totalprice > 50000) AS band, "
             "STDDEV(o_totalprice) AS sd, SKEWNESS(o_totalprice) AS sk, "
             "COVAR_POP(o_totalprice, o_custkey) AS cov, "
             "CORR(o_totalprice, o_custkey) AS cor, "
             "MIN(o_orderpriority) AS plo, MAX(o_orderpriority) AS phi")
    # the NULL key group holds the 'P' orders
    _FROM = ("FROM (SELECT *, NULLIF(o_orderstatus, 'P') AS k FROM orders) t")

    def _both_routes(self, engine, sql, keys):
        from qwery_ray.sqlc.compiler import Compiler

        def run():
            return engine.sql(sql).to_pandas().sort_values(
                keys, ignore_index=True, na_position="first")

        small = run()
        orig = Compiler.SMALL_PARTIALS_LIMIT
        Compiler.SMALL_PARTIALS_LIMIT = 0  # force the bucket route
        try:
            big = run()
        finally:
            Compiler.SMALL_PARTIALS_LIMIT = orig
        assert list(small.columns) == list(big.columns)
        assert len(small) == len(big) > 1
        for c in small.columns:
            a, b = small[c].to_numpy(), big[c].to_numpy()
            if a.dtype.kind == "f":
                import numpy as np

                # exact bits, no tolerance
                assert np.array_equal(a, b, equal_nan=True), c
            else:
                assert a.tolist() == b.tolist(), c
        return small

    def test_paths_bit_identical(self, engine):
        out = self._both_routes(
            engine, f"SELECT k, {self._AGGS} {self._FROM} GROUP BY k", ["k"])
        assert out["k"].isna().sum() == 1

    def test_rollup_paths_bit_identical(self, engine):
        self._both_routes(
            engine,
            f"SELECT k, o_orderpriority, GROUPING(k) AS gk, "
            f"GROUPING(o_orderpriority) AS gp, {self._AGGS} {self._FROM} "
            f"GROUP BY ROLLUP(k, o_orderpriority)",
            ["gk", "gp", "k", "o_orderpriority"])

    def test_string_min_max_and_nulls(self, engine, duck):
        sql = ("SELECT o_orderstatus, MIN(o_orderpriority) AS lo, "
               "MAX(o_orderpriority) AS hi FROM orders "
               "GROUP BY o_orderstatus ORDER BY o_orderstatus")
        mine = engine.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        assert mine["lo"].tolist() == oracle["lo"].tolist()
        assert mine["hi"].tolist() == oracle["hi"].tolist()


class TestOffsetNullsOrderSetOpsAll:
    def test_limit_offset(self, engine, duck):
        sql = ("SELECT o_orderkey FROM orders ORDER BY o_orderkey "
               "LIMIT 5 OFFSET 10")
        mine = engine.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        assert mine["o_orderkey"].tolist() == oracle["o_orderkey"].tolist()

    def test_offset_without_limit(self, engine, duck):
        sql = ("SELECT COUNT(*) AS n FROM (SELECT o_orderkey FROM orders "
               "ORDER BY o_orderkey OFFSET 100)")
        mine = engine.sql(sql).to_pandas()
        oracle = duck.execute(
            "SELECT COUNT(*) AS n FROM (SELECT o_orderkey FROM orders "
            "ORDER BY o_orderkey OFFSET 100) t").fetch_df()
        assert mine["n"].tolist() == oracle["n"].tolist()

    def test_nulls_first_last(self, engine, duck, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        p = str(tmp_path / "nt.parquet")
        pq.write_table(pa.table({"v": [3, None, 1, None, 2]}), p)
        for suffix in ("ASC NULLS FIRST", "DESC NULLS FIRST",
                       "ASC NULLS LAST", "DESC NULLS LAST"):
            sql = f"SELECT v FROM '{p}' ORDER BY v {suffix}"
            mine = engine.sql(sql).to_pandas()["v"].tolist()
            oracle = duck.execute(
                f"SELECT v FROM read_parquet('{p}') ORDER BY v {suffix}"
            ).fetch_df()["v"].tolist()
            norm = lambda xs: [None if x != x else x for x in xs]
            assert norm(mine) == norm(oracle), suffix

    def test_except_all_multiplicities(self, engine, duck):
        sql = ("SELECT l_orderkey FROM lineitem WHERE l_orderkey < 30 "
               "EXCEPT ALL SELECT o_orderkey FROM orders "
               "WHERE o_orderkey < 20")
        mine = sorted(engine.sql(sql).to_pandas()["l_orderkey"])
        oracle = sorted(duck.execute(sql).fetch_df()["l_orderkey"])
        assert mine == oracle and len(mine) > 0

    def test_intersect_all_multiplicities(self, engine, duck):
        sql = ("SELECT l_returnflag, l_linestatus FROM lineitem "
               "WHERE l_orderkey < 50 INTERSECT ALL "
               "SELECT l_returnflag, l_linestatus FROM lineitem "
               "WHERE l_orderkey < 25")
        mine = sorted(map(tuple, engine.sql(sql).to_pandas().values.tolist()))
        oracle = sorted(map(tuple, duck.execute(sql).df().values.tolist()))
        assert mine == oracle and len(mine) > 0

    def test_decompile_round_trips(self):
        from qwery_ray.sqlc.decompiler import to_sql
        from qwery_ray.sqlc.parser import parse_one

        for sql in [
            "SELECT a FROM t ORDER BY a DESC NULLS FIRST LIMIT 3 OFFSET 7",
            "SELECT a FROM t EXCEPT ALL SELECT b FROM u",
            "SELECT a FROM t INTERSECT ALL SELECT b FROM u",
        ]:
            ast1 = parse_one(sql)
            assert parse_one(to_sql(ast1)) == ast1, sql


class TestIlike:
    def test_ilike_parity(self, engine, duck):
        for q in [
            "SELECT COUNT(*) AS n FROM part WHERE p_name ILIKE '%AR%'",
            "SELECT COUNT(*) AS n FROM part WHERE p_name NOT ILIKE '%a%'",
            "SELECT COUNT(*) AS n FROM customer WHERE c_mktsegment "
            "ILIKE 'bui%'",
        ]:
            mine = engine.sql(q).to_pandas()["n"][0]
            oracle = duck.execute(q).fetch_df()["n"][0]
            assert int(mine) == int(oracle), q
        assert int(engine.sql(
            "SELECT COUNT(*) AS n FROM customer WHERE c_mktsegment "
            "ILIKE 'bui%'").to_pandas()["n"][0]) > 0


class TestGroupOrderByAll:
    """DuckDB sugar: GROUP BY ALL (non-aggregate items) and ORDER BY ALL
    (every output column, positional expansion at parse time)."""

    def test_group_by_all(self, engine, duck):
        sql = ("SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n, "
               "SUM(o_totalprice) AS tot FROM orders GROUP BY ALL "
               "ORDER BY ALL")
        mine = engine.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        from conftest import assert_frames_match
        assert_frames_match(mine, oracle)

    def test_order_by_all_desc(self, engine, duck):
        sql = ("SELECT o_orderstatus, COUNT(*) AS n FROM orders "
               "GROUP BY ALL ORDER BY ALL DESC")
        mine = engine.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        assert mine.values.tolist() == oracle.values.tolist()

    def test_group_by_all_expression_item(self, engine, duck):
        sql = ("SELECT UPPER(o_orderstatus) AS st, COUNT(*) AS n "
               "FROM orders GROUP BY ALL ORDER BY ALL")
        mine = engine.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        assert mine.values.tolist() == oracle.values.tolist()

    def test_group_by_all_rejects_star(self, engine):
        import pytest

        with pytest.raises(Exception, match="GROUP BY ALL"):
            engine.sql("SELECT * FROM orders GROUP BY ALL")


class TestSurfaceSugar:
    """FILTER (WHERE), (VALUES …) sources, IF/IFNULL/NVL/CONCAT_WS,
    CURRENT_DATE/TIMESTAMP, DISTINCT ON — all DuckDB-compared except the
    clock keywords (driver-stamped NOW policy)."""

    def _cmp(self, engine, duck, sql, sort=None):
        import pandas as pd
        mine = engine.sql(sql).to_pandas()
        oracle = duck.execute(sql).fetch_df()
        cols = sorted(mine.columns)
        a = mine.reindex(cols, axis=1).sort_values(sort or cols,
                                                   ignore_index=True)
        b = oracle.reindex(cols, axis=1).sort_values(sort or cols,
                                                     ignore_index=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False, rtol=1e-9)

    def test_filter_where(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT o_orderstatus, "
                  "COUNT(*) FILTER (WHERE o_totalprice > 100000) AS big, "
                  "SUM(o_totalprice) FILTER (WHERE o_orderpriority = "
                  "'1-URGENT') AS urgent FROM orders GROUP BY o_orderstatus")

    def test_values_source(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT v.id * 10 AS x, v.s FROM "
                  "(VALUES (1, 'a'), (2, 'b'), (3, NULL)) v(id, s)")

    def test_values_join(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT m.label, COUNT(*) AS n FROM orders o INNER JOIN "
                  "(VALUES ('F', 'final'), ('O', 'open')) m(st, label) "
                  "ON o.o_orderstatus = m.st GROUP BY m.label")

    def test_if_ifnull_concat_ws(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT IF(o_totalprice > 100000, 'hi', 'lo') AS b, "
                  "COUNT(*) AS n FROM orders GROUP BY b")
        self._cmp(engine, duck,
                  "SELECT IFNULL(NULL, 5) AS v, "
                  "CONCAT_WS('-', 'a', NULL, 'c') AS s")
        # NVL: Oracle-ism DuckDB lacks — engine-only
        out = engine.sql("SELECT NVL(NULL, 'x') AS w").to_pandas()
        assert out["w"].tolist() == ["x"]

    def test_distinct_on(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT DISTINCT ON (o_custkey) o_custkey, o_orderkey "
                  "FROM orders ORDER BY o_custkey, o_orderdate, o_orderkey")

    def test_current_date_timestamp(self, ray_session):
        import datetime

        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001",
                          now=datetime.datetime(2024, 3, 15, 12, 30))
        out = eng.sql(
            "SELECT CURRENT_DATE AS d, CURRENT_TIMESTAMP AS t").to_pandas()
        assert str(out["d"].iloc[0])[:10] == "2024-03-15"
        assert str(out["t"].iloc[0]) == "2024-03-15 12:30:00"


class TestStarModifiersUnionByName:
    """* EXCLUDE / * REPLACE star modifiers and UNION [ALL|DISTINCT] BY
    NAME (DuckDB extensions). Bare UNION stays UNION ALL — reference
    semantics (Union.scala:11-16) — so the distinct form is spelled out."""

    def _cmp(self, engine, duck, sql, dsql=None):
        import pandas as pd
        mine = engine.sql(sql)
        mine = mine.to_pandas() if hasattr(mine, "to_pandas") else mine
        oracle = duck.execute(dsql or sql).fetch_df()
        cols = sorted(mine.columns)
        a = mine.reindex(cols, axis=1).sort_values(cols, ignore_index=True)
        b = oracle.reindex(cols, axis=1).sort_values(cols, ignore_index=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False, rtol=1e-9)

    def test_exclude(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT * EXCLUDE (o_orderpriority, o_orderdate) "
                  "FROM orders WHERE o_orderkey < 50")

    def test_replace_and_exclude(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT * EXCLUDE (o_orderdate) "
                  "REPLACE (UPPER(o_orderstatus) AS o_orderstatus, "
                  "o_totalprice / 100 AS o_totalprice) "
                  "FROM orders WHERE o_orderkey < 50")

    def test_union_by_name_pads_missing(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT 1 AS a, 2 AS b UNION ALL BY NAME "
                  "SELECT 9 AS c, 3 AS a")

    def test_union_distinct_by_name(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT 1 AS a UNION DISTINCT BY NAME SELECT 1 AS a "
                  "UNION DISTINCT BY NAME SELECT 2 AS b",
                  "SELECT 1 AS a UNION BY NAME SELECT 1 AS a "
                  "UNION BY NAME SELECT 2 AS b")

    def test_union_by_name_tables(self, engine, duck):
        self._cmp(engine, duck,
                  "SELECT o_orderkey AS k, o_totalprice FROM orders "
                  "WHERE o_orderkey < 20 UNION ALL BY NAME "
                  "SELECT c_acctbal, c_custkey AS k FROM customer "
                  "WHERE c_custkey < 10")

    def test_round_trips(self):
        from qwery_ray.sqlc import parser as P
        from qwery_ray.sqlc.decompiler import to_sql

        for sql in (
            "SELECT * EXCLUDE (a) REPLACE (b * 2 AS b) FROM t",
            "SELECT a FROM t UNION ALL BY NAME SELECT b FROM u",
        ):
            stmt = P.parse(sql)[0]
            assert P.parse(to_sql(stmt))[0] == stmt


class TestOrderedAggregates:
    """STRING_AGG / ARRAY_AGG with an internal ORDER BY (deterministic
    concatenation order, DuckDB parity)."""

    def test_string_agg_order_by(self, engine, duck):
        import pandas as pd
        sql = ("SELECT o_orderstatus, STRING_AGG(CAST(o_orderkey AS "
               "VARCHAR), '|' ORDER BY o_totalprice DESC) AS s FROM orders "
               "WHERE o_orderkey < 40 GROUP BY o_orderstatus")
        a = engine.sql(sql).to_pandas().sort_values("o_orderstatus",
                                                    ignore_index=True)
        b = duck.execute(sql).fetch_df().sort_values("o_orderstatus",
                                                     ignore_index=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)

    def test_array_agg_order_by(self, engine, duck):
        sql = ("SELECT ARRAY_AGG(o_orderkey ORDER BY o_orderkey DESC) AS v "
               "FROM orders WHERE o_orderkey < 20")
        a = engine.sql(sql).to_pandas()
        b = duck.execute(sql).fetch_df()
        assert list(a["v"].iloc[0]) == list(b["v"].iloc[0])

    def test_order_by_rejected_on_plain_agg(self, engine):
        with pytest.raises(Exception, match="ORDER BY"):
            engine.sql("SELECT SUM(o_totalprice ORDER BY o_orderkey) "
                       "FROM orders").to_pandas()


class TestFetchFirst:
    def test_offset_rows_fetch_first(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderkey FROM orders ORDER BY o_orderkey "
                 "OFFSET 10 ROWS FETCH FIRST 5 ROWS ONLY")

    def test_fetch_next_and_single_row(self, engine, duck):
        run_both(engine, duck,
                 "SELECT o_orderkey FROM orders ORDER BY o_orderkey "
                 "FETCH NEXT 3 ROWS ONLY")
        run_both(engine, duck,
                 "SELECT o_orderkey FROM orders ORDER BY o_orderkey "
                 "FETCH FIRST 1 ROW ONLY")


class TestSetOpTailAndLiteralWhere:
    """ANSI binding of trailing ORDER BY/LIMIT after set ops (applies to
    the WHOLE result), WHERE on sourceless literal selects, SELECT ALL."""

    def test_union_trailing_order_limit(self, ray_session):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        assert eng.sql("SELECT 'x' AS a UNION ALL SELECT 'y' "
                       "ORDER BY a DESC").to_pandas().a.tolist() == \
            ["y", "x"]
        assert eng.sql("SELECT 2 AS x UNION ALL SELECT 1 UNION ALL "
                       "SELECT 3 ORDER BY x LIMIT 2") \
            .to_pandas().x.tolist() == [1, 2]
        assert eng.sql("SELECT 1 AS x EXCEPT SELECT 2 ORDER BY x") \
            .to_pandas().x.tolist() == [1]

    def test_parenthesized_branch_keeps_its_order(self, ray_session):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        # inner ORDER BY + LIMIT inside parens binds to the branch
        df = eng.sql(
            "SELECT o_orderkey AS k FROM (SELECT o_orderkey FROM orders "
            "ORDER BY o_orderkey DESC LIMIT 1) t "
            "UNION ALL SELECT 0 ORDER BY k").to_pandas()
        assert df.k.tolist() == [0, 1499]

    def test_literal_select_where(self, ray_session):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        assert len(eng.sql("SELECT 1 AS x WHERE 1 = 2").to_pandas()) == 0
        assert eng.sql("SELECT 1 AS x WHERE 1 = 1") \
            .to_pandas().x.tolist() == [1]

    def test_select_all_noop(self, ray_session):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        df = eng.sql("SELECT ALL o_orderstatus FROM orders LIMIT 3") \
            .to_pandas()
        assert len(df) == 3


class TestPositionalOrderOnStarAndSetOps:
    def test_order_by_position_after_union_with_star_branch(self,
                                                            ray_session):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        got = eng.sql(
            "WITH a AS (SELECT 1 AS x), b AS (SELECT x + 1 AS y FROM a) "
            "SELECT * FROM b UNION ALL SELECT x FROM a ORDER BY 1"
        ).to_pandas()
        assert got.iloc[:, 0].tolist() == [1, 2]

    def test_order_by_position_on_star_select(self, ray_session):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        df = eng.sql("SELECT * FROM region ORDER BY 2 LIMIT 2").to_pandas()
        assert df.r_name.tolist() == ["AFRICA", "AMERICA"]

    def test_mixed_positions_after_union(self, ray_session):
        from qwery_ray import QweryEngine

        eng = QweryEngine(table_root="/root/testdata/sf0.001")
        df = eng.sql(
            "SELECT o_orderkey AS k, o_orderstatus FROM orders "
            "UNION ALL SELECT 0, 'Z' ORDER BY 2 DESC, 1 LIMIT 2"
        ).to_pandas()
        assert df.values.tolist()[0] == [0, "Z"]


class TestFeatureCompositions:
    """Cross-feature interactions: new surface composing with subqueries,
    windows, CTEs, COPY."""

    def _eng(self):
        from qwery_ray import QweryEngine

        return QweryEngine(table_root="/root/testdata/sf0.001")

    def test_parenthesized_union_tail_in_from(self, ray_session):
        df = self._eng().sql(
            "SELECT * FROM (SELECT 1 AS x UNION ALL SELECT 3 UNION ALL "
            "SELECT 2 ORDER BY 1 LIMIT 2) t ORDER BY x DESC").to_pandas()
        assert df.x.tolist() == [2, 1]

    def test_json_groupby_qualify(self, ray_session):
        df = self._eng().sql(
            "SELECT rk, SUM(CAST(props->>'k' AS BIGINT)) AS s FROM "
            "(SELECT user_id % 3 AS rk, props FROM events) e GROUP BY 1 "
            "QUALIFY RANK() OVER (ORDER BY s DESC) = 1").to_pandas()
        assert len(df) == 1

    def test_copy_of_union(self, ray_session, tmp_path):
        eng = self._eng()
        out = str(tmp_path / "u.csv")
        eng.sql(f"COPY (SELECT 1 AS a UNION ALL SELECT 2 ORDER BY 1) "
                f"TO '{out}' (FORMAT CSV, HEADER)")
        back = eng.sql(f"SELECT * FROM '{out}' ORDER BY a").to_pandas()
        assert back.a.astype(int).tolist() == [1, 2]

    def test_slice_in_cte(self, ray_session):
        df = self._eng().sql(
            "WITH x AS (SELECT doc_id, text[:20] AS head FROM documents) "
            "SELECT COUNT(*) AS n FROM x WHERE LENGTH(head) <= 20"
        ).to_pandas()
        assert df.n.iloc[0] == 500
