"""Grammar-based random-query fuzzer: generate SQL from a weighted grammar
over the sf0.001 tables, run it through BOTH this engine and DuckDB, and
compare results (sorted rows, 1e-9 relative float tolerance, NULL-safe).

Every query uses only the ANSI surface both dialects share, with explicit
CAST/alias discipline so schemas line up. Deterministic per seed.

Usage:
    python scripts/fuzz_vs_duckdb.py [--n 300] [--seed 7] [--sf DIR]
                                     [--bucket-route]

``--bucket-route`` sets ``Compiler.SMALL_PARTIALS_LIMIT = 0`` in this
process, so every keyed GROUP BY, DISTINCT, set op and window takes the
key-hash bucket route instead of the one-task finish (a test switch, not an
engine option).

Prints one line per mismatch/error and a summary; exit 1 on any mismatch.
Found bugs get distilled into pinned regression tests (tests/test_fuzz_regressions.py).
"""
import argparse
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = {
    "lineitem": {
        "int": ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"],
        "float": ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
        "str": ["l_returnflag", "l_linestatus"],
        "ts": ["l_shipdate"],
    },
    "orders": {
        "int": ["o_orderkey", "o_custkey"],
        "float": ["o_totalprice"],
        "str": ["o_orderstatus", "o_orderpriority"],
        "ts": ["o_orderdate"],
    },
    "customer": {
        "int": ["c_custkey", "c_nationkey"],
        "float": ["c_acctbal"],
        "str": ["c_name", "c_mktsegment"],
        "ts": [],
    },
    "events": {
        "int": ["event_id", "user_id"],
        "float": ["value"],
        "str": ["event_type"],
        "ts": ["ts"],
    },
}


class Gen:
    def __init__(self, rng: random.Random, table: str):
        self.rng, self.t = rng, TABLES[table]

    def col(self, kind=None):
        kinds = [k for k in ("int", "float", "str", "ts") if self.t[k]]
        kind = kind or self.rng.choice(kinds)
        return self.rng.choice(self.t[kind]) if self.t[kind] else None

    # ---- scalar expressions -------------------------------------------
    def num_expr(self, depth=0):
        r = self.rng.random()
        if depth >= 2 or r < 0.35:
            c = self.col("float" if self.rng.random() < 0.6 else "int")
            return f"CAST({c} AS DOUBLE)"
        if r < 0.45:
            return str(self.rng.randint(-5, 100))
        a, b = self.num_expr(depth + 1), self.num_expr(depth + 1)
        op = self.rng.choice(["+", "-", "*"])
        return f"({a} {op} {b})"

    def str_expr(self, depth=0):
        r = self.rng.random()
        c = self.col("str")
        if depth >= 2 or r < 0.5:
            return c
        if r < 0.65:
            return f"SUBSTRING({self.str_expr(depth+1)}, 1, " \
                   f"{self.rng.randint(1, 4)})"
        if r < 0.8:
            return f"UPPER({self.str_expr(depth+1)})"
        return f"({self.str_expr(depth+1)} || '{self.rng.choice('xyz')}')"

    def case_expr(self):
        cond = self.predicate(depth=1)
        return (f"CASE WHEN {cond} THEN {self.num_expr(1)} "
                f"ELSE {self.num_expr(1)} END")

    def scalar(self):
        r = self.rng.random()
        if r < 0.45:
            return self.num_expr()
        if r < 0.7:
            return self.str_expr()
        if r < 0.85:
            return self.case_expr()
        c = self.col("int")
        return f"CAST({c} % {self.rng.randint(2, 13)} AS BIGINT)"

    # ---- predicates ----------------------------------------------------
    def predicate(self, depth=0):
        r = self.rng.random()
        if depth >= 2 or r < 0.45:
            return self.simple_pred()
        a, b = self.predicate(depth + 1), self.predicate(depth + 1)
        if r < 0.65:
            return f"({a} AND {b})"
        if r < 0.85:
            return f"({a} OR {b})"
        return f"(NOT {a})"

    def simple_pred(self):
        r = self.rng.random()
        if r < 0.35:
            return f"{self.num_expr(1)} {self.rng.choice(['<','<=','>','>=','=','<>'])} {self.num_expr(1)}"
        if r < 0.5:
            c = self.col("int")
            lo = self.rng.randint(0, 50)
            return f"{c} BETWEEN {lo} AND {lo + self.rng.randint(0, 40)}"
        if r < 0.65:
            c = self.col("str")
            return f"{c} LIKE '%{self.rng.choice('AOFRN135')}%'"
        if r < 0.8:
            c = self.col("str")
            return f"{c} IN ('A', 'O', 'F', 'N', 'R')"
        c = self.col()
        return f"{c} IS NOT NULL"

    # ---- aggregates ----------------------------------------------------
    def agg(self, i):
        kind = self.rng.choice(["SUM", "AVG", "MIN", "MAX", "COUNT",
                                "COUNT_STAR", "COUNT_DISTINCT"])
        if kind == "COUNT_STAR":
            return f"COUNT(*) AS a{i}", f"COUNT(*) AS a{i}"
        if kind == "COUNT_DISTINCT":
            c = self.col("str") or self.col("int")
            return (f"COUNT(DISTINCT {c}) AS a{i}",) * 2
        if kind == "COUNT":
            c = self.col()
            return (f"COUNT({c}) AS a{i}",) * 2
        e = self.num_expr(1)
        if kind in ("MIN", "MAX"):
            return (f"{kind}({e}) AS a{i}",) * 2
        # SUM/AVG over DOUBLE on both sides so types line up
        return (f"{kind}({e}) AS a{i}",) * 2


JOINS = [
    # (left, right, on, extra cols usable from both sides)
    ("orders", "customer", "o_custkey = c_custkey"),
    ("lineitem", "orders", "l_orderkey = o_orderkey"),
    ("customer", "nation", "c_nationkey = n_nationkey"),
]


def gen_join_query(rng: random.Random):
    lt, rt, on = rng.choice(JOINS)
    gl, gr = Gen(rng, lt), Gen(rng, rt if rt != "nation" else "customer")
    jt = rng.choice(["JOIN", "LEFT JOIN", "INNER JOIN"])
    # nation has no Gen entry — use customer cols for the right side then
    rcol = {"orders": "o_orderstatus", "customer": "c_mktsegment",
            "nation": "n_name"}[rt]
    lkey = on.split(" = ")[0]
    where = f" WHERE {gl.predicate()}" if rng.random() < 0.5 else ""
    if rng.random() < 0.5:
        # joined grouped aggregate
        q = (f"SELECT {rcol} AS k0, COUNT(*) AS a0, "
             f"SUM(CAST({lkey} AS DOUBLE)) AS a1 "
             f"FROM {lt} {jt} {rt} ON {on}{where} GROUP BY 1")
        return q, q, True
    q = (f"SELECT {lkey} AS c0, {rcol} AS c1 "
         f"FROM {lt} {jt} {rt} ON {on}{where}")
    return q, q, True


def gen_subquery_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    ic = g.col("int")
    shape = rng.random()
    if shape < 0.4:
        # FROM (subquery) with an outer aggregate
        inner_where = f" WHERE {g.predicate()}" if rng.random() < 0.6 else ""
        q = (f"SELECT k0, COUNT(*) AS a0, SUM(v) AS a1 FROM ("
             f"SELECT {g.col('str')} AS k0, {g.num_expr(1)} AS v "
             f"FROM {table}{inner_where}) t GROUP BY 1")
        return q, q, True
    if shape < 0.7:
        # scalar subquery in WHERE
        q = (f"SELECT {g.col('str')} AS c0, CAST({ic} AS BIGINT) AS c1 "
             f"FROM {table} WHERE CAST({ic} AS DOUBLE) > "
             f"(SELECT AVG(CAST({ic} AS DOUBLE)) FROM {table})")
        return q, q, True
    # IN (SELECT ...)
    sc = g.col("str")
    q = (f"SELECT {sc} AS c0, COUNT(*) AS a0 FROM {table} "
         f"WHERE {ic} IN (SELECT {ic} FROM {table} WHERE {g.predicate()}) "
         f"GROUP BY 1")
    return q, q, True


def gen_window_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    part, order = g.col("str"), g.col("int")
    # no ROW_NUMBER: order keys can tie (l_orderkey repeats per line) and
    # ROW_NUMBER is nondeterministic under ties; RANK/aggregates are not
    fn = rng.choice([
        "RANK()", "DENSE_RANK()",
        f"SUM(CAST({g.col('float') or order} AS DOUBLE))",
        "COUNT(*)", f"MIN(CAST({order} AS DOUBLE))",
    ])
    # deterministic frame: order by a unique-ish int + the partition col
    q = (f"SELECT {part} AS c0, CAST({order} AS BIGINT) AS c1, "
         f"{fn} OVER (PARTITION BY {part} ORDER BY {order}, {part}) AS c2 "
         f"FROM {table}")
    return q, q, True


def setop_arms(g: "Gen", rng: random.Random):
    """Select lists of the two arms of a set op: 1-3 key columns of mixed
    types, each pair of columns of one kind (int, float, str or ts)."""
    kinds = [k for k in ("int", "float", "str", "ts") if g.t[k]]
    pairs = [(g.col(k), g.col(k)) for k in
             (rng.choice(kinds) for _ in range(rng.randint(1, 3)))]
    return tuple(", ".join(f"{p[i]} AS c{j}" for j, p in enumerate(pairs))
                 for i in (0, 1))


def gen_setop_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    s1, s2 = setop_arms(g, rng)
    op = rng.choice(["EXCEPT", "INTERSECT"])
    w1 = f" WHERE {g.predicate()}" if rng.random() < 0.6 else ""
    q = f"SELECT {s1} FROM {table}{w1} {op} SELECT {s2} FROM {table}"
    return q, q, True


def gen_cte_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    where = f" WHERE {g.predicate()}" if rng.random() < 0.6 else ""
    if rng.random() < 0.5:
        # single CTE feeding a grouped aggregate
        q = (f"WITH base AS (SELECT {g.col('str')} AS k0, "
             f"{g.num_expr(1)} AS v FROM {table}{where}) "
             f"SELECT k0, COUNT(*) AS a0, SUM(v) AS a1 FROM base GROUP BY 1")
        return q, q, True
    # chained CTEs: second references the first
    q = (f"WITH base AS (SELECT {g.col('str')} AS k0, "
         f"{g.num_expr(1)} AS v FROM {table}{where}), "
         f"agg AS (SELECT k0, SUM(v) AS s FROM base GROUP BY 1) "
         f"SELECT k0, s FROM agg WHERE s > {rng.randint(-5, 50)}")
    return q, q, True


def gen_rollup_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    k1 = g.col("str")
    k2 = f"CAST({g.col('int')} % {rng.randint(2, 5)} AS BIGINT)"
    where = f" WHERE {g.predicate()}" if rng.random() < 0.5 else ""
    form = rng.random()
    if form < 0.5:
        gb = f"ROLLUP({k1}, {k2})"
    elif form < 0.8:
        gb = f"CUBE({k1}, {k2})"
    else:
        gb = f"GROUPING SETS(({k1}), ({k2}), ())"
    q = (f"SELECT {k1} AS k0, {k2} AS k1, COUNT(*) AS a0, "
         f"SUM({g.num_expr(1)}) AS a1 FROM {table}{where} GROUP BY {gb}")
    return q, q, True


def gen_datefn_query(rng: random.Random):
    choices = [t for t, c in TABLES.items() if c["ts"]]
    table = rng.choice(choices)
    g = Gen(rng, table)
    ts = g.col("ts")
    part = rng.choice(["year", "month", "day"])
    fn = rng.choice([
        f"CAST(DATE_PART('{part}', {ts}) AS BIGINT)",
        f"CAST(YEAR({ts}) AS BIGINT)",
        f"CAST(MONTH({ts}) AS BIGINT)",
        f"CAST(EXTRACT({part} FROM {ts}) AS BIGINT)",
    ])
    where = f" WHERE {g.predicate()}" if rng.random() < 0.5 else ""
    q = (f"SELECT {fn} AS k0, COUNT(*) AS a0, "
         f"SUM({g.num_expr(1)}) AS a1 FROM {table}{where} GROUP BY 1")
    return q, q, True


def gen_strfn_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    c = g.col("str")
    e = rng.choice([
        f"REPLACE({c}, 'A', 'z')",
        f"LPAD({c}, {rng.randint(3, 8)}, '.')",
        f"RPAD({c}, {rng.randint(3, 8)}, '.')",
        f"REVERSE({c})",
        f"CAST(INSTR({c}, '{rng.choice('AOFRN')}') AS BIGINT)",
        f"LOWER({c}) || '-' || UPPER({c})",
        f"TRIM(LPAD({c}, 6, ' '))",
        f"COALESCE(NULLIF({c}, 'A'), 'fallback')",
    ])
    where = f" WHERE {g.predicate()}" if rng.random() < 0.5 else ""
    q = f"SELECT {e} AS c0, COUNT(*) AS a0 FROM {table}{where} GROUP BY 1"
    return q, q, True


def gen_three_way_join(rng: random.Random):
    g = Gen(rng, "lineitem")
    where = f" WHERE {g.predicate()}" if rng.random() < 0.5 else ""
    jt1 = rng.choice(["JOIN", "LEFT JOIN"])
    q = (f"SELECT c_mktsegment AS k0, o_orderstatus AS k1, COUNT(*) AS a0, "
         f"SUM(CAST(l_quantity AS DOUBLE)) AS a1 "
         f"FROM lineitem {jt1} orders ON l_orderkey = o_orderkey "
         f"JOIN customer ON o_custkey = c_custkey"
         f"{where} GROUP BY 1, 2")
    return q, q, True


def gen_exists_query(rng: random.Random):
    # correlated EXISTS / NOT EXISTS between orders and lineitem
    g = Gen(rng, "orders")
    neg = rng.choice(["", "NOT "])
    inner_pred = rng.choice([
        "l_quantity > 45", "l_discount > 0.08", "l_linenumber >= 6"])
    where = f" AND {g.predicate()}" if rng.random() < 0.5 else ""
    q = (f"SELECT o_orderstatus AS k0, COUNT(*) AS a0 FROM orders "
         f"WHERE {neg}EXISTS (SELECT 1 FROM lineitem "
         f"WHERE l_orderkey = o_orderkey AND {inner_pred}){where} "
         f"GROUP BY 1")
    return q, q, True


def gen_exists_in_case_query(rng: random.Random):
    # r4 verdict item 5: correlated [NOT] EXISTS inside a CASE branch —
    # in the SELECT list or inside WHERE
    neg = rng.choice(["", "NOT "])
    thresh = rng.randint(0, 200000)
    inner = (f"{neg}EXISTS (SELECT 1 FROM orders "
             f"WHERE o_custkey = c_custkey AND o_totalprice > {thresh})")
    if rng.random() < 0.5:
        # CASE in the SELECT list, optionally a second non-EXISTS branch
        extra = ""
        if rng.random() < 0.5:
            extra = f"WHEN c_acctbal < {rng.randint(-500, 5000)} THEN 2 "
        q = (f"SELECT c_custkey AS c0, CASE WHEN {inner} THEN 1 {extra}"
             f"ELSE 0 END AS c1 FROM customer ORDER BY c0")
    else:
        # CASE with an EXISTS branch inside WHERE
        q = (f"SELECT c_custkey AS c0, c_nationkey AS c1 FROM customer "
             f"WHERE CASE WHEN {inner} THEN c_acctbal > "
             f"{rng.randint(-500, 3000)} ELSE c_nationkey % 2 = 0 END "
             f"ORDER BY c0")
    return q, q, True


def gen_having_exists_query(rng: random.Random):
    # r5: [NOT] EXISTS in HAVING, standard-form correlation on the group
    # column's source name (deferred past the aggregate in this engine)
    neg = rng.choice(["", "NOT "])
    reg = rng.randint(0, 4)
    agg_guard = ""
    if rng.random() < 0.4:
        agg_guard = f" AND COUNT(*) > {rng.randint(0, 5)}"
    if rng.random() < 0.3:
        # subquery-bearing CASE mixing aggregate comparisons
        having = (f"CASE WHEN {neg}EXISTS (SELECT 1 FROM nation "
                  f"WHERE n_nationkey = c_nationkey AND n_regionkey = {reg}) "
                  f"THEN COUNT(*) > {rng.randint(0, 4)} "
                  f"ELSE COUNT(*) > {rng.randint(3, 8)} END")
    else:
        having = (f"{neg}EXISTS (SELECT 1 FROM nation "
                  f"WHERE n_nationkey = c_nationkey AND "
                  f"n_regionkey <= {reg}){agg_guard}")
    q = (f"SELECT c_nationkey AS k, CAST(COUNT(*) AS BIGINT) AS n "
         f"FROM customer GROUP BY 1 HAVING {having} ORDER BY k")
    return q, q, True


def gen_setop_over_window_query(rng: random.Random):
    # r4 verdict item 5: set ops whose arms are WINDOW outputs. ORDER BY
    # the unique o_orderkey inside each window so ranks are deterministic
    # on both engines.
    part = rng.choice(["o_orderstatus", "o_orderpriority"])
    fn = rng.choice(["row_number()", "rank()", "dense_rank()",
                     "count(*)"])
    arm = ("SELECT CAST(o_custkey AS BIGINT) AS a, CAST({fn} OVER "
           "(PARTITION BY {part} ORDER BY o_orderkey) AS BIGINT) AS b "
           "FROM orders WHERE o_totalprice > {th}")
    w1 = arm.format(fn=fn, part=part, th=rng.randint(0, 150000))
    w2 = arm.format(fn=fn, part=part, th=rng.randint(0, 150000))
    op = rng.choice(["UNION", "UNION ALL", "INTERSECT", "EXCEPT",
                     "INTERSECT ALL", "EXCEPT ALL"])
    # dialect split: this engine's bare UNION is UNION ALL
    mine_op = "UNION DISTINCT" if op == "UNION" else op
    q_m = f"SELECT * FROM ({w1}) x {mine_op} SELECT * FROM ({w2}) y"
    q_o = f"SELECT * FROM ({w1}) x {op} SELECT * FROM ({w2}) y"
    return q_m, q_o, True


def gen_qualify_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    part, order = g.col("str"), g.col("int")
    q = (f"SELECT {part} AS c0, CAST({order} AS BIGINT) AS c1 "
         f"FROM {table} "
         f"QUALIFY RANK() OVER (PARTITION BY {part} ORDER BY {order}) "
         f"<= {rng.randint(1, 3)}")
    return q, q, True


def gen_nulls_order_query(rng: random.Random):
    # LEFT JOIN produces NULLs on the right; order them explicitly
    nd = rng.choice(["NULLS FIRST", "NULLS LAST"])
    direction = rng.choice(["ASC", "DESC"])
    q = (f"SELECT o_orderkey AS c0, c_mktsegment AS c1 "
         f"FROM orders LEFT JOIN customer "
         f"ON o_custkey = c_custkey AND c_acctbal > 9000 "
         f"ORDER BY c1 {direction} {nd}, c0 LIMIT {rng.randint(5, 40)} "
         f"OFFSET {rng.randint(0, 10)}")
    return q, q, True


def gen_having_unselected(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    k = g.col("str")
    # HAVING references aggregates that are NOT in the select list
    q = (f"SELECT {k} AS k0, COUNT(*) AS a0 FROM {table} GROUP BY 1 "
         f"HAVING SUM({g.num_expr(1)}) > {rng.randint(-10, 100)} "
         f"AND MIN(CAST({g.col('int')} AS DOUBLE)) < 10000")
    return q, q, True


# Per-table keys that totally order the rows — window shapes that read
# neighboring rows (LAG/LEAD/frames) are only deterministic under a total
# order, so these are the mandatory ORDER BY tail for those generators.
UNIQUE_ORDER = {
    # NOTE: lineitem is deliberately absent — the synthetic testdata has
    # duplicate (l_orderkey, l_linenumber) pairs (1161 at sf0.001), so no
    # short column list totally orders it, and ROWS frames / LAG over a
    # non-unique ORDER BY are legitimately nondeterministic between engines.
    "orders": ["o_orderkey"],
    "customer": ["c_custkey"],
    "events": ["event_id"],
}


def gen_frame_window_query(rng: random.Random):
    # aggregate OVER a ROWS frame; total order via the table's unique key
    table = rng.choice(list(UNIQUE_ORDER))
    g = Gen(rng, table)
    part = g.col("str")
    order = ", ".join(UNIQUE_ORDER[table])
    lo = rng.randint(0, 4)
    hi = rng.randint(0, 3)
    frame = rng.choice([
        f"ROWS BETWEEN {lo} PRECEDING AND {hi} FOLLOWING",
        f"ROWS BETWEEN {lo} PRECEDING AND CURRENT ROW",
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
        f"ROWS BETWEEN CURRENT ROW AND {hi} FOLLOWING",
    ])
    agg = rng.choice([
        f"SUM(CAST({g.col('float') or g.col('int')} AS DOUBLE))",
        f"MIN(CAST({g.col('int')} AS DOUBLE))",
        f"MAX(CAST({g.col('int')} AS DOUBLE))",
        "COUNT(*)",
        f"AVG(CAST({g.col('float') or g.col('int')} AS DOUBLE))",
    ])
    q = (f"SELECT {part} AS c0, {UNIQUE_ORDER[table][0]} AS c1, "
         f"{agg} OVER (PARTITION BY {part} ORDER BY {order} {frame}) AS c2 "
         f"FROM {table}")
    return q, q, True


def gen_leadlag_query(rng: random.Random):
    table = rng.choice(list(UNIQUE_ORDER))
    g = Gen(rng, table)
    part = g.col("str")
    order = ", ".join(UNIQUE_ORDER[table])
    v = f"CAST({g.col('int')} AS BIGINT)"
    off = rng.randint(1, 3)
    fn = rng.choice([
        f"LAG({v}, {off})", f"LEAD({v}, {off})",
        f"LAG({v}, {off}, -1)", f"LEAD({v})", f"LAG({v})",
        f"FIRST_VALUE({v})",
        f"LAST_VALUE({v})",  # default frame: unbounded preceding..current
        f"NTILE({rng.randint(2, 5)})",
    ])
    q = (f"SELECT {part} AS c0, {UNIQUE_ORDER[table][0]} AS c1, "
         f"{fn} OVER (PARTITION BY {part} ORDER BY {order}) AS c2 "
         f"FROM {table}")
    return q, q, True


def gen_stats_agg_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    k = g.col("str")
    x = f"CAST({g.col('float') or g.col('int')} AS DOUBLE)"
    y = f"CAST({g.col('int')} AS DOUBLE)"
    aggs = rng.sample([
        f"STDDEV_SAMP({x})", f"STDDEV_POP({x})",
        f"VAR_SAMP({x})", f"VAR_POP({x})",
        f"COVAR_POP({x}, {y})", f"COVAR_SAMP({x}, {y})",
        f"CORR({x}, {y})", f"MEDIAN({y})",
    ], k=rng.randint(1, 2))
    sel = ", ".join(f"{a} AS a{i}" for i, a in enumerate(aggs))
    where = f" WHERE {g.predicate()}" if rng.random() < 0.5 else ""
    q = f"SELECT {k} AS k0, {sel} FROM {table}{where} GROUP BY 1"
    return q, q, True


def gen_math_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    x = f"CAST({g.col('float') or g.col('int')} AS DOUBLE)"
    i = g.col("int")
    e = rng.choice([
        f"ABS({x} - 50)", f"ROUND({x}, {rng.randint(0, 3)})",
        f"FLOOR({x})", f"CEIL({x})",
        f"POWER(GREATEST({x}, 0.5), 2)",
        f"LN(ABS({x}) + 1)", f"EXP(LEAST({x}, 1.0) * 0.01)",
        f"SQRT(ABS({x}))",
        f"CAST(MOD({i}, {rng.randint(2, 9)}) AS BIGINT)",
        f"GREATEST({x}, CAST({i} AS DOUBLE))",
        f"LEAST({x}, CAST({i} AS DOUBLE))",
        f"SIGN({x} - 10)",
        f"{x} / NULLIF(CAST({i} % {rng.randint(2, 5)} AS DOUBLE), 0.0)",
    ])
    where = f" WHERE {g.predicate()}" if rng.random() < 0.5 else ""
    if rng.random() < 0.5:
        q = (f"SELECT {g.col('str')} AS k0, SUM({e}) AS a0, COUNT({e}) AS a1 "
             f"FROM {table}{where} GROUP BY 1")
    else:
        q = (f"SELECT {e} AS c0 FROM {table}{where} "
             f"ORDER BY c0 NULLS LAST LIMIT {rng.randint(5, 30)}")
    return q, q, True


def gen_datearith_query(rng: random.Random):
    choices = [t for t, c in TABLES.items() if c["ts"]]
    table = rng.choice(choices)
    g = Gen(rng, table)
    ts = g.col("ts")
    unit = rng.choice(["day", "month", "year", "hour"])
    shape = rng.random()
    if shape < 0.5:
        q = (f"SELECT DATE_TRUNC('{unit}', {ts}) AS k0, COUNT(*) AS a0, "
             f"SUM({g.num_expr(1)}) AS a1 FROM {table} GROUP BY 1")
        return q, q, True
    n = rng.randint(1, 30)
    q = (f"SELECT COUNT(*) AS a0 FROM {table} "
         f"WHERE {ts} + INTERVAL '{n}' DAY > "
         f"(SELECT MAX({ts}) FROM {table})")
    return q, q, True


def gen_case_simple_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    c = g.col("str")
    vals = rng.sample(["A", "O", "F", "N", "R", "P"], k=2)
    tail = rng.choice(["", "ELSE 'z' "])
    e = (f"CASE {c} WHEN '{vals[0]}' THEN 'x' WHEN '{vals[1]}' THEN 'y' "
         f"{tail}END")
    q = f"SELECT {e} AS k0, COUNT(*) AS a0 FROM {table} GROUP BY 1"
    return q, q, True


def gen_notin_null_query(rng: random.Random):
    # NOT IN whose list contains NULL ⇒ never true (tri-state semantics);
    # IN with NULL in the list ⇒ true only for listed values
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    c = g.col("str")
    neg = rng.choice(["", "NOT "])
    q = (f"SELECT COUNT(*) AS a0 FROM {table} "
         f"WHERE {c} {neg}IN ('A', 'O', NULL)")
    return q, q, True


def gen_nested_setop_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    c = g.col("str")
    w = f" WHERE {g.predicate()}" if rng.random() < 0.5 else ""
    op = rng.choice(["INTERSECT", "EXCEPT"])
    q = (f"SELECT c0 FROM (SELECT {c} AS c0 FROM {table}{w} "
         f"UNION ALL SELECT {c} AS c0 FROM {table}) u "
         f"{op} SELECT {g.col('str')} AS c0 FROM {table}")
    return q, q, True


def gen_corr_scalar_subquery(rng: random.Random):
    # correlated scalar subquery in the SELECT list
    agg = rng.choice(["COUNT(*)", "SUM(CAST(o_totalprice AS DOUBLE))",
                      "MAX(o_orderkey)", "MIN(CAST(o_totalprice AS DOUBLE))"])
    cmp_ = rng.choice(["", f" AND o_orderkey % {rng.randint(2, 7)} = 0"])
    q = (f"SELECT c_custkey AS k0, "
         f"(SELECT {agg} FROM orders WHERE o_custkey = c_custkey{cmp_}) AS s0 "
         f"FROM customer WHERE c_custkey < {rng.randint(20, 120)}")
    return q, q, True


def gen_cond_agg_query(rng: random.Random):
    # pivot-style conditional aggregation: FILTER(WHERE) and SUM(CASE …)
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    k = g.col("str")
    p1, p2 = g.predicate(depth=1), g.predicate(depth=1)
    e = g.num_expr(1)
    q = (f"SELECT {k} AS k0, "
         f"COUNT(*) FILTER (WHERE {p1}) AS a0, "
         f"SUM(CASE WHEN {p2} THEN {e} ELSE 0 END) AS a1, "
         f"AVG(CASE WHEN {p1} THEN {e} END) AS a2 "
         f"FROM {table} GROUP BY 1")
    return q, q, True


def gen_nullif_chain_query(rng: random.Random):
    # NULLIF manufactures NULLs; COALESCE/GREATEST/LEAST consume them
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    c = g.col("int")
    m = rng.randint(2, 9)
    inner = f"NULLIF(CAST({c} % {m} AS BIGINT), {rng.randint(0, m - 1)})"
    outer = rng.choice([
        f"COALESCE({inner}, -1)",
        f"COALESCE({inner}, NULLIF(1, 1), -2)",
        f"GREATEST({inner}, 2)",
        f"LEAST({inner}, 2)",
    ])
    q = (f"SELECT {outer} AS c0, COUNT(*) AS a0 FROM {table} "
         f"GROUP BY 1")
    return q, q, True


def gen_window_in_derived_query(rng: random.Random):
    # window inside a derived table, aggregated outside
    table = rng.choice(list(UNIQUE_ORDER))
    g = Gen(rng, table)
    part = g.col("str")
    order = ", ".join(UNIQUE_ORDER[table])
    wfn = rng.choice([
        f"ROW_NUMBER() OVER (PARTITION BY {part} ORDER BY {order})",
        f"RANK() OVER (PARTITION BY {part} ORDER BY {order})",
        f"SUM(CAST({g.col('int')} AS DOUBLE)) OVER "
        f"(PARTITION BY {part} ORDER BY {order})",
    ])
    q = (f"SELECT k0, COUNT(*) AS a0, SUM(w) AS a1 FROM "
         f"(SELECT {part} AS k0, {wfn} AS w FROM {table}) d "
         f"WHERE w <= {rng.randint(3, 40)} GROUP BY 1")
    return q, q, True


def gen_multi_distinct_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    k = g.col("str")
    c1, c2 = g.col("int"), g.col("int")
    q = (f"SELECT {k} AS k0, COUNT(DISTINCT {c1}) AS a0, "
         f"COUNT(DISTINCT CAST({c2} % {rng.randint(2, 11)} AS BIGINT)) AS a1, "
         f"SUM(DISTINCT CAST({c1} % {rng.randint(2, 7)} AS BIGINT)) AS a2 "
         f"FROM {table} GROUP BY 1")
    return q, q, True


def gen_string_agg_query(rng: random.Random):
    # STRING_AGG with an in-aggregate ORDER BY (deterministic)
    table = rng.choice(list(UNIQUE_ORDER))
    g = Gen(rng, table)
    k = g.col("str")
    uid = UNIQUE_ORDER[table][0]
    lim = rng.randint(20, 60)
    q = (f"SELECT {k} AS k0, "
         f"STRING_AGG(CAST({uid} AS VARCHAR), ',' ORDER BY {uid}) AS a0 "
         f"FROM (SELECT * FROM {table} ORDER BY {uid} LIMIT {lim}) d "
         f"GROUP BY 1")
    return q, q, True


def gen_setop_all_query(rng: random.Random):
    # EXCEPT ALL / INTERSECT ALL bag semantics (multiplicities max(l-r,0)
    # and min(l,r)); arms differ by a predicate so counts actually diverge
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    s1, _ = setop_arms(g, rng)
    op = rng.choice(["EXCEPT ALL", "INTERSECT ALL"])
    w1 = f" WHERE {g.predicate()}" if rng.random() < 0.7 else ""
    w2 = f" WHERE {g.predicate()}" if rng.random() < 0.7 else ""
    q = f"SELECT {s1} FROM {table}{w1} {op} SELECT {s1} FROM {table}{w2}"
    return q, q, True


def gen_leftjoin_agg_query(rng: random.Random):
    # aggregates over a LEFT JOIN: COUNT(col) must skip null-extended
    # rows while COUNT(*) counts them
    pred = rng.choice(["", f" AND o_orderkey % {rng.randint(2, 9)} = 0"])
    q = (f"SELECT c_mktsegment AS k0, COUNT(*) AS a0, "
         f"COUNT(o_orderkey) AS a1, "
         f"SUM(CAST(o_totalprice AS DOUBLE)) AS a2, "
         f"MIN(o_orderkey) AS a3 "
         f"FROM customer LEFT JOIN orders "
         f"ON o_custkey = c_custkey{pred} GROUP BY 1")
    return q, q, True


def gen_round_math_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    x = f"CAST({g.col('float') or g.col('int')} AS DOUBLE)"
    nd = rng.randint(0, 3)
    exprs = rng.sample([
        f"ROUND({x}, {nd})", f"FLOOR({x})", f"CEIL({x})",
        f"ABS({x} - {rng.randint(0, 500)})",
        f"ROUND({x} * 0.01, {nd})",
        f"CAST(FLOOR({x} / {rng.randint(2, 50)}) AS BIGINT)",
    ], 3)
    q = (f"SELECT {exprs[0]} AS c0, {exprs[1]} AS c1, {exprs[2]} AS c2 "
         f"FROM {table} WHERE {g.predicate()} "
         f"ORDER BY c0, c1, c2 LIMIT 40")
    return q, q, True


def gen_datetrunc_group_query(rng: random.Random):
    table = rng.choice([t for t in TABLES if TABLES[t]["ts"]])
    g = Gen(rng, table)
    ts = g.col("ts")
    part = rng.choice(["year", "month", "week", "day"])
    q = (f"SELECT DATE_TRUNC('{part}', {ts}) AS k0, COUNT(*) AS a0, "
         f"MIN(EXTRACT(month FROM {ts})) AS a1 "
         f"FROM {table} GROUP BY 1")
    return q, q, True


def gen_groupby_expr_query(rng: random.Random):
    # GROUP BY a computed expression (not a bare column)
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    c = g.col("int")
    m = rng.randint(2, 9)
    key = rng.choice([
        f"CAST({c} % {m} AS BIGINT)",
        f"SUBSTRING({g.col('str')}, 1, {rng.randint(1, 2)})",
        f"CASE WHEN {c} % 2 = 0 THEN 'even' ELSE 'odd' END",
    ])
    q = (f"SELECT {key} AS k0, COUNT(*) AS a0, "
         f"SUM(CAST({g.col('int')} AS DOUBLE)) AS a1 "
         f"FROM {table} GROUP BY {key}")
    return q, q, True


def gen_limit_offset_query(rng: random.Random):
    table = rng.choice(list(UNIQUE_ORDER))
    g = Gen(rng, table)
    uid = UNIQUE_ORDER[table][0]
    lim = rng.randint(1, 30)
    off = rng.randint(0, 50)
    desc = rng.choice(["", " DESC"])
    q = (f"SELECT {uid} AS c0, {g.col('str')} AS c1 FROM {table} "
         f"WHERE {g.predicate()} ORDER BY {uid}{desc} "
         f"LIMIT {lim} OFFSET {off}")
    return q, q, True


def gen_exists_residual_query(rng: random.Random):
    # correlated EXISTS with an extra NON-equality correlation predicate
    neg = rng.choice(["", "NOT "])
    cmp_ = rng.choice(["<", ">", "<>"])
    q = (f"SELECT COUNT(*) AS a0 FROM customer WHERE {neg}EXISTS ("
         f"SELECT 1 FROM orders WHERE o_custkey = c_custkey "
         f"AND o_orderkey {cmp_} c_custkey * {rng.randint(2, 20)})")
    return q, q, True


def gen_named_window_query(rng: random.Random):
    # WINDOW w AS (…) named specs + IGNORE NULLS nav functions (NULLIF
    # manufactures the nulls the testdata lacks)
    table = rng.choice(list(UNIQUE_ORDER))
    g = Gen(rng, table)
    part = g.col("str")
    uid = UNIQUE_ORDER[table][0]
    m = rng.randint(2, 5)
    v = f"NULLIF(CAST({g.col('int')} % {m} AS BIGINT), 0)"
    fn = rng.choice([
        f"FIRST_VALUE({v} IGNORE NULLS)",
        f"LAST_VALUE({v} IGNORE NULLS)",
        f"LAG({v}, 1) ",
        "ROW_NUMBER()",
        f"SUM({v})",
    ])
    q = (f"SELECT {part} AS c0, {uid} AS c1, {fn} OVER w AS c2 "
         f"FROM {table} WINDOW w AS (PARTITION BY {part} ORDER BY {uid})")
    return q, q, True


def gen_holistic_agg_query(rng: random.Random):
    # holistic aggregates: MEDIAN / QUANTILE_CONT / PERCENTILE_CONT
    # WITHIN GROUP / ARRAY_AGG(ORDER BY) / STRING_AGG(ORDER BY)
    table = rng.choice(list(UNIQUE_ORDER))
    g = Gen(rng, table)
    k = g.col("str")
    x = f"CAST({g.col('int')} AS DOUBLE)"
    pq_ = round(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]), 2)
    uid = UNIQUE_ORDER[table][0]
    shape = rng.random()
    if shape < 0.4:
        q = (f"SELECT {k} AS k0, MEDIAN({x}) AS a0, "
             f"QUANTILE_CONT({x}, {pq_}) AS a1 "
             f"FROM {table} GROUP BY 1")
    elif shape < 0.7:
        q = (f"SELECT {k} AS k0, "
             f"PERCENTILE_CONT({pq_}) WITHIN GROUP (ORDER BY {x}) AS a0, "
             f"COUNT(*) AS a1 FROM {table} GROUP BY 1")
    else:
        lim = rng.randint(15, 40)
        q = (f"SELECT {k} AS k0, "
             f"ARRAY_TO_STRING(ARRAY_AGG({uid} ORDER BY {uid}), ',') AS a0 "
             f"FROM (SELECT * FROM {table} ORDER BY {uid} LIMIT {lim}) d "
             f"GROUP BY 1")
    return q, q, True


def gen_kitchen_sink_query(rng: random.Random):
    # compositional stress: CTE over a join → window in a derived table →
    # QUALIFY / outer aggregate / set-op tail, all in one statement
    m = rng.randint(2, 6)
    inner = (
        "WITH j AS (SELECT c_mktsegment AS seg, o_orderkey AS ok, "
        "CAST(o_totalprice AS DOUBLE) AS tp "
        "FROM orders JOIN customer ON o_custkey = c_custkey"
        + (f" WHERE o_orderkey % {m} = 0" if rng.random() < 0.6 else "")
        + ") ")
    shape = rng.random()
    if shape < 0.35:
        # window + QUALIFY over the CTE
        k = rng.randint(2, 6)
        q = (inner + "SELECT seg, ok, tp FROM j "
             "QUALIFY ROW_NUMBER() OVER (PARTITION BY seg ORDER BY ok) "
             f"<= {k}")
        return q, q, True
    if shape < 0.65:
        # derived-table window → outer aggregate
        q = (inner + "SELECT seg AS k0, COUNT(*) AS a0, "
             "ROUND(SUM(rk * 1.0), 2) AS a1 FROM "
             "(SELECT seg, RANK() OVER (PARTITION BY seg ORDER BY ok) "
             "AS rk FROM j) d "
             f"WHERE rk <= {rng.randint(5, 40)} GROUP BY 1")
        return q, q, True
    # CTE + set-op tail with an aggregate arm
    q = (inner + "SELECT seg AS c0 FROM j WHERE tp > "
         f"{rng.randint(50000, 300000)} "
         "INTERSECT SELECT seg AS c0 FROM j")
    return q, q, True


def gen_range_frame_query(rng: random.Random):
    # RANGE BETWEEN <value> PRECEDING/FOLLOWING over a numeric ORDER BY
    table = rng.choice(list(UNIQUE_ORDER))
    g = Gen(rng, table)
    part = g.col("str")
    uid = UNIQUE_ORDER[table][0]
    lo, hi = rng.randint(1, 50), rng.randint(1, 30)
    frame = rng.choice([
        f"RANGE BETWEEN {lo} PRECEDING AND {hi} FOLLOWING",
        f"RANGE BETWEEN {lo} PRECEDING AND CURRENT ROW",
        "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
    ])
    agg = rng.choice(["COUNT(*)", f"SUM(CAST({g.col('int')} AS DOUBLE))",
                      f"MIN(CAST({uid} AS DOUBLE))"])
    q = (f"SELECT {part} AS c0, {uid} AS c1, "
         f"{agg} OVER (PARTITION BY {part} ORDER BY {uid} {frame}) AS c2 "
         f"FROM {table}")
    return q, q, True


def gen_cube_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    a = g.col("str")
    b = f"CAST({g.col('int')} % {rng.randint(2, 5)} AS BIGINT)"
    form = rng.choice([
        f"CUBE ({a}, {b})", f"ROLLUP ({a}, {b})",
        f"GROUPING SETS (({a}), ({b}), ())",
        f"GROUPING SETS (({a}, {b}), ())",
    ])
    q = (f"SELECT {a} AS k0, {b} AS k1, COUNT(*) AS a0, "
         f"SUM(CAST({g.col('int')} AS DOUBLE)) AS a1, "
         f"GROUPING({a}) AS g0 "
         f"FROM {table} GROUP BY {form}")
    return q, q, True


def gen_multicol_setop_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    a, b = g.col("str"), g.col("int")
    m = rng.randint(2, 6)
    # NOTE: bare UNION is deliberately UNION ALL in this dialect
    # (reference parity, ops/sql/Union.scala) — spell DISTINCT explicitly
    op = rng.choice(["EXCEPT", "INTERSECT", "UNION DISTINCT", "UNION ALL"])
    w1 = f" WHERE {g.predicate()}" if rng.random() < 0.6 else ""
    w2 = f" WHERE {g.predicate()}" if rng.random() < 0.6 else ""
    q = (f"SELECT {a} AS c0, CAST({b} % {m} AS BIGINT) AS c1 "
         f"FROM {table}{w1} {op} "
         f"SELECT {a} AS c0, CAST({b} % {m} AS BIGINT) AS c1 "
         f"FROM {table}{w2}")
    return q, q, True


def gen_distinct_from_query(rng: random.Random):
    # IS [NOT] DISTINCT FROM — null-safe comparison in WHERE and SELECT
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    c = g.col("int")
    m = rng.randint(2, 7)
    lhs = f"NULLIF(CAST({c} % {m} AS BIGINT), 0)"
    rhs = rng.choice(["1", "NULL", f"NULLIF(CAST({g.col('int')} % {m} AS BIGINT), 0)"])
    neg = rng.choice(["", "NOT "])
    q = (f"SELECT ({lhs} IS {neg}DISTINCT FROM {rhs}) AS c0, "
         f"COUNT(*) AS a0 FROM {table} GROUP BY 1")
    return q, q, True


def gen_trycast_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    s = g.col("str")
    i = g.col("int")
    q = (f"SELECT TRY_CAST({s} AS INTEGER) AS c0, "
         f"TRY_CAST(CAST({i} AS VARCHAR) AS BIGINT) AS c1, "
         f"TRY_CAST(SUBSTRING({s}, {rng.randint(1, 3)}, 2) AS INTEGER) AS c2,"
         f" COUNT(*) AS a0 FROM {table} GROUP BY 1, 2, 3")
    return q, q, True


def gen_like_escape_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    s = g.col("str")
    pat, esc = rng.choice([
        ("%!_%", "!"), ("%x!%%", "!"), ("!_%", "!"), ("%a#_b%", "#"),
    ])
    neg = rng.choice(["", "NOT "])
    q = (f"SELECT COUNT(*) AS a0 FROM {table} "
         f"WHERE {s} {neg}LIKE '{pat}' ESCAPE '{esc}'")
    return q, q, True


def gen_regexp_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    s = g.col("str")
    pat = rng.choice(["^[A-F]", "[0-9]+$", "a.*e", "^.{3,8}$", "(o|i)n"])
    q = (f"SELECT REGEXP_MATCHES({s}, '{pat}') AS c0, "
         f"REGEXP_REPLACE({s}, '{pat}', '_') AS c1, COUNT(*) AS a0 "
         f"FROM {table} GROUP BY 1, 2")
    return q, q, True


def gen_strcase_query(rng: random.Random):
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    s = g.col("str")
    exprs = rng.sample([
        f"REVERSE({s})", f"REPLACE({s}, 'a', 'X')",
        f"INSTR({s}, '{rng.choice('aeo#-')}')",
        f"LOWER({s})", f"UPPER(SUBSTRING({s}, 2, 3))",
        f"LENGTH(TRIM({s}))",
    ], 3)
    q = (f"SELECT {exprs[0]} AS c0, {exprs[1]} AS c1, {exprs[2]} AS c2, "
         f"COUNT(*) AS a0 FROM {table} GROUP BY 1, 2, 3")
    return q, q, True


def gen_datepart_query(rng: random.Random):
    table = rng.choice([t for t in TABLES if TABLES[t]["ts"]])
    g = Gen(rng, table)
    ts = g.col("ts")
    parts = rng.sample(["year", "month", "day", "dow", "doy", "week",
                        "quarter", "hour"], 3)
    q = (f"SELECT DATE_PART('{parts[0]}', {ts}) AS c0, "
         f"DATE_PART('{parts[1]}', {ts}) AS c1, "
         f"EXTRACT({parts[2]} FROM {ts}) AS c2, COUNT(*) AS a0 "
         f"FROM {table} GROUP BY 1, 2, 3")
    return q, q, True


def gen_query(rng: random.Random):
    r = rng.random()
    if r < 0.10:
        r2 = rng.random()
        if r2 < 0.25:
            return gen_range_frame_query(rng)
        if r2 < 0.5:
            return gen_cube_query(rng)
        if r2 < 0.6:
            return gen_multicol_setop_query(rng)
        if r2 < 0.73:
            return gen_kitchen_sink_query(rng)
        if r2 < 0.87:
            return gen_holistic_agg_query(rng)
        return gen_named_window_query(rng)
    r = rng.random()
    if r < 0.10:
        r2 = rng.random()
        if r2 < 1 / 6:
            return gen_distinct_from_query(rng)
        if r2 < 2 / 6:
            return gen_trycast_query(rng)
        if r2 < 3 / 6:
            return gen_like_escape_query(rng)
        if r2 < 4 / 6:
            return gen_regexp_query(rng)
        if r2 < 5 / 6:
            return gen_strcase_query(rng)
        return gen_datepart_query(rng)
    r = rng.random()
    if r < 0.12:
        r2 = rng.random()
        if r2 < 1 / 7:
            return gen_setop_all_query(rng)
        if r2 < 2 / 7:
            return gen_leftjoin_agg_query(rng)
        if r2 < 3 / 7:
            return gen_round_math_query(rng)
        if r2 < 4 / 7:
            return gen_datetrunc_group_query(rng)
        if r2 < 5 / 7:
            return gen_groupby_expr_query(rng)
        if r2 < 6 / 7:
            return gen_limit_offset_query(rng)
        return gen_exists_residual_query(rng)
    r = rng.random()
    if r < 0.10:
        r2 = rng.random()
        if r2 < 1 / 6:
            return gen_corr_scalar_subquery(rng)
        if r2 < 2 / 6:
            return gen_cond_agg_query(rng)
        if r2 < 3 / 6:
            return gen_nullif_chain_query(rng)
        if r2 < 4 / 6:
            return gen_window_in_derived_query(rng)
        if r2 < 5 / 6:
            return gen_multi_distinct_query(rng)
        return gen_string_agg_query(rng)
    r = rng.random()
    if r < 0.10:
        r2 = rng.random()
        if r2 < 0.36:
            return gen_exists_in_case_query(rng)
        if r2 < 0.72:
            return gen_setop_over_window_query(rng)
        return gen_having_exists_query(rng)
    r = rng.random()
    if r < 0.035:
        return gen_exists_query(rng)
    if r < 0.065:
        return gen_qualify_query(rng)
    if r < 0.09:
        return gen_nulls_order_query(rng)
    if r < 0.115:
        return gen_having_unselected(rng)
    if r < 0.165:
        return gen_frame_window_query(rng)
    if r < 0.215:
        return gen_leadlag_query(rng)
    if r < 0.255:
        return gen_stats_agg_query(rng)
    if r < 0.295:
        return gen_math_query(rng)
    if r < 0.325:
        return gen_datearith_query(rng)
    if r < 0.345:
        return gen_case_simple_query(rng)
    if r < 0.365:
        return gen_notin_null_query(rng)
    if r < 0.385:
        return gen_nested_setop_query(rng)
    r = rng.random()
    if r < 0.10:
        return gen_join_query(rng)
    if r < 0.19:
        return gen_subquery_query(rng)
    if r < 0.27:
        return gen_window_query(rng)
    if r < 0.33:
        return gen_setop_query(rng)
    if r < 0.39:
        return gen_cte_query(rng)
    if r < 0.45:
        return gen_rollup_query(rng)
    if r < 0.50:
        return gen_datefn_query(rng)
    if r < 0.55:
        return gen_strfn_query(rng)
    if r < 0.58:
        return gen_three_way_join(rng)
    table = rng.choice(list(TABLES))
    g = Gen(rng, table)
    shape = rng.random()
    where = f" WHERE {g.predicate()}" if rng.random() < 0.7 else ""
    if shape < 0.45:
        # flat projection
        ncols = rng.randint(1, 4)
        items = ", ".join(f"{g.scalar()} AS c{i}" for i in range(ncols))
        order = ""
        limit = ""
        if rng.random() < 0.5:
            # order by EVERY output column so LIMIT selects a deterministic
            # multiset (ordering one column leaves ties at the cut, where
            # both engines are free to pick different rows)
            order = " ORDER BY " + ", ".join(f"c{i}" for i in range(ncols))
            if rng.random() < 0.5:
                limit = f" LIMIT {rng.randint(1, 50)}"
        q = f"SELECT {items} FROM {table}{where}{order}{limit}"
        return q, q, True
    if shape < 0.85:
        # grouped aggregate
        nkeys = rng.randint(1, 2)
        keys = []
        for _ in range(nkeys):
            if rng.random() < 0.6:
                keys.append(g.col("str"))
            else:
                keys.append(f"CAST({g.col('int')} % {rng.randint(2, 7)} AS BIGINT)")
        keysel = ", ".join(f"{k} AS k{i}" for i, k in enumerate(keys))
        mine_aggs, oracle_aggs = zip(*(g.agg(i)
                                       for i in range(rng.randint(1, 3))))
        gb = ", ".join(str(i + 1) for i in range(nkeys))
        having = ""
        if rng.random() < 0.3:
            having = f" HAVING COUNT(*) > {rng.randint(0, 3)}"
        q_mine = (f"SELECT {keysel}, {', '.join(mine_aggs)} FROM {table}"
                  f"{where} GROUP BY {gb}{having}")
        q_ora = (f"SELECT {keysel}, {', '.join(oracle_aggs)} FROM {table}"
                 f"{where} GROUP BY {gb}{having}")
        return q_mine, q_ora, True
    # distinct / set op. NOTE the documented dialect split: this engine's
    # bare UNION is UNION ALL (reference ops/sql/Union.scala parity), so
    # spell UNION ALL / UNION DISTINCT explicitly on the engine side and
    # the matching ANSI form on the DuckDB side.
    c1, c2 = g.col("str"), g.col("str")
    q = f"SELECT DISTINCT {c1} AS c0 FROM {table}{where}"
    r = rng.random()
    if r < 0.33:
        both = (f"SELECT {c1} AS c0 FROM {table}{where} "
                f"UNION ALL SELECT {c2} AS c0 FROM {table}")
        return both, both, True
    if r < 0.66:
        mine = (f"SELECT {c1} AS c0 FROM {table}{where} "
                f"UNION DISTINCT SELECT {c2} AS c0 FROM {table}")
        ora = (f"SELECT {c1} AS c0 FROM {table}{where} "
               f"UNION SELECT {c2} AS c0 FROM {table}")
        return mine, ora, True
    return q, q, True


def compare(mine: pd.DataFrame, ora: pd.DataFrame) -> str:
    if sorted(map(str.lower, mine.columns)) != sorted(map(str.lower, ora.columns)):
        return f"SCHEMA {sorted(mine.columns)} vs {sorted(ora.columns)}"
    mine = mine.reindex(sorted(mine.columns), axis=1)
    ora = ora.rename(columns={c: c.lower() for c in ora.columns})
    ora = ora.reindex(sorted(ora.columns), axis=1)
    if len(mine) != len(ora):
        return f"ROWS {len(mine)} vs {len(ora)}"
    if not len(mine):
        return ""
    # sort keys: non-float columns FIRST, float columns last and ROUNDED
    # for ordering only — engine fsum vs DuckDB SIMD sums differ in the
    # last ulp, and a float sort key ahead of the group key would swap
    # tie order between the two sides (false k0 "mismatches")
    # a column counts as float if EITHER side types it float (the engine
    # may emit int64 where DuckDB picks double, or vice versa)
    floatish = {c for c in mine.columns
                if mine[c].dtype.kind == "f" or ora[c].dtype.kind == "f"}

    def sortable(df: pd.DataFrame) -> pd.DataFrame:
        s = df.copy()
        for c in floatish:
            s["__sort_" + c] = s[c].astype(float).round(6)
        return s

    nonf = [c for c in mine.columns if c not in floatish]
    fl = ["__sort_" + c for c in mine.columns if c in floatish]
    key = nonf + fl
    a = sortable(mine).sort_values(key, ignore_index=True,
                                   na_position="last")[list(mine.columns)]
    e = sortable(ora).sort_values(key, ignore_index=True,
                                  na_position="last")[list(ora.columns)]
    for c in a.columns:
        av, ev = a[c], e[c]
        try:
            avf = av.astype(float).to_numpy()
            evf = ev.astype(float).to_numpy()
            ok = np.isclose(avf, evf, rtol=1e-9, atol=1e-9, equal_nan=True)
            if not ok.all():
                i = int(np.argmin(ok))
                return f"VALUE col {c} row {i}: {avf[i]!r} vs {evf[i]!r}"
        except (ValueError, TypeError):
            avs = av.astype("string").fillna("\0null")
            evs = ev.astype("string").fillna("\0null")
            if not (avs == evs).all():
                i = int((avs != evs).to_numpy().argmax())
                return f"VALUE col {c} row {i}: {avs[i]!r} vs {evs[i]!r}"
    return ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--sf", default="/root/testdata/sf0.001")
    ap.add_argument("--bucket-route", action="store_true",
                    help="force the key-hash bucket route of every exchange")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from qwery_ray.engine.session import QweryEngine
    if args.bucket_route:
        from qwery_ray.sqlc.compiler import Compiler
        Compiler.SMALL_PARTIALS_LIMIT = 0
    sess = QweryEngine(table_root=args.sf)
    con = duckdb.connect()
    for t in list(TABLES) + ["nation", "region"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{args.sf}/{t}.parquet')")

    rng = random.Random(args.seed)
    bad = 0
    for i in range(args.n):
        q_mine, q_ora, _sortable = gen_query(rng)
        try:
            res = sess.sql(q_mine)
            mine = res.to_pandas() if hasattr(res, "to_pandas") else res
        except Exception as ex:
            print(f"[{i}] ENGINE-ERR {type(ex).__name__}: {str(ex)[:100]}\n    {q_mine}")
            bad += 1
            continue
        try:
            ora = con.execute(q_ora).df()
        except Exception as ex:
            print(f"[{i}] ORACLE-ERR {type(ex).__name__}: {str(ex)[:100]}\n    {q_ora}")
            continue  # oracle rejected the query — grammar bug, not engine
        diff = compare(mine, ora)
        if diff:
            print(f"[{i}] MISMATCH {diff}\n    {q_mine}")
            bad += 1
    route = ", bucket route" if args.bucket_route else ""
    print(f"\n{args.n} queries, {bad} failures (seed={args.seed}{route})")
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
