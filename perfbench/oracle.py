"""Output checks against DuckDB oracles.

Every check here is written so that a correct program cannot fail it: rows
are compared without regard to order unless the statement orders them,
floats with a relative tolerance, and an ``ORDER BY … LIMIT`` result only
on its sort-key values (ties at the cut are legal).
"""

from __future__ import annotations

import math
from typing import Optional

import duckdb
import pyarrow as pa

REL_TOL = 1e-6

DIGEST_COLS = ("repo", "path", "lsn", "content", "size_bytes")


class CheckFailed(AssertionError):
    """An output differs from its oracle."""


def connect() -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("SET threads TO 1")
    return con


def read_events_sql(files: list[str], upto_lsn: Optional[int] = None) -> str:
    """SQL for the change events of ``files`` (union by column name, so the
    segments that predate ``size_bytes`` read it as NULL)."""
    lst = ", ".join(f"'{f}'" for f in files)
    where = f"WHERE lsn <= {int(upto_lsn)}" if upto_lsn is not None else ""
    return (f"(SELECT * FROM read_parquet([{lst}], union_by_name = true) "
            f"{where})")


def lww_state_sql(events_sql: str) -> str:
    """Last-writer-wins final state: per key, the row of the highest LSN
    (``arg_max(op, lsn)``), kept when that op is an upsert."""
    return f"""
        SELECT e.* EXCLUDE (op) FROM {events_sql} e
        JOIN (SELECT repo, path, MAX(lsn) AS lsn, arg_max(op, lsn) AS op
              FROM {events_sql} GROUP BY repo, path) w
          ON e.repo = w.repo AND e.path = w.path AND e.lsn = w.lsn
        WHERE w.op = 'upsert'"""


def digest_sql(relation: str) -> str:
    """Row count plus an order-independent digest over key, lsn, content
    and size_bytes (columns cast so both sides hash the same types)."""
    h = ("hash(repo::VARCHAR, path::VARCHAR, lsn::BIGINT, content::VARCHAR, "
         "size_bytes::BIGINT)")
    return (f"SELECT COUNT(*) AS n, bit_xor({h}) AS x, "
            f"SUM(({h} >> 20)::HUGEINT) AS s FROM {relation}")


def state_digest(con, events_files: list[str],
                 upto_lsn: Optional[int] = None) -> tuple:
    ev = read_events_sql(events_files, upto_lsn)
    return tuple(con.execute(digest_sql(f"({lww_state_sql(ev)})"))
                 .fetchone())


def table_digest(con, table: pa.Table) -> tuple:
    if "size_bytes" not in table.column_names:
        table = table.append_column(
            "size_bytes", pa.nulls(table.num_rows, pa.int64()))
    con.register("_lake_state", table)
    try:
        return tuple(con.execute(digest_sql("_lake_state")).fetchone())
    finally:
        con.unregister("_lake_state")


def check_lake_state(con, lake_table: pa.Table, events_files: list[str],
                     what: str) -> None:
    want = state_digest(con, events_files)
    got = table_digest(con, lake_table)
    if got != want:
        raise CheckFailed(f"{what}: lake state (rows, digest) {got} != "
                          f"LWW oracle {want}")


# ----------------------------------------------------- result comparison
def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)
    return a == b


def _sort_key(row):
    # floats last and coarsened: equal-within-tolerance rows must sort
    # the same way on both sides
    key = []
    for v in row:
        if isinstance(v, float):
            key.append((1, float(f"{v:.6g}") if not math.isnan(v) else 0.0))
        elif v is None:
            key.append((2, ""))
        else:
            key.append((0, str(v)))
    return key


def rows_of(result) -> list[tuple]:
    """A query result (Arrow table or pandas frame) as positional rows."""
    if not isinstance(result, pa.Table):
        result = pa.Table.from_pandas(result, preserve_index=False)
    cols = [c.to_pylist() for c in result.columns]
    return list(zip(*cols)) if cols else []


def compare(name: str, got: list[tuple], want: list[tuple], *,
            ordered: bool = False, key_cols: Optional[list[int]] = None
            ) -> None:
    """Raise CheckFailed unless ``got`` matches ``want``.

    ``ordered``: the statement has ORDER BY, so row order counts.
    ``key_cols``: compare only these positions (the ORDER BY … LIMIT case,
    where rows tied at the cut may legally differ)."""
    if len(got) != len(want):
        raise CheckFailed(f"{name}: {len(got)} rows, oracle has {len(want)}")
    if key_cols is not None:
        got = [tuple(r[i] for i in key_cols) for r in got]
        want = [tuple(r[i] for i in key_cols) for r in want]
    if got and want and len(got[0]) != len(want[0]):
        raise CheckFailed(f"{name}: {len(got[0])} columns, oracle has "
                          f"{len(want[0])}")
    if not ordered:
        got = sorted(got, key=_sort_key)
        want = sorted(want, key=_sort_key)
    for i, (g, w) in enumerate(zip(got, want)):
        if not all(_close(a, b) for a, b in zip(g, w)):
            raise CheckFailed(f"{name}: row {i} is {g}, oracle has {w}")


def components_oracle(doc_ids: list[int]) -> list[tuple]:
    """(id, min-id component) over the edges doc i → i+1 where i % 7 < 3
    (the edge set of the ``near_dup_components`` driver query), by
    union-find."""
    ids = set(doc_ids)
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in sorted(ids):
        if a % 7 < 3 and a + 1 in ids:
            for v in (a, a + 1):
                parent.setdefault(v, v)
            ra, rb = find(a), find(a + 1)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return sorted((v, find(v)) for v in parent)
