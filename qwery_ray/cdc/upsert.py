"""Keyed-table UPSERT / UPDATE for the SQL surface, and the Arrow
keyed-write core that MERGE shares.

Reference semantics: UPSERT INTO ... KEYED ON = insert-else-update per key
(ops/sql/Upsert.scala:14-32 + JDBCOutputSource.scala:62-104); UPDATE ... KEYED
ON = keyed in-place update (ops/sql/Update.scala:19-45). The reference's target
is a JDBC table; here it is a single parquet file (for the partitioned,
streaming, exactly-once lake path see ``qwery_ray.cdc.engine``).

The source Dataset streams; the TARGET table is materialized driver-side —
this operator is for dimension-table-sized keyed targets. Within the incoming
batch, the LAST occurrence per key wins, matching the reference's sequential
row-at-a-time application.

Every keyed write is Arrow end to end, on three shared primitives:
:func:`_pair_keys` (null-safe key pairing: a NULL key equals a NULL key,
``(1, NULL)`` differs from ``(2, NULL)``), :func:`_last_in_table` (last
occurrence per key) and :func:`_scatter` (columnar in-place update). Rows
from both sides are unioned under the single-file writer's schema policy
(:func:`qwery_ray.sources.writers._unify`). Rewritten files carry no pandas
schema metadata, like INSERT-written files.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ..sources.writers import _unify
from ..sqlc.asof import PadToSchema


def _collect_table(ds: rd.Dataset) -> pa.Table:
    """The whole dataset as one driver-side table; a dataset without rows
    (whose materialized blocks may have no columns) gives ``pa.table({})``."""
    batches = [b for b in ds.iter_batches(batch_size=None,
                                          batch_format="pyarrow") if len(b)]
    if not batches:
        return pa.table({})
    return pa.concat_tables(batches, promote_options="permissive")


def _union(tables: list[pa.Table]) -> pa.Table:
    """Row-concatenate under one schema: :func:`_unify`'s column union with
    null backfill and permissive numeric widening, in first-seen column
    order."""
    schema = tables[0].schema
    for t in tables[1:]:
        schema = _unify(schema, t.schema)
    pad = PadToSchema(schema)
    return pa.concat_tables([pad(t) for t in tables])


def _replace_file(t: pa.Table, path: str) -> None:
    """Write ``t`` to ``path`` atomically (tmp file + rename)."""
    tmp = path + ".tmp"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    pq.write_table(t.replace_schema_metadata(None), tmp)
    os.replace(tmp, path)  # atomic visibility point


def _pair_keys(target: pa.Table, tkeys: list[str], source: pa.Table,
               skeys: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs ``(target_rows, source_rows)`` whose keys are equal, as two
    int64 arrays sorted by target row, then source row. NULL equals NULL
    per key column, so ``(1, NULL)`` pairs with ``(1, NULL)`` but not with
    ``(2, NULL)``: both sides join on the (is-null flag, null-filled value)
    columns of :class:`NullSafeSortKeys`, with each source key cast to the
    common type of the two key columns."""
    from ..sqlc.compiler import NullSafeSortKeys

    tcols, scols = [], []
    for tk, sk in zip(tkeys, skeys):
        tc, sc = target.column(tk), source.column(sk)
        if tc.type != sc.type:
            typ = _unify(pa.schema([("k", tc.type)]),
                         pa.schema([("k", sc.type)])).field("k").type
            tc, sc = tc.cast(typ), sc.cast(typ)
        tcols.append(tc)
        scols.append(sc)
    names = [f"k{i}" for i in range(len(tkeys))]
    enc = NullSafeSortKeys(names)
    keys = [c for i in range(len(names)) for c in (f"__nf{i}", f"__nk{i}")]

    def side(cols: list, n: int, pos: str) -> pa.Table:
        t = enc(pa.table(dict(zip(names, cols)))).select(keys)
        return t.append_column(pos, pa.array(np.arange(n, dtype=np.int64)))

    j = side(tcols, len(target), "__tid").join(
        side(scols, len(source), "__sid"), keys=keys, join_type="inner")
    tid = j.column("__tid").to_numpy()
    sid = j.column("__sid").to_numpy()
    order = np.lexsort((sid, tid))
    return tid[order], sid[order]


def _scatter(t: pa.Table, rows: np.ndarray, col: str,
             values: pa.Array) -> pa.Table:
    """``t`` with ``values[i]`` written into row ``rows[i]`` of column
    ``col`` (rows unique), cast to the column's type: one ``take`` plus one
    ``if_else`` per column, never a per-cell write. An all-NULL column of
    Arrow's null type takes the values' type."""
    i = t.column_names.index(col)
    old = t.column(i).combine_chunks()
    if pa.types.is_null(old.type):
        old = pa.nulls(len(t), values.type)
    elif values.type != old.type:
        values = values.cast(old.type)
    mask = np.zeros(len(t), dtype=bool)
    mask[rows] = True
    gather = np.zeros(len(t), dtype=np.int64)
    gather[rows] = np.arange(len(rows))
    new = pc.if_else(pa.array(mask), values.take(pa.array(gather)), old)
    return t.set_column(i, col, new)


def _as_array(val, n: int) -> pa.Array:
    """An evaluator result (array, chunked array or scalar) as an array of
    ``n`` values."""
    if isinstance(val, pa.ChunkedArray):
        return val.combine_chunks()
    if isinstance(val, pa.Array):
        return val
    return pa.array([val] * n)


#: above this estimated source size, UPSERT/UPDATE pre-reduce the source
#: per key DISTRIBUTED (last stream occurrence wins) before any driver
#: collect — driver memory then scales with DISTINCT source keys (i.e.
#: with the OUTPUT file, which is inherently driver-bounded for the
#: single-parquet target path), never with raw source row count.
SOURCE_PREREDUCE_BYTES = 128 << 20


def block_offsets(mat: rd.Dataset) -> list:
    """(block_ref, cumulative_row_offset) pairs for a MATERIALIZED
    dataset — the shared primitive for making implicit stream position
    explicit (UPSERT last-wins __pos tags, lake-MERGE fresh LSNs).
    Unknown num_rows metadata is counted by a remote per-block len()
    task; rows never move to the driver."""
    import ray

    blocks = list(mat._plan.execute().blocks)
    counts = [meta.num_rows for _, meta in blocks]
    missing = [i for i, c in enumerate(counts) if c is None]
    if missing:
        @ray.remote
        def _len(b) -> int:
            return len(b)

        for i, n in zip(missing,
                        ray.get([_len.remote(blocks[i][0])
                                 for i in missing])):
            counts[i] = n
    offsets = np.cumsum([0] + counts[:-1])
    return [(ref, int(off)) for (ref, _), off in zip(blocks, offsets)]


def _last_in_table(t: pa.Table, keys: list[str]) -> pa.Table:
    """Keep each key's max-__pos row of one Arrow table, in ``t``'s row
    order. NULL key values group together."""
    last = t.select(keys + ["__pos"]).group_by(keys, use_threads=False) \
        .aggregate([("__pos", "max")])
    return t.filter(pc.is_in(t.column("__pos"),
                             value_set=last.column("__pos_max")))


def _last_per_key_distributed(mat: rd.Dataset, keys: list[str]) -> pa.Table:
    """Distributed last-occurrence-per-key reduction of a LARGE source.

    The implicit stream position ("last wins" = last in SELECT order,
    matching the reference's sequential row-at-a-time application,
    ops/sql/Upsert.scala:14-32) is made explicit as a __pos column from
    per-block offsets of the materialized metadata; each batch
    pre-combines (the replay combiner's shape — shuffle volume is bounded by
    distinct-keys-per-batch), then ONE groupby shuffle keeps the global
    max-__pos row per key. Only the reduced stream reaches the driver."""
    import ray

    @ray.remote
    def _tag(block, off: int) -> pa.Table:
        if not isinstance(block, pa.Table):  # pandas-format block
            block = pa.Table.from_pandas(block, preserve_index=False)
        return block.append_column(
            "__pos", pa.array(np.arange(off, off + len(block),
                                        dtype=np.int64)))

    tagged = rd.from_arrow_refs(
        [_tag.remote(ref, off) for ref, off in block_offsets(mat)])

    # NULL key values: Ray's sort-shuffle groupby hands a None to its
    # boundary sampler and dies in searchsorted — group on null-safe
    # (is-null flag, null-filled copy) encodings instead, exactly like
    # the compiler's aggregate path; original key columns pass through
    from ..sqlc.compiler import NullSafeSortKeys

    enc_keys = [c for i in range(len(keys))
                for c in (f"__nf{i}", f"__nk{i}")]

    def last(batch: pa.Table) -> pa.Table:
        return _last_in_table(batch, keys) if len(batch) else batch

    reduced = tagged.map_batches(last, batch_format="pyarrow") \
        .map_batches(NullSafeSortKeys(keys), batch_format="pyarrow") \
        .groupby(enc_keys).map_groups(last, batch_format="pyarrow") \
        .map_batches(lambda t: t.drop_columns(
            [c for c in enc_keys if c in t.column_names]),
            batch_format="pyarrow")
    out = _collect_table(reduced)
    if not len(out):
        return out
    # restore stream order so the rewritten file's row order matches the
    # sequential-application order the small path produces
    return out.sort_by("__pos").drop_columns(["__pos"])


def _collect_last_per_key(ds: rd.Dataset, keys: list[str]) -> pa.Table:
    """Collect a source with last-occurrence-per-key semantics, in the
    stream order of those last occurrences: small sources reduce on the
    driver; large sources reduce distributed first so the driver never
    holds raw source rows."""
    mat = ds.materialize()
    if (mat.size_bytes() or 0) > SOURCE_PREREDUCE_BYTES:
        return _last_per_key_distributed(mat, keys)
    new = _collect_table(mat)
    if not len(new):
        return new
    pos = pa.array(np.arange(len(new), dtype=np.int64))
    return _last_in_table(new.append_column("__pos", pos), keys) \
        .drop_columns(["__pos"])


def upsert_into_parquet(ds: rd.Dataset, path: str, keys: list[str]) -> tuple[int, int]:
    """Returns (rows_inserted, rows_updated)."""
    # last occurrence per key wins within the incoming stream; a large
    # source LWW-reduces per key DISTRIBUTED before the driver sees it
    new = _collect_last_per_key(ds, keys)
    if not len(new):
        return 0, 0
    merged, updated = new, 0
    if os.path.exists(path):
        old = pq.read_table(path)
        tid, sid = _pair_keys(old, keys, new, keys)
        updated = len(np.unique(sid))
        keep = np.ones(len(old), dtype=bool)
        keep[tid] = False
        merged = _union([old.filter(pa.array(keep)), new])
    _replace_file(merged, path)
    return len(new) - updated, updated


def update_parquet(ds: rd.Dataset, path: str, keys: list[str],
                   assignments: list[tuple[str, object]], env: dict) -> int:
    """Applies ``SET col = expr`` (evaluated against each SOURCE row) to target
    rows with a matching key. Returns rows_updated."""
    from ..sqlc.compiler import make_evaluator

    # per-key last-wins reduction commutes with the row-wise SET
    # evaluation below, so a large source reduces DISTRIBUTED first and
    # the driver only ever evaluates one row per distinct key
    src = _collect_last_per_key(ds, keys)
    if not len(src) or not os.path.exists(path):
        return 0
    ev = make_evaluator(env)
    target = pq.read_table(path)
    tid, sid = _pair_keys(target, keys, src, keys)
    if len(tid):
        for name, expr in assignments:
            if name not in target.column_names:
                target = target.append_column(
                    name, pa.nulls(len(target)))
            vals = _as_array(ev.eval(expr, src), len(src))
            target = _scatter(target, tid, name, vals.take(pa.array(sid)))
    _replace_file(target, path)
    return len(tid)


def update_where_parquet(path: str, assignments, where, env: dict) -> int:
    """ANSI in-place UPDATE <file> SET a=e [WHERE cond]: evaluate the SET
    expressions over the matching rows (NULL predicate skips the row, SQL
    semantics), rewrite atomically. Returns rows_updated. File targets
    only — big-data updates flow through the CDC lake as LWW events."""
    from ..sqlc.compiler import make_evaluator

    if not os.path.exists(path):
        return 0
    if os.path.isdir(path):
        raise ValueError(
            "UPDATE targets a single parquet file; lake/directory updates "
            "go through UPSERT INTO ... WITH LAKE")
    tbl = pq.read_table(path)
    ev = make_evaluator(env)
    if where is None:
        mask = pa.array([True] * len(tbl), pa.bool_())
    else:
        mask = ev.eval_mask(where, tbl)
    n_upd = pc.sum(mask).as_py() or 0
    if n_upd:
        # ANSI row semantics: every SET source expression is evaluated
        # against the PRE-update row (UPDATE t SET a=b, b=a swaps), and only
        # over the WHERE-selected rows (an expression that errors on an
        # excluded row must not fail the statement). So: filter first,
        # evaluate ALL expressions against that snapshot, then scatter.
        sel = tbl.filter(mask)
        evaluated: list[tuple[str, pa.Array]] = []
        for name, expr in assignments:
            if name not in tbl.column_names:
                raise ValueError(f"UPDATE: unknown column {name!r}")
            evaluated.append((name, _as_array(ev.eval(expr, sel), len(sel))))
        rows = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
        for name, val in evaluated:
            tbl = _scatter(tbl, rows, name, val)
        _replace_file(tbl, path)
    return int(n_upd)


def delete_parquet(path: str, where, env: dict) -> int:
    """DELETE FROM <file> [WHERE cond]: drop rows where cond is TRUE (NULL
    keeps the row — SQL semantics, eval_mask fills nulls False), rewrite
    atomically. Returns rows_deleted. File targets only; big-data deletes
    flow through the CDC lake as __deleted events."""
    from ..sqlc.compiler import make_evaluator

    if not os.path.exists(path):
        return 0
    if os.path.isdir(path):
        raise ValueError(
            "DELETE targets a single parquet file; lake/directory deletes "
            "go through UPSERT INTO ... WITH LAKE (__deleted events)")
    tbl = pq.read_table(path)
    if where is None:
        keep = tbl.slice(0, 0)
    else:
        mask = make_evaluator(env).eval_mask(where, tbl)
        keep = tbl.filter(pc.invert(mask))
    deleted = len(tbl) - len(keep)
    if deleted:
        _replace_file(keep, path)
    return deleted
