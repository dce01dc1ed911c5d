"""Logical plan → Ray Data pipeline compiler.

Each SQL statement compiles to a lazy chain of Dataset transformations:
filter/project → ``map_batches(batch_format="pyarrow")`` with vectorized
kernels; GROUP BY → per-batch partial aggregation (combiner) followed by
one exchange that merges each group's partials with the same kernel, in
one task for small inputs or per key-hash bucket; ORDER BY → ``ds.sort``;
joins → broadcast hash join for small right sides (``ray.put`` once) or
Ray's hash-partitioned ``Dataset.join`` for large-large.

Reference semantics source: core/ops/sql/Select.scala:15-92 (evaluation
order), Join.scala:10-37 (INNER nested-loop — re-expressed as hash join),
Union.scala (UNION == UNION ALL), Insert.scala (positional re-label).
Divergences (sane-semantics, SURVEY.md §7.3): ORDER BY executes, LIMIT applies
after aggregation, multi-key GROUP BY.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace as dc_replace
from typing import Any, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from . import ast as A
from .exprs import (HOLISTIC_AGG_NAMES, Evaluator, as_text, collect_agg_calls,
                    collect_column_refs, try_cast)
from .rewrite import substitute_nodes, transform_expr

BROADCAST_ROW_LIMIT = 500_000  # right sides below this are ray.put-broadcast
BROADCAST_BYTE_LIMIT = 96 * 1024 * 1024  # …or below this pruned-column size
BROADCAST_ROW_HARD_CAP = 8_000_000  # …but never beyond this many rows
# the moments family shares (sum, cnt, sq) partials; finalize differs
# sentinel for "argument is not a (signed) literal" — None is a valid
# literal value (NULL), so constant folding can't use None to mean failure
_NOT_CONST = object()

MOMENT_AGGS = ("STDDEV", "STDDEV_SAMP", "STDDEV_POP",
               "VARIANCE", "VAR_SAMP", "VAR_POP")
# two-argument (co)moment family: fn(y, x) over PAIR-complete rows (a row
# where EITHER argument is NULL is excluded — ANSI / DuckDB). All share the
# (cnt, Σx, Σy, Σx², Σy², Σxy) partials; finalize differs per function.
BIMOMENT_AGGS = ("COVAR_POP", "COVAR_SAMP", "CORR",
                 "REGR_SLOPE", "REGR_INTERCEPT", "REGR_R2", "REGR_COUNT",
                 "REGR_AVGX", "REGR_AVGY", "REGR_SXX", "REGR_SYY",
                 "REGR_SXY")
# higher central moments: (cnt, Σx, Σx², Σx³, Σx⁴) partials; finalize with
# DuckDB's bias-corrected formulas (probed: SKEWNESS = G1 needs n≥3,
# KURTOSIS = sample-corrected excess G2 needs n≥4, KURTOSIS_POP = m4/m2²−3;
# zero variance → NULL for all three)
EXT_MOMENT_AGGS = ("SKEWNESS", "KURTOSIS", "KURTOSIS_POP")
# arg-extremum family fn(arg, key): the arg value on the row whose key is
# extremal; rows where EITHER argument is NULL are ignored (DuckDB probed)
ARG_EXT_AGGS = ("ARG_MAX", "ARG_MIN", "MAX_BY", "MIN_BY")
BITWISE_AGGS = ("BIT_AND", "BIT_OR", "BIT_XOR")
BOOL_AGGS = ("BOOL_AND", "BOOL_OR")
# aggregates whose partials carry the SECOND argument too
TWO_ARG_AGGS = BIMOMENT_AGGS + ARG_EXT_AGGS


def _argext_ismax(kind: str) -> bool:
    return kind in ("ARG_MAX", "MAX_BY")


_BIT_IDENTITY = {"BIT_AND": -1, "BIT_OR": 0, "BIT_XOR": 0}
_BIT_UFUNC = {"BIT_AND": np.bitwise_and, "BIT_OR": np.bitwise_or,
              "BIT_XOR": np.bitwise_xor}


@dataclass
class Frame:
    """A Dataset plus symbolic column bookkeeping (avoids ds.schema() calls,
    which would trigger execution on derived datasets)."""

    ds: rd.Dataset
    columns: list[str]
    aliases: dict = field(default_factory=dict)  # alias(lower) → True (side marker)
    est_rows: Optional[int] = None  # known row count (parquet metadata) or None
    est_bytes: Optional[int] = None  # uncompressed bytes of the PRUNED columns


def _env(session):
    return {
        "variables": dict(session.variables),
        "udfs": dict(session.udfs),
        "now": session.now,
    }


def make_evaluator(env) -> Evaluator:
    return Evaluator(variables=env["variables"], udfs=env["udfs"], now=env["now"])


# ----------------------------------------------------------- batch callables
class FilterBatch:
    def __init__(self, cond, env):
        self.cond = cond
        self.env = env

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch
        ev = make_evaluator(self.env)
        return batch.filter(ev.eval_mask(self.cond, batch))


class ProjectBatch:
    """SELECT-list projection: evaluates each item vectorized; Star expands
    to the input columns (alias-qualified physical names are de-qualified)."""

    def __init__(self, items, env, out_names):
        self.items = items
        self.env = env
        self.out_names = out_names

    def __call__(self, batch: pa.Table) -> pa.Table:
        ev = make_evaluator(self.env)
        cols: dict[str, Any] = {}
        n = len(batch)
        for item, name in zip(self.items, self.out_names):
            if isinstance(item, A.Star):
                for cn in batch.column_names:
                    if item.table_alias is not None:
                        pref = item.table_alias.lower() + "."
                        if "." in cn and not cn.lower().startswith(pref):
                            continue
                    out = cn.split(".")[-1] if "." in cn else cn
                    key = out
                    i = 2
                    while key in cols:
                        key = f"{out}_{i}"
                        i += 1
                    cols[key] = batch.column(cn)
                continue
            val = ev.eval(item.expr, batch)
            if not isinstance(val, (pa.Array, pa.ChunkedArray)):
                val = pa.array([val] * n) if val is not None else pa.nulls(n)
            cols[name] = val
        return pa.table(cols)


class RenameBatch:
    def __init__(self, mapping: dict):
        self.mapping = mapping

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [self.mapping.get(c, c) for c in batch.column_names])


class ExplodeBatch:
    """SELECT UNNEST(list_col): explode list columns to one row per element,
    repeating the scalar columns. DuckDB zip semantics for multiple UNNESTs
    in one SELECT: per input row emit max(len) rows, shorter lists padded
    with NULL; NULL/empty lists emit no rows (alone) / pure padding (zipped).
    Streaming per-batch Arrow kernel work (list_flatten + parent indices /
    one np.repeat gather) — no shuffle, no Python row loop."""

    def __init__(self, unnest_cols: list[str]):
        self.unnest_cols = unnest_cols

    def _elem_type(self, t: pa.DataType) -> pa.DataType:
        return t.value_type if (pa.types.is_list(t) or
                                pa.types.is_large_list(t)) else t

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        if len(batch) == 0:
            cols = {}
            for cn in batch.column_names:
                col = batch.column(cn)
                if cn in self.unnest_cols:
                    cols[cn] = pa.array([], type=self._elem_type(col.type))
                else:
                    cols[cn] = col
            return pa.table(cols)
        if len(self.unnest_cols) == 1:
            cn = self.unnest_cols[0]
            lst = batch.column(cn)
            if isinstance(lst, pa.ChunkedArray):
                lst = lst.combine_chunks()
            if not (pa.types.is_list(lst.type) or
                    pa.types.is_large_list(lst.type)):
                raise ValueError(f"UNNEST({cn}): not a list column")
            parent = pc.list_parent_indices(lst)
            cols = {}
            for name in batch.column_names:
                cols[name] = pc.list_flatten(lst) if name == cn \
                    else batch.column(name).take(parent)
            return pa.table(cols)
        # zipped multi-UNNEST
        n = len(batch)
        lists, lens = {}, {}
        for cn in self.unnest_cols:
            col = batch.column(cn)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            lists[cn] = col
            lens[cn] = pc.fill_null(pc.list_value_length(col), 0)\
                .to_numpy(zero_copy_only=False).astype("int64")
        out_n = np.maximum.reduce(list(lens.values()))
        parent = np.repeat(np.arange(n), out_n)
        total = int(out_n.sum())
        row_start = np.concatenate(([0], np.cumsum(out_n)[:-1]))
        pos = np.arange(total) - np.repeat(row_start, out_n)
        cols = {}
        parent_pa = pa.array(parent, type=pa.int64())
        for name in batch.column_names:
            if name not in lists:
                cols[name] = batch.column(name).take(parent_pa)
                continue
            lst = lists[name]
            lk = lens[name]
            starts = np.concatenate(([0], np.cumsum(lk)[:-1]))
            flat = pc.list_flatten(lst)
            ok = pos < lk[parent]
            take = np.where(ok, starts[parent] + pos, 0)
            if len(flat) == 0:
                cols[name] = pa.nulls(total, self._elem_type(lst.type))
                continue
            vals = flat.take(pa.array(take, type=pa.int64()))
            cols[name] = pc.if_else(pa.array(ok), vals,
                                    pa.scalar(None, type=vals.type))
        return pa.table(cols)


class AddSortKeys:
    def __init__(self, exprs, names, env):
        self.exprs = exprs
        self.names = names
        self.env = env

    def __call__(self, batch: pa.Table) -> pa.Table:
        ev = make_evaluator(self.env)
        for expr, name in zip(self.exprs, self.names):
            val = ev.eval(expr, batch)
            if not isinstance(val, (pa.Array, pa.ChunkedArray)):
                val = pa.array([val] * len(batch))
            batch = batch.append_column(name, val)
        return batch


class HarmonizeJoinKeys:
    """Cast integer join keys to int64 / floats to float64 so both sides of
    a join share key types (Acero rejects int32⋈int64)."""

    def __init__(self, keys):
        self.keys = keys

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _harmonize_keys(batch, self.keys)


def _harmonize_keys(table: pa.Table, keys) -> pa.Table:
    for k in keys:
        if k not in table.column_names:
            continue
        t = table.column(k).type
        if pa.types.is_integer(t) and t != pa.int64():
            table = table.set_column(
                table.column_names.index(k), k,
                pc.cast(table.column(k), pa.int64()))
        elif pa.types.is_floating(t) and t != pa.float64():
            table = table.set_column(
                table.column_names.index(k), k,
                pc.cast(table.column(k), pa.float64()))
    return table


_BCAST_JOIN_CACHE: dict = {}  # per-worker: ref.hex → table / sorted key index


class BroadcastJoinBatch:
    """Per-batch join against a ray.put-broadcast right table.

    The small side ships to the object store ONCE; every task reads it
    zero-copy. Replaces the reference's O(n·m) nested loop with re-read
    per left row (core/ops/sql/Join.scala:22-36).

    Single-integer-key inner/left/semi/anti joins take a vectorized
    lookup path: the right side's key column is argsorted ONCE PER WORKER
    (module cache — pa.Table.join would rebuild its hash table for every
    batch) and each batch resolves matches with two searchsorted calls +
    take. Composite keys, non-integer keys, and residual predicates fall
    back to Acero ``pa.Table.join`` per batch."""

    def __init__(self, right_ref, left_keys, right_keys, join_type, residual, env):
        self.right_ref = right_ref
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = join_type  # pa join type: "inner" | "left outer"
        self.residual = residual
        self.env = env
        self._right = None

    def _table(self) -> pa.Table:
        if self._right is None:
            key = self.right_ref.hex()
            tbl = _BCAST_JOIN_CACHE.get(key)
            if tbl is None:
                tbl = ray.get(self.right_ref)
                _BCAST_JOIN_CACHE[key] = tbl
            self._right = tbl
        return self._right

    def _index(self, right: pa.Table, rkey: str):
        """(right_nonnull, sorted_keys, argsort_order) — cached per worker."""
        ck = (self.right_ref.hex(), rkey)
        entry = _BCAST_JOIN_CACHE.get(ck)
        if entry is None:
            col = right.column(rkey)
            if col.null_count:
                right = right.filter(pc.is_valid(col))  # null keys never match
                col = right.column(rkey)
            ks = col.to_numpy(zero_copy_only=False)
            order = np.argsort(ks, kind="stable").astype(np.int64)
            entry = (right, ks[order], order)
            _BCAST_JOIN_CACHE[ck] = entry
        return entry

    def _fast_single_key(self, batch: pa.Table):
        """Vectorized lookup join; returns None when ineligible."""
        if self.residual is not None or len(self.left_keys) != 1 or \
                self.join_type not in ("inner", "left outer",
                                       "left semi", "left anti"):
            return None
        lkey, rkey = self.left_keys[0], self.right_keys[0]
        right = self._table()
        if lkey not in batch.column_names or rkey not in right.column_names:
            return None
        bcol = batch.column(lkey)
        if not (pa.types.is_integer(bcol.type)
                and pa.types.is_integer(right.column(rkey).type)):
            return None
        if bcol.null_count:  # rare: keep exact NULL semantics via Acero
            return None
        right_nn, sk, order = self._index(right, rkey)
        bk = bcol.to_numpy(zero_copy_only=False)
        lo = np.searchsorted(sk, bk, "left")
        hi = np.searchsorted(sk, bk, "right")
        counts = hi - lo
        if self.join_type == "left semi":
            return batch.filter(pa.array(counts > 0))
        if self.join_type == "left anti":
            return batch.filter(pa.array(counts == 0))
        rcols = [c for c in right_nn.column_names if c != rkey]
        if self.join_type == "inner":
            total = int(counts.sum())
            left_idx = np.repeat(np.arange(len(batch)), counts)
            starts = np.cumsum(counts) - counts
            pos = np.arange(total) - np.repeat(starts, counts) \
                + np.repeat(lo, counts)
            right_idx = pa.array(order[pos], type=pa.int64())
        else:  # left outer: unmatched rows appear once, null-extended
            eff = np.maximum(counts, 1)
            total = int(eff.sum())
            left_idx = np.repeat(np.arange(len(batch)), eff)
            starts = np.cumsum(eff) - eff
            pos = np.arange(total) - np.repeat(starts, eff) \
                + np.repeat(lo, eff)
            matched = np.repeat(counts > 0, eff)
            right_idx = pa.array(order[np.where(matched, pos, 0)],
                                 mask=~matched, type=pa.int64())
        out = batch.take(pa.array(left_idx, type=pa.int64()))
        for name in rcols:
            out = out.append_column(name, right_nn.column(name).take(right_idx))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        fast = self._fast_single_key(batch)
        if fast is not None:
            return fast
        right = self._table()
        if self.residual is not None and \
                self.join_type in ("left semi", "left anti"):
            # [NOT] EXISTS with a non-equi correlated residual: pair each
            # left row with its key-matching candidates (all rows when the
            # correlation is purely non-equi), apply the residual, and
            # keep/drop left rows by whether any candidate survived
            rid = "__lrid"
            b = batch.append_column(rid, pa.array(np.arange(len(batch))))
            if self.left_keys:
                inner = b.join(right, keys=self.left_keys,
                               right_keys=self.right_keys, join_type="inner")
            else:  # cartesian: constant key on both sides
                ck = "__xk1"
                inner = b.append_column(ck, pa.nulls(len(b), pa.int8()).fill_null(1)).join(
                    right.append_column(ck, pa.nulls(len(right), pa.int8()).fill_null(1)),
                    keys=[ck], join_type="inner").drop_columns([ck])
            if len(inner):
                ev = make_evaluator(self.env)
                inner = inner.filter(ev.eval_mask(self.residual, inner))
            keep = np.zeros(len(batch), dtype=bool)
            if len(inner):
                ids = inner.column(rid).to_numpy(zero_copy_only=False)
                keep[ids.astype(np.int64)] = True
            if self.join_type == "left anti":
                keep = ~keep
            return batch.filter(pa.array(keep))
        if self.residual is not None and self.join_type == "left outer":
            # LEFT + non-equi residual: the residual must be applied BEFORE
            # null-extension (a left row is null-extended iff NO right row
            # satisfies the full ON) — filtering a left-outer result would
            # silently drop unmatched rows (residual is NULL on them)
            rid = "__lrid"
            b = batch.append_column(rid, pa.array(np.arange(len(batch))))
            inner = b.join(right, keys=self.left_keys,
                           right_keys=self.right_keys, join_type="inner")
            if len(inner):
                ev = make_evaluator(self.env)
                inner = inner.filter(ev.eval_mask(self.residual, inner))
            matched_ids = inner.column(rid).to_numpy(zero_copy_only=False)
            keep = np.ones(len(batch), dtype=bool)
            keep[matched_ids.astype(np.int64)] = False
            un = b.filter(pa.array(keep))
            cols = {c: un.column(c) for c in b.column_names}
            for f in inner.schema:
                if f.name not in cols:
                    cols[f.name] = pa.nulls(len(un), type=f.type)
            out = pa.concat_tables(
                [inner, pa.table({f.name: cols[f.name] for f in inner.schema})])
            return out.drop_columns([rid])
        joined = batch.join(
            right, keys=self.left_keys, right_keys=self.right_keys,
            join_type=self.join_type)
        if self.residual is not None and len(joined):
            ev = make_evaluator(self.env)
            joined = joined.filter(ev.eval_mask(self.residual, joined))
        return joined


class AddRandomRowId:
    """Append a random 64-bit row id (uniqueness, not determinism: collision
    odds at 1e12 rows are ~1e-5; used only to re-identify preserved-side rows
    in outer joins with non-equi residuals)."""

    def __init__(self, name):
        self.name = name

    def __call__(self, t: pa.Table) -> pa.Table:
        import os as _os

        rng = np.random.default_rng(int.from_bytes(_os.urandom(8), "little"))
        ids = rng.integers(-(2 ** 62), 2 ** 62, size=len(t), dtype=np.int64)
        return t.append_column(self.name, pa.array(ids))


def _shuffle_buckets() -> int:
    """Bucket count of a coarse key-hash shuffle: ~4 per cluster CPU, at
    least 32 (AddBucketCol + groupby(bucket).map_groups)."""
    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    return max(32, ncpu * 4)


class AddBucketCol:
    """Append a coarse shuffle-bucket column: value-stable hash of the key
    columns mod ``nbuckets`` (~4×cores). Grouping by the bucket moves each
    key wholly to one group while dispatching O(#buckets) group calls —
    the scale-correct alternative to one ``map_groups`` call per key."""

    def __init__(self, names, nbuckets, out):
        self.names = names
        self.nbuckets = nbuckets
        self.out = out

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..cdc.engine import key_hash_partition_cols

        if len(t) == 0:
            return t.append_column(self.out, pa.array([], type=pa.int64()))
        b = key_hash_partition_cols([t.column(c) for c in self.names],
                                    self.nbuckets)
        return t.append_column(self.out, pa.array(b))


def exchange(ds: rd.Dataset, keys, fn, cols=()) -> rd.Dataset:
    """Run ``fn`` over all rows of each group of ``keys``: the one exchange
    of GROUP BY (partial merges, exact and approximate aggregates, every
    ROLLUP/CUBE piece), of EXCEPT/INTERSECT [ALL] (key counts), of
    UNION DISTINCT, SELECT DISTINCT and ``distinct_rows`` (``_distinct``),
    and of ``ops.windows``' sliding and session windows. Without keys, or
    over at most ``Compiler.SMALL_PARTIALS_LIMIT`` rows, one task runs
    ``fn`` over the whole input, with no shuffle barrier; otherwise a
    key-hash bucket shuffle hands ``fn`` whole groups. A global aggregate
    is one row even over no input: ``fn`` then runs over an empty table of
    columns ``cols``."""
    ds = ds.materialize()
    nrows = ds.count()
    if not keys and nrows == 0:
        # Ray skips the UDF on empty blocks
        return rd.from_arrow(fn(_empty_table(ds, cols)))
    if not keys or nrows <= Compiler.SMALL_PARTIALS_LIMIT:
        return ds.repartition(1).map_batches(
            fn, batch_format="pyarrow", batch_size=None)

    def in_bucket(t: pa.Table, _fn=fn) -> pa.Table:
        return _fn(t.drop_columns(["__db"]))

    return ds.map_batches(
        AddBucketCol(keys, _shuffle_buckets(), "__db"),
        batch_format="pyarrow") \
        .groupby("__db").map_groups(in_bucket, batch_format="pyarrow")


class EnforceSchema:
    """Normalize blocks to one arrow schema. Ray's hash-shuffle join emits
    zero-column blocks for empty partitions; any later join/union over them
    fails ('No match for key field reference'). Empty blocks are rebuilt
    from the schema; others are column-ordered and cast."""

    def __init__(self, schema: pa.Schema):
        self.schema = schema

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.schema == self.schema:
            return t
        if len(t) == 0 or not t.column_names:
            return self.schema.empty_table()
        t = t.select(self.schema.names)
        return t.cast(self.schema)


class NullColumns:
    """Replace the named columns with typed nulls (null-extension of the
    non-preserved side in outer joins)."""

    def __init__(self, names):
        self.names = names

    def __call__(self, t: pa.Table) -> pa.Table:
        for c in self.names:
            if c in t.column_names:
                i = t.column_names.index(c)
                t = t.set_column(i, c, pa.nulls(len(t), type=t.column(c).type))
        return t


class CrossJoinBatch:
    def __init__(self, right_ref, residual, env):
        self.right_ref = right_ref
        self.residual = residual
        self.env = env
        self._right = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._right is None:
            self._right = ray.get(self.right_ref)
        right = self._right
        n, m = len(batch), len(right)
        if n == 0 or m == 0:
            return _empty_cross(batch, right)
        left_idx = np.repeat(np.arange(n), m)
        right_idx = np.tile(np.arange(m), n)
        out = batch.take(pa.array(left_idx))
        for name in right.column_names:
            out = out.append_column(name, right.column(name).take(pa.array(right_idx)))
        if self.residual is not None and len(out):
            ev = make_evaluator(self.env)
            out = out.filter(ev.eval_mask(self.residual, out))
        return out


class ThetaJoinBatch:
    """General non-equi (theta) join against a broadcast right side:
    ``ON a.x < b.y``, ``ON a.v BETWEEN b.lo AND b.hi`` — no equi keys at
    all. Evaluates the ON predicate over LEFT-CHUNK × RIGHT pair slices so
    the in-flight pair count stays under a fixed budget (never the full
    n×m cross product in memory), keeping only survivors. INNER and LEFT
    (unmatched rows null-extend). O(n·m) predicate work is inherent to a
    keyless theta join; memory is bounded and the left side streams."""

    PAIR_BUDGET = 4_000_000  # max in-flight pairs per slice

    def __init__(self, right_ref, residual, env, keep_unmatched):
        self.right_ref = right_ref
        self.residual = residual
        self.env = env
        self.keep_unmatched = keep_unmatched
        self._right = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._right is None:
            self._right = ray.get(self.right_ref)
        right = self._right
        n, m = len(batch), len(right)
        if n == 0 or m == 0:
            out = _empty_cross(batch, right)
            if self.keep_unmatched and n:
                null_r = {c: pa.nulls(n, type=right.schema.field(c).type)
                          for c in right.column_names}
                ext = batch
                for name, col in null_r.items():
                    ext = ext.append_column(name, col)
                return ext
            return out
        ev = make_evaluator(self.env)
        step = max(1, self.PAIR_BUDGET // m)
        parts = []
        matched = np.zeros(n, dtype=bool)
        for s in range(0, n, step):
            chunk = batch.slice(s, step)
            cn = len(chunk)
            left_idx = np.repeat(np.arange(cn), m)
            right_idx = np.tile(np.arange(m), cn)
            pairs = chunk.take(pa.array(left_idx))
            for name in right.column_names:
                pairs = pairs.append_column(
                    name, right.column(name).take(pa.array(right_idx)))
            mask = ev.eval_mask(self.residual, pairs)  # nulls already False
            parts.append(pairs.filter(mask))
            if self.keep_unmatched:
                mask_np = np.asarray(
                    mask.combine_chunks().to_numpy(zero_copy_only=False)
                    if isinstance(mask, pa.ChunkedArray)
                    else mask.to_numpy(zero_copy_only=False)).astype(bool)
                matched[np.unique(left_idx[mask_np]) + s] = True
        out = pa.concat_tables(parts)
        if self.keep_unmatched and not matched.all():
            un = batch.take(pa.array(np.nonzero(~matched)[0]))
            ext = un
            for c in right.column_names:
                ext = ext.append_column(
                    c, pa.nulls(len(un), type=right.schema.field(c).type))
            out = pa.concat_tables([out, ext.cast(out.schema)])
        return out


class UnpivotBatch:
    """Wide → long (UNPIVOT): per batch, one stacked slice per ON column —
    kept columns repeat, `name_col` is the source column's name, `value_col`
    its values cast to the promoted common type; NULL values are excluded
    (DuckDB simplified-UNPIVOT semantics). Pure Arrow, zero row loops."""

    def __init__(self, on, keep, name_col, value_col):
        self.on = on
        self.keep = keep
        self.name_col = name_col
        self.value_col = value_col

    @staticmethod
    def _common_type(types) -> pa.DataType:
        out = types[0]
        for t in types[1:]:
            if out == t:
                continue
            if pa.types.is_floating(out) or pa.types.is_floating(t):
                out = pa.float64()
            elif pa.types.is_integer(out) and pa.types.is_integer(t):
                out = pa.int64()
            elif (pa.types.is_string(out) or pa.types.is_large_string(out)) \
                    and (pa.types.is_string(t) or pa.types.is_large_string(t)):
                out = pa.string()
            else:
                raise ValueError(
                    f"UNPIVOT columns mix incompatible types {out} / {t}")
        return out

    def __call__(self, t: pa.Table) -> pa.Table:
        n = len(t)
        target = self._common_type([t.column(c).type for c in self.on])
        parts = []
        for c in self.on:
            val = t.column(c)
            if val.type != target:
                val = pc.cast(val, target)
            cols = [t.column(k) for k in self.keep]
            cols.append(pa.array([c] * n, type=pa.string()))
            cols.append(val)
            tab = pa.table(dict(zip(
                list(self.keep) + [self.name_col, self.value_col], cols)))
            if val.null_count:
                tab = tab.filter(pc.is_valid(tab.column(self.value_col)))
            parts.append(tab)
        return pa.concat_tables(parts)


class _LateralUnnest:
    """Explode one list-valued expression against the batch: parent rows
    repeat per element (list_parent_indices + take), NULL/empty lists drop
    their row. Pure Arrow kernels — no row loops, no shuffle."""

    def __init__(self, expr, colname: str, env):
        self.expr = expr
        self.colname = colname
        self.env = env

    def __call__(self, batch: pa.Table) -> pa.Table:
        ev = make_evaluator(self.env)
        arr = ev.eval(self.expr, batch)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if not isinstance(arr, (pa.ListArray, pa.LargeListArray)):
            raise ValueError("UNNEST argument must be a list column")
        parents = pc.list_parent_indices(arr)
        flat = pc.list_flatten(arr)
        out = batch.take(parents)
        return out.append_column(self.colname, flat)


def _sample_row_hash(batch: pa.Table, seed: int) -> np.ndarray:
    """Seeded value-stable 64-bit row hash over ALL columns (polars
    xxhash — pandas hash_array is NOT value-stable across arrays; see
    ops/sketch.py). List/binary columns hash via their string repr."""
    import polars as pl

    cols = {}
    for name in batch.column_names:
        col = batch.column(name)
        t = col.type
        if pa.types.is_nested(t) or pa.types.is_binary(t) or \
                pa.types.is_large_binary(t):
            col = pa.array([str(v) for v in col.to_pylist()], pa.string())
        cols[name] = col
    df = pl.from_arrow(pa.table(cols))
    return df.hash_rows(seed=seed).to_numpy().astype(np.uint64)


class _SamplePercent:
    """Deterministic bernoulli/system sampling: keep iff rowhash mod 1e6
    falls under rate·1e4 (supports fractional percents to 1e-4)."""

    def __init__(self, percent: float, seed: int):
        self.threshold = int(round(percent * 10_000))
        self.seed = seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch
        h = _sample_row_hash(batch, self.seed)
        keep = (h % np.uint64(1_000_000)) < np.uint64(self.threshold)
        return batch.filter(pa.array(keep))


class _RowHashCol:
    """Append the seeded row hash as an int64 helper column (ROWS-n
    sampling sorts on it)."""

    def __init__(self, seed: int, name: str):
        self.seed = seed
        self.name = name

    def __call__(self, batch: pa.Table) -> pa.Table:
        h = _sample_row_hash(batch, self.seed) if len(batch) else \
            np.array([], dtype=np.uint64)
        return batch.append_column(
            self.name, pa.array(h.view(np.int64), pa.int64()))


class _SeriesBatch:
    """id → start + id·step for GENERATE_SERIES/RANGE blocks (pure Arrow)."""

    def __init__(self, start: int, step: int, name: str):
        self.start = start
        self.step = step
        self.name = name

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = pc.cast(t.column("id"), pa.int64())
        return pa.table(
            {self.name: pc.add(pc.multiply(ids, self.step), self.start)})


def _empty_cross(left: pa.Table, right: pa.Table) -> pa.Table:
    cols = {c: left.column(c).slice(0, 0) for c in left.column_names}
    for c in right.column_names:
        cols[c] = right.column(c).slice(0, 0)
    return pa.table(cols)


class PreAgg:
    """Per-batch partial aggregation (combiner): shrinks the merge input
    from |rows| to |distinct keys per batch| — the scale-critical step
    (SURVEY.md §4 skew row). Every row first becomes a partial of its own
    (x, its validity count, x², x³, x⁴, pair-masked products, int64 bits, …)
    and MergePartialsTask reduces them per group: the same kernel that
    later merges the partials of all batches. Emits key columns + partial
    columns."""

    def __init__(self, key_exprs, key_names, aggs, env):
        self.key_exprs = key_exprs
        self.key_names = key_names
        self.aggs = aggs  # list[(FuncCall, idx)]
        self.env = env
        self.merge = MergePartialsTask(key_names, aggs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ev = make_evaluator(self.env)
        n = len(batch)

        def column(expr):
            val = ev.eval(expr, batch)
            if not isinstance(val, (pa.Array, pa.ChunkedArray)):
                val = pa.array([val] * n)
            if isinstance(val, pa.ChunkedArray):
                val = val.combine_chunks()
            if pa.types.is_dictionary(val.type):
                val = val.dictionary_decode()
            return val

        rows = {name: column(expr)
                for expr, name in zip(self.key_exprs, self.key_names)}
        rows["__pcnt_star"] = pa.array(np.ones(n, np.int64))
        for call, i in self.aggs:
            if not call.is_star:
                rows.update(_row_partials(
                    call, i, column(call.args[0]),
                    column(call.args[1]) if call.name in TWO_ARG_AGGS
                    else None))
        return self.merge(pa.table(rows))


def _row_partials(call, i: int, x: pa.Array, y) -> dict:
    """One row's partials of aggregate ``call`` (argument x, second
    argument y), named ``__p{i}_{suffix}`` as in _partial_suffixes."""
    kind, p = call.name, f"__p{i}_"
    if kind in BIMOMENT_AGGS:
        # pair-complete rows only. ANSI argument order is fn(y, x): args[0]
        # is the DEPENDENT y, args[1] the independent x — sx/sxx always
        # hold x's moments
        fy, fx = try_cast(x, pa.float64()), try_cast(y, pa.float64())
        pair = pc.and_(pc.is_valid(fx), pc.is_valid(fy))
        fx = pc.if_else(pair, fx, None)
        fy = pc.if_else(pair, fy, None)
        return {p + "cnt": pc.cast(pair, pa.int64()), p + "sx": fx,
                p + "sy": fy, p + "sxx": pc.multiply(fx, fx),
                p + "syy": pc.multiply(fy, fy), p + "sxy": pc.multiply(fx, fy)}
    if kind in ARG_EXT_AGGS:
        # a row with either argument NULL is ignored: its key is masked,
        # and the merge only picks rows with a key
        return {p + "av": x, p + "ak": pc.if_else(pc.is_valid(x), y, None)}
    if kind in BITWISE_AGGS:
        # exact int64 (float64 would be lossy beyond 2^53)
        return {p + "bit": pc.cast(x, pa.int64())}
    if kind in BOOL_AGGS:
        return {p + ("min" if kind == "BOOL_AND" else "max"):
                pc.cast(x, pa.int8())}
    if kind in ("MIN", "MAX", "ANY_VALUE"):
        return {p + _partial_suffixes(kind)[0]: x}
    sufs = _partial_suffixes(kind)
    out = {p + "cnt": pc.cast(pc.is_valid(x), pa.int64())} \
        if "cnt" in sufs else {}
    if "sum" in sufs:  # moments (sq, …) sum in float64
        x = pc.cast(x, pa.float64() if "sq" in sufs else _sum_type(x.type))
        out[p + "sum"] = x
    for suf, e in (("sq", 2.0), ("cu", 3.0), ("qu", 4.0)):
        if suf in sufs:
            out[p + suf] = pc.power(x, e)
    return out


_SUMMED = ("cnt", "sum", "sq", "cu", "qu", "sx", "sy", "sxx", "syy", "sxy")


def _merge_plan(aggs) -> list:
    """(partial column, merge) for every partial of ``aggs``, derived from
    _partial_suffixes: counts and sums add, min/max pick, BIT_* fold,
    ANY_VALUE keeps the first non-NULL, and ARG_MAX/ARG_MIN (av value, ak
    key) keep the row of the extremal key."""
    plan = [("__pcnt_star", "sum")]
    for call, i in aggs:
        if call.is_star:
            continue
        for suf in _partial_suffixes(call.name):
            if suf in _SUMMED:
                how = "sum"
            elif suf in ("av", "ak"):
                how = "argmax" if _argext_ismax(call.name) else "argmin"
            elif suf == "bit":
                how = call.name
            else:
                how = suf  # min / max / any
            plan.append((f"__p{i}_{suf}", how))
    return plan


class MergePartialsTask:
    """The one partial-merge kernel of GROUP BY: reduces partial rows to
    one row per group of ``keys`` (all NULL keys form one group; without
    keys the input is one group, even when empty).

    PreAgg runs it over per-row partials of one batch; the exchange runs it
    over the partials of all batches, in one task or per key-hash bucket.
    Integer sums and counts stay exact integers; float sums are
    exactly rounded (math.fsum), so a result does not depend on the order
    the partials arrive in. A group whose partials are all NULL is NULL."""

    def __init__(self, keys: list, aggs):
        self.keys = list(keys)
        self.plan = _merge_plan(aggs)

    def __call__(self, t: pa.Table) -> pa.Table:
        gid, first = _dense_group_ids(t, self.keys)
        ng = len(first)
        out = {k: t.column(k).take(first) for k in self.keys}
        arrow, picks, order = [], {}, None
        for name, how in self.plan:
            col = t.column(name).combine_chunks()
            if pa.types.is_null(col.type):
                # an all-NULL argument, or a global aggregate over no input:
                # counts and bits stay int64, sums float64
                out[name] = pa.nulls(ng, pa.int64() if name.endswith(
                    ("_cnt", "_star", "_bit")) else pa.float64()
                    if how == "sum" else col.type)
            elif how in ("min", "max") or (
                    how == "sum" and pa.types.is_integer(col.type)):
                arrow.append((name, how))
            elif how == "sum":
                if order is None:
                    order = _group_order(gid, ng)
                out[name] = _fsum_groups(col, gid, ng, order)
            elif how in BITWISE_AGGS:
                out[name] = _bits_groups(col, gid, ng, how)
            else:  # any / argmax / argmin: take the row each group picks
                by = name if how == "any" else name[:-2] + "ak"
                if (by, how) not in picks:
                    picks[by, how] = _pick_rows(
                        t.column(by).combine_chunks(), gid, ng, how)
                out[name] = col.take(picks[by, how])
        if arrow:
            r = t.select([name for name, _ in arrow]) \
                .append_column("__g", pa.array(gid)) \
                .group_by("__g", use_threads=False) \
                .aggregate([(name, how) for name, how in arrow])
            r = _scatter(r, r.column("__g").to_numpy(), ng)
            for name, how in arrow:
                out[name] = r.column(f"{name}_{how}")
        return pa.table({c: out[c] for c in self.keys + [
            name for name, _ in self.plan]})


def _group_order(gid: np.ndarray, ng: int) -> np.ndarray:
    """The rows sorted by group id, stable (numpy sorts 16-bit keys by
    radix)."""
    return np.argsort(gid.astype(np.uint16) if ng <= 1 << 16 else gid,
                      kind="stable")


def _fsum_groups(col: pa.Array, gid: np.ndarray, ng: int,
                 order: np.ndarray) -> pa.Array:
    """Exactly-rounded float sum of each group's valid values (``order``:
    the rows sorted by group)."""
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    x = pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)
    cnt = np.bincount(gid[valid], minlength=ng)
    # one IEEE addition is exactly rounded: bincount's 0 + a + b is exact
    # for groups of up to two values; longer groups go through fsum
    res = np.bincount(gid[valid], weights=x[valid], minlength=ng)
    many = np.flatnonzero(cnt > 2)
    if len(many):
        xs = x[order[valid[order]]].tolist()
        ends = np.cumsum(cnt)
        starts = (ends - cnt)[many].tolist()
        ends = ends[many].tolist()
        try:
            res[many] = [math.fsum(xs[a:b]) for a, b in zip(starts, ends)]
        except (OverflowError, ValueError):  # inf − inf, or an overflow
            res[many] = [sum(xs[a:b]) for a, b in zip(starts, ends)]
    return pa.array(res, pa.float64(), mask=cnt == 0)


def _bits_groups(col: pa.Array, gid: np.ndarray, ng: int,
                 kind: str) -> pa.Array:
    """Exact int64 BIT_AND/OR/XOR of each group's valid values."""
    ident = _BIT_IDENTITY[kind]
    res = np.full(ng, ident, np.int64)
    _BIT_UFUNC[kind].at(res, gid, pc.fill_null(col, ident).to_numpy(
        zero_copy_only=False).astype(np.int64))
    cnt = np.bincount(gid, weights=pc.is_valid(col).to_numpy(
        zero_copy_only=False), minlength=ng)
    return pa.array(res, pa.int64(), mask=cnt == 0)


def _pick_rows(by: pa.Array, gid: np.ndarray, ng: int, how: str) -> pa.Array:
    """The row each group keeps (NULL for a group without a valid ``by``):
    the first valid row ("any"), or the row of the largest ("argmax") or
    smallest ("argmin") value of ``by``. Among equal values argmax keeps
    the last row and argmin the first."""
    n = len(by)
    if pa.types.is_null(by.type):
        return pa.nulls(ng, pa.int64())
    valid = pc.is_valid(by).to_numpy(zero_copy_only=False)
    if how == "any":
        rank = np.arange(1, n + 1)
    else:
        # ranks are unique: ties rank in row order
        rank = pc.rank(by, tiebreaker="first").to_numpy().astype(np.int64)
    rows = np.zeros(n + 2, np.int64)
    rows[rank] = np.arange(n)
    if how == "argmax":
        best = np.zeros(ng, np.int64)
        np.maximum.at(best, gid, np.where(valid, rank, 0))
        none = best == 0
    else:
        best = np.full(ng, n + 1, np.int64)
        np.minimum.at(best, gid, np.where(valid, rank, n + 1))
        none = best == n + 1
    return pa.array(rows[best], pa.int64(), mask=none)


def _sum_type(t: pa.DataType) -> pa.DataType:
    if pa.types.is_integer(t):
        return pa.int64()
    if pa.types.is_floating(t) or pa.types.is_null(t):
        return pa.float64()
    return pa.float64()


class ExactAgg:
    """Exact aggregates over whole groups, in Arrow: the one route for
    DISTINCT and holistic aggregates (HOLISTIC_AGG_NAMES).

    The input holds every row of each of its groups (one bucket of the
    key-hash shuffle, or the whole input). Each row gets a dense group id
    once. Per aggregate, the (gid, args) rows follow the in-aggregate
    ORDER BY, drop NULL args (ARRAY_AGG keeps them) and, under DISTINCT,
    keep each tuple's first occurrence. Algebraic kinds then reuse PreAgg +
    CombinePartials grouped by gid (a group's one partial row is already
    final); holistic kinds sort or count (gid, arg) pairs. Every result is
    scattered by gid. Without GROUP BY keys the input is one group, even
    when it is empty."""

    _QUANTILES = ("MEDIAN", "QUANTILE_CONT", "PERCENTILE_CONT",
                  "QUANTILE_DISC", "PERCENTILE_DISC")

    def __init__(self, key_names, aggs, env):
        self.key_names = list(key_names)
        self.aggs = aggs
        self.env = env
        self.arg_cols = []   # the columns PreAggPrep emits per aggregate
        self.param = {}      # quantile p / STRING_AGG separator
        for call, i in aggs:
            if call.is_star:
                continue
            self.arg_cols += self._args(call, i) + self._order_cols(call, i)
            if call.name == "MEDIAN":
                self.param[i] = 0.5
            elif call.name in self._QUANTILES:
                if len(call.args) < 2 or not isinstance(
                        call.args[1], A.Literal):
                    raise ValueError(
                        f"{call.name}(expr, p) requires a literal quantile")
                self.param[i] = float(call.args[1].value)
            elif call.name == "STRING_AGG":
                self.param[i] = str(call.args[1].value) if (
                    len(call.args) > 1
                    and isinstance(call.args[1], A.Literal)) else ","

    @staticmethod
    def _args(call, i) -> list:
        return [f"__a{i}"] + ([f"__a{i}b"] if call.name in TWO_ARG_AGGS
                              else [])

    @staticmethod
    def _order_cols(call, i) -> list:
        return [f"__a{i}_o{j}" for j in range(len(call.order_by or ()))]

    def __call__(self, t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        gid, first = _dense_group_ids(t, self.key_names)
        ng = len(first)
        out = {k: t.column(k).take(first) for k in self.key_names}
        for call, i in self.aggs:
            out[f"__r{i}"] = self._one(t, gid, ng, call, i)
        return pa.table(out)

    def _one(self, t: pa.Table, gid: np.ndarray, ng: int, call, i: int):
        if call.is_star:
            return pa.array(np.bincount(gid, minlength=ng), pa.int64())
        kind = call.name
        args, ocols = self._args(call, i), self._order_cols(call, i)
        s = t.select(args + ocols).append_column("__gid", pa.array(gid))
        if ocols:
            # a null flag before each key places its NULLs (NULLS LAST
            # unless NULLS FIRST, in either direction)
            keys = []
            for c, ob in zip(ocols, call.order_by):
                s = s.append_column(f"{c}_nf", pc.is_null(s.column(c)))
                keys += [(f"{c}_nf",
                          "descending" if ob.nulls_first else "ascending"),
                         (c, "ascending" if ob.ascending else "descending")]
            s = s.take(pc.sort_indices(s, sort_keys=keys))
        if kind != "ARRAY_AGG":
            for a in args:
                s = s.filter(pc.is_valid(s.column(a)))
        if call.distinct:
            s = s.take(_dense_group_ids(s, ["__gid"] + args)[1])
        if kind not in HOLISTIC_AGG_NAMES:
            plain = A.FuncCall(kind, tuple(A.ColumnRef(c) for c in args))
            part = PreAgg([A.ColumnRef("__gid")], ["__gid"], [(plain, i)],
                          self.env)(s.select(["__gid"] + args))
            part = _scatter(part, part.column("__gid").to_numpy(), ng)
            return CombinePartials([(plain, i)])(part).column(f"__r{i}")
        if kind in self._QUANTILES:
            s = s.take(pc.sort_indices(s, sort_keys=[
                ("__gid", "ascending"), (args[0], "ascending")]))
            return self._quantile(kind, s.column(args[0]),
                                  s.column("__gid").to_numpy(), ng,
                                  self.param[i])
        if kind in ("MODE", "ENTROPY"):
            c = s.select(["__gid", args[0]]).group_by(
                ["__gid", args[0]], use_threads=False) \
                .aggregate([([], "count_all")])
            if kind == "MODE":
                # most frequent value; ties go to the smallest
                c = c.sort_by([("__gid", "ascending"),
                               ("count_all", "descending"),
                               (args[0], "ascending")])
                cg = c.column("__gid").to_numpy()
                top = np.flatnonzero(np.r_[True, cg[1:] != cg[:-1]]) \
                    if len(cg) else cg
                return _scatter(c.column(args[0]).take(top), cg[top], ng)
            # Shannon entropy (log2) of the value histogram (DuckDB);
            # a group without values → 0.0
            cg = c.column("__gid").to_numpy()
            n = c.column("count_all").to_numpy().astype(np.float64)
            pr = n / np.bincount(cg, weights=n, minlength=ng)[cg]
            return pa.array(0.0 - np.bincount(
                cg, weights=pr * np.log2(pr), minlength=ng))
        g, arg = s.column("__gid"), s.column(args[0])
        if kind == "PRODUCT":
            r = pa.table({"__gid": g, "v": pc.cast(arg, pa.float64())}) \
                .group_by("__gid", use_threads=False) \
                .aggregate([("v", "product")])
            return _scatter(r.column("v_product"),
                            r.column("__gid").to_numpy(), ng)
        # STRING_AGG / ARRAY_AGG: each group's values in row order
        if kind == "STRING_AGG":
            arg = as_text(arg)
        r = pa.table({"__gid": g, "v": arg}) \
            .group_by("__gid", use_threads=False).aggregate([("v", "list")])
        vals = r.column("v_list")
        if kind == "STRING_AGG":
            vals = pc.binary_join(vals, self.param[i])
        return _scatter(vals, r.column("__gid").to_numpy(), ng)

    @staticmethod
    def _quantile(kind: str, v, g: np.ndarray, ng: int, p: float):
        """Quantiles over values sorted by (gid, value): DISC takes the
        value at rank ceil(p·n) (DuckDB); CONT interpolates linearly, and
        MEDIAN averages the middle pair, as numpy does."""
        cnt = np.bincount(g, minlength=ng)
        start = np.cumsum(cnt) - cnt
        if not len(v):
            return pa.nulls(ng, v.type if kind.endswith("DISC")
                            else pa.float64())
        last = len(v) - 1
        if kind.endswith("DISC"):
            r = np.maximum(np.ceil(p * cnt) - 1, 0).astype(np.int64)
            return v.take(pa.array(np.minimum(start + r, last),
                                   mask=cnt == 0))
        x = pc.cast(v, pa.float64()).to_numpy(zero_copy_only=False)
        vi = p * np.maximum(cnt - 1, 0)
        lo = np.floor(vi).astype(np.int64)
        hi = np.minimum(lo + 1, np.maximum(cnt - 1, 0))
        xl = x[np.minimum(start + lo, last)]
        xh = x[np.minimum(start + hi, last)]
        gamma = vi - lo
        with np.errstate(all="ignore"):
            if kind == "MEDIAN":
                res = np.where(gamma == 0, xl, (xl + xh) / 2)
            else:
                d = xh - xl
                res = np.where(gamma >= 0.5, xh - d * (1 - gamma),
                               xl + d * gamma)
        return pa.array(res, pa.float64(), mask=cnt == 0)


def _dense_group_ids(t: pa.Table, keys) -> tuple:
    """A dense id per row for its tuple of ``keys`` values (NULLs form one
    group; hash-based, no sort) and the first row of every group, in row
    order. Without keys: one group, even over no rows."""
    if not keys:
        return np.zeros(len(t), np.int64), np.zeros(1, np.int64)
    gid = None
    for k in keys:
        col = t.column(k).combine_chunks()
        if pa.types.is_dictionary(col.type):
            # dictionary_encode returns these as they are (NULL indices)
            col = col.dictionary_decode()
        enc = pc.dictionary_encode(col, null_encoding="encode")
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        if gid is not None:
            codes = pc.dictionary_encode(pa.array(
                gid * len(enc.dictionary) + codes)).indices \
                .to_numpy(zero_copy_only=False).astype(np.int64)
        gid = codes
    # ids number the groups in order of first appearance: a group's first
    # row is the one whose id exceeds every earlier row's
    first = np.flatnonzero(
        gid > np.maximum.accumulate(np.r_[-1, gid])[:-1])
    return gid, first


def _scatter(values, g: np.ndarray, ng: int):
    """values[j] to row g[j] of an ng-row result (array or table); rows no
    value lands on are NULL."""
    pos = np.full(ng, -1, np.int64)
    pos[g] = np.arange(len(g))
    return values.take(pa.array(pos, mask=pos < 0))


class _FoldGroups:
    """One row per group of ``keys`` (NULLs form one group; without keys
    the input is one group): ``fn`` of the slice of the group's ``col``
    values, in a column ``out`` of type ``typ``."""

    def __init__(self, keys, col, fn, out, typ):
        self.keys = list(keys)
        self.col, self.fn, self.out, self.typ = col, fn, out, typ

    def __call__(self, t: pa.Table) -> pa.Table:
        gid, first = _dense_group_ids(t, self.keys)
        cnt = np.bincount(gid, minlength=len(first))
        vals = t.column(self.col).combine_chunks().take(
            _group_order(gid, len(first)))
        out = {k: t.column(k).take(first) for k in self.keys}
        out[self.out] = pa.array(
            [self.fn(vals.slice(e - c, c))
             for e, c in zip(np.cumsum(cnt).tolist(), cnt.tolist())],
            self.typ)
        return pa.table(out)


class ArmCounts:
    """Per batch of one EXCEPT/INTERSECT arm: one row per distinct tuple of
    ``keys`` (NULLs group together, as do NaNs) with its count in column
    ``side`` (``__l`` for the left arm, ``__r`` for the right) and 0 in the
    other."""

    def __init__(self, keys, side):
        self.keys, self.side = list(keys), side

    def __call__(self, t: pa.Table) -> pa.Table:
        gid, first = _dense_group_ids(t, self.keys)
        cnt = pa.array(np.bincount(gid, minlength=len(first)), pa.int64())
        zero = pa.array(np.zeros(len(first), np.int64))
        out = t.select(self.keys).take(first)
        return out.append_column("__l", cnt if self.side == "__l" else zero) \
            .append_column("__r", zero if self.side == "__l" else cnt)


class SetOpRows:
    """The exchange kernel of EXCEPT/INTERSECT [ALL]: sums each key's
    ``__l`` and ``__r`` counts (see ArmCounts) and repeats the key's first
    row as often as the op keeps it: EXCEPT once if l > 0 and r = 0,
    INTERSECT once if l > 0 and r > 0, EXCEPT ALL max(l − r, 0) times,
    INTERSECT ALL min(l, r) times."""

    def __init__(self, keys, op, all_):
        self.keys, self.op, self.all = list(keys), op, all_

    def __call__(self, t: pa.Table) -> pa.Table:
        gid, first = _dense_group_ids(t, self.keys)
        l, r = (np.bincount(gid, t.column(c).to_numpy(), len(first))
                .astype(np.int64) for c in ("__l", "__r"))
        if self.all:
            n = np.maximum(l - r, 0) if self.op == "EXCEPT" \
                else np.minimum(l, r)
        else:
            n = (l > 0) & ((r == 0) if self.op == "EXCEPT" else (r > 0))
        return t.select(self.keys).take(np.repeat(first, n))


def _empty_table(ds: rd.Dataset, names) -> pa.Table:
    """A zero-row table with columns ``names``, typed from ``ds``'s schema
    when it has them (an empty result may carry a stale schema)."""
    sch = ds.schema()
    if sch is not None and set(names) <= set(sch.names):
        return sch.base_schema.empty_table().select(list(names))
    return pa.table({c: pa.nulls(0) for c in names})


class PostAgg:
    """Final projection after the aggregate shuffle: combines partials
    (AVG = Σsum/Σcnt, STDDEV from moments) and evaluates the SELECT items
    with aggregate calls replaced by their result columns."""

    def __init__(self, items, out_names, env, having=None, keep_cols=()):
        self.items = items
        self.out_names = out_names
        self.env = env
        self.having = having
        # raw pre-projection columns a DEFERRED (subquery-bearing) HAVING
        # still needs downstream; dropped after that filter runs
        self.keep_cols = list(keep_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ev = make_evaluator(self.env)
        if self.having is not None and len(batch):
            batch = batch.filter(ev.eval_mask(self.having, batch))
        cols = {}
        n = len(batch)
        for item, name in zip(self.items, self.out_names):
            val = ev.eval(item, batch)
            if not isinstance(val, (pa.Array, pa.ChunkedArray)):
                val = pa.array([val] * n) if val is not None else pa.nulls(n)
            cols[name] = val
        for c in self.keep_cols:
            if c in batch.column_names and c not in cols:
                cols[c] = batch.column(c)
        return pa.table(cols)


class _WindowGroupFn:
    """Per-partition window computation (pandas, group already co-located).

    Ranking fns need ORDER BY; aggregates are cumulative when ORDER BY is
    present (ANSI default frame: unbounded preceding → current row), else
    whole-partition."""

    def __init__(self, func: str, arg_col, okeys, odesc, out_name,
                 pkeys=None, lag_offset: int = 1, lag_default=None,
                 ntile_n: int = 0, frame: tuple = (),
                 frame_kind: str = "ROWS", ignore_nulls: bool = False,
                 exclude: str = "NO OTHERS"):
        self.func = func
        self.ignore_nulls = ignore_nulls
        self.arg_col = arg_col
        self.okeys = okeys
        self.odesc = odesc
        self.out_name = out_name
        self.pkeys = pkeys or []
        self.lag_offset = lag_offset
        self.lag_default = lag_default
        self.ntile_n = ntile_n
        self.frame = frame  # explicit frame (lo, hi) or () = default
        self.frame_kind = frame_kind  # "ROWS" | "RANGE" | "GROUPS"
        self.exclude = exclude  # NO OTHERS | CURRENT ROW | GROUP | TIES

    _VEC_FUNCS = frozenset({
        "ROW_NUMBER", "RANK", "DENSE_RANK", "PERCENT_RANK", "CUME_DIST",
        "NTILE", "FIRST_VALUE", "LAST_VALUE", "LAG", "LEAD",
        "SUM", "COUNT", "AVG", "MEAN", "MIN", "MAX"})
    _VEC_AGGS = frozenset({"SUM", "COUNT", "AVG", "MEAN", "MIN", "MAX"})

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        if self.pkeys:
            # ranking/navigation funcs: one joint sort + segmented numpy
            # over the WHOLE bucket (a per-key pandas dispatch at 150k
            # keys costs ~50× the actual window math)
            fast = self._vectorized_bucket(df)
            if fast is not None:
                return fast
            # coarse group contains many partition keys: compute per key
            return pd.concat(
                [self._one(g) for _, g in
                 df.groupby(self.pkeys, sort=False, dropna=False)],
                ignore_index=True)
        return self._one(df)

    def _changes(self, df: pd.DataFrame, cols: list, n: int) -> np.ndarray:
        """Row i differs from row i-1 on cols (NULLs compare equal)."""
        sub = df[cols].reset_index(drop=True)
        ch = np.ones(n, dtype=bool)
        if n > 1:
            eq = (sub.iloc[1:].reset_index(drop=True)
                  .eq(sub.iloc[:-1].reset_index(drop=True))
                  | (sub.iloc[1:].isna().reset_index(drop=True)
                     & sub.iloc[:-1].isna().reset_index(drop=True))
                  ).all(axis=1).to_numpy()
            ch[1:] = ~eq
        return ch

    def _vectorized_bucket(self, df: pd.DataFrame):
        """Whole-bucket vectorized path; None when the shape needs _one.

        Semantics mirror _one exactly: same sort (stable, NULLS LAST),
        same peer-group rules, same LAG/LEAD fill typing."""
        fn = self.func
        if fn not in self._VEC_FUNCS or self.ignore_nulls:
            return None
        if fn in self._VEC_AGGS:
            if self.frame:  # explicit ROWS/RANGE frames go through _one
                return None
            if fn in ("MIN", "MAX") and self.arg_col is not None:
                dt = df[self.arg_col].dtype
                if not (pd.api.types.is_numeric_dtype(dt)
                        or pd.api.types.is_datetime64_any_dtype(dt)):
                    return None  # object cummin/cummax: keep _one's path
        elif not self.okeys:
            return None
        elif fn == "LAST_VALUE":
            if self.frame not in ((), (None, None)):
                return None
        elif self.frame:
            return None
        df = df.sort_values(
            self.pkeys + self.okeys,
            ascending=[True] * len(self.pkeys)
            + [not d for d in self.odesc],
            kind="stable").reset_index(drop=True)
        n = len(df)
        if n == 0:
            df[self.out_name] = np.array([])
            return df
        idx = np.arange(n)
        gch = self._changes(df, self.pkeys, n)
        gstart = np.maximum.accumulate(np.where(gch, idx, 0))
        gstarts = np.flatnonzero(gch)
        gends_per = np.append(gstarts[1:], n) - 1
        gid = np.cumsum(gch) - 1
        gend = gends_per[gid]
        size = gend - gstart + 1
        pos = idx - gstart  # 0-based position within the partition

        if fn == "ROW_NUMBER":
            out = pos + 1
        elif fn in ("RANK", "DENSE_RANK", "PERCENT_RANK", "CUME_DIST",
                    "LAST_VALUE"):
            pch = gch | self._changes(df, self.okeys, n)
            if fn == "RANK":
                pstart = np.maximum.accumulate(np.where(pch, idx, 0))
                out = pstart - gstart + 1
            elif fn == "DENSE_RANK":
                pcum = np.cumsum(pch)
                out = pcum - pcum[gstart] + 1
            elif fn == "PERCENT_RANK":
                pstart = np.maximum.accumulate(np.where(pch, idx, 0))
                rank = pstart - gstart + 1
                out = np.where(size > 1, (rank - 1) / np.maximum(size - 1, 1),
                               0.0)
            else:
                pstarts = np.flatnonzero(pch)
                pends = np.append(pstarts[1:], n) - 1
                pid = np.cumsum(pch) - 1
                if fn == "CUME_DIST":
                    out = (pends[pid] - gstart + 1) / size
                else:  # LAST_VALUE
                    vals = df[self.arg_col].to_numpy()
                    src = gend if self.frame == (None, None) else pends[pid]
                    out = vals[src]
        elif fn == "NTILE":
            k = self.ntile_n
            small, rem = size // k, size % k
            big_span = rem * (small + 1)
            out = np.where(pos < big_span,
                           pos // (small + 1) + 1,
                           rem + (pos - big_span) // np.maximum(small, 1) + 1)
        elif fn == "FIRST_VALUE":
            out = df[self.arg_col].to_numpy()[gstart]
        elif fn in self._VEC_AGGS:
            s = df[self.arg_col].reset_index(drop=True) \
                if self.arg_col else None
            if self.okeys:
                # cumulative default frame. SUM/AVG use SEQUENTIAL
                # per-group np.cumsum (pandas groupby.cumsum is
                # Kahan-compensated and drifts a last ulp from the
                # sequential accumulation DuckDB and _one produce);
                # adding 0.0 at NULL positions is bit-exact carry
                if fn in ("SUM", "AVG", "MEAN"):
                    x = s.to_numpy()
                    if x.dtype.kind not in "fiub":
                        return None
                    valid = s.notna().to_numpy()
                    filled = np.where(valid, x, 0)
                    cs = np.empty(n, dtype=filled.dtype)
                    bounds = np.append(gstarts, n)
                    for st, en in zip(bounds[:-1], bounds[1:]):
                        cs[st:en] = np.cumsum(filled[st:en])
                    vc = pd.Series(valid).groupby(gid).cumsum().to_numpy()
                    if fn == "SUM":
                        out = pd.Series(
                            cs if (x.dtype.kind in "iub" and valid.all())
                            else np.where(vc > 0, cs.astype(np.float64),
                                          np.nan))
                    else:
                        out = pd.Series(
                            np.where(vc > 0,
                                     cs.astype(np.float64)
                                     / np.maximum(vc, 1), np.nan))
                elif fn == "COUNT":
                    out = (s.notna().groupby(gid).cumsum()
                           if s is not None else pd.Series(pos + 1))
                elif fn == "MIN":
                    out = s.groupby(gid).cummin().groupby(gid).ffill()
                else:
                    out = s.groupby(gid).cummax().groupby(gid).ffill()
                # ANSI default frame = RANGE: peers share the value at the
                # peer group's last row
                pch = gch | self._changes(df, self.okeys, n)
                pstarts = np.flatnonzero(pch)
                pends = np.append(pstarts[1:], n) - 1
                pid = np.cumsum(pch) - 1
                out = out.to_numpy()[pends[pid]]
            else:  # whole-partition value broadcast to every row
                if s is None:
                    out = size  # COUNT(*)
                else:
                    gb = s.groupby(gid)
                    cntv = gb.transform("count").to_numpy()
                    if fn == "COUNT":
                        out = cntv
                    elif fn == "SUM":
                        tot = gb.transform("sum").to_numpy()
                        # min_count=1: all-NULL partitions yield NULL
                        out = tot if (cntv > 0).all() else \
                            np.where(cntv > 0, tot.astype(np.float64),
                                     np.nan)
                    elif fn in ("AVG", "MEAN"):
                        out = gb.transform("mean").to_numpy()
                    elif fn == "MIN":
                        out = gb.transform("min").to_numpy()
                    else:
                        out = gb.transform("max").to_numpy()
            if fn == "COUNT":
                out = np.asarray(out).astype(np.int64)
        else:  # LAG / LEAD
            off = self.lag_offset
            vals = df[self.arg_col].to_numpy()
            if fn == "LAG":
                src = idx - off
                valid = src >= gstart
            else:
                src = idx + off
                valid = src <= gend
            src = np.clip(src, 0, n - 1)
            if self.lag_default is not None:
                out = np.where(valid, vals[src], self.lag_default)
            elif vals.dtype.kind in "iub":  # pandas shift: int → float+NaN
                out = np.where(valid, vals.astype(np.float64)[src], np.nan)
            elif vals.dtype.kind == "f":
                out = np.where(valid, vals[src], np.nan)
            elif vals.dtype.kind in "mM":
                out = np.where(valid, vals[src], np.datetime64("NaT"))
            else:
                out = np.where(valid, vals[src], None)
        df[self.out_name] = out
        return df

    def _order_key_changes(self, df: pd.DataFrame, n: int) -> np.ndarray:
        """Boolean mask: row i starts a new peer group (order keys differ
        from row i-1, NULLs compare equal). Row 0 is always True."""
        keys = df[self.okeys].reset_index(drop=True)
        changed = np.ones(n, dtype=bool)
        if n > 1:
            eq_prev = (keys.iloc[1:].reset_index(drop=True)
                       .eq(keys.iloc[:-1].reset_index(drop=True))
                       | (keys.iloc[1:].isna().reset_index(drop=True)
                          & keys.iloc[:-1].isna().reset_index(drop=True))
                       ).all(axis=1).to_numpy()
            changed[1:] = ~eq_prev
        return changed

    def _rows_frame(self, df: pd.DataFrame, fn: str, n: int) -> np.ndarray:
        """Explicit ROWS frame (lo, hi): physical row offsets, no peer
        adjustment. Supported shapes (the practical set — moving windows,
        running, reverse-running, whole-partition); others raise."""
        lo, hi = self.frame
        s = df[self.arg_col] if self.arg_col else \
            pd.Series(np.ones(n), index=df.index)
        if self.exclude != "NO OTHERS":
            # exclusion punches row/peer holes in the frame — route every
            # shape through the general range-aggregate core
            notna = s.notna().to_numpy()
            x = s.to_numpy(dtype=np.float64) if s.dtype.kind in "fiub" else \
                pd.to_numeric(s, errors="coerce").to_numpy(dtype=np.float64)
            idx = np.arange(n)
            ls = np.zeros(n, dtype=np.int64) if lo is None else \
                np.clip(idx + lo, 0, n)
            rs = np.full(n, n, dtype=np.int64) if hi is None else \
                np.clip(idx + hi + 1, 0, n)
            rs = np.maximum(rs, ls)
            return self._frame_agg(df, x, notna, ls, rs, fn, n)

        def agg_roll(r):
            if fn == "SUM":
                return r.sum()
            if fn == "COUNT":
                return r.count()
            if fn in ("AVG", "MEAN"):
                return r.mean()
            if fn == "MIN":
                return r.min()
            return r.max()

        if lo is None and hi is None:          # whole partition
            if fn == "COUNT":
                val = s.count()
            elif fn == "SUM":
                val = s.sum(min_count=1)
            elif fn in ("AVG", "MEAN"):
                val = s.mean()
            elif fn == "MIN":
                val = s.min()
            else:
                val = s.max()
            return np.full(n, val)
        if lo is None and hi == 0:             # running (ROWS, no peers)
            if fn == "SUM":
                return s.cumsum().ffill().to_numpy()
            if fn == "COUNT":
                return s.notna().cumsum().to_numpy()
            if fn in ("AVG", "MEAN"):
                return (s.cumsum() / s.notna().cumsum()).ffill().to_numpy()
            if fn == "MIN":
                return s.cummin().ffill().to_numpy()
            return s.cummax().ffill().to_numpy()
        if lo == 0 and hi is None:             # reverse running
            r = s.iloc[::-1]
            if fn == "SUM":
                out = r.cumsum().ffill()
            elif fn == "COUNT":
                out = r.notna().cumsum()
            elif fn in ("AVG", "MEAN"):
                out = (r.cumsum() / r.notna().cumsum()).ffill()
            elif fn == "MIN":
                out = r.cummin().ffill()
            else:
                out = r.cummax().ffill()
            return out.iloc[::-1].to_numpy()
        if lo is not None and lo <= 0 and hi == 0:  # trailing window
            return agg_roll(s.rolling(-lo + 1, min_periods=1)).to_numpy()
        # general ROWS frame (any PRECEDING/FOLLOWING combination):
        # direct index arithmetic over the shared range-aggregate core
        notna = s.notna().to_numpy()
        x = s.to_numpy(dtype=np.float64) if s.dtype.kind in "fiub" else \
            pd.to_numeric(s, errors="coerce").to_numpy(dtype=np.float64)
        idx = np.arange(n)
        ls = np.zeros(n, dtype=np.int64) if lo is None else \
            np.clip(idx + lo, 0, n)
        rs = np.full(n, n, dtype=np.int64) if hi is None else \
            np.clip(idx + hi + 1, 0, n)
        rs = np.maximum(rs, ls)  # inverted frames (lo > hi) are empty
        return self._agg_ranges(x, notna, ls, rs, fn, n)

    def _range_frame(self, df: pd.DataFrame, fn: str, n: int) -> np.ndarray:
        """RANGE offset frame (lo, hi): VALUE offsets relative to the single
        numeric ORDER BY key — row i's frame is every row whose key lies in
        [key_i + lo, key_i + hi] (ANSI; CURRENT ROW ⇒ offset 0 includes all
        peers). Vectorized per partition: frame edges via two searchsorted
        calls on the sorted keys; SUM/COUNT/AVG read prefix sums; MIN/MAX
        read an O(n log n) sparse table. NULL order keys form one peer
        group whose frame is the whole NULL group (DuckDB semantics)."""
        lo, hi = self.frame
        if len(self.okeys) != 1:
            raise ValueError(
                "RANGE offset frames require exactly ONE ORDER BY key")
        key = df[self.okeys[0]]
        if pd.api.types.is_datetime64_any_dtype(key):
            # timestamp key: bounds arrive normalized to SECONDS (INTERVAL
            # literals); scale them to the key's physical resolution
            arr = key.to_numpy()
            unit, _ = np.datetime_data(arr.dtype)
            scale = {"s": 1e0, "ms": 1e3, "us": 1e6, "ns": 1e9}[unit]
            vals = arr.astype("int64").astype(np.float64)
            vals[pd.isna(arr)] = np.nan  # NaT encodes as INT64_MIN otherwise
            lo = None if lo is None else lo * scale
            hi = None if hi is None else hi * scale
        else:
            if not pd.api.types.is_numeric_dtype(key):
                key = pd.to_numeric(key, errors="coerce")
            vals = key.to_numpy(dtype=np.float64)  # df already sorted
        if self.odesc[0]:
            vals = -vals  # ascending view; [v+lo, v+hi] is direction-free
        s = df[self.arg_col] if self.arg_col else \
            pd.Series(np.ones(n), index=df.index)
        notna = s.notna().to_numpy()  # COUNT counts non-null args of ANY type
        x = s.to_numpy(dtype=np.float64) if s.dtype.kind in "fiub" else \
            pd.to_numeric(s, errors="coerce").to_numpy(dtype=np.float64)

        # NULL keys sort LAST (pandas na_position default == DuckDB's
        # NULLS LAST default for both directions) and form one peer group.
        # UNBOUNDED bounds are ABSOLUTE (they cross the null/non-null
        # boundary); value/CURRENT ROW bounds stay within the segment:
        # a NULL row's value-based frame is exactly its null peer group.
        m = int(np.count_nonzero(~np.isnan(vals)))
        v = vals[:m]
        ls = np.empty(n, dtype=np.int64)
        rs = np.empty(n, dtype=np.int64)
        ls[:m] = 0 if lo is None else np.searchsorted(v, v + lo, side="left")
        rs[:m] = n if hi is None else np.searchsorted(v, v + hi, side="right")
        ls[m:] = 0 if lo is None else m
        rs[m:] = n

        return self._frame_agg(df, x, notna, ls, rs, fn, n)

    def _groups_frame(self, df: pd.DataFrame, fn: str, n: int) -> np.ndarray:
        """GROUPS offset frame (lo, hi): PEER-GROUP offsets — row i's frame
        spans every row whose peer-group index lies in [g_i + lo, g_i + hi].
        Implemented as a RANGE frame over the group index (one searchsorted
        pair on the monotone gid array); shares the exclusion-aware
        aggregate core."""
        lo, hi = self.frame
        if not self.okeys:
            raise ValueError("GROUPS frames require ORDER BY in OVER()")
        changed = self._order_key_changes(df, n)
        gid = (changed.cumsum() - 1).astype(np.float64)
        s = df[self.arg_col] if self.arg_col else \
            pd.Series(np.ones(n), index=df.index)
        notna = s.notna().to_numpy()
        x = s.to_numpy(dtype=np.float64) if s.dtype.kind in "fiub" else \
            pd.to_numeric(s, errors="coerce").to_numpy(dtype=np.float64)
        ls = np.zeros(n, dtype=np.int64) if lo is None else \
            np.searchsorted(gid, gid + lo, side="left")
        rs = np.full(n, n, dtype=np.int64) if hi is None else \
            np.searchsorted(gid, gid + hi, side="right")
        rs = np.maximum(rs, ls)
        return self._frame_agg(df, x, notna, ls, rs, fn, n)

    def _frame_agg(self, df: pd.DataFrame, x, notna, ls, rs, fn: str,
                   n: int) -> np.ndarray:
        """Apply the ANSI EXCLUDE clause to per-row frames [ls, rs) then
        aggregate: the exclusion interval [a, b) (current row / its peer
        group) splits each frame into two sub-ranges; TIES re-admits the
        current row itself."""
        if self.exclude == "NO OTHERS":
            return self._agg_multi(x, notna, [(ls, rs)], fn, n)
        idx = np.arange(n)
        if self.exclude == "CURRENT ROW":
            a, b = idx, idx + 1
            self_mask = None
        else:  # GROUP / TIES exclude the whole peer group of the row
            if self.okeys:
                changed = self._order_key_changes(df, n)
            else:  # no ORDER BY: the partition is one peer group
                changed = np.zeros(n, dtype=bool)
                if n:
                    changed[0] = True
            gid = changed.cumsum() - 1
            starts = np.flatnonzero(changed)
            ends = np.append(starts[1:], n)
            a, b = starts[gid], ends[gid]
            # TIES keeps the current row iff it lies inside its own frame
            self_mask = ((idx >= ls) & (idx < rs)) \
                if self.exclude == "TIES" else None
        a2 = np.clip(a, ls, rs)
        b2 = np.clip(np.maximum(b, a2), ls, rs)
        return self._agg_multi(x, notna, [(ls, a2), (b2, rs)], fn, n,
                               self_mask=self_mask)

    @staticmethod
    def _agg_ranges(x: np.ndarray, notna: np.ndarray, ls: np.ndarray,
                    rs: np.ndarray, fn: str, n: int) -> np.ndarray:
        return _WindowGroupFn._agg_multi(x, notna, [(ls, rs)], fn, n)

    @staticmethod
    def _agg_multi(x: np.ndarray, notna: np.ndarray, ranges, fn: str,
                   n: int, self_mask=None) -> np.ndarray:
        """Aggregate x over the UNION of per-row index ranges [ls, rs)
        (plus the row's own value where self_mask is True — EXCLUDE TIES):
        SUM/COUNT/AVG via prefix sums, MIN/MAX via an O(n log n) sparse
        table queried once per range (fmin/fmax skip NaN = NULL args).
        Shared by ROWS/RANGE/GROUPS frames and the EXCLUDE splitter."""
        ps = np.concatenate([[0.0], np.cumsum(np.where(notna, x, 0.0))])
        pc_ = np.concatenate([[0], np.cumsum(notna.astype(np.int64))])
        cnt = np.zeros(n, dtype=np.int64)
        for ls, rs in ranges:
            cnt += pc_[rs] - pc_[ls]
        if self_mask is not None:
            cnt += (notna & self_mask).astype(np.int64)
        if fn == "COUNT":
            return cnt
        if fn == "SUM" or fn in ("AVG", "MEAN"):
            tot = np.zeros(n, dtype=np.float64)
            for ls, rs in ranges:
                tot += ps[rs] - ps[ls]
            if self_mask is not None:
                tot += np.where(notna & self_mask, np.nan_to_num(x), 0.0)
            if fn in ("AVG", "MEAN"):
                return np.where(cnt > 0, tot / np.maximum(cnt, 1), np.nan)
            return np.where(cnt > 0, tot, np.nan)
        # MIN/MAX: sparse table (fmin/fmax skip NaN = NULL args)
        op = np.fmin if fn == "MIN" else np.fmax
        arr = np.where(notna, x, np.nan)
        tables = [arr]
        j = 1
        while (1 << j) <= n:
            prev = tables[-1]
            half = 1 << (j - 1)
            tables.append(op(prev[:n - (1 << j) + 1],
                             prev[half:n - (1 << j) + 1 + half]))
            j += 1

        def query(ls, rs):
            res = np.full(n, np.nan)
            width = rs - ls
            valid = width > 0
            if valid.any():
                k = np.zeros(n, dtype=np.int64)
                k[valid] = np.floor(np.log2(width[valid])).astype(np.int64)
                for kk in np.unique(k[valid]):
                    sel = valid & (k == kk)
                    t = tables[kk]
                    res[sel] = op(t[ls[sel]], t[rs[sel] - (1 << kk)])
            return res

        best = np.full(n, np.nan)
        for ls, rs in ranges:
            best = op(best, query(ls, rs))
        if self_mask is not None:
            best = op(best, np.where(self_mask, arr, np.nan))
        return best

    def _one(self, df: pd.DataFrame) -> pd.DataFrame:
        if self.okeys:
            df = df.sort_values(self.okeys,
                                ascending=[not d for d in self.odesc],
                                kind="stable")
        n = len(df)
        fn = self.func
        if fn == "ROW_NUMBER":
            out = np.arange(1, n + 1)
        elif fn in ("RANK", "DENSE_RANK"):
            if not self.okeys:
                raise ValueError(f"{fn}() requires ORDER BY in OVER()")
            # rank from POSITION in the already-sorted (direction-aware)
            # order: a new rank starts wherever the order key changes
            changed = self._order_key_changes(df, n)
            if fn == "RANK":
                pos = np.arange(1, n + 1)
                out = pd.Series(np.where(changed, pos, np.nan)) \
                    .ffill().astype("int64").to_numpy()
            else:
                out = changed.cumsum().astype("int64")
        elif fn in ("PERCENT_RANK", "CUME_DIST"):
            if not self.okeys:
                raise ValueError(f"{fn}() requires ORDER BY in OVER()")
            changed = self._order_key_changes(df, n)
            run_id = changed.cumsum() - 1
            if fn == "PERCENT_RANK":  # (rank-1)/(n-1), rank = first peer pos
                pos = np.arange(1, n + 1)
                rank = pd.Series(np.where(changed, pos, np.nan)) \
                    .ffill().to_numpy()
                out = (rank - 1) / (n - 1) if n > 1 else np.zeros(n)
            else:  # CUME_DIST: rows ≤ last peer of current row, over n
                is_end = np.ones(n, dtype=bool)
                if n > 1:
                    is_end[:-1] = changed[1:]
                end_idx = np.flatnonzero(is_end)
                out = (end_idx[run_id] + 1) / n
        elif fn == "NTILE":
            if not self.okeys:
                raise ValueError("NTILE() requires ORDER BY in OVER()")
            k = self.ntile_n
            # ANSI: the first n % k buckets hold ceil(n/k) rows
            small, rem = divmod(n, k)
            pos = np.arange(n)
            big_span = rem * (small + 1)
            out = np.where(
                pos < big_span,
                pos // max(1, small + 1) + 1,
                rem + (pos - big_span) // max(1, small) + 1
                if small else rem)
        elif fn == "FIRST_VALUE":
            if not self.okeys:
                raise ValueError("FIRST_VALUE() requires ORDER BY in OVER()")
            ser = df[self.arg_col].reset_index(drop=True)
            if self.ignore_nulls:
                # first non-null in [start .. current last peer]
                nn = ser.notna().to_numpy()
                fnn = int(np.argmax(nn)) if nn.any() else n
                changed = self._order_key_changes(df, n)
                run_id = changed.cumsum() - 1
                is_end = np.ones(n, dtype=bool)
                if n > 1:
                    is_end[:-1] = changed[1:]
                frame_end = np.flatnonzero(is_end)[run_id]
                out = ser.iloc[np.where(frame_end >= fnn, fnn, 0)] \
                    .reset_index(drop=True)
                out[frame_end < fnn] = None
                out = out.to_numpy()
            else:
                vals = ser.to_numpy()
                out = np.repeat(vals[:1], n)
        elif fn == "LAST_VALUE":
            if not self.okeys:
                raise ValueError("LAST_VALUE() requires ORDER BY in OVER()")
            if self.frame == (None, None):  # explicit full-partition frame
                vals = df[self.arg_col].to_numpy()
                df = df.copy()
                df[self.out_name] = np.repeat(vals[-1:], n)
                return df
            # ANSI default frame ends at the current row's LAST PEER
            changed = self._order_key_changes(df, n)
            run_id = changed.cumsum() - 1
            is_end = np.ones(n, dtype=bool)
            if n > 1:
                is_end[:-1] = changed[1:]
            end_idx = np.flatnonzero(is_end)
            if self.ignore_nulls:
                # last non-null at-or-before the frame end (gap fill)
                vals = df[self.arg_col].reset_index(drop=True) \
                    .ffill().to_numpy()
            else:
                vals = df[self.arg_col].to_numpy()
            out = vals[end_idx[run_id]]
        elif fn == "NTH_VALUE":
            # ANSI default frame: the n-th row of [partition start ..
            # current row's last peer]; NULL while the frame is shorter
            if not self.okeys:
                raise ValueError("NTH_VALUE() requires ORDER BY in OVER()")
            k = self.lag_offset  # NTH_VALUE(expr, n) → n stored here
            changed = self._order_key_changes(df, n)
            run_id = changed.cumsum() - 1
            is_end = np.ones(n, dtype=bool)
            if n > 1:
                is_end[:-1] = changed[1:]
            frame_end = np.flatnonzero(is_end)[run_id]
            vals = df[self.arg_col].reset_index(drop=True)
            valid = frame_end >= (k - 1)
            out = vals.iloc[np.where(valid, k - 1, 0)].reset_index(drop=True)
            out[~valid] = None
            out = out.to_numpy()  # positional assignment (df keeps its
            # original index here; a Series would align-by-index to NaN)
        elif fn in ("LAG", "LEAD"):
            shift = self.lag_offset if fn == "LAG" else -self.lag_offset
            if self.ignore_nulls:
                # most recent (LAG) / next (LEAD) NON-NULL value; offsets
                # beyond 1 would need k-th-non-null bookkeeping
                if self.lag_offset != 1:
                    raise ValueError(
                        f"{fn} IGNORE NULLS supports offset 1 only")
                ser = df[self.arg_col].reset_index(drop=True)
                if fn == "LEAD":
                    ser = ser[::-1].reset_index(drop=True)
                out = ser.shift(1).ffill()
                if fn == "LEAD":
                    out = out[::-1].reset_index(drop=True)
                if self.lag_default is not None:
                    out = out.fillna(self.lag_default)
                out = out.to_numpy()
            # fill_value fills only out-of-partition positions (ANSI: the
            # default never replaces genuine NULL values that shifted in)
            elif self.lag_default is not None:
                out = df[self.arg_col].shift(
                    shift, fill_value=self.lag_default).to_numpy()
            else:
                out = df[self.arg_col].shift(shift).to_numpy()
        elif fn in ("SUM", "COUNT", "AVG", "MEAN", "MIN", "MAX") \
                and self.frame:
            if self.frame_kind == "GROUPS":
                out = self._groups_frame(df, fn, n)
            elif self.frame_kind == "RANGE" and self.frame != (None, None):
                out = self._range_frame(df, fn, n)
            else:
                out = self._rows_frame(df, fn, n)
        elif fn in ("SUM", "COUNT", "AVG", "MEAN", "MIN", "MAX"):
            s = df[self.arg_col] if self.arg_col else None
            if self.okeys:  # cumulative frame
                # ffill: a NULL input row carries the running value forward
                # (ANSI aggregates ignore NULLs; pandas cum* leave NaN)
                if fn == "SUM":
                    out = s.cumsum().ffill().to_numpy()
                elif fn == "COUNT":
                    out = (s.notna().cumsum() if s is not None
                           else pd.Series(np.arange(1, n + 1))).to_numpy()
                elif fn in ("AVG", "MEAN"):
                    out = (s.cumsum() / s.notna().cumsum()).ffill().to_numpy()
                elif fn == "MIN":
                    out = s.cummin().ffill().to_numpy()
                else:
                    out = s.cummax().ffill().to_numpy()
                # ANSI default frame is RANGE (unbounded preceding → current
                # ROW's peers): tied order keys share the running value at
                # the peer group's LAST row
                changed = self._order_key_changes(df, n)
                run_id = changed.cumsum() - 1
                is_end = np.ones(n, dtype=bool)
                if n > 1:
                    is_end[:-1] = changed[1:]
                end_idx = np.flatnonzero(is_end)
                out = np.asarray(out)[end_idx[run_id]]
            else:  # whole-partition
                if fn == "SUM":
                    val = s.sum(min_count=1)
                elif fn == "COUNT":
                    val = s.count() if s is not None else n
                elif fn in ("AVG", "MEAN"):
                    val = s.mean()
                elif fn == "MIN":
                    val = s.min()
                else:
                    val = s.max()
                out = np.full(n, val)
        else:
            raise ValueError(f"unsupported window function {fn}")
        if fn == "COUNT":
            # ANSI: COUNT is BIGINT and never NULL (some paths above compute
            # it as float via rolling/prefix machinery)
            out = np.asarray(out).astype(np.int64)
        df = df.copy()
        df[self.out_name] = out
        return df


class SortSlice:
    """Single-task final top-k: sort one (already locally-top-k-pruned)
    batch by the null-safe keys and keep the first k rows — replaces the
    global range-shuffle sort when the result is small."""

    def __init__(self, sort_cols, descending, k):
        self.sort_keys = [(c, "descending" if d else "ascending")
                          for c, d in zip(sort_cols, descending)]
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(batch, sort_keys=self.sort_keys)
        return batch.take(idx.slice(0, self.k))


class LocalTopK:
    """Keep a batch's top-k rows under the sort ordering (nulls last,
    matching Ray's sort placement)."""

    def __init__(self, sort_cols, descending, k):
        self.sort_keys = [(c, "descending" if d else "ascending")
                          for c, d in zip(sort_cols, descending)]
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) <= self.k:
            return batch
        idx = pc.sort_indices(batch, sort_keys=self.sort_keys,
                              null_placement="at_end")
        return batch.take(idx.slice(0, self.k))


def _zero_scalar(t: pa.DataType):
    """A type-appropriate placeholder for null-filled sort keys (value is
    irrelevant — the null flag column orders first)."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pa.scalar("", type=t)
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return pa.scalar(b"", type=t)
    if pa.types.is_boolean(t):
        return pa.scalar(False, type=t)
    try:
        return pa.scalar(0, type=t)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, OverflowError):
        return None


class NullSafeSortKeys:
    """Append per-sort-column helper keys: __nf{i} = is-null flag (int8) and
    __nk{i} = null-filled copy. Sorting by (flag ASC, filled DIR) is
    equivalent to DIR-with-nulls-last but never hands a None to Ray's sort
    boundary sampler (which raises TypeError comparing None to str)."""

    def __init__(self, cols):
        self.cols = cols

    def __call__(self, t: pa.Table) -> pa.Table:
        for i, c in enumerate(self.cols):
            col = t.column(c)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            flag = pc.cast(pc.is_null(col), pa.int8())
            if pa.types.is_null(col.type):
                filled = pa.array(np.zeros(len(t), dtype=np.int8))
            else:
                z = _zero_scalar(col.type)
                filled = pc.fill_null(col, z) if z is not None else col
            t = t.append_column(f"__nf{i}", flag)
            t = t.append_column(f"__nk{i}", filled)
        return t


def _collect_grouping_calls(expr) -> list:
    """All GROUPING(...) FuncCall nodes in an expression tree (generic
    frozen-dataclass walk; GROUPING is not an aggregate, so
    collect_agg_calls never sees it)."""
    out = []

    def walk(node):
        if isinstance(node, A.FuncCall) and node.name == "GROUPING":
            out.append(node)
            return
        if isinstance(node, tuple):
            for x in node:
                walk(x)
        elif hasattr(node, "__dataclass_fields__"):
            for f in node.__dataclass_fields__:
                walk(getattr(node, f))

    walk(expr)
    return out


class _AlignGroupingSet:
    """Normalize one grouping-set piece to the canonical rollup schema:
    all key columns (typed NULL where the key is aggregated away), the
    partial columns in canonical order, and a __gm{j} int64 constant per
    key (1 = key absent from this set) backing GROUPING(key)."""

    def __init__(self, key_names, types, partial_names, present):
        self.key_names = list(key_names)
        self.types = types
        self.partial_names = list(partial_names)
        self.present = present  # frozenset of key indexes in this set

    def __call__(self, t: pa.Table) -> pa.Table:
        n = len(t)
        cols = {}
        for j, k in enumerate(self.key_names):
            if j in self.present:
                cols[k] = t.column(k)
            else:
                cols[k] = pa.nulls(n, type=self.types.get(k))
        for name in self.partial_names:
            cols[name] = t.column(name)
        for j in range(len(self.key_names)):
            cols[f"__gm{j}"] = pa.array(
                np.full(n, 0 if j in self.present else 1, dtype=np.int64))
        return pa.table(cols)


class _PositionalUnionRename:
    """Re-label the right UNION arm positionally to the left arm's names."""

    def __init__(self, from_names, to_names):
        self.order = list(from_names)
        self.to_names = list(to_names)

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.select(self.order)
        return batch.rename_columns(self.to_names)


class DropColumns:
    def __init__(self, names):
        self.names = names

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.drop_columns([c for c in self.names if c in batch.column_names])


class RestoreKeyNames:
    """After an equi-INNER join the non-surviving side's key columns vanish
    (pa/Ray coalesce both keys under the left name), so later references to
    the right-hand key name (``WHERE u.k = 5`` after ``ON t.k = u.k``) fail.
    Re-expose each dropped key name as a zero-copy duplicate of its
    surviving partner — valid ONLY for inner joins, where the pair is equal
    by definition (outer joins null-extend the missing side)."""

    def __init__(self, pairs):
        self.pairs = pairs  # (surviving_name, dropped_name)

    def __call__(self, batch: pa.Table) -> pa.Table:
        for src, dst in self.pairs:
            if dst not in batch.column_names and src in batch.column_names:
                batch = batch.append_column(dst, batch.column(src))
        return batch


# ------------------------------------------------------------------ compiler
def _configure_join_aggregators():
    """Chained hash-shuffle joins deadlock under Ray 2.49's default
    aggregator sizing: each join operator's actor pool reserves CPU/2
    (min(1, CPU/2/num_partitions) per partition), so TWO concurrent join
    operators in one plan hold every CPU while their 1-CPU shuffle map
    tasks wait forever. Cap each join's pool at CPU/4 so several joins
    plus the map stages co-schedule (measured: 2-join pipeline hung at
    any CPU count; with the cap it streams)."""
    if not ray.is_initialized():
        return
    ctx = rd.DataContext.get_current()
    if ctx.join_operator_actor_num_cpus_per_partition_override:
        return  # respect an explicit user/system setting
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    nparts = _join_partitions(ncpu)  # the compiler's join partitioning
    ctx.join_operator_actor_num_cpus_per_partition_override = \
        max(0.03, (ncpu / 4.0) / nparts)


def _join_partitions(num_cpus: int) -> int:
    """Hash-shuffle join partition count: 2 per core (floor 16), CAPPED by
    the cluster's memory resource. Ray 2.49 join aggregators each reserve
    7 × target_max_block_size of `memory` (join.py
    _estimate_aggregator_memory_allocation: 2× shuffle inputs + 3× in-task
    join + 2× output); when the total reservation exceeds the cluster's
    memory resource the aggregator pool can never be placed and the plan
    PENDS FOREVER (observed live when stale tmpfs scratch shrank the VM's
    available memory below 64 × 0.875 GiB). Keeping the reservation under
    half the memory resource makes the join degrade to fewer/larger
    partitions instead of deadlocking."""
    nparts = max(num_cpus * 2, 16)
    try:
        mem = float(ray.cluster_resources().get("memory", 0.0))
        blk = rd.DataContext.get_current().target_max_block_size \
            or 128 * 1024 * 1024
        cap = int((mem * 0.5) // (7 * blk))
        if cap >= 4:
            nparts = min(nparts, cap)
    except Exception:
        pass
    return nparts


def _has_pending_shuffle_join(ds: rd.Dataset) -> bool:
    """True if the dataset's (not-yet-executed) plan contains a hash-shuffle
    Join operator. Materialized datasets root at InputData → False."""
    try:
        from ray.data._internal.logical.operators.join_operator import Join

        def walk(op) -> bool:
            if isinstance(op, Join):
                return True
            return any(walk(d) for d in op.input_dependencies)

        return walk(ds._logical_plan.dag)
    except Exception:
        return False


def _shuffle_join(left_ds: rd.Dataset, right_ds: rd.Dataset,
                  **kw) -> rd.Dataset:
    """Hash-shuffle join with a chained-join guard: Ray 2.49's streaming
    executor DEADLOCKS when two hash-shuffle join operators are live in one
    plan (each aggregator pool reserves a CPU block; together with the
    1-CPU shuffle map tasks nothing can schedule — measured: any 2-join
    pipeline hangs at any CPU count, and a materialize() barrier between
    the joins streams fine). Inputs that still contain a pending join are
    materialized first, so at most ONE join operator runs per execution."""
    if _has_pending_shuffle_join(left_ds):
        left_ds = left_ds.materialize()
    if _has_pending_shuffle_join(right_ds):
        right_ds = right_ds.materialize()
    return _drop_empty_blocks(left_ds).join(
        _drop_empty_blocks(right_ds), **kw)


def _drop_empty_blocks(ds: rd.Dataset) -> rd.Dataset:
    """Rebuild an already-materialized dataset without its zero-row blocks.

    Ray 2.49 never runs map UDFs on empty blocks and stores them as
    ZERO-COLUMN tables, so an empty-result subplan (e.g. a union arm whose
    filter dropped every row, or an empty hash partition of a groupby)
    leaves schema-less empty blocks in the stream; pyarrow's hash join
    inside Ray's shuffle aggregator then dies with "No match for key
    field …". Only block REFS move here —
    from_arrow_refs re-wraps the surviving object-store blocks without
    copying data through the driver. Lazy inputs pass through untouched
    (no forced materialization barrier)."""
    if not isinstance(ds, rd.dataset.MaterializedDataset):
        return ds
    try:
        pairs = [pair for bundle in ds.iter_internal_ref_bundles()
                 for pair in bundle.blocks]
    except Exception:
        return ds
    # from_arrow_refs below assumes every block is an Arrow table; a
    # pandas-format dataset (base_schema is a PandasBlockSchema, not
    # pa.Schema) would be mistyped and fail later outside this function's
    # guard — leave such datasets untouched
    try:
        base = getattr(ds.schema(), "base_schema", None)
    except Exception:
        base = None
    if base is not None and not isinstance(base, pa.Schema):
        return ds
    # num_rows is Optional in Ray BlockMetadata: None means UNKNOWN count,
    # so conservatively keep those blocks (only drop a provably-0 block)
    keep = [ref for ref, meta in pairs
            if meta.num_rows is None or meta.num_rows]
    if len(keep) == len(pairs):
        return ds
    if not keep:
        # all-empty: keep a single typed empty block when the schema is
        # known so downstream consumers still see the output columns
        try:
            sch = getattr(ds.schema(), "base_schema", None)
        except Exception:
            sch = None
        if sch is not None and len(sch.names):
            return rd.from_arrow(sch.empty_table())
        return ds
    try:
        return rd.from_arrow_refs(keep)
    except (TypeError, ValueError):
        # a non-Arrow block slipped past the base_schema probe — keep the
        # dataset intact rather than mistype it; anything else (Ray API
        # failure) must surface
        return ds


class UncorrelatedSubqueryError(ValueError):
    """A scalar subquery had NO equality correlation with the outer
    frame — the ONLY condition _decorrelate_or_fold may fold to a
    one-shot literal (typed dispatch, not message matching)."""


class Compiler:
    def __init__(self, session):
        self.session = session
        _configure_join_aggregators()

    # ----------------------------------------------------------- statements
    def compile_query(self, stmt) -> rd.Dataset:
        if isinstance(stmt, A.Select):
            return self.compile_select(stmt)
        if isinstance(stmt, A.MaterializedTable):
            # recursive-CTE working/final table re-entering the plan
            return rd.from_arrow(stmt.table)
        if isinstance(stmt, A.WithCtes):
            # nested WITH (subquery source / CTE body): the session scopes
            # the views around the body's compilation
            return self.session._exec_WithCtes(stmt)
        if isinstance(stmt, A.Union):
            left_f = self._query_frame(stmt.left)
            right_f = self._query_frame(stmt.right)
            right_ds = right_f.ds
            if stmt.by_name:
                # UNION [ALL] BY NAME: align by column NAME; columns absent
                # on one side null-pad with the other side's type
                from .asof import PadToSchema

                l_schema = left_f.ds.schema().base_schema
                r_schema = right_f.ds.schema().base_schema
                fields = [l_schema.field(c) for c in left_f.columns]
                fields += [r_schema.field(c) for c in right_f.columns
                           if c not in left_f.columns]
                union_schema = pa.schema(fields)
                out = left_f.ds.map_batches(
                    PadToSchema(union_schema),
                    batch_format="pyarrow").union(
                    right_ds.map_batches(PadToSchema(union_schema),
                                         batch_format="pyarrow"))
                if stmt.distinct:
                    out = _distinct(out, names=list(union_schema.names))
                return _tag_columns(out, list(union_schema.names))
            if right_f.columns and left_f.columns and \
                    right_f.columns != left_f.columns:
                # ANSI UNION is positional: re-label the right arm to the
                # left arm's column names (Ray's union aligns by name)
                if len(right_f.columns) != len(left_f.columns):
                    raise ValueError(
                        f"UNION arms have {len(left_f.columns)} vs "
                        f"{len(right_f.columns)} columns")
                mapping = dict(zip(right_f.columns, left_f.columns))
                right_ds = right_ds.map_batches(
                    _PositionalUnionRename(right_f.columns, left_f.columns),
                    batch_format="pyarrow")
            out = left_f.ds.union(right_ds)
            if stmt.distinct:
                out = _distinct(out, names=left_f.columns or None)
            return _tag_columns(out, left_f.columns)
        if isinstance(stmt, A.SetOp):
            left_f = self._query_frame(stmt.left)
            right_f = self._query_frame(stmt.right)
            right_ds = right_f.ds
            if right_f.columns and left_f.columns and \
                    right_f.columns != left_f.columns:
                if len(right_f.columns) != len(left_f.columns):
                    raise ValueError(
                        f"{stmt.op} arms have {len(left_f.columns)} vs "
                        f"{len(right_f.columns)} columns")
                right_ds = right_ds.map_batches(
                    _PositionalUnionRename(right_f.columns, left_f.columns),
                    batch_format="pyarrow")
            keys = list(left_f.columns) or list(left_f.ds.schema().names)
            # each arm shrinks per batch to its key counts; one exchange
            # sums a key's counts over both arms and keeps its rows
            both = left_f.ds.map_batches(
                ArmCounts(keys, "__l"), batch_format="pyarrow").union(
                right_ds.map_batches(ArmCounts(keys, "__r"),
                                     batch_format="pyarrow"))
            return _tag_columns(
                _row_exchange(both, keys, SetOpRows(keys, stmt.op, stmt.all)),
                keys)
        if isinstance(stmt, A.Values):
            return self.compile_values(stmt, ())
        raise ValueError(f"not a query: {type(stmt).__name__}")

    def _query_frame(self, stmt) -> Frame:
        if isinstance(stmt, A.Select):
            return self._select_frame(stmt)
        ds = self.compile_query(stmt)
        return Frame(ds, list(getattr(ds, "_qwery_columns", None) or []))

    def compile_values(self, stmt: A.Values, columns: tuple[str, ...]) -> rd.Dataset:
        ev = make_evaluator(_env(self.session))
        dummy = pa.table({"__one": [1]})
        rows = []
        for row in stmt.rows:
            vals = [ev.eval(e, dummy) for e in row]
            vals = [v.to_pylist()[0] if isinstance(v, (pa.Array, pa.ChunkedArray)) else v
                    for v in vals]
            rows.append(vals)
        names = list(columns) if columns else [f"field{i}" for i in range(len(rows[0]))]
        cols = {n: [r[i] for r in rows] for i, n in enumerate(names)}
        return rd.from_arrow(pa.table(cols))

    # --------------------------------------------------------------- select
    def compile_select(self, sel: A.Select) -> rd.Dataset:
        frame = self._select_frame(sel)
        return _tag_columns(frame.ds, frame.columns)

    def _select_frame(self, sel: A.Select) -> Frame:
        env = _env(self.session)

        if sel.source is None:
            # literal row: SELECT 1+2 AS total (Select.scala:40-41)
            items = [it for it in sel.items if isinstance(it, A.SelectItem)]
            names = [self._output_name(it, i) for i, it in enumerate(items)]
            unnest_cols = []
            for k, it in enumerate(items):
                if isinstance(it.expr, A.FuncCall) \
                        and it.expr.name.upper() == "UNNEST" \
                        and len(it.expr.args) == 1:
                    items[k] = A.SelectItem(it.expr.args[0], it.alias)
                    unnest_cols.append(names[k])
            proj = ProjectBatch(items, env, names)
            table = proj(pa.table({"__one": [1]}))
            if unnest_cols:
                table = ExplodeBatch(unnest_cols)(table)
            if sel.where is not None:
                # SELECT 1 WHERE FALSE must yield zero rows (ANSI); the
                # filter runs against the literal row's own columns
                table = FilterBatch(sel.where, env)(table)
            return Frame(rd.from_arrow(table), list(table.column_names))

        # read-time optimization: prune columns + push WHERE into the scan
        from .pushdown import referenced_columns, to_dataset_expression

        sel = self._promote_cross_equi(sel)
        needed = referenced_columns(sel)
        pushdown = None
        if sel.where is not None and isinstance(sel.source, A.TableRef):
            schema = self._parquet_schema_of(sel.source)
            if schema is not None:
                base_alias = (sel.source.alias or sel.source.name).lower()
                pushdown = to_dataset_expression(sel.where, schema,
                                                 alias=base_alias)

        sel = self._resolve_positional_refs(sel)

        frame = self.compile_source(sel.source, columns=needed,
                                    pushdown=pushdown)
        for j in sel.joins:
            # join-side scan pushdown: WHERE conjuncts whose refs are all
            # qualified to THIS join's right table prune its read. INNER /
            # CROSS only (push-and-keep: WHERE still runs post-join, so a
            # null-extending join could resurrect pushed-away matches as
            # spurious null-extensions) and never ASOF (the nearest-match
            # row must be chosen among ALL right rows, pre-WHERE).
            jpush = None
            if sel.where is not None and \
                    j.join_type in ("INNER", "CROSS") and \
                    isinstance(j.right, A.TableRef):
                rschema = self._parquet_schema_of(j.right)
                if rschema is not None:
                    ralias = (j.right.alias or j.right.name).lower()
                    jpush = to_dataset_expression(
                        sel.where, rschema, alias=ralias, require_alias=True)
            frame = self.compile_join(frame, j, sel, needed=needed,
                                      pushdown=jpush)

        # top-level IN (SELECT …) conjuncts too large to broadcast compile
        # to hash semi/anti joins; correlated scalar-subquery comparisons
        # decorrelate into grouped joins; the rest of WHERE stays a filter
        where = sel.where
        semi_nodes = []
        corr_nodes = []
        exists_nodes = []
        if where is not None:
            conjs = _flatten_and(where)
            semi_nodes = [c for c in conjs if isinstance(c, A.InSubquery)]
            corr_nodes = [c for c in conjs
                          if _is_correlated_scalar_cmp(c)]
            exists_nodes = [c for c in conjs if isinstance(c, A.Exists)]
            if semi_nodes or corr_nodes or exists_nodes:
                rest = [c for c in conjs
                        if not isinstance(c, A.InSubquery)
                        and not isinstance(c, A.Exists)
                        and not _is_correlated_scalar_cmp(c)]
                where = None
                for c in rest:
                    where = c if where is None else A.And(where, c)
        if where is not None:
            # EXISTS nested BELOW the top-level conjuncts (inside a CASE
            # branch, an OR arm …) rewrites to a count scalar-subquery and
            # decorrelates like a SELECT-list scalar; the filter then runs
            # AFTER those joins, and the helper columns are dropped so
            # SELECT * stays clean. Top-level conjunct EXISTS was already
            # extracted into exists_nodes (the semi-join fast path).
            frame = self._filter_with_subqueries(frame, where, env)
        for k, node in enumerate(semi_nodes):
            frame = self._apply_in_semijoin(frame, node, k, env)
        for k, node in enumerate(corr_nodes):
            frame = self._apply_correlated_scalar(frame, node, k, env)
        for k, node in enumerate(exists_nodes):
            frame = self._apply_exists(frame, node, k, env)

        # correlated scalar subqueries in the SELECT list (uncorrelated ones
        # were already folded to literals by the session) decorrelate into a
        # LEFT JOIN against the grouped derived table; each aggregate call
        # is rebuilt outside the join so ANSI empty-group values survive
        # (COUNT ⇒ 0 via COALESCE, every other aggregate ⇒ NULL extension)
        # [NOT] EXISTS inside a SELECT item (CASE branches included)
        # rewrites to a count scalar-subquery first, then rides the same
        # decorrelation below
        new_items = []
        items_changed = False
        for it in sel.items:
            if isinstance(it, A.Star):
                new_items.append(it)
                continue
            ne = _rewrite_nested_exists(it.expr)
            if ne is it.expr:  # transform_expr returns the same object
                new_items.append(it)  # when nothing rewrote
            else:
                new_items.append(A.SelectItem(ne, it.alias))
                items_changed = True
        if items_changed:
            sel = dc_replace(sel, items=tuple(new_items))

        sub_nodes: list = []
        for it in sel.items:
            if isinstance(it, A.SelectItem):
                sub_nodes = self._collect_scalar_subqueries(
                    it.expr, into=sub_nodes)
        if sub_nodes:
            if sel.group_by or sel.grouping_sets or any(
                    collect_agg_calls(it.expr) for it in sel.items
                    if isinstance(it, A.SelectItem)):
                raise ValueError(
                    "correlated scalar subquery in the SELECT list of an "
                    "aggregate query is not supported")
            smap: dict = {}
            for k, node in enumerate(sub_nodes):
                frame, repl = self._decorrelate_or_fold(
                    frame, node, k, env)
                smap[id(node)] = repl
            new_items = tuple(
                it if isinstance(it, A.Star)
                else A.SelectItem(
                    transform_expr(
                        it.expr,
                        lambda n: smap.get(id(n), n)),
                    it.alias)
                for it in sel.items)
            sel = dc_replace(sel, items=new_items)

        # ANSI: select-item aliases are visible inside QUALIFY and window
        # specs (e.g. SUM(x) AS s … QUALIFY ROW_NUMBER() OVER (ORDER BY s)).
        # Resolve alias refs INSIDE WindowCall specs to their expressions
        # before window compilation; real frame columns win over aliases.
        sel = self._sub_aliases_in_window_specs(sel, frame)

        # window functions: computed after WHERE, before projection/agg;
        # WindowCall nodes are replaced by their materialized __w columns
        wcalls: list[A.WindowCall] = []
        for it in sel.items:
            if isinstance(it, A.SelectItem):
                _collect_window_calls(it.expr, wcalls)
        if sel.qualify is not None:
            _collect_window_calls(sel.qualify, wcalls)
        if wcalls:
            if sel.group_by or any(
                    collect_agg_calls(it.expr) for it in sel.items
                    if isinstance(it, A.SelectItem)):
                # ANSI evaluates windows AFTER grouping: mechanically
                # rewrite into the subquery form the engine already handles
                # (inner SELECT aggregates; outer applies the windows over
                # the aggregated rows)
                return self._select_frame(self._split_agg_windows(sel))
            frame, wmap = self._compile_windows(frame, wcalls, env)
            new_items = tuple(
                it if isinstance(it, A.Star)
                else A.SelectItem(substitute_nodes(it.expr, wmap), it.alias)
                for it in sel.items)
            order_by = tuple(A.OrderItem(substitute_nodes(o.expr, wmap),
                                         o.ascending, o.nulls_first)
                             for o in sel.order_by)
            qualify = substitute_nodes(sel.qualify, wmap) \
                if sel.qualify is not None else None
            sel = dc_replace(sel, items=new_items, where=None,
                             order_by=order_by, qualify=qualify)

        if sel.qualify is not None:
            # QUALIFY filters on window results / select aliases BEFORE the
            # projection (the __w helper columns still exist here)
            from .rewrite import substitute_columns

            alias_map = {
                it.alias.lower(): it.expr
                for it in sel.items
                if isinstance(it, A.SelectItem) and it.alias
            }
            q = substitute_columns(sel.qualify, alias_map)
            frame = Frame(
                frame.ds.map_batches(FilterBatch(q, env),
                                     batch_format="pyarrow"),
                frame.columns, frame.aliases)
            sel = dc_replace(sel, qualify=None)

        has_agg = bool(sel.group_by) or any(
            collect_agg_calls(it.expr)
            for it in sel.items if isinstance(it, A.SelectItem))

        if has_agg:
            frame = self._compile_aggregate(frame, sel, env)
        else:
            items = []
            for it in sel.items:
                if isinstance(it, A.Star) and (it.exclude or it.replace):
                    # * EXCLUDE/REPLACE: expand against the input columns
                    excl = {e.lower() for e in it.exclude}
                    repl = {n.lower(): ex for ex, n in it.replace}
                    for c in frame.columns:
                        bare = c.split(".")[-1].lower()
                        if bare in excl or c.lower() in excl:
                            continue
                        ex = repl.get(bare, repl.get(c.lower()))
                        items.append(A.SelectItem(ex, c) if ex is not None
                                     else A.SelectItem(A.ColumnRef(c), c))
                else:
                    items.append(it)
            if not (len(items) == 1 and isinstance(items[0], A.Star)
                    and items[0].table_alias is None):
                names = self._output_names(items)
                # UNNEST(list) as a top-level item: project the list column
                # itself, then explode after the projection (DuckDB
                # semantics; multiple UNNESTs zip, padded with NULL)
                unnest_cols = []
                rewritten = []
                for it, nm in zip(items, names):
                    if isinstance(it, A.SelectItem) \
                            and isinstance(it.expr, A.FuncCall) \
                            and it.expr.name.upper() == "UNNEST" \
                            and len(it.expr.args) == 1:
                        rewritten.append(
                            A.SelectItem(it.expr.args[0], it.alias))
                        unnest_cols.append(nm)
                    else:
                        rewritten.append(it)
                if unnest_cols:
                    items = rewritten
                # ORDER BY may reference input columns that the projection
                # drops (SELECT a FROM t ORDER BY b): carry them through the
                # projection under their own names; dropped after the sort
                extra_sort_cols = []
                if sel.order_by and not any(isinstance(it, A.Star)
                                            for it in items):
                    out_lower = {n.lower() for n in names if n}
                    for ob in sel.order_by:
                        for ref in sorted(collect_column_refs(ob.expr)):
                            if ref not in out_lower and \
                                    _try_resolve(ref, frame.columns):
                                actual = _resolve_name(ref, frame.columns)
                                if actual not in extra_sort_cols:
                                    extra_sort_cols.append(actual)
                    for c in extra_sort_cols:
                        items.append(A.SelectItem(A.ColumnRef(c), c))
                        names.append(c)
                frame = Frame(
                    frame.ds.map_batches(ProjectBatch(items, env, names),
                                         batch_format="pyarrow"),
                    self._expand_names(items, names, frame))
                if unnest_cols:
                    frame = Frame(
                        frame.ds.map_batches(ExplodeBatch(unnest_cols),
                                             batch_format="pyarrow"),
                        frame.columns)
                if extra_sort_cols:
                    prev = getattr(frame, "_drop_cols", None) or []
                    frame._drop_cols = prev + extra_sort_cols  # type: ignore[attr-defined]
            else:
                # SELECT * : de-qualify alias.col physical names, but only
                # when the bare name stays unique (a collision-renamed
                # column keeps its qualifier — both sides appear in *)
                taken = {c for c in frame.columns if "." not in c}
                dequal = {}
                for c in frame.columns:
                    bare = c.split(".")[-1]
                    if "." in c and bare not in taken:
                        dequal[c] = bare
                        taken.add(bare)
                if dequal:
                    frame = Frame(
                        frame.ds.map_batches(RenameBatch(dequal),
                                             batch_format="pyarrow"),
                        [dequal.get(c, c) for c in frame.columns])
            if sel.distinct:
                # pass the known names: schema() is None on a lazy pipeline
                # whose filter removed every row
                frame = Frame(_distinct(frame.ds, names=list(frame.columns)),
                              frame.columns)

        drop_cols = getattr(frame, "_drop_cols", None)
        fetch = None if sel.limit is None else sel.limit + (sel.offset or 0)
        if sel.order_by:
            frame = self._compile_order(frame, sel.order_by, env,
                                        limit=fetch)
        if fetch is not None:
            frame = Frame(frame.ds.limit(fetch), frame.columns)
        if sel.offset:
            # split_at_indices preserves row order: slice [offset:] is the
            # ANSI OFFSET result (order-deterministic only under ORDER BY,
            # same as any engine)
            frame = Frame(frame.ds.split_at_indices([sel.offset])[1],
                          frame.columns)
        if drop_cols:
            frame = Frame(
                frame.ds.map_batches(DropColumns(drop_cols), batch_format="pyarrow"),
                [c for c in frame.columns if c not in drop_cols])
        return frame

    def _compile_approx_count_distinct(self, frame: Frame, key_exprs,
                                       key_names, aggs, env) -> rd.Dataset:
        """APPROX_COUNT_DISTINCT(col) [GROUP BY keys] via HyperLogLog:
        per-batch per-group register folds (constant 2^p bytes per group
        per batch), merged by element-wise max (order-independent ⇒
        deterministic at any parallelism), then estimated. The exchange
        moves #groups×#batches sketch blobs — never the values (see
        ops/sketch.py)."""
        from ..ops.sketch import DEFAULT_P, estimate, fold_batch

        def finish(blobs: pa.Array, _m=1 << DEFAULT_P) -> int:
            regs = np.frombuffer(b"".join(blobs.to_pylist()), np.uint8)
            return int(round(estimate(
                regs.reshape(-1, _m).max(axis=0, initial=0))))

        return self._compile_sketch(
            frame, key_exprs, key_names, aggs, env,
            lambda v: fold_batch(v).tobytes(), finish, pa.int64())

    def _compile_approx_quantile(self, frame: Frame, key_exprs,
                                 key_names, aggs, env) -> rd.Dataset:
        """APPROX_QUANTILE(col, p) [GROUP BY keys] via mergeable quantile
        summaries (ops/sketch.py): per-batch per-group 4 KB order-statistic
        grids; the merge concatenates them (exact) and computes the
        weighted quantile — rank error ≤ N/512 at any parallelism. The
        exchange moves #groups×#batches summaries, never the values."""
        from ..ops.sketch import quantile_estimate, quantile_fold

        call, _ = aggs[0]
        if len(call.args) < 2 or not isinstance(call.args[1], A.Literal):
            raise ValueError(
                "APPROX_QUANTILE(expr, p) requires a literal quantile")
        p = float(call.args[1].value)
        return self._compile_sketch(
            frame, key_exprs, key_names, aggs, env, quantile_fold,
            lambda blobs, _p=p: quantile_estimate(blobs.to_pylist(), _p),
            pa.float64())

    def _compile_sketch(self, frame: Frame, key_exprs, key_names, aggs,
                        env, fold, finish, out_type) -> rd.Dataset:
        """An approximate aggregate: each batch folds each group's values
        into a sketch blob (``fold``); the exchange meets every blob of a
        group and ``finish`` merges and estimates them."""
        _, i = aggs[0]
        ds2 = frame.ds.map_batches(
            PreAggPrep(key_exprs, key_names, aggs, env),
            batch_format="pyarrow").map_batches(
            _FoldGroups(key_names, f"__a{i}", fold, "__sk", pa.binary()),
            batch_format="pyarrow")
        return exchange(
            ds2, key_names,
            _FoldGroups(key_names, "__sk", finish, f"__r{i}", out_type),
            ["__sk"])

    def _split_correlation(self, sub: A.Select, frame: Frame):
        """Partition a subquery's WHERE conjuncts into equality correlation
        pairs (inner column = outer column), purely-local predicates, and
        mixed-scope RESIDUAL conjuncts (reference both scopes but are not
        plain equalities, e.g. ``u.k <> t.k`` — TPC-H Q21 shape).
        Alias-qualified refs bind by alias; unqualified refs by the first
        scope (inner) that can resolve them — the self-join case (same
        table inner and outer) REQUIRES the aliases. Returns
        (corr_pairs, local_where, residuals) where corr_pairs is a list of
        (inner_col_name, outer ColumnRef) and residuals is a list of
        (conjunct, inner_ref_nodes) — outer-only conjuncts also land in
        residuals (constant per outer row; evaluated on the joined pair)."""
        inner_frame = self.compile_source(sub.source)
        inner_frame_cols = inner_frame.columns
        inner_aliases = set(inner_frame.aliases)

        def side(ref: A.ColumnRef) -> str:
            if ref.table_alias:
                al = ref.table_alias.lower()
                if al in inner_aliases:
                    return "I"
                if al in frame.aliases:
                    return "O"
                return "?"
            if _try_resolve(ref.name, inner_frame_cols):
                return "I"
            if _try_resolve(ref.name, frame.columns):
                return "O"
            return "?"

        def ref_nodes(expr) -> list:
            out: list = []

            def visit(node):
                if isinstance(node, A.ColumnRef):
                    out.append(node)
                return node

            transform_expr(expr, visit)
            return out

        corr_pairs = []   # (inner_col_name, outer ColumnRef)
        local = []
        residuals = []    # (conjunct, [inner ColumnRef nodes])
        for c in _flatten_and(sub.where) if sub.where is not None else []:
            pair = None
            if isinstance(c, A.Comparison) and c.op == "=" and \
                    isinstance(c.left, A.ColumnRef) and \
                    isinstance(c.right, A.ColumnRef):
                sl, sr = side(c.left), side(c.right)
                if sl == "I" and sr == "O":
                    pair = (c.left.name, c.right)
                elif sr == "I" and sl == "O":
                    pair = (c.right.name, c.left)
            if pair:
                corr_pairs.append(pair)
                continue
            refs = ref_nodes(c)
            sides = {side(r) for r in refs}
            if "O" in sides and "?" not in sides:
                residuals.append(
                    (c, [r for r in refs if side(r) == "I"]))
            else:
                local.append(c)
        local_where = None
        for c in local:
            local_where = c if local_where is None else A.And(local_where, c)
        return corr_pairs, local_where, residuals

    def _apply_exists(self, frame: Frame, node: A.Exists, k: int,
                      env) -> Frame:
        """Decorrelate ``[NOT] EXISTS (SELECT … FROM u WHERE u.c = t.c
        [AND local…])`` into a left_semi/left_anti join of the stream
        against the DISTINCT correlation keys of the subquery. Join NULL
        semantics (null keys never match) are exactly ANSI EXISTS
        semantics on both the positive and negated path — no NOT-IN null
        dance needed. An uncorrelated EXISTS probes the subquery once
        with ``limit(1)`` and keeps or empties the stream wholesale."""
        sub = node.query
        corr_pairs: list = []
        local_where = None
        residuals: list = []
        if isinstance(sub, A.Select) and not sub.joins and not sub.group_by:
            corr_pairs, local_where, residuals = \
                self._split_correlation(sub, frame)
        if not corr_pairs and not residuals:
            # uncorrelated: one driver-side existence probe
            probe = self.compile_query(self.session._prepare(sub))
            has = probe.limit(1).count() > 0
            if has != node.negated:
                return frame
            return Frame(
                frame.ds.map_batches(lambda t: t.slice(0, 0),
                                     batch_format="pyarrow"),
                frame.columns, frame.aliases)
        # residual conjuncts (non-equi correlation, TPC-H Q21 shape):
        # project the inner columns they touch into the derived distinct
        # table under collision-free names and rewrite the predicate to
        # evaluate on the joined (outer row × inner candidate) pair
        res_cols: list = []          # inner (alias, name) in first-seen order
        res_map: dict = {}           # (alias, name) -> fresh projected name
        for _, irefs in residuals:
            for r in irefs:
                key = ((r.table_alias or "").lower(), r.name.lower())
                if key not in res_map:
                    res_map[key] = f"__er{k}_{len(res_cols)}"
                    res_cols.append((key, r))
        residual_cond = None
        for conj, _ in residuals:
            conj = transform_expr(
                conj,
                lambda n: A.ColumnRef(res_map[((n.table_alias or "").lower(),
                                               n.name.lower())])
                if isinstance(n, A.ColumnRef)
                and ((n.table_alias or "").lower(), n.name.lower()) in res_map
                else n)
            residual_cond = conj if residual_cond is None \
                else A.And(residual_cond, conj)
        dkeys = [f"__ek{k}_{i}" for i in range(len(corr_pairs))]
        rkeys = [res_map[key] for key, _ in res_cols]
        key_exprs = [A.ColumnRef(ic) for ic, _ in corr_pairs] + \
                    [A.ColumnRef(r.name, r.table_alias) for _, r in res_cols]
        derived = A.Select(
            items=tuple(A.SelectItem(e, nm)
                        for e, nm in zip(key_exprs, dkeys + rkeys)),
            source=sub.source, where=local_where,
            group_by=tuple(key_exprs))
        right = self._select_frame(derived).ds.materialize()
        okeys = [_resolve_name(o.name, frame.columns)
                 for _, o in corr_pairs]
        left_ds = frame.ds.map_batches(HarmonizeJoinKeys(okeys),
                                       batch_format="pyarrow") if okeys \
            else frame.ds
        jt = "left anti" if node.negated else "left semi"
        if right.count() <= BROADCAST_ROW_LIMIT:
            tbl = _harmonize_keys(_materialize_small(right), dkeys)
            ref = ray.put(tbl)
            out = left_ds.map_batches(
                BroadcastJoinBatch(ref, okeys, dkeys, jt,
                                   residual_cond, env),
                batch_format="pyarrow")
        elif not residuals:
            num_cpus = int(ray.cluster_resources().get("CPU", 8))
            out = _shuffle_join(
                left_ds,
                right.map_batches(HarmonizeJoinKeys(dkeys),
                                  batch_format="pyarrow").materialize(),
                join_type="left_anti" if node.negated else "left_semi",
                num_partitions=_join_partitions(num_cpus),
                on=tuple(okeys), right_on=tuple(dkeys))
        else:
            if not okeys:
                raise ValueError(
                    "EXISTS with only non-equi correlation needs a "
                    "broadcast-sized subquery (add an equality conjunct)")
            # shuffle fallback: tag stream rows, inner-join candidates on
            # the equality keys, apply the residual, then semi/anti the
            # tagged stream against the surviving row ids
            rid = "__xrid"
            num_cpus = int(ray.cluster_resources().get("CPU", 8))
            tagged = left_ds.map_batches(AddRandomRowId(rid),
                                         batch_format="pyarrow").materialize()
            matched = _shuffle_join(
                tagged,
                right.map_batches(HarmonizeJoinKeys(dkeys),
                                  batch_format="pyarrow").materialize(),
                join_type="inner",
                num_partitions=_join_partitions(num_cpus),
                on=tuple(okeys), right_on=tuple(dkeys))
            matched = matched.map_batches(
                FilterBatch(residual_cond, env), batch_format="pyarrow")
            winners = _distinct(
                matched.select_columns([rid]), [rid]).materialize()
            out = _shuffle_join(
                tagged,
                winners, join_type="left_anti" if node.negated
                else "left_semi",
                num_partitions=_join_partitions(num_cpus),
                on=(rid,), right_on=(rid,))
            out = out.map_batches(DropColumns([rid]),
                                  batch_format="pyarrow")
        return Frame(out, frame.columns, frame.aliases)

    def _apply_correlated_scalar(self, frame: Frame, node, k: int,
                                 env) -> Frame:
        """Decorrelate ``<lhs> CMP (SELECT AGG(…) FROM u WHERE u.c = t.c
        [AND local…])``: the subquery becomes a derived table grouped by its
        correlation columns, joined to the stream on those keys, and the
        comparison applies against the joined aggregate column. ANSI
        no-row ⇒ NULL ⇒ comparison false ≡ inner join + filter. Classic
        decorrelation (TPC-H Q17 shape); the join is the compiler's usual
        broadcast-or-hash equi-join."""
        from .parser import _ScalarSubquery

        lhs, op, subnode = node.left, node.op, node.right
        flip = False
        if isinstance(lhs, _ScalarSubquery):
            lhs, subnode, flip = subnode, lhs, True
        sub = subnode.query
        if sub.joins or sub.group_by or len(sub.items) != 1 or \
                not isinstance(sub.items[0], A.SelectItem):
            raise ValueError(
                "correlated scalar subquery too complex to decorrelate "
                "(single aggregate item, no joins/GROUP BY supported)")
        corr_pairs, local_where, residuals = \
            self._split_correlation(sub, frame)
        if residuals:
            raise ValueError(
                "correlated scalar subquery with non-equality correlation "
                "is not supported (only equality predicates decorrelate "
                "to a grouped join)")
        if not corr_pairs:
            raise UncorrelatedSubqueryError(
                "correlated scalar subquery needs at least one equality "
                "between an inner and an outer column")
        sv = f"__sv{k}"
        derived = A.Select(
            items=tuple(
                [A.SelectItem(A.ColumnRef(ic), f"__ck{k}_{i}")
                 for i, (ic, _) in enumerate(corr_pairs)]
                + [A.SelectItem(sub.items[0].expr, sv)]),
            source=sub.source, where=local_where,
            group_by=tuple(A.ColumnRef(ic) for ic, _ in corr_pairs))
        dframe = self._select_frame(derived)
        right = dframe.ds.materialize()  # grouped aggregate: bounded keys
        # equi-join stream → derived on the correlation keys
        okeys = [_resolve_name(o.name, frame.columns)
                 for _, o in corr_pairs]
        dkeys = [f"__ck{k}_{i}" for i in range(len(corr_pairs))]
        left_ds = frame.ds.map_batches(HarmonizeJoinKeys(okeys),
                                       batch_format="pyarrow")
        if right.count() <= BROADCAST_ROW_LIMIT:
            tbl = _harmonize_keys(_materialize_small(right), dkeys)
            ref = ray.put(tbl)
            joined = left_ds.map_batches(
                BroadcastJoinBatch(ref, okeys, dkeys, "inner", None, env),
                batch_format="pyarrow")
        else:
            num_cpus = int(ray.cluster_resources().get("CPU", 8))
            joined = _shuffle_join(
                left_ds,
                right.map_batches(HarmonizeJoinKeys(dkeys),
                                  batch_format="pyarrow").materialize(),
                join_type="inner", num_partitions=_join_partitions(num_cpus),
                on=tuple(okeys), right_on=tuple(dkeys))
        cmp = A.Comparison(op, A.ColumnRef(sv), lhs) if flip \
            else A.Comparison(op, lhs, A.ColumnRef(sv))
        out = joined.map_batches(FilterBatch(cmp, env),
                                 batch_format="pyarrow")
        out = out.map_batches(DropColumns([sv] + dkeys),
                              batch_format="pyarrow")
        return Frame(out, frame.columns, frame.aliases)

    def _rebind_subquery_outer_refs(self, cond, name_map: dict,
                                    outer_aliases: set | None = None):
        """Inside every [NOT] EXISTS / scalar subquery of a condition
        tree, rewrite outer refs to the aggregated frame's column names.
        Two forms: unqualified refs whose lower-cased name is in
        ``name_map`` and which the subquery's OWN source cannot resolve
        (… = c_nationkey → the output alias); and refs QUALIFIED by the
        outer table's name/alias (… = customer.c_nationkey — ANSI-valid,
        but the aggregated frame has no such alias). Used for deferred
        HAVING."""
        from .parser import _ScalarSubquery

        outer_aliases = outer_aliases or set()

        def repl(node):
            q = node.query if isinstance(node, (A.Exists,)) else (
                node.query if isinstance(node, _ScalarSubquery) else None)
            if not isinstance(q, A.Select) or q.where is None:
                return node
            try:
                inner_frame = self.compile_source(q.source)
                inner_cols = inner_frame.columns
                inner_aliases = {str(a).lower()
                                 for a in inner_frame.aliases}
            except Exception:
                return node

            def fix(r):
                if not isinstance(r, A.ColumnRef):
                    return r
                alias = (r.table_alias or "").lower()
                if alias and alias in outer_aliases \
                        and alias not in inner_aliases:
                    return A.ColumnRef(
                        name_map.get(r.name.lower(), r.name))
                if not alias and r.name.lower() in name_map \
                        and not _try_resolve(r.name, inner_cols):
                    return A.ColumnRef(name_map[r.name.lower()])
                return r

            new_where = transform_expr(q.where, fix)
            if new_where is q.where:
                return node
            q2 = dc_replace(q, where=new_where)
            if isinstance(node, A.Exists):
                return A.Exists(q2, node.negated)
            return _ScalarSubquery(q2)

        return transform_expr(cond, repl)

    def _filter_with_subqueries(self, frame: Frame, cond, env,
                                base_k: int = 1000) -> Frame:
        """Filter a frame by a condition that may contain nested [NOT]
        EXISTS or correlated scalar subqueries (a CASE branch, an OR arm,
        a HAVING clause over the aggregated frame): rewrite EXISTS to
        count scalar-subqueries, decorrelate each into a grouped LEFT
        JOIN against this frame, filter, then drop the helper columns."""
        cond = _rewrite_nested_exists(cond)
        subs = self._collect_scalar_subqueries(cond)
        if not subs:
            return Frame(
                frame.ds.map_batches(FilterBatch(cond, env),
                                     batch_format="pyarrow"),
                frame.columns, frame.aliases)
        orig_cols = list(frame.columns)
        smap: dict = {}
        for k, node in enumerate(subs):
            frame, repl = self._decorrelate_or_fold(
                frame, node, base_k + k, env)
            smap[id(node)] = repl
        cond = transform_expr(cond, lambda n: smap.get(id(n), n))
        helper = [c for c in frame.columns if c not in orig_cols]
        filtered = frame.ds.map_batches(FilterBatch(cond, env),
                                        batch_format="pyarrow")
        if helper:
            filtered = filtered.map_batches(DropColumns(helper),
                                            batch_format="pyarrow")
        return Frame(filtered, orig_cols, frame.aliases)

    def _collect_scalar_subqueries(self, expr, into: list | None = None):
        """All _ScalarSubquery nodes in an expression tree, by identity."""
        from .parser import _ScalarSubquery

        found: list = into if into is not None else []

        def _collect(node):
            if isinstance(node, _ScalarSubquery) and \
                    not any(node is s for s in found):
                found.append(node)
            return node

        transform_expr(expr, _collect)
        return found

    def _decorrelate_or_fold(self, frame: Frame, subnode, k: int, env):
        """Decorrelate a scalar subquery into a grouped join, or — when it
        has NO outer correlation (an uncorrelated EXISTS the nested-exists
        rewrite just minted; the session only pre-folds subqueries it saw
        at parse positions) — evaluate it once and fold to a literal."""
        try:
            return self._decorrelate_select_scalar(frame, subnode, k, env)
        except UncorrelatedSubqueryError:
            sub = self.compile_query(self.session._prepare(subnode.query))
            tbl = _materialize_small(sub.materialize())
            val = tbl.column(0)[0].as_py() if len(tbl) else None
            return frame, A.Literal(val)

    def _decorrelate_select_scalar(self, frame: Frame, subnode, k: int,
                                   env):
        """Decorrelate a SELECT-list ``(SELECT <expr-over-aggs> FROM u
        WHERE u.c = t.c [AND local…])`` into a LEFT JOIN against the
        subquery grouped by its correlation columns. The derived table
        carries ONE column per aggregate call; the item expression is
        rebuilt OUTSIDE the join with each aggregate replaced by its
        joined column — COUNT wrapped in COALESCE(…, 0) — so the ANSI
        empty-group values (COUNT→0, everything else→NULL) fall out of
        the join's null extension. Returns (new frame, replacement expr).
        Reference parity: Executable.scala:27-32 (scalar subquery = first
        column of first row), here per outer row."""
        sub = subnode.query
        item_ok = (len(sub.items) == 1
                   and isinstance(sub.items[0], A.SelectItem))
        aggs = collect_agg_calls(sub.items[0].expr) if item_ok else []
        if sub.joins or sub.group_by or not item_ok or not aggs:
            raise ValueError(
                "correlated scalar subquery in SELECT too complex to "
                "decorrelate (single aggregate item, no joins/GROUP BY)")
        corr_pairs, local_where, residuals = \
            self._split_correlation(sub, frame)
        if residuals:
            raise ValueError(
                "correlated scalar subquery with non-equality correlation "
                "is not supported (only equality predicates decorrelate "
                "to a grouped join)")
        if not corr_pairs:
            raise UncorrelatedSubqueryError(
                "correlated scalar subquery needs at least one equality "
                "between an inner and an outer column")
        uniq_aggs: list[A.FuncCall] = []
        for a in aggs:
            if a not in uniq_aggs:
                uniq_aggs.append(a)
        acols = [f"__sa{k}_{j}" for j in range(len(uniq_aggs))]
        dkeys = [f"__sk{k}_{i}" for i in range(len(corr_pairs))]
        derived = A.Select(
            items=tuple(
                [A.SelectItem(A.ColumnRef(ic), dk)
                 for dk, (ic, _) in zip(dkeys, corr_pairs)]
                + [A.SelectItem(a, ac)
                   for ac, a in zip(acols, uniq_aggs)]),
            source=sub.source, where=local_where,
            group_by=tuple(A.ColumnRef(ic) for ic, _ in corr_pairs))
        right = self._select_frame(derived).ds.materialize()
        okeys = [_resolve_name(o.name, frame.columns)
                 for _, o in corr_pairs]
        left_ds = frame.ds.map_batches(HarmonizeJoinKeys(okeys),
                                       batch_format="pyarrow")
        if right.count() <= BROADCAST_ROW_LIMIT:
            tbl = _harmonize_keys(_materialize_small(right), dkeys)
            ref = ray.put(tbl)
            joined = left_ds.map_batches(
                BroadcastJoinBatch(ref, okeys, dkeys, "left outer",
                                   None, env),
                batch_format="pyarrow")
        else:
            num_cpus = int(ray.cluster_resources().get("CPU", 8))
            joined = _shuffle_join(
                left_ds,
                right.map_batches(HarmonizeJoinKeys(dkeys),
                                  batch_format="pyarrow").materialize(),
                join_type="left outer",
                num_partitions=_join_partitions(num_cpus),
                on=tuple(okeys), right_on=tuple(dkeys))
        joined = joined.map_batches(DropColumns(dkeys),
                                    batch_format="pyarrow")
        amap = {}
        for ac, a in zip(acols, uniq_aggs):
            ref_expr: A.Expr = A.ColumnRef(ac)
            if a.name == "COUNT":
                ref_expr = A.FuncCall(
                    "COALESCE", (ref_expr, A.Literal(0)))
            amap[a] = ref_expr
        repl = substitute_nodes(sub.items[0].expr, amap)
        new_frame = Frame(joined, frame.columns + acols, frame.aliases)
        return new_frame, repl

    def _apply_in_semijoin(self, frame: Frame, node, k: int, env) -> Frame:
        """WHERE <expr> [NOT] IN (SELECT …) with a key set too large to
        broadcast: hash left_semi/left_anti join of the stream against the
        subquery's first column. Null operands never match (engine's
        documented non-null IN semantics — NOT IN also drops them)."""
        key = f"__sj{k}"
        sub = self.compile_query(self.session._prepare(node.query))

        def first_col(t: pa.Table, _key=key) -> pa.Table:
            return t.select([t.column_names[0]]).rename_columns([_key])

        right = sub.map_batches(first_col, batch_format="pyarrow") \
            .map_batches(HarmonizeJoinKeys([key]), batch_format="pyarrow") \
            .materialize()  # known-schema join input (empty-partition safety)
        left = frame.ds.map_batches(AddSortKeys([node.operand], [key], env),
                                    batch_format="pyarrow")
        left = left.map_batches(HarmonizeJoinKeys([key]),
                                batch_format="pyarrow")
        if node.negated:
            left = left.map_batches(
                lambda t, _k=key: t.filter(pc.is_valid(t.column(_k))),
                batch_format="pyarrow")
        num_cpus = int(ray.cluster_resources().get("CPU", 8))
        out = _shuffle_join(left, right,
                        join_type="left_anti" if node.negated else "left_semi",
                        num_partitions=_join_partitions(num_cpus), on=(key,))
        out = out.map_batches(DropColumns([key]), batch_format="pyarrow")
        return Frame(out, frame.columns, frame.aliases)

    def _sub_aliases_in_window_specs(self, sel: A.Select,
                                     frame: "Frame") -> A.Select:
        """Replace select-alias ColumnRefs inside WindowCall args/
        PARTITION BY/ORDER BY with the aliased expressions, for aliases
        that do not name a real frame column (columns shadow aliases)."""
        from .rewrite import substitute_columns, transform_expr

        cols = set()
        for c in frame.columns:
            cols.add(c.lower())
            cols.add(c.split(".")[-1].lower())
        amap = {
            it.alias.lower(): it.expr
            for it in sel.items
            if isinstance(it, A.SelectItem) and it.alias
            and it.alias.lower() not in cols
            and not isinstance(it.expr, A.WindowCall)
        }
        if not amap:
            return sel

        def fix(node):
            if isinstance(node, A.WindowCall):
                return dc_replace(
                    node,
                    func=substitute_columns(node.func, amap),
                    partition_by=tuple(substitute_columns(p, amap)
                                       for p in node.partition_by),
                    order_by=tuple(
                        A.OrderItem(substitute_columns(o.expr, amap),
                                    o.ascending, o.nulls_first)
                        for o in node.order_by))
            return node

        items = tuple(
            it if isinstance(it, A.Star)
            else A.SelectItem(transform_expr(it.expr, fix), it.alias)
            for it in sel.items)
        qualify = transform_expr(sel.qualify, fix) \
            if sel.qualify is not None else None
        order_by = tuple(
            A.OrderItem(transform_expr(o.expr, fix), o.ascending,
                        o.nulls_first) for o in sel.order_by)
        return dc_replace(sel, items=items, qualify=qualify,
                          order_by=order_by)

    def _split_agg_windows(self, sel: A.Select) -> A.Select:
        """Rewrite ``SELECT …, fn() OVER (…), AGG(…) … GROUP BY k`` into
        the ANSI-equivalent two-level form: the inner SELECT performs the
        aggregation (keys + every aggregate call under generated aliases,
        WHERE/HAVING stay inside); the outer SELECT applies window
        functions and scalar expressions over the aggregated rows, with
        each aggregate call replaced by its inner column."""
        # every aggregate call reachable from items / order / qualify
        # (including INSIDE window specs)
        agg_calls: list[A.FuncCall] = []

        def collect(expr):
            if expr is None:
                return
            for c in collect_agg_calls(expr):
                if c not in agg_calls:
                    agg_calls.append(c)
            if isinstance(expr, A.WindowCall):
                for a in expr.func.args:
                    collect(a)
                for p in expr.partition_by:
                    collect(p)
                for o in expr.order_by:
                    collect(o.expr)

        wnodes: list[A.WindowCall] = []
        for it in sel.items:
            if isinstance(it, A.SelectItem):
                collect(it.expr)
                _collect_window_calls(it.expr, wnodes)
        for ob in sel.order_by:
            collect(ob.expr)
            _collect_window_calls(ob.expr, wnodes)
        if sel.qualify is not None:
            collect(sel.qualify)
            _collect_window_calls(sel.qualify, wnodes)
        for w in wnodes:
            for a in w.func.args:
                collect(a)
            for p in w.partition_by:
                collect(p)
            for o in w.order_by:
                collect(o.expr)

        inner_items: list[A.SelectItem] = []
        mapping: dict = {}
        for i, g in enumerate(sel.group_by):
            if isinstance(g, A.ColumnRef):
                # keep the natural name so outer references resolve as-is
                inner_items.append(A.SelectItem(g, g.name))
            else:
                alias = f"__ik{i}"
                inner_items.append(A.SelectItem(g, alias))
                mapping[g] = A.ColumnRef(alias)
        for j, call in enumerate(agg_calls):
            alias = f"__ia{j}"
            inner_items.append(A.SelectItem(call, alias))
            mapping[call] = A.ColumnRef(alias)

        inner = A.Select(items=tuple(inner_items), source=sel.source,
                         joins=sel.joins, where=sel.where,
                         group_by=sel.group_by, having=sel.having,
                         grouping_sets=sel.grouping_sets)

        def sub(expr):
            return substitute_nodes(expr, mapping) \
                if expr is not None else None

        outer_items = tuple(
            it if isinstance(it, A.Star)
            else A.SelectItem(sub(it.expr), it.alias)
            for it in sel.items)
        order_by = tuple(A.OrderItem(sub(o.expr), o.ascending, o.nulls_first)
                         for o in sel.order_by)
        return A.Select(items=outer_items,
                        source=A.SubquerySource(inner, None),
                        where=None, group_by=(), having=None,
                        order_by=order_by, limit=sel.limit,
                        distinct=sel.distinct, qualify=sub(sel.qualify),
                        offset=sel.offset)

    def _resolve_positional_refs(self, sel: A.Select) -> A.Select:
        """GROUP BY 1 / ORDER BY 2 → the corresponding SELECT item."""
        items = [it for it in sel.items]

        def item_expr(pos: int, for_order: bool = False):
            it = items[pos - 1] if 0 < pos <= len(items) else None
            if isinstance(it, A.Star) or it is None:
                if for_order:
                    if any(isinstance(x, A.Star) for x in items):
                        # `SELECT * … ORDER BY k`: leave positional — the
                        # order compiler resolves it against the projected
                        # frame's k-th column
                        return None
                    # explicit item list: out-of-range is an error (ANSI/
                    # DuckDB), never a silent pre-projection column pick
                    raise ValueError(
                        f"ORDER BY position {pos} is out of range")
                if it is None:
                    raise ValueError(
                        f"GROUP BY position {pos} is out of range")
                raise ValueError("positional ref cannot target *")
            return it

        group_by = tuple(
            item_expr(g.value).expr
            if isinstance(g, A.Literal) and isinstance(g.value, int) else g
            for g in sel.group_by)

        def order_item(o):
            if not (isinstance(o.expr, A.Literal)
                    and isinstance(o.expr.value, int)):
                return o
            it = item_expr(o.expr.value, for_order=True)
            if it is None:
                return o  # deferred to _compile_order
            return A.OrderItem(
                A.ColumnRef(self._output_name(it, o.expr.value - 1)),
                o.ascending, o.nulls_first)

        order_by = tuple(order_item(o) for o in sel.order_by)
        if group_by == sel.group_by and order_by == sel.order_by:
            return sel
        return dc_replace(sel, group_by=group_by, order_by=order_by)

    def _output_name(self, item: A.SelectItem, idx: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, A.ColumnRef):
            return item.expr.name
        if isinstance(item.expr, A.FuncCall):
            return item.expr.name.lower()
        return f"expr_{idx}"

    def _output_names(self, items) -> list[str]:
        names, seen = [], set()
        for i, it in enumerate(items):
            if isinstance(it, A.Star):
                names.append(None)
                continue
            n = self._output_name(it, i)
            while n in seen:
                n = n + "_"
            seen.add(n)
            names.append(n)
        return names

    def _expand_names(self, items, names, frame: Frame) -> list[str]:
        out = []
        for it, n in zip(items, names):
            if isinstance(it, A.Star):
                for c in frame.columns:
                    out.append(c.split(".")[-1] if "." in c else c)
            else:
                out.append(n)
        return out

    # --------------------------------------------------------------- source
    def compile_source(self, src: A.Source, *, columns: Optional[set] = None,
                       pushdown=None) -> Frame:
        if isinstance(src, A.ExecutableSource):
            # SHOW/DESCRIBE result as a source (Executable.scala:10-14)
            table = self.session.execute(src.stmt)
            frame = Frame(rd.from_arrow(table), list(table.column_names))
            if src.alias:
                frame.aliases[src.alias.lower()] = True
            return frame
        if isinstance(src, A.SubquerySource):
            if isinstance(src.query, A.Values):
                ds = self.compile_values(src.query, src.query.columns)
                inner = Frame(ds, list(getattr(ds, "_qwery_columns", None)
                                       or ds.schema().names))
                if src.alias:
                    inner.aliases[src.alias.lower()] = True
                return inner
            if isinstance(src.query, (A.Union, A.SetOp, A.WithCtes)):
                ds = self.compile_query(src.query)
                cols = list(getattr(ds, "_qwery_columns", None) or []) \
                    or ds.schema().names
                inner = Frame(ds, cols)
            else:
                inner = self._select_frame(src.query)
            if src.alias:
                inner.aliases[src.alias.lower()] = True
            if columns is not None:
                # prune the subquery's output to the outer query's needs —
                # a `(SELECT * FROM events)` side otherwise carries every
                # column (heavy payload strings) through joins/shuffles
                keep = [c for c in inner.columns
                        if c.lower() in columns
                        or c.split(".")[-1].lower() in columns]
                if keep and len(keep) < len(inner.columns):
                    inner = Frame(inner.ds.select_columns(keep), keep,
                                  inner.aliases, inner.est_rows)
            return inner
        if isinstance(src, A.Select):
            return self._select_frame(src)
        if isinstance(src, (A.Union, A.SetOp)):
            # set-operation result as a FROM source
            ds = self.compile_query(src)
            return Frame(ds, ds.schema().names)
        if isinstance(src, A.TableRef):
            return self._table_frame(src, columns=columns, pushdown=pushdown)
        if isinstance(src, A.TableFunc):
            return self._table_func_frame(src)
        if isinstance(src, A.SampledSource):
            return self._sampled_frame(src)
        raise ValueError(f"unsupported source {type(src).__name__}")

    def _sampled_frame(self, src: A.SampledSource) -> Frame:
        """USING SAMPLE / TABLESAMPLE — deterministic content-hash sampling
        (documented divergence from DuckDB's RNG: reruns/retries/layout
        changes reproduce the IDENTICAL sample, which is what a resumable
        100 TB pipeline needs).

        percent: streaming filter, zero shuffle — keep iff seeded xxhash of
        the full row mod 1e6 < rate·1e4. ROWS n: the n smallest row hashes
        via per-batch top-k then one bounded merge task (n must be
        driver-reasonable, as with any exact-N sample). The inner source is
        compiled WITHOUT column pruning: the row hash must cover the
        source's full schema to be projection-independent."""
        inner = self.compile_source(src.inner)
        if src.is_percent:
            ds = inner.ds.map_batches(
                _SamplePercent(src.value, src.seed), batch_format="pyarrow")
            return Frame(ds, inner.columns, inner.aliases)
        n = max(0, int(src.value))
        ds = inner.ds.map_batches(_RowHashCol(src.seed, "__srh"),
                                  batch_format="pyarrow")
        ds = ds.map_batches(LocalTopK(["__srh"], [False], n),
                            batch_format="pyarrow")
        ds = ds.repartition(1).map_batches(
            LocalTopK(["__srh"], [False], n),
            batch_format="pyarrow", batch_size=None)
        ds = ds.map_batches(DropColumns(["__srh"]), batch_format="pyarrow")
        return Frame(ds, inner.columns, inner.aliases)

    def _table_func_frame(self, src: A.TableFunc) -> Frame:
        """GENERATE_SERIES / RANGE as a lazy distributed ray.data.range —
        a 10^9-row series is blocks of a counter, never a driver list.
        DuckDB semantics: GENERATE_SERIES stop-inclusive, RANGE exclusive;
        1 arg = stop (start 0, step 1), 2 = start/stop, 3 = +step."""
        ev = make_evaluator(_env(self.session))
        dummy = pa.table({"__d": pa.array([0])})
        if src.name == "UNNEST":
            # base-source form: FROM UNNEST([1,2,3]) AS q(x) — a constant
            # literal list (correlated UNNEST routes through compile_join)
            v = ev.eval(src.args[0], dummy)
            if isinstance(v, (pa.Array, pa.ChunkedArray)):
                v = v[0]
            if isinstance(v, pa.Scalar):
                v = v.as_py()
            if not isinstance(v, (list, tuple)):
                raise ValueError("FROM UNNEST(…) needs a constant list")
            colname = src.col_alias or "unnest"
            frame = Frame(rd.from_arrow(pa.table({colname: pa.array(v)})),
                          [colname])
            if src.alias:
                frame.aliases[src.alias.lower()] = True
            return frame
        vals = []
        for a in src.args:
            v = ev.eval(a, dummy)
            if isinstance(v, (pa.Array, pa.ChunkedArray)):
                v = v[0]
            if isinstance(v, pa.Scalar):
                v = v.as_py()
            vals.append(int(v))
        if len(vals) == 1:
            start, stop, step = 0, vals[0], 1
        elif len(vals) == 2:
            start, stop, step = vals[0], vals[1], 1
        elif len(vals) == 3:
            start, stop, step = vals
        else:
            raise ValueError(f"{src.name} takes 1-3 arguments")
        if step == 0:
            raise ValueError(f"{src.name} step must be non-zero")
        diff = stop - start
        if diff != 0 and (diff > 0) != (step > 0):
            raise ValueError(
                f"{src.name}: start/stop direction contradicts the step "
                "(DuckDB binder semantics)")
        if src.name == "GENERATE_SERIES":
            n = max(0, diff // step + 1)
        else:
            n = max(0, -(-diff // step))
        colname = src.col_alias or src.name.lower()
        if n == 0:
            ds = rd.from_arrow(pa.table({colname: pa.array([], pa.int64())}))
        else:
            ds = rd.range(n).map_batches(
                _SeriesBatch(start, step, colname), batch_format="pyarrow")
        frame = Frame(ds, [colname])
        if src.alias:
            frame.aliases[src.alias.lower()] = True
        return frame

    def _parquet_schema_of(self, ref: A.TableRef) -> Optional[dict]:
        """lower-cased column name → arrow type, from parquet footers only."""
        from ..sources.readers import detect_format

        name = self.session.expand_vars(ref.name)
        if name.lower() in self.session.views:
            return None
        path = self.session.resolve_table_path(name)
        if "://" in path or not os.path.exists(path) or \
                detect_format(path, ref.hints) != "parquet":
            return None  # URL paths: skip footer peeks, let the reader read
        import pyarrow.parquet as pq

        frag = path
        if os.path.isdir(path):
            frag = next((os.path.join(path, f) for f in sorted(os.listdir(path))
                         if f.endswith(".parquet")), None)
            if frag is None:
                return None
        s = pq.read_schema(frag)
        return {n.lower(): t for n, t in zip(s.names, s.types)}

    def _table_frame(self, ref: A.TableRef, columns: Optional[set] = None,
                     pushdown=None) -> Frame:
        sess = self.session
        name = sess.expand_vars(ref.name)
        view = sess.views.get(name.lower())
        if view is not None:
            frame = self._select_frame(view) if isinstance(view, A.Select) else \
                Frame(self.compile_query(view), [])
            if not frame.columns:
                frame.columns = frame.ds.schema().names
            if ref.alias:
                frame.aliases[ref.alias.lower()] = True
            return frame
        path = sess.resolve_table_path(name)
        from ..sources.readers import (_SOURCE_REGISTRY, _url_scheme,
                                       detect_format, read_source,
                                       source_exists)

        scheme = _url_scheme(path)
        if not (scheme and scheme in _SOURCE_REGISTRY) and \
                not source_exists(path):
            known = ", ".join(sorted(sess.tables)) or "(none)"
            raise ValueError(
                f"unknown table or path {name!r}; registered tables: {known}")

        est_rows = None
        est_bytes = None
        cols = None
        meta = None
        if "://" not in path and detect_format(path, ref.hints) == "parquet":
            import pyarrow.parquet as pq

            if os.path.isdir(path):
                frag = next((os.path.join(path, f) for f in sorted(os.listdir(path))
                             if f.endswith(".parquet")), None)
            else:
                frag = path
            if frag:
                meta_schema = pq.read_schema(frag)
                cols = list(meta_schema.names)
                try:
                    meta = pq.read_metadata(path) if os.path.isfile(path) else None
                    est_rows = meta.num_rows if meta else None
                except Exception:
                    meta = est_rows = None
        prune = None
        if columns is not None and cols is not None:
            prune = [c for c in cols if c.lower() in columns]
            if not prune:
                prune = None
        if meta is not None:
            # uncompressed footprint of only the columns we will read —
            # the honest broadcast-size signal (row counts alone mis-gate:
            # many narrow rows broadcast fine, few wide rows do not)
            try:
                keep = {c.lower() for c in (prune or cols)}
                est_bytes = sum(
                    meta.row_group(g).column(i).total_uncompressed_size
                    for g in range(meta.num_row_groups)
                    for i in range(meta.num_columns)
                    if meta.row_group(g).column(i).path_in_schema
                    .split(".")[0].lower() in keep)
            except Exception:
                est_bytes = None
        extra = {}
        if pushdown is not None and cols is not None:
            extra["filter"] = pushdown
        ds = read_source(path, ref.hints, columns=prune, **extra)
        names = prune or cols
        if names is None:
            sch = ds.schema()
            if sch is not None and sch.names:
                names = sch.names
            else:
                # header-only file: Ray reports no schema on all-empty
                # datasets — recover the column names from the header
                from ..sources.readers import sniff_column_names

                names = sniff_column_names(path, ref.hints)
        frame = Frame(ds, names,
                      est_rows=est_rows, est_bytes=est_bytes)
        alias = (ref.alias or name).lower()
        frame.aliases[alias] = True
        return frame

    # -------------------------------------------------------------- unpivot
    def compile_unpivot(self, stmt: A.Unpivot) -> rd.Dataset:
        """UNPIVOT tbl ON … INTO NAME … VALUE … — kept columns are every
        column not melted; streams batch-by-batch (no shuffle at all)."""
        frame = self.compile_source(stmt.table)
        on = [_resolve_name(c, frame.columns) for c in stmt.on]
        keep = [c for c in frame.columns if c not in on]
        ds = frame.ds.map_batches(
            UnpivotBatch(on, keep, stmt.name_col, stmt.value_col),
            batch_format="pyarrow")
        try:
            ds._qwery_columns = keep + [stmt.name_col, stmt.value_col]
        except Exception:
            pass
        return ds

    # ---------------------------------------------------------------- joins
    def _lateral_unnest(self, left: Frame, src: A.TableFunc, env) -> Frame:
        """FROM … , UNNEST(expr) [AS u(col)] — explode the evaluated list
        column against the current frame (ray.data-streaming, zero shuffle)."""
        if len(src.args) != 1:
            raise ValueError("UNNEST(list-expr) takes exactly one argument")
        expr = src.args[0]
        colname = src.col_alias
        if colname is None:
            base = expr.name.split(".")[-1] \
                if isinstance(expr, A.ColumnRef) else "unnest"
            colname = base
            k = 1
            while colname in left.columns:  # DuckDB-style _N dedup
                colname = f"{base}_{k}"
                k += 1
        frame_cols = left.columns + [colname]
        ds = left.ds.map_batches(_LateralUnnest(expr, colname, env),
                                 batch_format="pyarrow")
        return Frame(ds, frame_cols, left.aliases)

    def _promote_cross_equi(self, sel: A.Select) -> A.Select:
        """SQL-92 implicit joins: move WHERE equality conjuncts that link a
        CROSS join's right side to earlier tables into that join's ON,
        turning `FROM a, b WHERE a.k = b.k` into a real hash/broadcast
        equi-join instead of a filtered cartesian product — the difference
        between O(|a|+|b|) shuffle and O(|a|·|b|) pairs at scale.
        Conservative: a conjunct moves only when every column reference
        resolves unambiguously (alias-qualified, or unqualified + found in
        exactly one parquet footer schema) and it spans ≥2 tables."""
        if not sel.joins or sel.where is None:
            return sel

        def names_of(src):
            alias, cols = None, None
            if isinstance(src, A.TableRef):
                alias = (src.alias or src.name).lower()
                sch = self._parquet_schema_of(src)
                cols = set(sch) if sch else None
            elif isinstance(src, A.TableFunc):
                alias = (src.alias or "").lower() or None
                cols = {(src.col_alias or src.name).lower()}
            elif isinstance(src, A.SubquerySource) and src.alias:
                alias = src.alias.lower()
            return alias, cols

        base_alias, base_cols = names_of(sel.source)
        jinfo = [names_of(j.right) for j in sel.joins]
        promote: dict[int, list] = {}
        keep = []
        for c in _flatten_and(sel.where):
            if not (isinstance(c, A.Comparison) and c.op == "="):
                keep.append(c)
                continue
            idxs: set[int] = set()
            ok = True
            for r in collect_column_refs(c):
                if "." in r:
                    pre = r.split(".", 1)[0]
                    if pre == base_alias:
                        idxs.add(-1)
                        continue
                    hit = [i for i, (a, _) in enumerate(jinfo) if a == pre]
                    if not hit:
                        ok = False
                        break
                    idxs.add(hit[0])
                else:
                    owners = [-1] if (base_cols and r in base_cols) else []
                    owners += [i for i, (_, cs) in enumerate(jinfo)
                               if cs and r in cs]
                    if len(owners) != 1:
                        ok = False
                        break
                    idxs.add(owners[0])
            if not ok or len(idxs) < 2:
                keep.append(c)
                continue
            tgt = max(idxs)
            if sel.joins[tgt].join_type != "CROSS":
                keep.append(c)
                continue
            promote.setdefault(tgt, []).append(c)
        if not promote:
            return sel
        joins = list(sel.joins)
        for idx, conds in promote.items():
            on = joins[idx].on
            for c in conds:
                on = c if (isinstance(on, A.Literal) and on.value is True) \
                    else A.And(on, c)
            joins[idx] = A.JoinClause("INNER", joins[idx].right, on)
        where = None
        for c in keep:
            where = c if where is None else A.And(where, c)
        import dataclasses

        return dataclasses.replace(sel, joins=type(sel.joins)(joins),
                                    where=where)

    def compile_join(self, left: Frame, j: A.JoinClause, sel: A.Select,
                     needed: Optional[set] = None, pushdown=None) -> Frame:
        if j.join_type in ("ASOF", "ASOF_LEFT"):
            from .asof import compile_asof_join

            return compile_asof_join(self, left, j, sel, needed)

        env = _env(self.session)
        if isinstance(j.right, A.TableFunc) and j.right.name == "UNNEST":
            # lateral UNNEST: FROM t, UNNEST(t.tags) AS u(tag) — a pure
            # per-batch explode (list_parent_indices + take), no shuffle;
            # NULL/empty lists drop rows (DuckDB inner semantics)
            return self._lateral_unnest(left, j.right, env)
        right = self.compile_source(j.right, columns=needed,
                                    pushdown=pushdown)
        ralias = None
        if isinstance(j.right, A.TableRef):
            ralias = (j.right.alias or j.right.name).lower()
        elif isinstance(j.right, A.SubquerySource) and j.right.alias:
            ralias = j.right.alias.lower()

        if j.join_type == "CROSS":
            right_ref = ray.put(_materialize_small(right.ds))
            ds = left.ds.map_batches(
                CrossJoinBatch(right_ref, None, env), batch_format="pyarrow")
            return Frame(ds, left.columns + right.columns, left.aliases)

        using = tuple(getattr(j, "using", ()) or ())
        if getattr(j, "natural", False):
            # NATURAL JOIN: keys = every shared bare column name
            rbare = {c.split(".")[-1].lower() for c in right.columns}
            using = tuple(c for c in left.columns
                          if c.split(".")[-1].lower() in rbare)
            if not using:
                raise ValueError("NATURAL JOIN: no shared column names")
        if using:
            def find(cols, name):
                for c in cols:
                    if c.lower() == name.lower() or \
                            c.split(".")[-1].lower() == name.lower():
                        return c
                raise ValueError(f"USING column {name!r} not found")
            left_keys = [find(left.columns, u) for u in using]
            right_keys = [find(right.columns, u) for u in using]
            residual = None
        else:
            try:
                left_keys, right_keys, residual = self._split_on(
                    j.on, left, right, ralias)
            except ValueError as exc:
                if "equi-key" not in str(exc):
                    raise
                return self._compile_theta_join(left, right, j, ralias, env)

        if j.join_type in ("SEMI", "ANTI"):
            return self._compile_semi_anti(left, right, j, ralias,
                                           left_keys, right_keys,
                                           residual, env)

        # collision renames on the right: physical name becomes "alias.col"
        collide = {c for c in right.columns
                   if c in left.columns and c not in right_keys}
        if collide and ralias:
            mapping = {c: f"{ralias}.{c}" for c in collide}
            right = Frame(
                right.ds.map_batches(RenameBatch(mapping), batch_format="pyarrow"),
                [mapping.get(c, c) for c in right.columns],
                right.aliases, right.est_rows, right.est_bytes)
        elif collide:
            mapping = {c: f"r.{c}" for c in collide}
            right = Frame(
                right.ds.map_batches(RenameBatch(mapping), batch_format="pyarrow"),
                [mapping.get(c, c) for c in right.columns],
                right.aliases, right.est_rows, right.est_bytes)

        if j.join_type == "RIGHT":
            # Ray's right_outer emits the RIGHT key columns and drops the
            # left keys (the preserved side's names survive, mirroring the
            # left-key convention of every other join type)
            out_cols = [c for c in left.columns if c not in left_keys] \
                + right.columns
        else:
            out_cols = left.columns + [c for c in right.columns
                                       if c not in right_keys]
        aliases = dict(left.aliases)
        if ralias:
            aliases[ralias] = True

        # inner joins coalesce keys under the left name; keep the right
        # key name addressable (zero-copy) for later predicates/subqueries
        restore = [(lk, rk) for lk, rk in zip(left_keys, right_keys)
                   if lk != rk and rk not in out_cols] \
            if j.join_type == "INNER" else []
        if restore:
            out_cols = out_cols + [rk for _, rk in restore]

        # broadcast gate: small row count, or small BYTE footprint of the
        # pruned columns (parquet footer) under a hard row cap — a narrow
        # 1.5M-row dim table is a ~25 MB ray.put, far cheaper than hash-
        # shuffling the fact side; a wide 400k-row table is not
        small = (right.est_rows is not None
                 and right.est_rows <= BROADCAST_ROW_LIMIT) or \
                (right.est_bytes is not None
                 and right.est_rows is not None
                 and right.est_bytes <= BROADCAST_BYTE_LIMIT
                 and right.est_rows <= BROADCAST_ROW_HARD_CAP)
        if small and j.join_type in ("INNER", "LEFT"):
            pa_type = {"INNER": "inner", "LEFT": "left outer"}[j.join_type]
            right_tbl = _harmonize_keys(_materialize_small(right.ds), right_keys)
            right_ref = ray.put(right_tbl)
            ds = left.ds.map_batches(
                HarmonizeJoinKeys(left_keys), batch_format="pyarrow")
            ds = ds.map_batches(
                BroadcastJoinBatch(right_ref, left_keys, right_keys,
                                   pa_type, residual, env),
                batch_format="pyarrow")
            if restore:
                ds = ds.map_batches(RestoreKeyNames(restore),
                                    batch_format="pyarrow")
            return Frame(ds, out_cols, aliases)

        ray_type = {"INNER": "inner", "LEFT": "left_outer",
                    "RIGHT": "right_outer", "FULL": "full_outer"}[j.join_type]
        num_cpus = int(ray.cluster_resources().get("CPU", 8))
        left_ds = left.ds.map_batches(HarmonizeJoinKeys(left_keys),
                                      batch_format="pyarrow")
        right_ds = right.ds.map_batches(HarmonizeJoinKeys(right_keys),
                                        batch_format="pyarrow")
        if residual is not None and j.join_type in ("LEFT", "RIGHT", "FULL"):
            ds = self._outer_residual_join(
                left_ds, right_ds, left, right, left_keys, right_keys,
                ray_type, residual, env, num_cpus)
            return Frame(ds, out_cols, aliases)
        ds = _shuffle_join(
            left_ds, right_ds, join_type=ray_type,
            num_partitions=_join_partitions(num_cpus),
            on=tuple(left_keys), right_on=tuple(right_keys))
        if restore:
            ds = ds.map_batches(RestoreKeyNames(restore),
                                batch_format="pyarrow")
        if residual is not None:
            ds = ds.map_batches(FilterBatch(residual, env), batch_format="pyarrow")
        return Frame(ds, out_cols, aliases)

    def _compile_semi_anti(self, left, right, j, ralias, left_keys,
                           right_keys, residual, env) -> Frame:
        """SEMI / ANTI JOIN (DuckDB + Spark LEFT SEMI/ANTI syntax): keep /
        drop left rows with ≥1 right match; right columns never surface.
        Key-only ON: the probe side reduces to its KEY COLUMNS before it
        ships (broadcast) or shuffles. Residual ON conditions: tag left
        rows with ids, inner-join + filter to find winner ids, then
        semi/anti the stream against the (distinct) id set."""
        pa_type = "left semi" if j.join_type == "SEMI" else "left anti"
        ray_type = "left_semi" if j.join_type == "SEMI" else "left_anti"
        num_cpus = int(ray.cluster_resources().get("CPU", 8))
        small = (right.est_rows is not None
                 and right.est_rows <= BROADCAST_ROW_LIMIT) or \
                (right.est_bytes is not None
                 and right.est_rows is not None
                 and right.est_bytes <= BROADCAST_BYTE_LIMIT
                 and right.est_rows <= BROADCAST_ROW_HARD_CAP)
        left_ds = left.ds.map_batches(HarmonizeJoinKeys(left_keys),
                                      batch_format="pyarrow")

        if residual is None:
            rkeys = right.ds.select_columns(right_keys).map_batches(
                HarmonizeJoinKeys(right_keys), batch_format="pyarrow")
            if small:
                right_ref = ray.put(
                    _harmonize_keys(_materialize_small(rkeys), right_keys))
                ds = left_ds.map_batches(
                    BroadcastJoinBatch(right_ref, left_keys, right_keys,
                                       pa_type, None, env),
                    batch_format="pyarrow")
            else:
                ds = _shuffle_join(left_ds, rkeys, join_type=ray_type,
                                  num_partitions=_join_partitions(num_cpus),
                                  on=tuple(left_keys),
                                  right_on=tuple(right_keys))
            return Frame(ds, left.columns, left.aliases)

        # residual ON: keep/drop left rows by whether ANY key-matching
        # right row passes the full condition
        collide = {c for c in right.columns
                   if c in left.columns and c not in right_keys}
        if collide:
            prefix = ralias or "r"
            mapping = {c: f"{prefix}.{c}" for c in collide}
            right = Frame(
                right.ds.map_batches(RenameBatch(mapping),
                                     batch_format="pyarrow"),
                [mapping.get(c, c) for c in right.columns],
                right.aliases, right.est_rows, right.est_bytes)
        right_ds = right.ds.map_batches(HarmonizeJoinKeys(right_keys),
                                        batch_format="pyarrow")
        if small:
            # BroadcastJoinBatch's semi/anti-with-residual (EXISTS) path
            right_ref = ray.put(
                _harmonize_keys(_materialize_small(right_ds), right_keys))
            ds = left_ds.map_batches(
                BroadcastJoinBatch(right_ref, left_keys, right_keys,
                                   pa_type, residual, env),
                batch_format="pyarrow")
            return Frame(ds, left.columns, left.aliases)
        # large right: tag left rows, find winner ids via the shuffled
        # inner join + residual filter, then semi/anti the stream by id
        lid = "__said"
        # materialize: `tagged` feeds two executions (winner probe + final
        # semi/anti) — random ids must not regenerate between them
        tagged = left_ds.map_batches(AddRandomRowId(lid),
                                     batch_format="pyarrow").materialize()
        pairs = _shuffle_join(tagged, right_ds, join_type="inner",
                            num_partitions=_join_partitions(num_cpus),
                            on=tuple(left_keys),
                            right_on=tuple(right_keys))
        pairs = pairs.map_batches(FilterBatch(residual, env),
                                  batch_format="pyarrow")
        winners = _distinct(pairs.select_columns([lid]), names=[lid])
        ds = _shuffle_join(tagged, winners.materialize(),
                           join_type=ray_type,
                         num_partitions=_join_partitions(num_cpus), on=(lid,))
        ds = ds.map_batches(DropColumns([lid]), batch_format="pyarrow")
        return Frame(ds, left.columns, left.aliases)

    def _compile_theta_join(self, left, right, j, ralias, env) -> Frame:
        """Keyless non-equi (theta) join: ``ON a.x < b.y``, ``ON a.v BETWEEN
        b.lo AND b.hi``. The right side must be broadcastable (same gate as
        broadcast equi joins) — a keyless theta join over two UNBOUNDED
        sides is inherently an all-pairs computation; at cluster scale the
        small side rides the object store once and the big side streams."""
        if j.join_type not in ("INNER", "LEFT"):
            raise ValueError(
                f"{j.join_type} JOIN requires at least one equi-key in ON "
                "(keyless theta joins support INNER and LEFT only)")
        small = (right.est_rows is not None
                 and right.est_rows <= BROADCAST_ROW_LIMIT) or \
                (right.est_bytes is not None
                 and right.est_rows is not None
                 and right.est_bytes <= BROADCAST_BYTE_LIMIT
                 and right.est_rows <= BROADCAST_ROW_HARD_CAP)
        if not small:
            raise ValueError(
                "non-equi join without equi keys needs a right side with a "
                "known-small footprint (broadcast); add an equi-key to ON "
                "or reduce the right side")
        collide = {c for c in right.columns if c in left.columns}
        if collide:
            prefix = ralias or "r"
            mapping = {c: f"{prefix}.{c}" for c in collide}
            right = Frame(
                right.ds.map_batches(RenameBatch(mapping),
                                     batch_format="pyarrow"),
                [mapping.get(c, c) for c in right.columns],
                right.aliases, right.est_rows, right.est_bytes)
        right_ref = ray.put(_materialize_small(right.ds))
        ds = left.ds.map_batches(
            ThetaJoinBatch(right_ref, j.on, env, j.join_type == "LEFT"),
            batch_format="pyarrow")
        aliases = dict(left.aliases)
        if ralias:
            aliases[ralias] = True
        return Frame(ds, left.columns + right.columns, aliases)

    def _outer_residual_join(self, left_ds, right_ds, left, right,
                             left_keys, right_keys, ray_type, residual, env,
                             num_cpus):
        """Outer join with a non-equi ON residual: the residual decides which
        PAIRS match, null-extension happens only for preserved-side rows with
        NO passing pair. Filtering the outer-join output directly would drop
        unmatched rows (the residual evaluates NULL on null-extended rows).

        Plan: tag preserved side(s) with random row ids → outer join without
        the residual → ``ok`` = pairs passing the residual → preserved rows
        whose id is absent from ``ok`` re-enter once, null-extended (anti-join
        on the id, null the other side's columns, distinct on the id)."""
        nparts = _join_partitions(num_cpus)
        lid, rid = "__lrid", "__rrid"
        keep_left = ray_type in ("left_outer", "full_outer")
        keep_right = ray_type in ("right_outer", "full_outer")
        if keep_left:
            left_ds = left_ds.map_batches(AddRandomRowId(lid),
                                          batch_format="pyarrow")
        if keep_right:
            right_ds = right_ds.map_batches(AddRandomRowId(rid),
                                            batch_format="pyarrow")
        lo = _shuffle_join(left_ds, right_ds, join_type=ray_type,
                          num_partitions=nparts,
                          on=tuple(left_keys), right_on=tuple(right_keys))
        # lo feeds two branches (ok + anti-join candidates); materialize so
        # the random ids are computed exactly once — re-execution would
        # re-draw them and break the anti-join. Corner-case cost: this holds
        # the joined output in the object store (spillable).
        lo = lo.materialize()
        lo_schema = lo.schema().base_schema
        # hash-shuffle joins emit zero-column blocks for empty partitions —
        # normalize before reusing lo in further joins/unions
        lo = lo.map_batches(EnforceSchema(lo_schema), batch_format="pyarrow")
        # each branch is materialized so the anti-join pools run one at a
        # time (two concurrent Dataset.join operator pools can starve a
        # small cluster) and `ok` is computed once for its three consumers
        ok = lo.map_batches(FilterBatch(residual, env),
                            batch_format="pyarrow").materialize()
        parts = [ok]
        # null-extension clears the other side's value columns AND its row
        # id: a preserved row joined to several failing partners otherwise
        # yields rows distinct only by the partner's id, defeating the
        # per-preserved-row dedup
        right_val_cols = [c for c in right.columns if c not in right_keys] \
            + ([rid] if keep_right else [])
        left_val_cols = [c for c in left.columns if c not in left_keys] \
            + ([lid] if keep_left else [])
        for keep, idc, null_cols in (
                (keep_left, lid, right_val_cols),
                (keep_right, rid, left_val_cols)):
            if not keep:
                continue
            cand = lo.map_batches(
                lambda t, _c=idc: t.filter(pc.is_valid(t.column(_c))),
                batch_format="pyarrow")
            ok_ids = ok.select_columns([idc]).materialize()
            n_ok = ok_ids.count()
            if n_ok <= 5_000_000:
                # broadcast anti-filter: the passing-id set is small —
                # avoids a second hash join (whose empty partitions build
                # zero-column tables and intermittently crash pa.join)
                arrs = [b.column(idc).to_numpy(zero_copy_only=False)
                        for b in ok_ids.iter_batches(batch_size=None,
                                                     batch_format="pyarrow")]
                ids = np.unique(np.concatenate(arrs)) if arrs \
                    else np.array([], dtype=np.int64)
                ref = ray.put(ids)

                def drop_ok(t: pa.Table, _c=idc, _r=ref) -> pa.Table:
                    okset = ray.get(_r)
                    if len(t) == 0 or len(okset) == 0:
                        return t
                    v = t.column(_c).to_numpy(zero_copy_only=False)
                    pos = np.clip(np.searchsorted(okset, v),
                                  0, len(okset) - 1)
                    return t.filter(pa.array(okset[pos] != v))

                bad = cand.map_batches(drop_ok, batch_format="pyarrow")
            else:
                # scale fallback: hash anti-join (materialized inputs keep
                # partition schemas intact)
                bad = _shuffle_join(
                    cand.materialize(),
                    ok_ids, join_type="left_anti",
                    num_partitions=nparts, on=(idc,))
                bad = bad.map_batches(EnforceSchema(lo_schema),
                                      batch_format="pyarrow")
            bad = bad.map_batches(NullColumns(null_cols),
                                  batch_format="pyarrow")
            parts.append(_distinct(bad, names=lo.schema().names)
                         .materialize())
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        drops = [c for c, k in ((lid, keep_left), (rid, keep_right)) if k]
        return out.map_batches(DropColumns(drops), batch_format="pyarrow")

    def _split_on(self, on: A.Cond, left: Frame, right: Frame, ralias):
        """Extract equi-join key pairs from the ON conjunction; the rest is a
        residual filter applied post-join."""
        conjuncts = _flatten_and(on)
        left_keys, right_keys, residual = [], [], []
        left_cols = {c.lower() for c in left.columns}
        right_cols = {c.lower() for c in right.columns}
        for c in conjuncts:
            pair = None
            if isinstance(c, A.Comparison) and c.op == "=" and \
                    isinstance(c.left, A.ColumnRef) and isinstance(c.right, A.ColumnRef):
                a, b = c.left, c.right
                sa, sb = self._side_of(a, left_cols, right_cols, left.aliases, ralias), \
                    self._side_of(b, left_cols, right_cols, left.aliases, ralias)
                if sa == "L" and sb == "R":
                    pair = (a.name, b.name)
                elif sa == "R" and sb == "L":
                    pair = (b.name, a.name)
            if pair:
                lk = _resolve_name(pair[0], left.columns)
                rk = _resolve_name(pair[1], right.columns)
                left_keys.append(lk)
                right_keys.append(rk)
            else:
                residual.append(c)
        if not left_keys:
            raise ValueError("join requires at least one equi-key in ON")
        res = None
        for c in residual:
            res = c if res is None else A.And(res, c)
        return left_keys, right_keys, res

    @staticmethod
    def _side_of(ref: A.ColumnRef, left_cols, right_cols, left_aliases, ralias):
        if ref.table_alias:
            if ralias and ref.table_alias.lower() == ralias:
                return "R"
            if ref.table_alias.lower() in left_aliases:
                return "L"
        nl = ref.name.lower()
        if nl in left_cols and nl not in right_cols:
            return "L"
        if nl in right_cols and nl not in left_cols:
            return "R"
        return "?"

    # ------------------------------------------------------------ aggregate
    def _compile_aggregate(self, frame: Frame, sel: A.Select, env) -> Frame:
        items = [it for it in sel.items if isinstance(it, A.SelectItem)]
        if any(isinstance(it, A.Star) for it in sel.items):
            raise ValueError("SELECT * cannot be combined with GROUP BY")
        out_names = [self._output_name(it, i) for i, it in enumerate(items)]

        # group keys: name each key column; plain ColumnRefs keep their name.
        # A key naming a SELECT alias resolves to that item's expression
        # (GROUP BY alias, standard-SQL convenience).
        alias_exprs = {}
        for it in items:
            if it.alias:
                alias_exprs[it.alias.lower()] = it.expr
        key_exprs = []
        for g in sel.group_by:
            if isinstance(g, A.ColumnRef) and g.table_alias is None and \
                    not _try_resolve(g.name, frame.columns) and \
                    g.name.lower() in alias_exprs:
                key_exprs.append(alias_exprs[g.name.lower()])
            else:
                key_exprs.append(g)
        key_names = []
        for i, g in enumerate(key_exprs):
            if isinstance(g, A.ColumnRef):
                key_names.append(_resolve_name(g.name, frame.columns))
            else:
                # a computed key that also appears verbatim in the select list
                # takes that item's output name
                name = f"__g{i}"
                for it, on in zip(items, out_names):
                    if it.expr == g:
                        name = on
                        break
                key_names.append(name)
        if sel.grouping_sets is None and len(set(key_names)) < len(key_names):
            # GROUP BY the same expression more than once (e.g. GROUP BY 1, 2
            # where both positions alias one column) is the same grouping —
            # keep the first occurrence so downstream key columns stay unique;
            # the projection re-emits the single key under every alias.
            # (skipped under ROLLUP/CUBE/GROUPING SETS, whose set masks are
            # positional over the full key list)
            uniq_e, uniq_n = [], []
            for g, nm in zip(key_exprs, key_names):
                if any(nm == n2 and g == g2
                       for g2, n2 in zip(uniq_e, uniq_n)):
                    continue
                uniq_e.append(g)
                uniq_n.append(nm)
            key_exprs, key_names = uniq_e, uniq_n

        # HAVING may reference select aliases (HAVING n > 5) — resolve them
        # to their expressions before aggregate collection
        if sel.having is not None and alias_exprs:
            from .rewrite import substitute_columns

            sel = dc_replace(
                sel, having=substitute_columns(sel.having, alias_exprs))

        agg_calls: list[A.FuncCall] = []
        for it in items:
            for call in collect_agg_calls(it.expr):
                if call not in agg_calls:
                    agg_calls.append(call)
        if sel.having is not None:
            for call in collect_agg_calls(sel.having):
                if call not in agg_calls:
                    agg_calls.append(call)
        for ob in sel.order_by:
            for call in collect_agg_calls(ob.expr):
                if call not in agg_calls:
                    agg_calls.append(call)
        aggs = [(c, i) for i, c in enumerate(agg_calls)]
        any_distinct = any(c.distinct for c in agg_calls)
        any_holistic = any(c.name in HOLISTIC_AGG_NAMES for c in agg_calls)
        for c in agg_calls:
            if c.order_by and c.name not in HOLISTIC_AGG_NAMES:
                raise ValueError(
                    f"{c.name} does not take an internal ORDER BY "
                    "(order-sensitive aggregates: STRING_AGG / ARRAY_AGG)")
        if sel.grouping_sets is not None and (
                any_distinct or any_holistic or
                any(c.name == "APPROX_COUNT_DISTINCT" for c in agg_calls)):
            raise ValueError(
                "DISTINCT / holistic / approximate aggregates are not "
                "supported with ROLLUP / CUBE / GROUPING SETS (wrap in a "
                "subquery)")

        # rewrite items/having with agg calls → result column refs
        mapping = {c: A.ColumnRef(f"__r{i}") for c, i in aggs}
        # GROUPING(key) → the per-set constant mask column __gm{j}
        # (plain GROUP BY: always 0)
        for src in ([it.expr for it in items]
                    + ([sel.having] if sel.having is not None else [])
                    + [ob.expr for ob in sel.order_by]):
            for call in _collect_grouping_calls(src):
                if call in mapping:
                    continue
                if len(call.args) != 1:
                    raise ValueError("GROUPING() takes exactly one argument")
                if sel.grouping_sets is None:
                    mapping[call] = A.Literal(0)
                    continue
                # the argument may be a raw key expr, a SELECT alias of one,
                # or the pre-alias-resolution GROUP BY spelling
                arg = call.args[0]
                cands = [arg]
                if isinstance(arg, A.ColumnRef) and \
                        arg.name.lower() in alias_exprs:
                    cands.append(alias_exprs[arg.name.lower()])
                j = next((i for i, k in enumerate(key_exprs)
                          for c in cands if k == c), None)
                if j is None:
                    j = next((i for i, k in enumerate(sel.group_by)
                              for c in cands if k == c), None)
                if j is None:
                    raise ValueError(
                        "GROUPING() argument must be a GROUP BY key "
                        f"(got {arg!r})")
                mapping[call] = A.ColumnRef(f"__gm{j}")
        for i, g in enumerate(key_exprs):
            if not isinstance(g, A.ColumnRef):
                mapping[g] = A.ColumnRef(key_names[i])
        new_items = [substitute_nodes(it.expr, mapping) for it in items]
        new_having = substitute_nodes(sel.having, mapping) if sel.having is not None else None

        # aggregates referenced only by ORDER BY need their __r columns emitted
        # (dropped again after the sort)
        order_calls = [c for ob in sel.order_by for c in collect_agg_calls(ob.expr)]
        item_exprs = {it.expr: name for it, name in zip(items, out_names)}
        extra_names = [f"__r{i}" for c, i in aggs
                       if c in order_calls and c not in item_exprs]
        post_items = new_items + [A.ColumnRef(n) for n in extra_names]
        post_names = out_names + extra_names
        # ORDER BY substitution: prefer the item's output column when the
        # aggregate is already projected, else the emitted __r helper
        order_mapping = {c: A.ColumnRef(item_exprs.get(c, f"__r{i}"))
                         for c, i in aggs}
        for i, g in enumerate(key_exprs):
            if not isinstance(g, A.ColumnRef):
                order_mapping[g] = A.ColumnRef(key_names[i])

        only_approx_cd = (
            len(aggs) == 1 and aggs[0][0].name == "APPROX_COUNT_DISTINCT")
        only_approx_q = (
            len(aggs) == 1 and aggs[0][0].name == "APPROX_QUANTILE")
        if any(c.name in ("APPROX_COUNT_DISTINCT", "APPROX_QUANTILE")
               for c in agg_calls) and not (only_approx_cd or only_approx_q):
            raise ValueError(
                "approximate aggregates cannot be mixed with other "
                "aggregates in one SELECT (wrap in separate subqueries)")
        if only_approx_cd:
            out = self._compile_approx_count_distinct(
                frame, key_exprs, key_names, aggs, env)
        elif only_approx_q:
            out = self._compile_approx_quantile(
                frame, key_exprs, key_names, aggs, env)
        elif any_distinct or any_holistic:
            # exact path: every row of a group meets in one task, where
            # ExactAgg aggregates it in Arrow. When every aggregate is
            # DISTINCT, a per-batch row dedup (combiner) first shrinks the
            # input to distinct (keys, args) tuples.
            ds2 = frame.ds.map_batches(
                PreAggPrep(key_exprs, key_names, aggs, env),
                batch_format="pyarrow")
            if all(c.distinct for c in agg_calls):
                ds2 = ds2.map_batches(_arrow_distinct, batch_format="pyarrow")
            exact = ExactAgg(key_names, aggs, env)
            out = exchange(ds2, key_names, exact, exact.arg_cols)
        else:
            ds2 = frame.ds.map_batches(
                PreAgg(key_exprs, key_names, aggs, env), batch_format="pyarrow")
            if sel.grouping_sets is not None and key_names:
                out = self._compile_grouping_sets(
                    ds2, sel.grouping_sets, key_names, aggs)
            else:
                out = exchange(
                    ds2, key_names, MergePartialsTask(key_names, aggs),
                    [name for name, _ in _merge_plan(aggs)])
            out = out.map_batches(CombinePartials(aggs), batch_format="pyarrow")

        # HAVING containing [NOT] EXISTS / correlated scalar subqueries
        # (top-level or nested in CASE/OR) can't evaluate inside PostAgg —
        # defer it: aggregate first, then decorrelate against the
        # aggregated frame and filter (HAVING is just WHERE over groups)
        post_having, deferred_having = new_having, None
        if new_having is not None and self._collect_scalar_subqueries(
                _rewrite_nested_exists(new_having)):
            post_having, deferred_having = None, new_having
            # standard-form correlation refers to the group column's
            # SOURCE name (… = c_nationkey) while the aggregated frame
            # only carries the output alias (k): rebind such refs inside
            # the deferred subqueries to the alias column
            gk_map = {it.expr.name.lower(): it.alias
                      for it in sel.items
                      if isinstance(it, A.SelectItem)
                      and isinstance(it.expr, A.ColumnRef) and it.alias
                      and it.alias.lower() != it.expr.name.lower()}
            outer_aliases = set()
            for attr in ("name", "alias"):
                v = getattr(sel.source, attr, None)
                if v:
                    outer_aliases.add(str(v).lower())
            deferred_having = self._rebind_subquery_outer_refs(
                deferred_having, gk_map, outer_aliases)
        # raw result-column refs (__r…) the deferred HAVING needs survive
        # the projection and drop after its filter
        keep_raw: list[str] = []
        if deferred_having is not None:
            low_out = {p.lower() for p in post_names}

            def _collect_raw(nref):
                if isinstance(nref, A.ColumnRef) and \
                        nref.table_alias is None and \
                        nref.name.lower() not in low_out and \
                        nref.name not in keep_raw:
                    keep_raw.append(nref.name)
                return nref

            transform_expr(deferred_having, _collect_raw)
            # correlation on a GROUP BY column absent from the output
            # (SELECT COUNT(*) … GROUP BY c_nationkey HAVING EXISTS
            # (… = c_nationkey)): keep the raw group-key columns visible
            # for the decorrelation join, dropped after the filter
            for kn in key_names:
                if isinstance(kn, str) and kn.lower() not in low_out \
                        and kn not in keep_raw:
                    keep_raw.append(kn)
        post = PostAgg(post_items, post_names, env, having=post_having,
                       keep_cols=keep_raw)
        ds_final = out.map_batches(post, batch_format="pyarrow")
        frame2 = Frame(ds_final, post_names)
        if deferred_having is not None:
            frame2 = self._filter_with_subqueries(
                Frame(ds_final, post_names + keep_raw), deferred_having,
                env, base_k=2000)
            if keep_raw:
                frame2 = Frame(
                    frame2.ds.map_batches(DropColumns(keep_raw),
                                          batch_format="pyarrow"),
                    post_names, frame2.aliases)
            else:
                frame2 = Frame(frame2.ds, post_names, frame2.aliases)
        # keep agg/order helper columns available for ORDER BY on aggregates
        frame2._agg_mapping = order_mapping  # type: ignore[attr-defined]
        frame2._drop_cols = extra_names  # type: ignore[attr-defined]
        return frame2

    # inputs of an exchange() up to this many rows finish in one task
    # instead of a key-hash bucket shuffle
    SMALL_PARTIALS_LIMIT = 2_000_000

    def _compile_grouping_sets(self, ds2: rd.Dataset, grouping_sets,
                               key_names, aggs) -> rd.Dataset:
        """ROLLUP / CUBE / GROUPING SETS in ONE input shuffle.

        The input is aggregated once at the finest grouping (all keys);
        every coarser set is then derived by merging the finest PARTIALS
        again (sums/counts/moments/min/max merge exactly — the merged
        columns keep the partial names, so the same kernel applies). The
        finest result is post-aggregation small, so the extra merges move
        negligible data; the raw input is read exactly once. Each piece is
        aligned to one canonical schema (missing keys → typed NULLs) plus
        __gm{j} mask columns backing GROUPING(key)."""
        names = [name for name, _ in _merge_plan(aggs)]
        finest = exchange(ds2, key_names,
                          MergePartialsTask(key_names, aggs), names) \
            .materialize()
        schema = finest.schema()
        if schema is None:
            # WHERE filtered every row: keyed sets contribute 0 rows; each
            # () grand-total set still emits one row (COUNT partials NULL →
            # 0 in CombinePartials, other aggs NULL) — DuckDB parity.
            return self._empty_grouping_sets(ds2, grouping_sets, key_names,
                                             names)
        types = dict(zip(schema.names, schema.types))
        full = frozenset(range(len(key_names)))
        pieces = []
        for gs in grouping_sets:
            subset = [key_names[i] for i in gs]
            piece = finest if frozenset(gs) == full else exchange(
                finest, subset, MergePartialsTask(subset, aggs), names)
            pieces.append(piece.map_batches(
                _AlignGroupingSet(key_names, types, names, frozenset(gs)),
                batch_format="pyarrow"))
        out = pieces[0]
        if len(pieces) > 1:
            out = out.union(*pieces[1:])
        return out

    def _empty_grouping_sets(self, ds2: rd.Dataset, grouping_sets,
                             key_names, partial_names) -> rd.Dataset:
        """ROLLUP/CUBE/GROUPING SETS over ZERO input rows. Synthesize the
        canonical aligned schema (keys + partials + __gm masks) from the
        pre-agg input — merged partials keep their input column names —
        and emit one all-NULL-keyed row per () set, zero rows otherwise."""
        in_schema = ds2.schema()
        in_types = dict(zip(in_schema.names, in_schema.types)) \
            if in_schema is not None else {}
        fields = [pa.field(k, in_types.get(k, pa.string()))
                  for k in key_names]
        for n in partial_names:
            if n.endswith(("_cnt", "_star", "_bit")):
                t = pa.int64()
            else:
                t = in_types.get(n, pa.float64())
            fields.append(pa.field(n, t))
        fields += [pa.field(f"__gm{j}", pa.int64())
                   for j in range(len(key_names))]
        schema = pa.schema(fields)
        n_rows = sum(1 for gs in grouping_sets if not gs)
        if not n_rows:
            return rd.from_arrow(schema.empty_table())
        cols = {}
        for f in fields:
            if f.name.startswith("__gm"):
                cols[f.name] = pa.array([1] * n_rows, type=pa.int64())
            else:
                cols[f.name] = pa.nulls(n_rows, type=f.type)
        return rd.from_arrow(pa.table(cols))

    # --------------------------------------------------------------- window
    def _compile_windows(self, frame: Frame, wcalls, env):
        """fn() OVER (PARTITION BY p ORDER BY o): one groupby(partition) +
        per-group pandas computation per distinct window call. Emits __w{i}
        columns; rows keep all original columns."""
        mapping = {}
        for i, wc in enumerate(dict.fromkeys(wcalls)):  # dedup, keep order
            frame = self._compile_one_window(frame, wc, f"__w{i}", env)
            mapping[wc] = A.ColumnRef(f"__w{i}")
        return frame, mapping

    def _compile_one_window(self, frame: Frame, wc: A.WindowCall,
                            out_name: str, env) -> Frame:
        prep_exprs, prep_names = [], []
        pkeys = []
        for j, p in enumerate(wc.partition_by):
            if isinstance(p, A.ColumnRef) and _try_resolve(p.name, frame.columns):
                pkeys.append(_resolve_name(p.name, frame.columns))
            else:
                name = f"{out_name}_p{j}"
                prep_exprs.append(p)
                prep_names.append(name)
                pkeys.append(name)
        okeys, odesc = [], []
        for j, o in enumerate(wc.order_by):
            if isinstance(o.expr, A.ColumnRef) and \
                    _try_resolve(o.expr.name, frame.columns):
                okeys.append(_resolve_name(o.expr.name, frame.columns))
            else:
                name = f"{out_name}_o{j}"
                prep_exprs.append(o.expr)
                prep_names.append(name)
                okeys.append(name)
            odesc.append(not o.ascending)
        arg_col = None
        fn = wc.func
        lag_offset, lag_default = 1, None
        ntile_n = 0
        if fn.name == "NTILE":
            if not fn.args or not isinstance(fn.args[0], A.Literal):
                raise ValueError("NTILE(n) requires a literal bucket count")
            ntile_n = int(fn.args[0].value)
            if ntile_n < 1:
                raise ValueError("NTILE(n) requires n >= 1")
        elif fn.args:
            arg0 = fn.args[0]
            if isinstance(arg0, A.ColumnRef) and \
                    _try_resolve(arg0.name, frame.columns):
                arg_col = _resolve_name(arg0.name, frame.columns)
            else:
                arg_col = f"{out_name}_a"
                prep_exprs.append(arg0)
                prep_names.append(arg_col)
            if fn.name == "NTH_VALUE":
                if len(fn.args) != 2 or not isinstance(fn.args[1], A.Literal):
                    raise ValueError("NTH_VALUE(expr, n) needs a literal n")
                lag_offset = int(fn.args[1].value)
                if lag_offset < 1:
                    raise ValueError("NTH_VALUE n must be >= 1")
            if fn.name in ("LAG", "LEAD") and len(fn.args) > 1:
                # LAG/LEAD(expr, offset [, default]) — constant args only.
                # Signed literals parse as UnaryOp(-, Literal), so fold
                # the sign here rather than rejecting e.g. LAG(x, 2, -1).
                def _const(e):
                    if isinstance(e, A.Literal):
                        return e.value
                    if (isinstance(e, A.UnaryOp) and e.op in ("-", "+")
                            and isinstance(e.operand, A.Literal)
                            and isinstance(e.operand.value, (int, float))):
                        v = e.operand.value
                        return -v if e.op == "-" else v
                    return _NOT_CONST

                off = _const(fn.args[1])
                if off is _NOT_CONST:
                    raise ValueError(
                        f"{fn.name} offset must be a literal integer")
                lag_offset = int(off)
                if len(fn.args) > 2:
                    dflt = _const(fn.args[2])
                    if dflt is _NOT_CONST:
                        raise ValueError(
                            f"{fn.name} default must be a literal")
                    lag_default = dflt

        ds = frame.ds
        if prep_exprs:
            ds = ds.map_batches(AddSortKeys(prep_exprs, prep_names, env),
                                batch_format="pyarrow")
        grp_col = f"{out_name}_g"
        if not pkeys:
            ds = ds.map_batches(
                lambda t, _c=grp_col: t.append_column(
                    _c, pa.array([0] * len(t))), batch_format="pyarrow")
        else:
            # coarse shuffle key: hash(partition cols) % ~4×cores so the
            # shuffle moves each key wholly but map_groups dispatches ~10²
            # groups, not one call per key; exact per-key windows happen in
            # pandas inside the group
            ds = ds.map_batches(
                AddBucketCol(pkeys, _shuffle_buckets(), grp_col),
                batch_format="pyarrow")

        win = _WindowGroupFn(fn.name, arg_col, okeys, odesc, out_name,
                             pkeys=pkeys, lag_offset=lag_offset,
                             lag_default=lag_default, ntile_n=ntile_n,
                             frame=wc.frame, frame_kind=wc.frame_kind,
                             ignore_nulls=fn.ignore_nulls,
                             exclude=getattr(wc, "exclude", "NO OTHERS"))

        def window_fn(df: pd.DataFrame, _w=win) -> pd.DataFrame:
            out = _w(df)
            # list-typed carried columns (e.g. an ARRAY_AGG result riding
            # through a QUALIFY window) arrive as np.ndarray cells; Ray's
            # pandas→arrow path routes object ndarrays through its tensor
            # extension, which cannot encode unicode dtypes — normalize
            # the cells to Python lists so they convert as ListArrays
            for c in out.columns:
                if out[c].dtype == object and len(out):
                    first = next((v for v in out[c] if v is not None), None)
                    if isinstance(first, np.ndarray):
                        out[c] = [None if v is None else list(v)
                                  for v in out[c]]
            return out

        # ADAPTIVE: below the small limit one task computes every window
        # (the vectorized bucket path sorts once and segments — ~0.1 s for
        # 1.5M rows) instead of paying the groupby shuffle barrier; larger
        # inputs — and non-vectorizable funcs over many keys, which would
        # serialize the per-key pandas loop — co-locate partition keys via
        # the coarse bucket shuffle
        vec_ok = fn.name in _WindowGroupFn._VEC_FUNCS and okeys and (
            wc.frame in ((), (None, None)) if fn.name == "LAST_VALUE"
            else not wc.frame)
        ds = ds.materialize()
        nrows = ds.count()
        if nrows <= Compiler.SMALL_PARTIALS_LIMIT and (
                vec_ok or not pkeys or nrows <= 200_000):
            ds = ds.repartition(1).map_batches(
                window_fn, batch_format="pandas", batch_size=None)
        else:
            ds = ds.groupby([grp_col]).map_groups(
                window_fn, batch_format="pandas")
        helper = prep_names + [grp_col]
        ds = ds.map_batches(DropColumns(helper), batch_format="pyarrow")
        return Frame(ds, frame.columns + [out_name], frame.aliases)

    # ---------------------------------------------------------------- order
    TOPK_PUSHDOWN_LIMIT = 100_000
    # limits at or below this finish in ONE sort task (survivors after
    # per-batch pruning are limit × #batches — tiny) instead of the
    # global range-shuffle sort
    TOPK_SINGLE_TASK_LIMIT = 10_000

    def _compile_order(self, frame: Frame, order_by, env,
                       limit: Optional[int] = None) -> Frame:
        sort_cols, descending = [], []
        temp_exprs, temp_names = [], []
        mapping = getattr(frame, "_agg_mapping", None)
        for i, ob in enumerate(order_by):
            expr = ob.expr
            if isinstance(expr, A.Literal) and isinstance(expr.value, int) \
                    and 1 <= expr.value <= len(frame.columns):
                # ORDER BY k left positional (the projection was `*`, so
                # item resolution deferred): the k-th output column
                expr = A.ColumnRef(frame.columns[expr.value - 1])
            if mapping:
                expr = substitute_nodes(expr, mapping)
            if isinstance(expr, A.ColumnRef) and \
                    _try_resolve(expr.name, frame.columns):
                sort_cols.append(_resolve_name(expr.name, frame.columns))
            else:
                name = f"__s{i}"
                temp_exprs.append(expr)
                temp_names.append(name)
                sort_cols.append(name)
            descending.append(not ob.ascending)
        nulls_first = [bool(ob.nulls_first) for ob in order_by]
        ds = frame.ds
        if temp_exprs:
            ds = ds.map_batches(AddSortKeys(temp_exprs, temp_names, env),
                                batch_format="pyarrow")
        if limit is not None and limit <= self.TOPK_PUSHDOWN_LIMIT \
                and not any(nulls_first):
            # top-k pushdown: each batch keeps only its local top-`limit`
            # rows before the global range shuffle — the global answer is a
            # subset of the union of per-batch top-k, so the sort input
            # shrinks from |rows| to ≤ limit × #batches (LocalTopK places
            # nulls at_end, so NULLS FIRST keys skip the pushdown)
            ds = ds.map_batches(LocalTopK(sort_cols, descending, limit),
                                batch_format="pyarrow")
        # null-safe sort: (flag DIR, filled DIR) per key — the flag orders
        # null placement (default NULLS LAST, DuckDB's default; NULLS FIRST
        # flips the flag direction) and no None ever reaches Ray's sort
        # boundary partitioner (TypeError on None < str otherwise)
        ds = ds.map_batches(NullSafeSortKeys(sort_cols), batch_format="pyarrow")
        ns_cols, ns_desc = [], []
        for i, d in enumerate(descending):
            ns_cols += [f"__nf{i}", f"__nk{i}"]
            ns_desc += [nulls_first[i], d]
        if limit is not None and limit <= self.TOPK_SINGLE_TASK_LIMIT \
                and not any(nulls_first):
            # small top-k: after per-batch pruning the survivors are
            # ≤ limit × #batches rows — one task sorts them, skipping the
            # global range-shuffle barrier entirely
            ds = ds.materialize().repartition(1).map_batches(
                SortSlice(ns_cols, ns_desc, limit),
                batch_format="pyarrow", batch_size=None)
        else:
            ds = ds.sort(ns_cols, descending=ns_desc)
        ds = ds.map_batches(DropColumns(ns_cols + temp_names),
                            batch_format="pyarrow")
        return Frame(ds, frame.columns, frame.aliases)


class PreAggPrep:
    """Exact-route prep (ExactAgg): emit key columns + raw arg columns
    (and in-aggregate ORDER BY columns) only."""

    def __init__(self, key_exprs, key_names, aggs, env):
        self.key_exprs = key_exprs
        self.key_names = key_names
        self.aggs = aggs
        self.env = env

    def __call__(self, batch: pa.Table) -> pa.Table:
        ev = make_evaluator(self.env)
        n = len(batch)
        data = {}
        for expr, name in zip(self.key_exprs, self.key_names):
            val = ev.eval(expr, batch)
            if not isinstance(val, (pa.Array, pa.ChunkedArray)):
                val = pa.array([val] * n)
            data[name] = val
        for call, i in self.aggs:
            if call.is_star:
                continue
            val = ev.eval(call.args[0], batch)
            if not isinstance(val, (pa.Array, pa.ChunkedArray)):
                val = pa.array([val] * n)
            data[f"__a{i}"] = val
            if call.name in TWO_ARG_AGGS:
                v2 = ev.eval(call.args[1], batch)
                if not isinstance(v2, (pa.Array, pa.ChunkedArray)):
                    v2 = pa.array([v2] * n)
                data[f"__a{i}b"] = v2
            for j, ob in enumerate(getattr(call, "order_by", ()) or ()):
                ov = ev.eval(ob.expr, batch)
                if not isinstance(ov, (pa.Array, pa.ChunkedArray)):
                    ov = pa.array([ov] * n)
                data[f"__a{i}_o{j}"] = ov
        if not data:
            data["__dummy"] = pa.nulls(n)
        return pa.table(data)


class CombinePartials:
    """Merge shuffled partials into final aggregate columns __r{i}."""

    def __init__(self, aggs):
        self.aggs = aggs

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c) for c in batch.column_names
                if not c.startswith("__p")}
        for call, i in self.aggs:
            kind = call.name
            if call.is_star:
                cols[f"__r{i}"] = pc.cast(
                    pc.fill_null(batch.column("__pcnt_star"), 0), pa.int64())
                continue
            if kind == "COUNT":
                cnt = pc.fill_null(batch.column(f"__p{i}_cnt"), 0)
                cols[f"__r{i}"] = pc.cast(cnt, pa.int64())
            elif kind == "SUM":
                cols[f"__r{i}"] = batch.column(f"__p{i}_sum")
            elif kind in ("AVG", "MEAN"):
                s = pc.cast(batch.column(f"__p{i}_sum"), pa.float64())
                c = pc.cast(batch.column(f"__p{i}_cnt"), pa.float64())
                c = pc.if_else(pc.equal(c, 0.0), pa.scalar(None, pa.float64()), c)
                cols[f"__r{i}"] = pc.divide(s, c)
            elif kind == "MIN":
                cols[f"__r{i}"] = batch.column(f"__p{i}_min")
            elif kind == "MAX":
                cols[f"__r{i}"] = batch.column(f"__p{i}_max")
            elif kind in MOMENT_AGGS:
                s = pc.cast(batch.column(f"__p{i}_sum"), pa.float64())
                sq = pc.cast(batch.column(f"__p{i}_sq"), pa.float64())
                c = pc.cast(batch.column(f"__p{i}_cnt"), pa.float64())
                pop = kind in ("STDDEV_POP", "VAR_POP")
                denom = c if pop else pc.subtract(c, 1.0)
                denom = pc.if_else(pc.less_equal(denom, 0.0),
                                   pa.scalar(None, pa.float64()), denom)
                var = pc.divide(
                    pc.subtract(sq, pc.divide(pc.multiply(s, s), c)), denom)
                # clamp FP-negative variances to 0 but KEEP nulls null:
                # max_element_wise skips nulls by default, which silently
                # turned the n==1 VAR_SAMP/STDDEV_SAMP NULL into 0.0
                var = pc.if_else(pc.less(var, 0.0),
                                 pa.scalar(0.0, pa.float64()), var)
                cols[f"__r{i}"] = var if kind in (
                    "VARIANCE", "VAR_SAMP", "VAR_POP") else pc.sqrt(var)
            elif kind in BIMOMENT_AGGS:
                cols[f"__r{i}"] = _finalize_bimoment(kind, batch, i)
            elif kind in EXT_MOMENT_AGGS:
                cols[f"__r{i}"] = _finalize_ext_moment(kind, batch, i)
            elif kind in ARG_EXT_AGGS:
                cols[f"__r{i}"] = batch.column(f"__p{i}_av")
            elif kind in BITWISE_AGGS:
                cols[f"__r{i}"] = pc.cast(batch.column(f"__p{i}_bit"),
                                          pa.int64())
            elif kind == "ANY_VALUE":
                cols[f"__r{i}"] = batch.column(f"__p{i}_any")
            elif kind == "BOOL_AND":
                # not_equal keeps nulls null and avoids float→bool casts on
                # the empty-input fallback column
                cols[f"__r{i}"] = pc.not_equal(
                    batch.column(f"__p{i}_min"), 0)
            elif kind == "BOOL_OR":
                cols[f"__r{i}"] = pc.not_equal(
                    batch.column(f"__p{i}_max"), 0)
        return pa.table(cols)


def _finalize_ext_moment(kind: str, batch: pa.Table, i: int) -> pa.Array:
    """SKEWNESS / KURTOSIS / KURTOSIS_POP from merged raw-moment partials.

    DuckDB semantics (probed): SKEWNESS = bias-corrected G1 =
    (m3/m2^1.5)·√(n(n−1))/(n−2), NULL when n<3 or var=0; KURTOSIS = excess
    sample kurtosis G2 = ((n+1)(m4/m2²−3)+6)(n−1)/((n−2)(n−3)), NULL when
    n<4 or var=0; KURTOSIS_POP = m4/m2²−3, NULL when n<2 or var=0."""
    def g(suf):
        return pc.cast(pc.fill_null(batch.column(f"__p{i}_{suf}"), 0.0),
                       pa.float64()).to_numpy(zero_copy_only=False)

    nv = pc.cast(pc.fill_null(batch.column(f"__p{i}_cnt"), 0),
                 pa.float64()).to_numpy(zero_copy_only=False)
    s1, s2, s3, s4 = g("sum"), g("sq"), g("cu"), g("qu")
    with np.errstate(all="ignore"):
        n = np.where(nv > 0, nv, 1.0)
        mean = s1 / n
        m2 = np.maximum(s2 / n - mean * mean, 0.0)
        m3 = s3 / n - 3.0 * mean * s2 / n + 2.0 * mean ** 3
        m4 = (s4 / n - 4.0 * mean * s3 / n
              + 6.0 * mean * mean * s2 / n - 3.0 * mean ** 4)
        if kind == "SKEWNESS":
            ok = (nv >= 3) & (m2 > 0)
            safe = np.where(ok, m2, 1.0)
            r = np.where(ok, (m3 / safe ** 1.5)
                         * np.sqrt(n * (n - 1.0)) / (n - 2.0), np.nan)
        elif kind == "KURTOSIS":
            ok = (nv >= 4) & (m2 > 0)
            safe = np.where(ok, m2, 1.0)
            g2 = m4 / (safe * safe) - 3.0
            r = np.where(ok, ((n + 1.0) * g2 + 6.0) * (n - 1.0)
                         / ((n - 2.0) * (n - 3.0)), np.nan)
        else:  # KURTOSIS_POP
            ok = (nv >= 2) & (m2 > 0)
            safe = np.where(ok, m2, 1.0)
            r = np.where(ok, m4 / (safe * safe) - 3.0, np.nan)
    return pa.array(r, type=pa.float64(), mask=np.isnan(r))


def _finalize_bimoment(kind: str, batch: pa.Table, i: int) -> pa.Array:
    """COVAR/CORR/REGR_* from merged (cnt, Σx, Σy, Σx², Σy², Σxy) partials.

    Edge semantics match DuckDB exactly (probed): all-pair-null group →
    NULL (REGR_COUNT → 0); n=1 → COVAR_POP 0, COVAR_SAMP/CORR/SLOPE NULL;
    zero var(x) → SLOPE/INTERCEPT/R2/CORR NULL; zero var(y), var(x)>0 →
    R2 = 1.0, CORR NULL."""
    nv = pc.cast(pc.fill_null(batch.column(f"__p{i}_cnt"), 0),
                 pa.float64()).to_numpy(zero_copy_only=False)
    if kind == "REGR_COUNT":
        return pa.array(nv.astype("int64"), type=pa.int64())

    def g(suf):
        return pc.cast(pc.fill_null(batch.column(f"__p{i}_{suf}"), 0.0),
                       pa.float64()).to_numpy(zero_copy_only=False)

    sx, sy = g("sx"), g("sy")
    sxx, syy, sxy = g("sxx"), g("syy"), g("sxy")
    with np.errstate(all="ignore"):
        safe_n = np.where(nv > 0, nv, 1.0)
        cxy = sxy - sx * sy / safe_n          # n · covar_pop
        vx = np.maximum(sxx - sx * sx / safe_n, 0.0)   # n · var_pop(x)
        vy = np.maximum(syy - sy * sy / safe_n, 0.0)
        # a zero-variance side forces covariance to EXACTLY 0 — the raw-
        # moment formula otherwise leaks ~1e-9 absolute cancellation
        # residue on constant columns (DuckDB's Welford path gets 0.0)
        cxy = np.where((vx <= 0.0) | (vy <= 0.0), 0.0, cxy)
        if kind == "COVAR_POP":
            r = cxy / safe_n
        elif kind == "COVAR_SAMP":
            r = np.where(nv > 1, cxy / np.where(nv > 1, nv - 1, 1.0), np.nan)
        elif kind == "CORR":
            ok = (vx > 0) & (vy > 0)
            r = np.where(ok, cxy / np.sqrt(np.where(ok, vx * vy, 1.0)), np.nan)
        elif kind == "REGR_SLOPE":
            r = np.where(vx > 0, cxy / np.where(vx > 0, vx, 1.0), np.nan)
        elif kind == "REGR_INTERCEPT":
            slope = np.where(vx > 0, cxy / np.where(vx > 0, vx, 1.0), np.nan)
            r = (sy - slope * sx) / safe_n
        elif kind == "REGR_R2":
            ok = (vx > 0) & (vy > 0)
            c2 = np.where(ok, (cxy * cxy) / np.where(ok, vx * vy, 1.0), np.nan)
            r = np.where(vx <= 0, np.nan, np.where(vy <= 0, 1.0, c2))
        elif kind == "REGR_AVGX":
            r = sx / safe_n
        elif kind == "REGR_AVGY":
            r = sy / safe_n
        elif kind == "REGR_SXX":
            r = vx
        elif kind == "REGR_SYY":
            r = vy
        elif kind == "REGR_SXY":
            r = cxy
        else:  # pragma: no cover
            raise ValueError(kind)
    r = np.where(nv == 0, np.nan, r)
    return pa.array(r, type=pa.float64(), mask=np.isnan(r))


# ------------------------------------------------------------------ helpers
def _collect_window_calls(expr, out: list):
    if isinstance(expr, A.WindowCall):
        if expr not in out:
            out.append(expr)
        return  # no nested windows
    if isinstance(expr, A.Expr) and hasattr(expr, "__dataclass_fields__"):
        from dataclasses import fields

        for f in fields(expr):
            val = getattr(expr, f.name)
            if isinstance(val, A.Expr):
                _collect_window_calls(val, out)
            elif isinstance(val, tuple):
                for v in val:
                    if isinstance(v, A.Expr):
                        _collect_window_calls(v, out)
                    elif isinstance(v, tuple):
                        for w in v:
                            if isinstance(w, A.Expr):
                                _collect_window_calls(w, out)


def _partial_suffixes(kind: str) -> list[str]:
    return {
        "SUM": ["sum"], "COUNT": ["cnt"], "AVG": ["sum", "cnt"],
        "MEAN": ["sum", "cnt"], "MIN": ["min"], "MAX": ["max"],
        "STDDEV": ["sum", "cnt", "sq"],
        **{m: ["sum", "cnt", "sq"] for m in MOMENT_AGGS},
        **{m: ["sum", "cnt", "sq", "cu", "qu"] for m in EXT_MOMENT_AGGS},
        **{b: ["cnt", "sx", "sy", "sxx", "syy", "sxy"]
           for b in BIMOMENT_AGGS},
        **{a: ["av", "ak"] for a in ARG_EXT_AGGS},
        **{b: ["bit"] for b in BITWISE_AGGS},
        "BOOL_AND": ["min"], "BOOL_OR": ["max"],
        "ANY_VALUE": ["any"],
    }[kind]


def _is_correlated_scalar_cmp(c) -> bool:
    """A WHERE conjunct comparing against an UNRESOLVED scalar subquery —
    only correlated ones survive the session's eager resolution."""
    from .parser import _ScalarSubquery

    return isinstance(c, A.Comparison) and (
        isinstance(c.left, _ScalarSubquery)
        or isinstance(c.right, _ScalarSubquery))


def _flatten_and(cond: A.Cond) -> list[A.Cond]:
    if isinstance(cond, A.And):
        return _flatten_and(cond.left) + _flatten_and(cond.right)
    return [cond]


def _rewrite_nested_exists(expr):
    """Rewrite [NOT] EXISTS nodes NESTED inside an expression tree (a CASE
    branch, an OR arm, a SELECT item) into count-based scalar-subquery
    comparisons — ``EXISTS(q) ⇒ (SELECT COUNT(*) FROM …) > 0`` — so the
    existing scalar-subquery decorrelation machinery handles them. Only
    simple subqueries rewrite (single SELECT, no joins / GROUP BY /
    HAVING / DISTINCT / set ops / LIMIT); anything else is left for the
    top-level-conjunct EXISTS path or its existing error."""
    from .parser import _ScalarSubquery

    def repl(node):
        if isinstance(node, A.Exists):
            sub = node.query
            if (isinstance(sub, A.Select) and not sub.joins
                    and not sub.group_by and sub.grouping_sets is None
                    and sub.having is None and not sub.distinct
                    and sub.limit is None and sub.offset is None
                    and sub.qualify is None and sub.source is not None):
                cnt = dc_replace(sub, items=(A.SelectItem(
                    A.FuncCall("COUNT", (), is_star=True), "__cnt"),),
                    order_by=())
                op = "=" if node.negated else ">"
                return A.Comparison(op, _ScalarSubquery(cnt), A.Literal(0))
        return node

    return transform_expr(expr, repl)


def _tag_columns(ds: rd.Dataset, columns) -> rd.Dataset:
    """Record the compiler's declared output column names on the Dataset.
    Ray bypasses UDFs on empty blocks, so an empty RESULT carries stale
    pre-projection (or no) schema — the qwery to_pandas patch uses this
    tag to rebuild the correct empty frame (see qwery_ray.__init__)."""
    if columns:
        try:
            ds._qwery_columns = [c.split(".")[-1] for c in columns]
        except Exception:
            pass
    return ds


def _resolve_name(name: str, columns: list[str]) -> str:
    low = {c.lower(): c for c in columns}
    if name.lower() in low:
        return low[name.lower()]
    suffix = "." + name.lower()
    hits = [c for c in columns if c.lower().endswith(suffix)]
    if len(hits) == 1:
        return hits[0]
    raise ValueError(f"cannot resolve column {name} in {columns}")


def _try_resolve(name: str, columns: list[str]) -> bool:
    try:
        _resolve_name(name, columns)
        return True
    except ValueError:
        return False


def _materialize_small(ds: rd.Dataset) -> pa.Table:
    """Driver-side materialization of a KNOWN-small dataset (broadcast side)."""
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
              for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")]
    if not tables:
        # zero rows must keep the schema (an empty broadcast side without
        # its key columns breaks the Acero join)
        try:
            sch = ds.schema()
            if sch is not None and sch.names:
                return sch.base_schema.empty_table()
        except Exception:
            pass
        return pa.table({})
    schema = pa.unify_schemas([t.schema for t in tables])
    return pa.concat_tables([t.cast(schema) for t in tables])


def _arrow_distinct(t: pa.Table) -> pa.Table:
    """Exact distinct rows of one table, vectorized in Arrow C++
    (group_by over all columns, empty aggregation ⇒ unique key tuples;
    NULLs group together, matching SQL DISTINCT). Falls back to pandas
    drop_duplicates for types Arrow can't group on (lists/structs)."""
    if len(t) == 0:
        return t
    try:
        out = t.group_by(t.column_names, use_threads=False).aggregate([])
        if out.column_names != t.column_names:
            out = out.select(t.column_names)
        return out.cast(t.schema)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        df = t.to_pandas()
        return pa.Table.from_pandas(df.drop_duplicates(),
                                    preserve_index=False).cast(t.schema)


def _distinct(ds: rd.Dataset, names: Optional[list] = None) -> rd.Dataset:
    """Global DISTINCT: a per-batch Arrow dedup (combiner), then one
    exchange() dedups whole groups of rows across batches. Pass ``names``
    when known to avoid a schema() call on a lazy pipeline."""
    if names is None:
        sch = ds.schema()
        names = sch.names if sch is not None else []
    return _row_exchange(
        ds.map_batches(_arrow_distinct, batch_format="pyarrow"), names,
        _arrow_distinct)


def _row_exchange(ds: rd.Dataset, keys, fn) -> rd.Dataset:
    """exchange() of a kernel that returns rows of the columns ``keys``
    (DISTINCT, EXCEPT/INTERSECT [ALL]). An empty result keeps those
    columns, typed from ``ds`` when it has them: Ray drops zero-row
    blocks."""
    ds = ds.materialize()
    out = exchange(ds, keys, fn).materialize()
    return out if out.count() else rd.from_arrow(_empty_table(ds, keys))


# public name for reuse outside the SQL compiler (ops.dedup etc.)
distinct_rows = _distinct
