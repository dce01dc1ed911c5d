"""ASOF JOIN: per-left-row nearest-match join on an ordered column.

``FROM l ASOF [LEFT] JOIN r ON l.k = r.k AND l.ts >= r.ts`` matches every
left row with the single right row sharing the equi-keys whose ordering
value is nearest under the inequality (``>=``/``>`` → latest at-or-before /
strictly-before, ``<=``/``<`` → earliest at-or-after / strictly-after),
exactly DuckDB's ASOF JOIN semantics (the correctness oracle). The
reference engine has no asof operator (joins are equi-only,
core/ops/sql/Join.scala) — this is a training-/time-series-pipeline
superset, listed in SURVEY.md §2.5.

Scale shape (Ray-Data-first):
- small right side → ``ray.put`` ONCE, per-batch vectorized matching over
  the streaming left side (no shuffle at all);
- large right side → ONE coarse bucket-hash shuffle: both sides are padded
  to a shared schema, bucketed by a value-stable hash of the equi-keys
  (AddBucketCol), and each bucket group matches locally. O(#buckets) group
  dispatches, each key wholly inside one group.

The match core is index-frame based: only the equi-keys, the ordering
column and a row index enter ``pandas.merge_asof`` (a sorted merge, not a
hash join); data columns never round-trip pandas — output rows are Arrow
``take``s by index, so all types survive bit-exactly, including the null
extension of unmatched left rows under ASOF LEFT JOIN.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from . import ast as A

# op (written as  L <op> R)  →  (merge_asof direction, allow_exact_matches)
_OP_DIR = {
    ">=": ("backward", True),
    ">": ("backward", False),
    "<=": ("forward", True),
    "<": ("forward", False),
}
_FLIP = {">=": "<=", ">": "<", "<=": ">=", "<": ">"}


def _split_asof_condition(compiler, residual, left, right, ralias):
    """The non-equi remainder of the ON clause must be exactly one ordered
    comparison between a left column and a right column."""
    from .compiler import _flatten_and, _resolve_name

    conjuncts = _flatten_and(residual) if residual is not None else []
    if len(conjuncts) != 1:
        raise ValueError(
            "ASOF JOIN requires exactly one inequality (>, >=, <, <=) "
            "between a left and a right column in ON, plus optional "
            "equi-key conditions")
    c = conjuncts[0]
    if not (isinstance(c, A.Comparison) and c.op in _OP_DIR
            and isinstance(c.left, A.ColumnRef)
            and isinstance(c.right, A.ColumnRef)):
        raise ValueError(
            "ASOF JOIN inequality must compare a left column with a right "
            f"column using >, >=, < or <= (got {c!r})")
    left_cols = {x.lower() for x in left.columns}
    right_cols = {x.lower() for x in right.columns}
    sa = compiler._side_of(c.left, left_cols, right_cols, left.aliases, ralias)
    sb = compiler._side_of(c.right, left_cols, right_cols, left.aliases, ralias)
    if sa == "L" and sb == "R":
        op, lref, rref = c.op, c.left, c.right
    elif sa == "R" and sb == "L":
        op, lref, rref = _FLIP[c.op], c.right, c.left
    else:
        raise ValueError(
            "ASOF JOIN inequality must reference one column from each side")
    lts = _resolve_name(lref.name, left.columns)
    rts = _resolve_name(rref.name, right.columns)
    direction, allow_exact = _OP_DIR[op]
    return lts, rts, direction, allow_exact


def _ordering_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return np.asarray(arr.to_numpy(zero_copy_only=False))


def _valid_indices(t: pa.Table, cols) -> np.ndarray:
    """Row positions where every ``cols`` value is non-null (null equi-keys
    and null ordering values never match, per SQL comparison semantics)."""
    mask = None
    for c in cols:
        v = pc.is_valid(t.column(c))
        mask = v if mask is None else pc.and_(mask, v)
    m = np.asarray(mask.combine_chunks().to_numpy(zero_copy_only=False))
    return np.nonzero(m)[0].astype(np.int64)


def _index_frame(t: pa.Table, keys, ts_col, idx: np.ndarray,
                 ts_dtype=None) -> pd.DataFrame:
    """Narrow pandas frame: harmonized key columns k0..kn, ordering __ts,
    original row index __i — sorted by __ts as merge_asof requires."""
    data = {}
    for n, k in enumerate(keys):
        data[f"k{n}"] = _ordering_np(t.column(k))[idx]
    ts = _ordering_np(t.column(ts_col))[idx]
    if ts_dtype is not None and ts.dtype != ts_dtype:
        ts = ts.astype(ts_dtype)
    data["__ts"] = ts
    data["__i"] = idx
    df = pd.DataFrame(data)
    return df.sort_values("__ts", kind="stable", ignore_index=True)


def _asof_match(pdl: pd.DataFrame, pdr: pd.DataFrame, nkeys: int,
                direction: str, allow_exact: bool):
    """(matched_left_idx, matched_right_idx, unmatched_left_idx): original
    row positions. Frames are _index_frame outputs (sorted, nulls dropped)."""
    if not len(pdl):
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    if not len(pdr):
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                pdl["__i"].to_numpy(np.int64))
    by = [f"k{n}" for n in range(nkeys)]
    pdr = pdr.rename(columns={"__i": "__ri"})
    # merge_asof rejects by-key dtype mismatches (int64 vs object etc.);
    # keys are pre-harmonized Arrow-side, but guard mixed numeric widths
    for k in by:
        if pdl[k].dtype != pdr[k].dtype:
            common = np.result_type(pdl[k].dtype, pdr[k].dtype)
            pdl[k] = pdl[k].astype(common)
            pdr[k] = pdr[k].astype(common)
    if pdl["__ts"].dtype != pdr["__ts"].dtype:
        common = np.result_type(pdl["__ts"].dtype, pdr["__ts"].dtype)
        pdl["__ts"] = pdl["__ts"].astype(common)
        pdr["__ts"] = pdr["__ts"].astype(common)
    m = pd.merge_asof(pdl, pdr, on="__ts", by=by, direction=direction,
                      allow_exact_matches=allow_exact)
    ri = m["__ri"]
    hit = ri.notna().to_numpy()
    return (m["__i"].to_numpy(np.int64)[hit],
            ri.to_numpy("float64")[hit].astype(np.int64),
            m["__i"].to_numpy(np.int64)[~hit])


def _null_columns(schema: pa.Schema, n: int) -> list:
    return [pa.nulls(n, type=f.type) for f in schema]


def _assemble(lt: pa.Table, rt: pa.Table, l_idx, r_idx, l_un,
              keep_unmatched: bool, right_schema: pa.Schema) -> pa.Table:
    """Output = left columns ++ right columns; matched rows by Arrow take,
    unmatched left rows (ASOF LEFT) null-extended with the right types."""
    parts = []
    lm = lt.take(pa.array(l_idx, type=pa.int64()))
    rm = rt.take(pa.array(r_idx, type=pa.int64())) if len(rt.schema) else rt
    cols = list(lm.columns) + list(rm.columns)
    names = lm.column_names + rm.column_names
    parts.append(pa.table(dict(zip(names, cols)))
                 if names else pa.table({}))
    if keep_unmatched and len(l_un):
        lu = lt.take(pa.array(l_un, type=pa.int64()))
        ucols = list(lu.columns) + _null_columns(right_schema, len(lu))
        unames = lu.column_names + [f.name for f in right_schema]
        parts.append(pa.table(dict(zip(unames, ucols))))
    if len(parts) == 1:
        return parts[0]
    schema = parts[0].schema
    return pa.concat_tables([p.cast(schema) for p in parts])


class AsofJoinBatch:
    """Broadcast ASOF join: the right side ships via ``ray.put`` once; each
    left batch matches against a per-worker cached (filtered, ts-sorted)
    right table — zero shuffle, streaming left side."""

    _CACHE: dict = {}

    def __init__(self, right_ref, left_keys, right_keys, lts, rts,
                 direction, allow_exact, keep_unmatched):
        self.right_ref = right_ref
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.lts, self.rts = lts, rts
        self.direction, self.allow_exact = direction, allow_exact
        self.keep_unmatched = keep_unmatched
        self._state = None

    def _right_state(self):
        if self._state is None:
            key = self.right_ref.hex()
            st = AsofJoinBatch._CACHE.get(key)
            if st is None:
                rt = ray.get(self.right_ref)
                idx = _valid_indices(rt, self.right_keys + [self.rts])
                pdr = _index_frame(rt, self.right_keys, self.rts, idx)
                st = (rt, pdr)
                AsofJoinBatch._CACHE[key] = st
            self._state = st
        return self._state

    def __call__(self, batch: pa.Table) -> pa.Table:
        rt, pdr = self._right_state()
        idx = _valid_indices(batch, self.left_keys + [self.lts])
        pdl = _index_frame(batch, self.left_keys, self.lts, idx)
        l_idx, r_idx, l_un = _asof_match(
            pdl, pdr.copy(deep=False), len(self.left_keys),
            self.direction, self.allow_exact)
        if self.keep_unmatched:
            dropped = np.setdiff1d(np.arange(len(batch), dtype=np.int64),
                                   idx, assume_unique=True)
            l_un = np.concatenate([l_un, dropped])
        return _assemble(batch, rt, l_idx, r_idx, l_un,
                         self.keep_unmatched, rt.schema)


class PadToSchema:
    """Extend a side's batches with typed null columns for the OTHER side's
    fields plus a side tag, so both sides stream through one union with a
    single exact Arrow schema (no pandas dtype laundering)."""

    def __init__(self, out_schema: pa.Schema, side: int = 0,
                 side_col: str | None = None):
        self.out_schema = out_schema
        self.side = side
        self.side_col = side_col  # None → no side tag (plain align-pad)

    def __call__(self, t: pa.Table) -> pa.Table:
        n = len(t)
        cols, names = [], []
        for f in self.out_schema:
            names.append(f.name)
            if f.name in t.column_names:
                c = t.column(f.name)
                cols.append(c if c.type == f.type else pc.cast(c, f.type))
            else:
                cols.append(pa.nulls(n, type=f.type))
        if self.side_col is not None:
            names.append(self.side_col)
            cols.append(pa.nulls(n, type=pa.int8()).fill_null(self.side))
        return pa.table(dict(zip(names, cols)))


def compile_asof_join(compiler, left, j, sel, needed):
    """Compiler entry: build the output Frame for an ASOF [LEFT] JOIN."""
    from .compiler import (AddBucketCol, DropColumns, Frame,
                           HarmonizeJoinKeys, RenameBatch,
                           BROADCAST_ROW_LIMIT, BROADCAST_BYTE_LIMIT,
                           BROADCAST_ROW_HARD_CAP, _env, _harmonize_keys,
                           _materialize_small, _shuffle_buckets)

    env = _env(compiler.session)
    right = compiler.compile_source(j.right, columns=needed)
    ralias = None
    if isinstance(j.right, A.TableRef):
        ralias = (j.right.alias or j.right.name).lower()
    elif isinstance(j.right, A.SubquerySource) and j.right.alias:
        ralias = j.right.alias.lower()

    left_keys, right_keys, residual = compiler._split_on(
        j.on, left, right, ralias)
    lts, rts, direction, allow_exact = _split_asof_condition(
        compiler, residual, left, right, ralias)

    # every right column survives (both ordering columns appear in the
    # output, like DuckDB) — rename ALL collisions, keys included
    collide = {c for c in right.columns if c in left.columns}
    if collide:
        prefix = ralias or "r"
        mapping = {c: f"{prefix}.{c}" for c in collide}
        right = Frame(
            right.ds.map_batches(RenameBatch(mapping), batch_format="pyarrow"),
            [mapping.get(c, c) for c in right.columns],
            right.aliases, right.est_rows, right.est_bytes)
        right_keys = [mapping.get(c, c) for c in right_keys]
        rts = mapping.get(rts, rts)

    keep_unmatched = j.join_type == "ASOF_LEFT"
    out_cols = left.columns + right.columns
    aliases = dict(left.aliases)
    if ralias:
        aliases[ralias] = True

    left_ds = left.ds.map_batches(HarmonizeJoinKeys(left_keys),
                                  batch_format="pyarrow")
    right_ds = right.ds.map_batches(HarmonizeJoinKeys(right_keys),
                                    batch_format="pyarrow")

    small = (right.est_rows is not None
             and right.est_rows <= BROADCAST_ROW_LIMIT) or \
            (right.est_bytes is not None
             and right.est_rows is not None
             and right.est_bytes <= BROADCAST_BYTE_LIMIT
             and right.est_rows <= BROADCAST_ROW_HARD_CAP)
    if small:
        rt = _harmonize_keys(_materialize_small(right_ds), right_keys)
        right_ref = ray.put(rt)
        ds = left_ds.map_batches(
            AsofJoinBatch(right_ref, left_keys, right_keys, lts, rts,
                          direction, allow_exact, keep_unmatched),
            batch_format="pyarrow")
        return Frame(ds, out_cols, aliases)

    # large right side: one coarse bucket shuffle co-locates each equi-key
    # on both sides, then every bucket matches locally (sorted merge)
    nbuckets = _shuffle_buckets()
    l_schema = left_ds.schema().base_schema
    r_schema = right_ds.schema().base_schema
    l_schema = pa.schema([l_schema.field(c) for c in left.columns])
    r_schema = pa.schema([r_schema.field(c) for c in right.columns])
    union_schema = pa.schema(list(l_schema) + list(r_schema))
    side_col, bkt_col = "__aside", "__abkt"
    lpad = left_ds.map_batches(PadToSchema(union_schema, 0, side_col),
                               batch_format="pyarrow") \
        .map_batches(AddBucketCol(left_keys, nbuckets, bkt_col),
                     batch_format="pyarrow")
    rpad = right_ds.map_batches(PadToSchema(union_schema, 1, side_col),
                                batch_format="pyarrow") \
        .map_batches(AddBucketCol(right_keys, nbuckets, bkt_col),
                     batch_format="pyarrow")

    lnames, rnames = list(l_schema.names), list(r_schema.names)
    lkeys, rkeys = list(left_keys), list(right_keys)

    def asof_bucket(t: pa.Table) -> pa.Table:
        side = _ordering_np(t.column(side_col))
        lt = t.select(lnames).take(
            pa.array(np.nonzero(side == 0)[0], type=pa.int64()))
        rt = t.select(rnames).take(
            pa.array(np.nonzero(side == 1)[0], type=pa.int64()))
        lidx = _valid_indices(lt, lkeys + [lts])
        ridx = _valid_indices(rt, rkeys + [rts])
        pdl = _index_frame(lt, lkeys, lts, lidx)
        pdr = _index_frame(rt, rkeys, rts, ridx)
        l_idx, r_idx, l_un = _asof_match(pdl, pdr, len(lkeys),
                                         direction, allow_exact)
        if keep_unmatched:
            dropped = np.setdiff1d(np.arange(len(lt), dtype=np.int64),
                                   lidx, assume_unique=True)
            l_un = np.concatenate([l_un, dropped])
        return _assemble(lt, rt, l_idx, r_idx, l_un,
                         keep_unmatched, pa.schema(list(r_schema)))

    ds = lpad.union(rpad).groupby(bkt_col).map_groups(
        asof_bucket, batch_format="pyarrow")
    return Frame(ds, out_cols, aliases)
