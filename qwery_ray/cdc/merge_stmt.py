"""MERGE INTO execution (ANSI SQL:2003 three-arm merge).

Superset over the reference's UPSERT/UPDATE row-at-a-time semantics
(ops/sql/Upsert.scala:14-32, Update.scala:19-45): one statement expresses
insert-else-update-else-delete with per-arm conditions, the canonical CDC
apply step.

Scale contract: the SOURCE is always a full distributed query. The TARGET
path is adaptive:

- below :data:`MERGE_DISTRIBUTED_BYTES` the target parquet materializes
  driver-side and the whole merge is one vectorized pandas pass
  (dimension-table scale, atomic single-file replace);
- above it, the merge runs DISTRIBUTED: target and source are widened to
  one combined schema with presence markers, hash-bucketed by the ON equi
  key (one shuffle, no join operator), and each bucket runs the identical
  :func:`_apply_merge` semantics in a ``groupby(bucket).map_groups`` task.
  The driver never materializes the target — final rows stream back
  batch-by-batch into the output file. The distributed path requires the
  target's ON key to be UNIQUE over non-null keys (checked; the
  row-identity bookkeeping that duplicate-key targets need is inherently
  driver-side — use the small path or the lake engine for those).

A LAKE target (a directory with ``manifest.json``) merges
CO-PARTITIONED with the lake (:func:`_co_partitioned_merge`): each source
row is tagged with the lake partition its key hashes to, and one
``groupby(pid).map_groups`` task per touched partition reads only that
partition's files and only the rows whose key the source names, then runs
the same :func:`_apply_merge`. Work scales with the partitions and keys
the source reaches; only the source is shuffled, never the lake. A ``NOT
MATCHED BY SOURCE`` arm can reach every row, so it reads the whole lake.
The changed rows commit as ONE exactly-once transaction of LWW events
through ``CDCLakeEngine.replay``.

ANSI semantics implemented (every path — the bucket and partition tasks
call the same function the driver path does):
- ON must contain at least one target-column = source-column equality;
  remaining conjuncts become a residual filter on the joined pairs.
- A target row matched by MORE than one source row raises a cardinality
  violation (SQL:2003 14.9 GR 6b — nondeterministic update otherwise).
- WHEN arms evaluate in statement order; the FIRST arm whose condition
  holds acts on the row; later arms never see it.
- NOT MATCHED [BY TARGET] sees source rows with no surviving pair;
  NOT MATCHED BY SOURCE (T-SQL/Databricks extension) sees target rows
  with no surviving pair.
"""

from __future__ import annotations

import os
import threading
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..sqlc import ast as A
from .upsert import _collect

#: target files above this byte size merge distributed (hash-bucketed
#: map_groups) instead of materializing on the driver. Tests monkeypatch
#: the module global, so read it at call time.
MERGE_DISTRIBUTED_BYTES = 256 << 20

_ACTION = "__mrg_action"  # k=kept, u=updated, d=deleted, i=inserted


class MergeUniqueKeyError(ValueError):
    """Distributed MERGE's unique-target-ON-key precondition failed —
    the ONLY error the big-source driver fallback may catch."""


def _conjuncts(cond) -> list:
    if isinstance(cond, A.And):
        return _conjuncts(cond.left) + _conjuncts(cond.right)
    return [cond]


def _classify(ref: A.ColumnRef, ta: str, sa: str, tcols, scols):
    """'t'/'s'/None for which side a column reference names."""
    name = ref.name.lower()
    alias = (ref.table_alias or "").lower()
    if alias:
        if alias == ta.lower():
            return "t" if name in tcols else None
        if alias == sa.lower():
            return "s" if name in scols else None
        return None
    in_t, in_s = name in tcols, name in scols
    if in_t and in_s:
        raise ValueError(
            f"MERGE: ambiguous column {ref.name!r} in ON — qualify it "
            f"with {ta!r} or {sa!r}")
    return "t" if in_t else ("s" if in_s else None)


def _split_on(stmt: A.Merge, ta: str, sa: str, tcols, scols, tmap, smap):
    """ON condition → equi (target_col, source_col) keys + residual list."""
    keys: list[tuple[str, str]] = []
    residual: list = []
    for c in _conjuncts(stmt.on):
        if (isinstance(c, A.Comparison) and c.op == "="
                and isinstance(c.left, A.ColumnRef)
                and isinstance(c.right, A.ColumnRef)):
            sides = (_classify(c.left, ta, sa, tcols, scols),
                     _classify(c.right, ta, sa, tcols, scols))
            if sides == ("t", "s"):
                keys.append((tmap[c.left.name.lower()],
                             smap[c.right.name.lower()]))
                continue
            if sides == ("s", "t"):
                keys.append((tmap[c.right.name.lower()],
                             smap[c.left.name.lower()]))
                continue
        residual.append(c)
    if not keys:
        raise ValueError(
            "MERGE ON requires at least one target-column = source-column "
            "equality (theta-only merges would be a full cross product)")
    return keys, residual


def _apply_merge(target: pd.DataFrame, src: pd.DataFrame, stmt: A.Merge,
                 ta: str, sa: str, env: dict) -> pd.DataFrame:
    """The full ANSI merge over two in-memory frames → the final target
    rows (target schema) plus an ``__mrg_action`` tag column
    (k/u/d/i; deleted rows are RETAINED and tagged so callers can both
    count and drop them). Pure function of its inputs — the driver path
    calls it once with the whole table, the distributed path calls it per
    key-hash bucket (key-equality makes the semantics bucket-local)."""
    from ..sqlc.compiler import make_evaluator

    ev = make_evaluator(env)
    tcols = {c.lower() for c in target.columns}
    scols = {c.lower() for c in src.columns}
    tmap = {c.lower(): c for c in target.columns}
    smap = {c.lower(): c for c in src.columns}
    keys, residual = _split_on(stmt, ta, sa, tcols, scols, tmap, smap)

    # ---- candidate pairs (inner merge on the equi keys) ----------------
    t = target.reset_index(drop=True).copy()
    s = src.reset_index(drop=True).copy()
    t["__tid"] = np.arange(len(t), dtype=np.int64)
    s["__sid"] = np.arange(len(s), dtype=np.int64)
    pairs = t.merge(s, left_on=[k[0] for k in keys],
                    right_on=[k[1] for k in keys],
                    how="inner", suffixes=("__t", "__s"))

    def _qualified(df_pairs: pd.DataFrame) -> pa.Table:
        """Pairs frame re-exposed with alias-qualified physical columns
        (plus bare names where unambiguous — resolve_column's suffix
        fallback handles those)."""
        data = {}
        for c in target.columns:
            phys = c if c in df_pairs.columns else f"{c}__t"
            data[f"{ta}.{c}"] = df_pairs[phys].to_numpy()
        for c in src.columns:
            phys = c if c in df_pairs.columns else f"{c}__s"
            data[f"{sa}.{c}"] = df_pairs[phys].to_numpy()
        return pa.Table.from_pandas(pd.DataFrame(data), preserve_index=False)

    if len(pairs) and residual:
        batch = _qualified(pairs)
        mask = np.ones(len(pairs), dtype=bool)
        for c in residual:
            mask &= np.asarray(ev.eval_mask(c, batch))
        pairs = pairs[mask].reset_index(drop=True)

    # ---- ANSI cardinality check ----------------------------------------
    if len(pairs) and pairs["__tid"].duplicated().any():
        dup = pairs["__tid"][pairs["__tid"].duplicated()].iloc[0]
        raise ValueError(
            "MERGE cardinality violation: target row matched by multiple "
            f"source rows (target row index {int(dup)}) — SQL:2003 14.9")

    matched_tids = set(pairs["__tid"].tolist())
    matched_sids = set(pairs["__sid"].tolist())

    deletes: set[int] = set()
    updates: dict[int, dict[str, object]] = {}

    # ---- WHEN MATCHED arms (first match wins) ---------------------------
    if len(pairs):
        pbatch = _qualified(pairs)
        claimed = np.zeros(len(pairs), dtype=bool)
        for arm in stmt.whens:
            if arm.matched != "matched":
                continue
            m = np.ones(len(pairs), dtype=bool) if arm.condition is None \
                else np.asarray(ev.eval_mask(arm.condition, pbatch))
            m = m & ~claimed
            claimed |= m
            rows = np.where(m)[0]
            if not len(rows):
                continue
            if arm.action == "delete":
                deletes.update(int(pairs["__tid"].iloc[i]) for i in rows)
            else:  # update
                for name, expr in arm.assignments:
                    col = tmap.get(name.lower())
                    if col is None:
                        raise ValueError(
                            f"MERGE UPDATE SET: unknown target column {name!r}")
                    vals = ev.eval(expr, pbatch)
                    vals = vals.to_pandas().to_numpy() \
                        if isinstance(vals, (pa.Array, pa.ChunkedArray)) \
                        else np.full(len(pairs), vals, dtype=object)
                    for i in rows:
                        updates.setdefault(
                            int(pairs["__tid"].iloc[i]), {})[col] = vals[i]

    # ---- WHEN NOT MATCHED (source side) --------------------------------
    anti_s = s[~s["__sid"].isin(matched_sids)].reset_index(drop=True)
    inserts: list[pd.DataFrame] = []
    if len(anti_s):
        sb = pa.Table.from_pandas(
            pd.DataFrame({f"{sa}.{c}": anti_s[c].to_numpy()
                          for c in src.columns}), preserve_index=False)
        claimed = np.zeros(len(anti_s), dtype=bool)
        for arm in stmt.whens:
            if arm.matched != "not_matched":
                continue
            m = np.ones(len(anti_s), dtype=bool) if arm.condition is None \
                else np.asarray(ev.eval_mask(arm.condition, sb))
            m = m & ~claimed
            claimed |= m
            rows = np.where(m)[0]
            if not len(rows):
                continue
            if arm.insert_values is None:  # INSERT * — map by name
                new = pd.DataFrame(index=range(len(rows)))
                for c in target.columns:
                    sc = smap.get(c.lower())
                    new[c] = anti_s[sc].to_numpy()[rows] if sc is not None \
                        else None
            else:
                cols = list(arm.insert_columns) or list(target.columns)
                if len(cols) != len(arm.insert_values):
                    raise ValueError(
                        "MERGE INSERT: column/value count mismatch")
                new = pd.DataFrame(index=range(len(rows)))
                for c in target.columns:
                    new[c] = None
                for cname, expr in zip(cols, arm.insert_values):
                    col = tmap.get(cname.lower())
                    if col is None:
                        raise ValueError(
                            f"MERGE INSERT: unknown target column {cname!r}")
                    vals = ev.eval(expr, sb)
                    vals = vals.to_pandas().to_numpy() \
                        if isinstance(vals, (pa.Array, pa.ChunkedArray)) \
                        else np.full(len(anti_s), vals, dtype=object)
                    new[col] = vals[rows]
            inserts.append(new)

    # ---- WHEN NOT MATCHED BY SOURCE (target side) -----------------------
    anti_t_mask = ~t["__tid"].isin(matched_tids)
    if anti_t_mask.any():
        anti_t = t[anti_t_mask].reset_index(drop=True)
        tb = pa.Table.from_pandas(
            pd.DataFrame({f"{ta}.{c}": anti_t[c].to_numpy()
                          for c in target.columns}), preserve_index=False)
        claimed = np.zeros(len(anti_t), dtype=bool)
        for arm in stmt.whens:
            if arm.matched != "not_matched_by_source":
                continue
            m = np.ones(len(anti_t), dtype=bool) if arm.condition is None \
                else np.asarray(ev.eval_mask(arm.condition, tb))
            m = m & ~claimed
            claimed |= m
            rows = np.where(m)[0]
            if not len(rows):
                continue
            if arm.action == "delete":
                deletes.update(int(anti_t["__tid"].iloc[i]) for i in rows)
            else:
                for name, expr in arm.assignments:
                    col = tmap.get(name.lower())
                    if col is None:
                        raise ValueError(
                            f"MERGE UPDATE SET: unknown target column {name!r}")
                    vals = ev.eval(expr, tb)
                    vals = vals.to_pandas().to_numpy() \
                        if isinstance(vals, (pa.Array, pa.ChunkedArray)) \
                        else np.full(len(anti_t), vals, dtype=object)
                    for i in rows:
                        updates.setdefault(
                            int(anti_t["__tid"].iloc[i]), {})[col] = vals[i]

    # ---- assemble tagged final state -------------------------------------
    out = target.reset_index(drop=True).copy()
    action = np.full(len(out), "k", dtype=object)
    for tid, cols in updates.items():
        action[tid] = "u"
        for col, val in cols.items():
            out.at[tid, col] = val
    if deletes:
        action[list(deletes)] = "d"
    out[_ACTION] = action
    if inserts:
        for new in inserts:
            new[_ACTION] = "i"
        # column-union concat: an EMPTY target still contributes its
        # schema, and all-NA insert columns are pre-typed (no deprecated
        # empty/all-NA dtype inference) — see upsert.concat_union
        from .upsert import concat_union

        out = concat_union([out] + inserts)
    return out


def merge_into_parquet(session, stmt: A.Merge) -> pa.Table:
    from ..sqlc.compiler import _env as compiler_env

    path = session.resolve_table_path(session.expand_vars(stmt.target))
    if os.path.exists(os.path.join(path, "manifest.json")):
        # exactly-once CDC lake target: actions become one LWW txn
        return merge_into_lake(session, stmt, path)
    src_ds = session.compiler.compile_query(stmt.source)
    if not os.path.exists(path):
        raise ValueError(f"MERGE target {stmt.target!r} does not exist")
    base = os.path.splitext(os.path.basename(stmt.target))[0]
    ta = stmt.target_alias or base
    sa = stmt.source_alias or "src"
    env = compiler_env(session)

    # route to the distributed path when EITHER side is big: a 10 TB CDC
    # source merged into a 100 MB dimension table must never materialize
    # the source on the driver (the distributed path streams the source
    # through the bucket shuffle; driver memory stays O(batch)).
    # Schema FIRST: materializing an all-empty source stores zero-column
    # blocks; when even the lazy plan has no schema (a filtered-empty
    # compiled query) the compiler's declared output columns survive on
    # the dataset as _qwery_columns.
    lazy_schema = _lazy_source_schema(src_ds)
    src_ds = src_ds.materialize()
    big_target = _path_bytes(path) > MERGE_DISTRIBUTED_BYTES
    big_source = (src_ds.size_bytes() or 0) > MERGE_DISTRIBUTED_BYTES
    if big_target or big_source:
        try:
            return _merge_distributed(stmt, path, src_ds, ta, sa, env,
                                      sschema_hint=lazy_schema)
        except MergeUniqueKeyError:
            # fall back ONLY on the unique-key precondition (a dedicated
            # type, not message matching); any other error (cardinality
            # violation, bad arms …) must fail fast — retrying on the
            # driver path would collect the whole source just to hit the
            # same error
            if big_target:
                raise
            # big source into a SMALL duplicate-key target: the
            # distributed path's unique-key precondition failed, and only
            # the driver path can tell value-identical target rows apart —
            # documented limitation: this fallback collects the source.

    src = _collect(src_ds)
    if src.shape[1] == 0:
        # empty source: _collect saw no batches, so recover the column
        # names from the pre-materialization schema (an all-arms merge
        # against an empty source is still well-defined — NOT MATCHED BY
        # SOURCE fires)
        names = list(lazy_schema.names) if lazy_schema is not None else []
        src = pd.DataFrame({n: pd.Series([], dtype="object") for n in names})
    # ArrowDtype read: plain to_pandas() flips int64-with-NULL to float64
    # and the rewrite would silently change the FILE's column type
    target = pq.read_table(path).to_pandas(types_mapper=pd.ArrowDtype)

    tagged = _apply_merge(target, src, stmt, ta, sa, env)
    n_ins = int((tagged[_ACTION] == "i").sum())
    n_upd = int((tagged[_ACTION] == "u").sum())
    n_del = int((tagged[_ACTION] == "d").sum())
    out = tagged[tagged[_ACTION] != "d"].drop(columns=[_ACTION])
    tmp = path + ".tmp"
    pq.write_table(pa.Table.from_pandas(out.reset_index(drop=True),
                                        preserve_index=False), tmp)
    os.replace(tmp, path)  # atomic visibility point
    return pa.table({"ROWS_INSERTED": [n_ins], "ROWS_UPDATED": [n_upd],
                     "ROWS_DELETED": [n_del], "ROWS_REJECTED": [0]})


def _path_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(r, f))
                   for r, _, fs in os.walk(path) for f in fs)
    return os.path.getsize(path)
def _split_on_keys(stmt: A.Merge, ta: str, sa: str, tschema: pa.Schema,
                   sschema: pa.Schema):
    tcols = {f.lower() for f in tschema.names}
    scols = {f.lower() for f in sschema.names}
    tmap = {f.lower(): f for f in tschema.names}
    smap = {f.lower(): f for f in sschema.names}
    keys, _ = _split_on(stmt, ta, sa, tcols, scols, tmap, smap)
    return [k[0] for k in keys], [k[1] for k in keys]


def _tagged_merge_core(stmt: A.Merge, ds_t, tschema: pa.Schema,
                       sschema: pa.Schema, src_mat, ta: str, sa: str,
                       env: dict, tkeys, skeys):
    """The distributed MERGE core, target-agnostic: widen target and
    source to ONE combined schema (target columns + ``__s_``-prefixed
    source columns + int8 presence markers), union the two streams,
    bucket by the polars value-stable hash of the COALESCEd ON key, and
    run :func:`_apply_merge` per bucket — key equality makes every MERGE
    decision (pairing, residual, cardinality, all arms) bucket-local, so
    the per-bucket result is exactly the driver path's. ONE all-to-all
    shuffle total (the groupby); no join operator. Returns the tagged
    dataset (target schema + ``__mrg_action``)."""
    import ray

    from ..ops.dedup import _drop_empty_blocks
    from ..sqlc.compiler import AddBucketCol

    if src_mat.count() == 0:
        # EMPTY source: matched / not-matched arms can never fire — only
        # NOT MATCHED BY SOURCE applies, to EVERY target row. That is a
        # per-batch map (no pairing, no shuffle): run _apply_merge per
        # target batch against an empty source frame. Also sidesteps the
        # zero-column empty blocks a materialized empty source carries
        # (Ray skips map UDFs on empty blocks, so widen_s could never
        # repair them before the bucket groupby).
        empty_src = pd.DataFrame(
            {f.name: pd.Series([], dtype="object") for f in sschema})
        nm_schema = pa.schema(list(tschema) + [pa.field(_ACTION,
                                                        pa.string())])

        def nmbs_batch(t: pa.Table) -> pa.Table:
            # ArrowDtype round-trip: plain to_pandas() flips
            # int64-with-NULL to float64 and silently corrupts values
            # >= 2^53 in the rewritten file
            tagged = _apply_merge(t.to_pandas(types_mapper=pd.ArrowDtype),
                                  empty_src, stmt, ta, sa, env)
            return pa.Table.from_pandas(tagged, schema=nm_schema,
                                        preserve_index=False)

        return ds_t.map_batches(nmbs_batch,
                                batch_format="pyarrow").materialize()

    tfields = [(f.name, f.type) for f in tschema]
    sfields = [(f.name, f.type) for f in sschema]
    order = [n for n, _ in tfields] + ["__t1"] \
        + [f"__s_{n}" for n, _ in sfields] + ["__s1"]

    def widen_t(t: pa.Table) -> pa.Table:
        n = len(t)
        cols = {name: t.column(name) for name, _ in tfields}
        cols["__t1"] = pa.array(np.ones(n, dtype=np.int8))
        for name, typ in sfields:
            cols[f"__s_{name}"] = pa.nulls(n, typ)
        cols["__s1"] = pa.nulls(n, pa.int8())
        return pa.table({k: cols[k] for k in order})

    def widen_s(t: pa.Table) -> pa.Table:
        n = len(t)
        cols = {name: pa.nulls(n, typ) for name, typ in tfields}
        cols["__t1"] = pa.nulls(n, pa.int8())
        for name, _ in sfields:
            cols[f"__s_{name}"] = t.column(name)
        cols["__s1"] = pa.array(np.ones(n, dtype=np.int8))
        return pa.table({k: cols[k] for k in order})

    def add_bucket_key(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        for i, (tk, sk) in enumerate(zip(tkeys, skeys)):
            t = t.append_column(
                f"__bk{i}",
                pc.coalesce(t.column(tk), t.column(f"__s_{sk}")))
        return t

    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    nbuckets = max(32, ncpu * 4)
    bkcols = [f"__bk{i}" for i in range(len(tkeys))]
    unioned = ds_t.map_batches(widen_t, batch_format="pyarrow") \
        .union(src_mat.map_batches(widen_s, batch_format="pyarrow")) \
        .map_batches(add_bucket_key, batch_format="pyarrow") \
        .map_batches(AddBucketCol(bkcols, nbuckets, "__mb"),
                     batch_format="pyarrow")

    out_schema = pa.schema(list(tschema) + [pa.field(_ACTION, pa.string())])
    t_names = [n for n, _ in tfields]
    s_names = [n for n, _ in sfields]

    def merge_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tmask = pc.is_valid(g.column("__t1"))
        smask = pc.is_valid(g.column("__s1"))
        # ArrowDtype round-trip (same reason as the driver path's
        # target read): null-bearing int64 columns must not launder
        # through float64 on the way into _apply_merge
        tpart = g.filter(tmask).select(t_names) \
            .to_pandas(types_mapper=pd.ArrowDtype)
        spart = g.filter(smask) \
            .select([f"__s_{n}" for n in s_names]).rename_columns(s_names) \
            .to_pandas(types_mapper=pd.ArrowDtype)
        tagged = _apply_merge(tpart, spart, stmt, ta, sa, env)
        return pa.Table.from_pandas(tagged, schema=out_schema,
                                    preserve_index=False)

    return _drop_empty_blocks(
        unioned.groupby("__mb").map_groups(
            merge_bucket, batch_format="pyarrow").materialize())


def _lazy_source_schema(src_ds):
    """Best pre-materialization schema for a compiled source: the lazy
    plan's schema, else a null-typed schema from the compiler's declared
    output columns (enough for the empty-source path, which only needs
    NAMES)."""
    sch = src_ds.schema(fetch_if_missing=True)
    if sch is not None:
        return sch
    cols = getattr(src_ds, "_qwery_columns", None)
    if cols:
        return pa.schema([pa.field(c, pa.null()) for c in cols])
    return None


def _source_schema(src_mat, hint) -> pa.Schema:
    """The source's Arrow schema, falling back to the PRE-materialization
    hint: an all-empty materialized source stores zero-column blocks, so
    the lazy plan is the only place the column names survive."""
    s_base = src_mat.schema(fetch_if_missing=True)
    sschema = getattr(s_base, "base_schema", s_base) \
        if s_base is not None else pa.schema([])
    if (sschema is None or not sschema.names) and hint is not None:
        sschema = getattr(hint, "base_schema", hint)
    return sschema if sschema is not None else pa.schema([])


def _merge_distributed(stmt: A.Merge, path: str, src_ds, ta: str, sa: str,
                       env: dict, sschema_hint=None) -> pa.Table:
    """Hash-bucketed distributed MERGE for large FILE targets — see
    :func:`_tagged_merge_core` for the shape. Final rows stream back
    through ``iter_batches`` into the output file, so driver memory stays
    O(batch), never O(target).

    Requires unique non-null target ON keys (checked distributed): with
    duplicate target keys, two physically distinct but value-identical
    target rows in one bucket cannot be told apart without driver-side
    row identity. Those targets use the small path / lake engine."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ..ops.dedup import _drop_empty_blocks

    if os.path.isdir(path):
        raise ValueError(
            "MERGE INTO a plain directory target is not supported — large "
            "multi-file targets belong in the lake engine (UPSERT ... "
            "WITH LAKE, or MERGE INTO a lake directory with manifest)")
    tschema = pq.read_schema(path)
    ds_t = rd.read_parquet(path)
    src_mat = _drop_empty_blocks(src_ds.materialize())
    sschema = _source_schema(src_mat, sschema_hint)
    tkeys, skeys = _split_on_keys(stmt, ta, sa, tschema, sschema)

    # ---- unique-key precondition (column-pruned, distributed) -----------
    def key_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        valid = pc.is_valid(t.column(tkeys[0]))
        for k in tkeys[1:]:
            valid = pc.and_(valid, pc.is_valid(t.column(k)))
        return t.filter(valid)

    kcounts = rd.read_parquet(path, columns=tkeys) \
        .map_batches(key_rows, batch_format="pyarrow") \
        .groupby(tkeys).count()
    if (kcounts.max("count()") or 0) > 1:
        raise MergeUniqueKeyError(
            "distributed MERGE requires unique target ON keys — this "
            "target has duplicate non-null key rows; run it through the "
            "lake engine (UPSERT ... WITH LAKE) or shrink the target "
            "below MERGE_DISTRIBUTED_BYTES")

    tagged_ds = _tagged_merge_core(stmt, ds_t, tschema, sschema, src_mat,
                                   ta, sa, env, tkeys, skeys)

    # stream the final rows to disk; counts fold batch-by-batch — driver
    # memory is O(batch) regardless of target size
    counts = {"i": 0, "u": 0, "d": 0, "k": 0}
    tmp = path + ".tmp"
    writer = None
    try:
        for b in tagged_ds.iter_batches(batch_size=65536,
                                        batch_format="pyarrow"):
            acts = b.column(_ACTION)
            vc = pc.value_counts(acts)
            for a, n in zip(vc.field("values").to_pylist(),
                            vc.field("counts").to_pylist()):
                counts[a] += n
            keep = b.filter(pc.not_equal(acts, "d")).drop_columns([_ACTION])
            if writer is None:
                writer = pq.ParquetWriter(tmp, keep.schema)
            writer.write_table(keep)
        if writer is None:  # fully-empty result: write an empty file
            writer = pq.ParquetWriter(tmp, tschema)
    finally:
        if writer is not None:
            writer.close()
    os.replace(tmp, path)  # atomic visibility point
    return pa.table({"ROWS_INSERTED": [counts["i"]],
                     "ROWS_UPDATED": [counts["u"]],
                     "ROWS_DELETED": [counts["d"]], "ROWS_REJECTED": [0]})


class _MergeLock:
    """The merge-exclusive advisory lock file ``<lake>/_merge.lock``.

    The holder writes an owner token (pid + uuid) into the file and
    touches it every ``STALE_S / 10`` seconds while it holds it, so a live
    holder never looks stale however long its merge runs. A waiter breaks a
    lock only if it is older than ``STALE_S`` (its holder crashed) and
    still holds the token the waiter first read; a release removes the
    file only if it still holds our own token, so a holder whose lock was
    broken never deletes its successor's lock."""

    STALE_S = 300.0
    WAIT_S = 60.0
    POLL_S = 0.2

    def __init__(self, path: str):
        self.path = path
        self.token = f"{os.getpid()}-{uuid.uuid4().hex}"
        self._stop = None

    def _read(self):
        try:
            with open(self.path) as f:
                return f.read()
        except FileNotFoundError:
            return None

    def _age(self) -> float:
        try:
            return time.time() - os.path.getmtime(self.path)
        except FileNotFoundError:
            return 0.0

    def acquire(self) -> None:
        deadline = time.monotonic() + self.WAIT_S
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                held = self._read()
                if held is not None and self._age() > self.STALE_S \
                        and self._read() == held:
                    try:
                        os.remove(self.path)  # stale: holder crashed
                    except FileNotFoundError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"MERGE INTO lake: could not acquire {self.path} — "
                        f"another merge holds it ({held!r}); remove the "
                        f"lock file if its holder is gone")
                time.sleep(self.POLL_S)
                continue
            with os.fdopen(fd, "w") as f:
                f.write(self.token)
            return

    def release(self) -> None:
        if self._read() == self.token:
            try:
                os.remove(self.path)
            except FileNotFoundError:
                pass

    def _heartbeat(self) -> None:
        while not self._stop.wait(self.STALE_S / 10):
            if self._read() != self.token:
                return
            try:
                os.utime(self.path)
            except OSError:
                return

    def __enter__(self) -> "_MergeLock":
        self.acquire()
        self._stop = threading.Event()
        threading.Thread(target=self._heartbeat, daemon=True).start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self.release()


def merge_into_lake(session, stmt: A.Merge, path: str) -> pa.Table:
    """ANSI MERGE INTO an exactly-once CDC LAKE target (r5 superset).

    Semantics: the merge runs against the lake's CURRENT committed LWW
    snapshot, co-partitioned with it (see :func:`_co_partitioned_merge`):
    only the source is shuffled, and only the lake partitions and keys the
    source can reach are read. The resulting actions become ONE transaction
    of LWW events — updates and inserts as ``upsert`` rows, deletes as
    ``delete`` tombstones — with fresh LSNs above the watermark, replayed
    through the lake engine (OCC, deltas, time travel all apply). The ON
    keys must be exactly the lake's key columns; unchanged keys produce no
    events. Reference parity: ops/sql/Upsert.scala is the row-at-a-time
    ancestor; the arms are the SQL:2003 superset."""
    from ..ops.dedup import _drop_empty_blocks
    from ..sqlc.compiler import _env as compiler_env
    from .engine import CDCLakeEngine

    eng = CDCLakeEngine.open(path)
    tname = os.path.basename(os.path.normpath(stmt.target)) or "t"
    ta = stmt.target_alias or tname
    sa = stmt.source_alias or "src"
    env = compiler_env(session)
    src_ds = session.compiler.compile_query(stmt.source)
    lazy_schema = _lazy_source_schema(src_ds)
    src_mat = _drop_empty_blocks(src_ds.materialize())

    # Optimistic concurrency: the merge computes against the snapshot at
    # watermark ``wm`` and stamps its events wm+1…; replay applies
    # ALL-OR-NOTHING via expect_watermark (its return carries an explicit
    # __stale marker — a SPAN match in someone else's lineage must never
    # read as "ours committed"), and a merge-exclusive advisory lock
    # serializes concurrent lake MERGEs (two merges passing the
    # expect-check in the same window would last-rename-wins clobber one
    # manifest). Non-merge writers (UPSERT … WITH LAKE) are still free:
    # their commits flip the watermark and this loop recomputes.
    with _MergeLock(os.path.join(path, "_merge.lock")):
        return _run_lake_merge_attempts(stmt, eng, ta, sa, env, src_mat,
                                        _source_schema(src_mat, lazy_schema))


def _run_lake_merge_attempts(stmt, eng, ta, sa, env, src_mat,
                             sschema) -> pa.Table:
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from .upsert import block_offsets

    for _attempt in range(5):
        m0 = eng.load_manifest()
        wm = int(m0["watermark_lsn"])
        tschema = eng.schema(m0)
        tkeys, skeys = _split_on_keys(stmt, ta, sa, tschema, sschema)
        if {k.lower() for k in tkeys} != {k.lower() for k in eng.key_cols}:
            raise ValueError(
                f"MERGE INTO a lake target must join on exactly the lake "
                f"key columns {eng.key_cols}, got {tkeys}")
        skey_of = {t.lower(): s for t, s in zip(tkeys, skeys)}
        changes = _co_partitioned_merge(
            stmt, eng, m0, tschema, sschema, src_mat, ta, sa, env,
            [skey_of[k.lower()] for k in eng.key_cols])
        n_changed = changes.count() if changes is not None else 0
        counts = {"i": 0, "u": 0, "d": 0}
        if n_changed == 0:
            break  # no events → nothing to commit, race-free by nature

        # fresh LSNs above the watermark via per-block offsets (shared
        # primitive with the UPSERT pre-reduce; unknown counts resolve by
        # remote len() — rows never leave the object store)
        pairs = block_offsets(changes)

        @ray.remote(num_returns=2)
        def to_events(block, off: int, wm: int = wm):
            if not isinstance(block, pa.Table):
                block = pa.Table.from_pandas(block, preserve_index=False)
            acts = block.column(_ACTION)
            vc = pc.value_counts(acts)
            op = pc.if_else(pc.equal(acts, "d"),
                            pa.scalar("delete"), pa.scalar("upsert"))
            drop = [_ACTION] + (["lsn"] if "lsn" in block.column_names
                                else [])
            block = block.drop_columns(drop)
            lsns = np.arange(off, off + len(block), dtype=np.int64) + wm + 1
            return (block.append_column("lsn", pa.array(lsns))
                    .append_column("op", op),
                    dict(zip(vc.field("values").to_pylist(),
                             vc.field("counts").to_pylist())))

        refs = [to_events.remote(r, o) for r, o in pairs]
        for block_counts in ray.get([c for _, c in refs]):
            for a, n in block_counts.items():
                counts[a] += n
        ev = rd.from_arrow_refs([e for e, _ in refs])
        staging = tempfile.mkdtemp(prefix="qwery_merge_events_")
        try:
            ev.write_parquet(staging)
            # all-or-nothing: replay aborts (applies NOTHING) if the
            # watermark moved — a concurrent commit can never cause a
            # partial application of this merge's events
            m2 = eng.replay(staging, expect_watermark=wm)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        # lineage spans are (lo = previous watermark exclusive, hi];
        # __stale = replay explicitly applied nothing (stale snapshot)
        if not m2.get("__stale") and any(
                int(t["lo"]) == wm and int(t["hi"]) == wm + n_changed
                for t in m2.get("lineage", [])):
            break  # our transaction committed
    else:
        raise RuntimeError(
            "MERGE INTO lake: lost the optimistic-concurrency race 5 "
            "times — another writer keeps committing; retry the merge")
    return pa.table({"ROWS_INSERTED": [counts["i"]],
                     "ROWS_UPDATED": [counts["u"]],
                     "ROWS_DELETED": [counts["d"]],
                     "ROWS_REJECTED": [0]})


def _conform(t, schema: pa.Schema) -> pa.Table:
    """``t`` (a table or None) with exactly ``schema``'s columns in its
    order: columns it lacks become NULL, the others are cast."""
    import pyarrow.compute as pc

    n = t.num_rows if t is not None else 0
    cols = []
    for f in schema:
        if t is not None and f.name in t.column_names:
            c = t.column(f.name)
            cols.append(c if c.type == f.type else pc.cast(c, f.type))
        else:
            cols.append(pa.nulls(n, f.type))
    return pa.Table.from_arrays(cols, schema=schema)


def _co_partitioned_merge(stmt: A.Merge, eng, manifest: dict,
                          tschema: pa.Schema, sschema: pa.Schema, src_mat,
                          ta: str, sa: str, env: dict, skeys: list):
    """The lake MERGE core, co-partitioned with the lake: each source row
    is tagged with its lake partition id (the replay's key hash over the
    source ON-key columns ``skeys``, in lake key order and cast to the
    lake's key types), and ``groupby(pid).map_groups`` runs one
    :func:`_apply_merge` per touched partition. Key equality makes every
    MERGE decision partition-local, including the ANSI cardinality check
    and the duplicate-insert check. A task reads only its partition's base
    and delta files, keeps only the rows whose key is in its source slice,
    resolves them and widens them to the lake schema ``tschema``. A ``NOT
    MATCHED BY SOURCE`` arm can reach every row, so then every partition
    runs unpruned (one marker row per partition joins the stream). Only
    the source is shuffled, never the lake. Returns the materialized
    changed rows (``tschema`` + ``__mrg_action``), or None when no task
    has anything to do."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ..ops.dedup import _drop_empty_blocks
    from .engine import joined_key, key_hash_partition_cols, \
        resolve_with_deltas

    key_cols = list(eng.key_cols)
    key_types = [tschema.field(k).type for k in key_cols]
    nparts = int(manifest.get("num_partitions") or eng.num_partitions)
    lake_dir = eng.lake_dir
    files = {int(pid): [info["file"]] + [d["file"] for d in
                                         info.get("deltas") or []]
             for pid, info in manifest["partitions"].items()
             if info.get("file")}
    reach_all = any(arm.matched == "not_matched_by_source"
                    for arm in stmt.whens)

    def source_keys(t: pa.Table) -> list:
        out = []
        for sk, typ in zip(skeys, key_types):
            c = t.column(sk)
            try:
                out.append(c if c.type == typ else pc.cast(c, typ))
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as exc:
                raise ValueError(
                    f"MERGE INTO lake: source key {sk!r} ({c.type}) does "
                    f"not cast to the lake key type {typ}: {exc}") from exc
        return out

    def tag(t: pa.Table) -> pa.Table:
        t = _conform(t, sschema)
        pid = key_hash_partition_cols(source_keys(t), nparts)
        return t.append_column("__pid", pa.array(pid)) \
            .append_column("__src", pa.array(np.ones(len(t), np.int8)))

    streams = []
    if src_mat.count():
        streams.append(src_mat.map_batches(tag, batch_format="pyarrow"))
    if reach_all and files:
        pids = sorted(files)
        streams.append(rd.from_arrow(pa.table(
            {**{f.name: pa.nulls(len(pids), f.type) for f in sschema},
             "__pid": pa.array(pids, pa.int64()),
             "__src": pa.nulls(len(pids), pa.int8())})))
    if not streams:
        return None
    tagged = streams[0].union(*streams[1:]) if len(streams) > 1 \
        else streams[0]
    out_schema = pa.schema(list(tschema) + [pa.field(_ACTION, pa.string())])

    def merge_partition(g: pa.Table) -> pa.Table:
        pid = int(g.column("__pid")[0].as_py())
        src = g.filter(pc.is_valid(g.column("__src"))).select(sschema.names)
        keep = None if reach_all else joined_key(source_keys(src))
        tabs = []
        for rel in files.get(pid, []):
            t = pq.read_table(os.path.join(lake_dir, rel))
            if keep is not None:
                t = t.filter(pc.is_in(
                    joined_key([t.column(k) for k in key_cols]),
                    value_set=keep))
            tabs.append(t)
        cur = resolve_with_deltas(tabs[0], tabs[1:], key_cols) \
            if tabs else None
        # ArrowDtype round-trip: plain to_pandas() flips int64-with-NULL
        # to float64 and silently corrupts values >= 2^53
        tagged = _apply_merge(
            _conform(cur, tschema).to_pandas(types_mapper=pd.ArrowDtype),
            src.to_pandas(types_mapper=pd.ArrowDtype), stmt, ta, sa, env)
        changed = tagged[tagged[_ACTION] != "k"]
        if changed[changed[_ACTION] == "i"].duplicated(subset=key_cols).any():
            # a keyed lake cannot hold duplicate keys: two NOT MATCHED
            # inserts for the same key would silently LWW-collapse to one
            # row while counts said two (the file path inserts both)
            raise ValueError(
                "MERGE INTO lake: duplicate source keys on NOT MATCHED "
                "inserts — a keyed lake cannot hold duplicate keys; dedup "
                "the source first")
        return pa.Table.from_pandas(changed, schema=out_schema,
                                    preserve_index=False)

    return _drop_empty_blocks(
        tagged.groupby("__pid").map_groups(
            merge_partition, batch_format="pyarrow").materialize())
