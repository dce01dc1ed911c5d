"""MERGE INTO execution (ANSI SQL:2003 three-arm merge).

Superset over the reference's UPSERT/UPDATE row-at-a-time semantics
(ops/sql/Upsert.scala:14-32, Update.scala:19-45): one statement expresses
insert-else-update-else-delete with per-arm conditions, the canonical CDC
apply step.

Scale contract: the SOURCE is always a full distributed query. The TARGET
path is adaptive:

- below :data:`MERGE_DISTRIBUTED_BYTES` the target parquet materializes
  driver-side and the whole merge is one :func:`_apply_merge` call over
  Arrow tables (dimension-table scale, atomic single-file replace);
- above it, the merge runs DISTRIBUTED: target and source are widened to
  one combined schema with presence markers, hash-bucketed by the ON equi
  key (one shuffle, no join operator), and each bucket runs the identical
  :func:`_apply_merge` semantics in a ``groupby(bucket).map_groups`` task.
  The driver never materializes the target — final rows stream back
  batch-by-batch into the output file. Targets with duplicate ON keys
  merge on both paths: :func:`_apply_merge` tells target rows apart by
  position, within the whole table or within a bucket.

A LAKE target (a directory with ``manifest.json``) merges
CO-PARTITIONED with the lake (:func:`_co_partitioned_merge`): each source
row is tagged with the lake partition its key hashes to, and one
``groupby(pid).map_groups`` task per touched partition reads only that
partition's files and only the rows whose key the source names, then runs
the same :func:`_apply_merge`. Work scales with the partitions and keys
the source reaches; only the source is shuffled, never the lake. A ``NOT
MATCHED BY SOURCE`` arm can reach every row, so it reads the whole lake.
The changed rows commit as ONE exactly-once transaction of LWW events
through ``CDCLakeEngine.replay(expect_watermark=wm)``, where ``wm`` is the
snapshot's watermark. The lake validates ``wm`` once, at the commit point
under its commit lock, and raises ``CommitConflict`` having applied nothing
if another writer committed first; the MERGE then recomputes against the
new snapshot. Concurrent MERGEs need no lock of their own.

ANSI semantics implemented (every path — the bucket and partition tasks
call the same function the driver path does):
- ON must contain at least one target-column = source-column equality;
  remaining conjuncts become a residual filter on the joined pairs. The
  equi keys pair rows through :func:`qwery_ray.cdc.upsert._pair_keys`, so
  a NULL key equals a NULL key (unlike ANSI ``NULL = NULL``), and
  ``(1, NULL)`` differs from ``(2, NULL)``.
- A target row matched by MORE than one source row raises a cardinality
  violation (SQL:2003 14.9 GR 6b — nondeterministic update otherwise).
- WHEN arms evaluate in statement order; the FIRST arm whose condition
  holds acts on the row; later arms never see it. An arm's expressions
  are evaluated over the rows it acts on only.
- NOT MATCHED [BY TARGET] sees source rows with no surviving pair;
  NOT MATCHED BY SOURCE (T-SQL/Databricks extension) sees target rows
  with no surviving pair.
- Updated values are cast to the target column's type; inserted rows join
  the target under the single-file writer's schema policy (column union,
  permissive numeric widening). Rewritten files carry no pandas schema
  metadata.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sqlc import ast as A
from ..sqlc.asof import PadToSchema
from .upsert import _as_array, _collect_table, _pair_keys, _replace_file, \
    _scatter, _union

#: target files above this byte size merge distributed (hash-bucketed
#: map_groups) instead of materializing on the driver. Tests monkeypatch
#: the module global, so read it at call time.
MERGE_DISTRIBUTED_BYTES = 256 << 20

_ACTION = "__mrg_action"  # k=kept, u=updated, d=deleted, i=inserted


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


def _apply_merge(target: pa.Table, src: pa.Table, stmt: A.Merge,
                 ta: str, sa: str, env: dict) -> pa.Table:
    """The full ANSI merge over two in-memory tables → the final target
    rows (target schema) plus an ``__mrg_action`` tag column
    (k/u/d/i; deleted rows are RETAINED and tagged so callers can both
    count and drop them), inserted rows last. Pure function of its
    inputs — the driver path calls it once with the whole table, the
    distributed paths call it per key-hash bucket or lake partition
    (key-equality makes the semantics bucket-local)."""
    from ..sqlc.compiler import make_evaluator

    ev = make_evaluator(env)
    tcols = {c.lower() for c in target.column_names}
    scols = {c.lower() for c in src.column_names}
    tmap = {c.lower(): c for c in target.column_names}
    smap = {c.lower(): c for c in src.column_names}
    keys, residual = _split_on(stmt, ta, sa, tcols, scols, tmap, smap)

    def qualified(t_rows=None, s_rows=None) -> pa.Table:
        """The chosen target and/or source rows under alias-qualified
        names (resolve_column's suffix fallback finds bare names)."""
        data = {}
        if t_rows is not None:
            rows = pa.array(t_rows)
            data.update((f"{ta}.{c}", target.column(c).take(rows))
                        for c in target.column_names)
        if s_rows is not None:
            rows = pa.array(s_rows)
            data.update((f"{sa}.{c}", src.column(c).take(rows))
                        for c in src.column_names)
        return pa.table(data)

    def first_match(kind: str, batch: pa.Table):
        """(arm, selected batch rows) for every ``kind`` arm in statement
        order: the FIRST arm whose condition holds claims the row."""
        claimed = np.zeros(len(batch), dtype=bool)
        for arm in stmt.whens:
            if arm.matched != kind:
                continue
            m = ~claimed if arm.condition is None \
                else np.asarray(ev.eval_mask(arm.condition, batch)) & ~claimed
            claimed |= m
            rows = np.flatnonzero(m)
            if len(rows):
                yield arm, rows

    action = np.full(len(target), "k", dtype="<U1")
    updates: dict[str, list] = {}  # target column -> [(rows, values)]

    def act(arm, batch: pa.Table, rows: np.ndarray, tids: np.ndarray):
        if arm.action == "delete":
            action[tids] = "d"
            return
        action[tids] = "u"
        sel = batch.take(pa.array(rows))
        for name, expr in arm.assignments:
            col = tmap.get(name.lower())
            if col is None:
                raise ValueError(
                    f"MERGE UPDATE SET: unknown target column {name!r}")
            updates.setdefault(col, []).append(
                (tids, _as_array(ev.eval(expr, sel), len(sel))))

    # ---- candidate pairs (null-safe equi join on the ON keys) ----------
    tid, sid = _pair_keys(target, [k[0] for k in keys],
                          src, [k[1] for k in keys])
    pbatch = qualified(tid, sid)
    if len(tid) and residual:
        mask = np.ones(len(tid), dtype=bool)
        for c in residual:
            mask &= np.asarray(ev.eval_mask(c, pbatch))
        tid, sid, pbatch = tid[mask], sid[mask], pbatch.filter(mask)

    # ---- ANSI cardinality check (tid is sorted) ------------------------
    dup = np.flatnonzero(tid[1:] == tid[:-1])
    if len(dup):
        raise ValueError(
            "MERGE cardinality violation: target row matched by multiple "
            f"source rows (target row index {int(tid[dup[0]])}) — "
            "SQL:2003 14.9")

    # ---- WHEN MATCHED arms (first match wins) ---------------------------
    if len(tid):
        for arm, rows in first_match("matched", pbatch):
            act(arm, pbatch, rows, tid[rows])

    # ---- WHEN NOT MATCHED (source side) --------------------------------
    inserts: list[pa.Table] = []
    anti_s = np.setdiff1d(np.arange(len(src)), sid)
    if len(anti_s):
        sb = qualified(s_rows=anti_s)
        for arm, rows in first_match("not_matched", sb):
            if arm.insert_values is None:  # INSERT * — map by name
                cols = {c: src.column(smap[c.lower()]).take(
                            pa.array(anti_s[rows]))
                        for c in target.column_names if c.lower() in smap}
            else:
                names = list(arm.insert_columns) or target.column_names
                if len(names) != len(arm.insert_values):
                    raise ValueError(
                        "MERGE INSERT: column/value count mismatch")
                sel = sb.take(pa.array(rows))
                cols = {}
                for cname, expr in zip(names, arm.insert_values):
                    col = tmap.get(cname.lower())
                    if col is None:
                        raise ValueError(
                            f"MERGE INSERT: unknown target column {cname!r}")
                    cols[col] = _as_array(ev.eval(expr, sel), len(sel))
            new = pa.table({c: cols.get(c, pa.nulls(len(rows)))
                            for c in target.column_names})
            inserts.append(new.append_column(
                _ACTION, pa.array(["i"] * len(rows), pa.string())))

    # ---- WHEN NOT MATCHED BY SOURCE (target side) -----------------------
    anti_t = np.setdiff1d(np.arange(len(target)), tid)
    if len(anti_t):
        tb = qualified(t_rows=anti_t)
        for arm, rows in first_match("not_matched_by_source", tb):
            act(arm, tb, rows, anti_t[rows])

    # ---- assemble tagged final state -------------------------------------
    out = target
    for col, parts in updates.items():
        typ = out.column(col).type
        if pa.types.is_null(typ):
            typ = parts[0][1].type
        out = _scatter(out, np.concatenate([r for r, _ in parts]), col,
                       pa.concat_arrays([v.cast(typ) for _, v in parts]))
    out = out.append_column(_ACTION, pa.array(action, pa.string()))
    return _union([out] + inserts) if inserts else out


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
    if _path_bytes(path) > MERGE_DISTRIBUTED_BYTES or \
            (src_ds.size_bytes() or 0) > MERGE_DISTRIBUTED_BYTES:
        return _merge_distributed(stmt, path, src_ds, ta, sa, env,
                                  sschema_hint=lazy_schema)

    src = _collect_table(src_ds)
    if not src.num_columns:
        # empty source: recover the column names from the
        # pre-materialization schema (an all-arms merge against an empty
        # source is still well-defined — NOT MATCHED BY SOURCE fires)
        src = _source_schema(src_ds, lazy_schema).empty_table()
    tagged = _apply_merge(pq.read_table(path), src, stmt, ta, sa, env)
    counts = _action_counts(tagged)
    _replace_file(tagged.filter(pc.not_equal(tagged.column(_ACTION), "d"))
                  .drop_columns([_ACTION]), path)
    return _counts_table(counts)


def _action_counts(tagged: pa.Table) -> dict:
    vc = pc.value_counts(tagged.column(_ACTION))
    return dict(zip(vc.field("values").to_pylist(),
                    vc.field("counts").to_pylist()))


def _counts_table(counts: dict) -> pa.Table:
    return pa.table({"ROWS_INSERTED": [counts.get("i", 0)],
                     "ROWS_UPDATED": [counts.get("u", 0)],
                     "ROWS_DELETED": [counts.get("d", 0)],
                     "ROWS_REJECTED": [0]})


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
    from ..sqlc.compiler import (AddBucketCol, _drop_empty_blocks,
                                 _shuffle_buckets)

    conform = PadToSchema(
        pa.schema(list(tschema) + [pa.field(_ACTION, pa.string())]))
    if src_mat.count() == 0:
        # EMPTY source: matched / not-matched arms can never fire — only
        # NOT MATCHED BY SOURCE applies, to EVERY target row. That is a
        # per-batch map (no pairing, no shuffle): run _apply_merge per
        # target batch against an empty source table. Also sidesteps the
        # zero-column empty blocks a materialized empty source carries
        # (Ray skips map UDFs on empty blocks, so widen_s could never
        # repair them before the bucket groupby).
        empty_src = sschema.empty_table()

        def nmbs_batch(t: pa.Table) -> pa.Table:
            return conform(_apply_merge(t, empty_src, stmt, ta, sa, env))

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
        for i, (tk, sk) in enumerate(zip(tkeys, skeys)):
            t = t.append_column(
                f"__bk{i}",
                pc.coalesce(t.column(tk), t.column(f"__s_{sk}")))
        return t

    nbuckets = _shuffle_buckets()
    bkcols = [f"__bk{i}" for i in range(len(tkeys))]
    unioned = ds_t.map_batches(widen_t, batch_format="pyarrow") \
        .union(src_mat.map_batches(widen_s, batch_format="pyarrow")) \
        .map_batches(add_bucket_key, batch_format="pyarrow") \
        .map_batches(AddBucketCol(bkcols, nbuckets, "__mb"),
                     batch_format="pyarrow")

    t_names = [n for n, _ in tfields]
    s_names = [n for n, _ in sfields]

    def merge_bucket(g: pa.Table) -> pa.Table:
        tpart = g.filter(pc.is_valid(g.column("__t1"))).select(t_names)
        spart = g.filter(pc.is_valid(g.column("__s1"))) \
            .select([f"__s_{n}" for n in s_names]).rename_columns(s_names)
        return conform(_apply_merge(tpart, spart, stmt, ta, sa, env))

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
    O(batch), never O(target). Duplicate target keys need no special
    case: :func:`_apply_merge` tells target rows apart by position within
    the bucket, as the driver path does within the whole table."""
    import ray.data as rd

    from ..sqlc.compiler import _drop_empty_blocks

    if os.path.isdir(path):
        raise ValueError(
            "MERGE INTO a plain directory target is not supported — large "
            "multi-file targets belong in the lake engine (UPSERT ... "
            "WITH LAKE, or MERGE INTO a lake directory with manifest)")
    tschema = pq.read_schema(path).remove_metadata()
    src_mat = _drop_empty_blocks(src_ds.materialize())
    sschema = _source_schema(src_mat, sschema_hint)
    tkeys, skeys = _split_on_keys(stmt, ta, sa, tschema, sschema)
    tagged_ds = _tagged_merge_core(stmt, rd.read_parquet(path), tschema,
                                   sschema, src_mat, ta, sa, env, tkeys,
                                   skeys)

    # stream the final rows to disk; counts fold batch-by-batch — driver
    # memory is O(batch) regardless of target size
    counts = {"i": 0, "u": 0, "d": 0, "k": 0}
    tmp = path + ".tmp"
    writer = None
    try:
        for b in tagged_ds.iter_batches(batch_size=65536,
                                        batch_format="pyarrow"):
            for a, n in _action_counts(b).items():
                counts[a] += n
            keep = b.filter(pc.not_equal(b.column(_ACTION), "d")) \
                .drop_columns([_ACTION])
            if writer is None:
                writer = pq.ParquetWriter(tmp, keep.schema)
            writer.write_table(keep)
        if writer is None:  # fully-empty result: write an empty file
            writer = pq.ParquetWriter(tmp, tschema)
    finally:
        if writer is not None:
            writer.close()
    os.replace(tmp, path)  # atomic visibility point
    return _counts_table(counts)


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
    from ..sqlc.compiler import _drop_empty_blocks, _env as compiler_env
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
    # watermark ``wm`` and stamps its events wm+1…. replay(expect_watermark=
    # wm) validates that watermark once, at the commit point under the
    # lake's commit lock, and raises CommitConflict having applied nothing
    # when any writer (another MERGE, UPSERT … WITH LAKE, a replay)
    # committed first; this loop then recomputes against the new snapshot.
    # Two MERGEs from one snapshot stamp the same txn name, so the check
    # also runs before replay's committed-txn short-circuits: the loser
    # must never take the winner's txn for its own.
    return _run_lake_merge_attempts(stmt, eng, ta, sa, env, src_mat,
                                    _source_schema(src_mat, lazy_schema))


def _run_lake_merge_attempts(stmt, eng, ta, sa, env, src_mat,
                             sschema) -> pa.Table:
    import shutil
    import tempfile

    import ray
    import ray.data as rd

    from .engine import CommitConflict
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
            eng.replay(staging, expect_watermark=wm)
            break  # our transaction committed
        except CommitConflict:
            continue  # applied nothing: recompute on the new snapshot
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    else:
        raise RuntimeError(
            "MERGE INTO lake: lost the optimistic-concurrency race 5 "
            "times — another writer keeps committing; retry the merge")
    return _counts_table(counts)


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
    import ray.data as rd

    from ..sqlc.compiler import _drop_empty_blocks
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

    conform_src = PadToSchema(sschema)

    def tag(t: pa.Table) -> pa.Table:
        t = conform_src(t)
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
    conform_t = PadToSchema(tschema)
    conform_out = PadToSchema(
        pa.schema(list(tschema) + [pa.field(_ACTION, pa.string())]))

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
            if tabs else tschema.empty_table()
        tagged = _apply_merge(conform_t(cur), src, stmt, ta, sa, env)
        acts = tagged.column(_ACTION)
        changed = tagged.filter(pc.not_equal(acts, "k"))
        inserted = tagged.filter(pc.equal(acts, "i")).select(key_cols)
        if len(inserted.group_by(key_cols).aggregate([])) < len(inserted):
            # a keyed lake cannot hold duplicate keys: two NOT MATCHED
            # inserts for the same key would silently LWW-collapse to one
            # row while counts said two (the file path inserts both)
            raise ValueError(
                "MERGE INTO lake: duplicate source keys on NOT MATCHED "
                "inserts — a keyed lake cannot hold duplicate keys; dedup "
                "the source first")
        return conform_out(changed)

    return _drop_empty_blocks(
        tagged.groupby("__pid").map_groups(
            merge_partition, batch_format="pyarrow").materialize())
