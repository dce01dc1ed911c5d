"""CDCLakeEngine — streaming replay of a change-event tail into a partitioned
Parquet lake with last-writer-wins semantics, additive schema evolution,
exactly-once two-phase commit, and per-partition checkpoint/lineage.

This is the Ray-Data-native generalization of the reference's
``UPSERT INTO ... KEYED ON`` (ops/sql/Upsert.scala:14-32 +
JDBCOutputSource.scala:62-104 insert-else-update) applied to a binlog/WAL tail
whose per-partition offset order (reference Record.offset,
core/devices/Record.scala:3; resume ≙ RandomAccessDevice.seek) becomes per-key
LSN order.

Pipeline per LSN chunk (one transaction):

    read_parquet(events, filter=lo<lsn<=hi)            # row-group pushdown
      → map_batches(CombineShuffleWrite)               # per-batch LWW combine
          writes each partition's slice to _staging/{txn}/shuffle/p{pid}/
          (map-side hash shuffle: fan-out file writes instead of a sort-based
          all-to-all of the full content payload)
      → one merge task per touched partition (MergePartitionFS):
          bounded incremental LWW reduce over the partition's shuffle slices
          → copy-on-write against the current lake file → staged write
      → driver: atomic manifest swap                   # the ONLY visibility point

The manifest-as-atomic-pointer + staged-files commit protocol follows the
public Delta Lake design (Armbrust et al., "Delta Lake: High-Performance ACID
Table Storage over Cloud Object Stores", VLDB 2020): mutators write data
files first, then commit by atomically advancing a log/manifest; readers only
ever see committed versions.

Exactly-once: the driver clears a txn's shuffle dir before any attempt, final
staged files are deterministically named by (txn, partition), and duplicate
(key, lsn) rows collapse in the LWW reduce — so Ray task retries cannot
double-apply; a txn id already in the manifest is skipped entirely, so
replaying a committed LSN range is a no-op (FIXTURES.md §5).

Scale notes (100 TB design): shuffle volume is bounded by the per-batch
combiner (distinct keys per batch, not raw events); hot keys collapse to one
winner per batch so no single reducer sees a key's full event volume; merge
tasks are embarrassingly parallel file rewrites with O(partition) state;
content bytes never cross the driver. On a multi-node cluster the shuffle
files live on the same shared store as the lake. P (num_partitions) sizes
both parallelism and the unit of recovery — use ≳ 4× total cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

KEY_COLS = ["repo", "path"]
MANIFEST = "manifest.json"


def key_hash_partition(repo: pa.ChunkedArray, path: pa.ChunkedArray,
                       num_partitions: int) -> np.ndarray:
    """Deterministic key → partition id, stable across runs/processes
    (no PYTHONHASHSEED dependence)."""
    return key_hash_partition_cols([repo, path], num_partitions)


def joined_key(cols) -> pa.Array:
    """n key columns → one string array: each value cast to string, the
    parts joined by NUL (NULL if any part is NULL). The partition hash is
    taken over it, and it is the key-membership value of the lake MERGE."""
    str_cols = [pc.cast(c, pa.string()) for c in cols]
    joined = str_cols[0] if len(str_cols) == 1 else \
        pc.binary_join_element_wise(*str_cols, "\x00")
    return joined.combine_chunks() if isinstance(joined, pa.ChunkedArray) \
        else joined


def key_hash_partition_cols(cols, num_partitions: int) -> np.ndarray:
    """Generalized n-column key → partition id."""
    import polars as pl

    # polars xxhash with a fixed seed: vectorized, value-stable across arrays
    # and processes (pandas hash_array is NOT value-stable across arrays;
    # Python hash() is process-salted)
    hashed = pl.from_arrow(joined_key(cols)).hash(seed=42).to_numpy()
    return (hashed % np.uint64(num_partitions)).astype(np.int64)


class PartialLww:
    """Per-batch combiner: keep only each key's max-LSN event in the batch and
    tag it with its lake partition. Runs before the shuffle, so shuffle volume
    is bounded by distinct-keys-per-batch, not event count."""

    def __init__(self, num_partitions: int):
        self.num_partitions = num_partitions

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.append_column("pkey", pa.array([], type=pa.int64()))
        pkey = key_hash_partition(batch.column("repo"), batch.column("path"),
                                  self.num_partitions)
        batch = batch.append_column("pkey", pa.array(pkey))
        idx = lww_winner_indices(batch)
        # take() keeps content zero-copy; only key+lsn columns were converted
        return batch.take(pa.array(idx))


class CombineShuffleWrite:
    """Map-side shuffle: per-batch LWW combine, then write each partition's
    slice straight to ``_staging/{txn}/shuffle/p{pid}/`` as parquet.

    This replaces a sort-based all-to-all of the full content payload with
    embarrassingly-parallel fan-out writes (the Spark/MR map-side shuffle
    shape) — on a multi-node cluster these files live on the shared store the
    lake already uses. File names are random; correctness under task retry
    comes from LWW idempotence: duplicate (key, lsn) rows collapse in the
    merge, and the driver clears the txn's shuffle dir before any attempt."""

    def __init__(self, num_partitions: int, shuffle_dir: str,
                 key_cols=tuple(KEY_COLS)):
        self.num_partitions = num_partitions
        self.shuffle_dir = shuffle_dir
        self.key_cols = list(key_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _shuffle_stats(0, 0)
        rows, files, fname, index = _combine_and_write(
            batch, self.num_partitions, self.shuffle_dir, self.key_cols)
        return _shuffle_stats(rows, files, self.shuffle_dir, fname, index)


class MultiTxnShuffleWrite:
    """Pipelined variant: ONE map pass covers several pending transactions.
    Rows are split by LSN range FIRST (so each txn's combiner sees only its
    own events — checkpoint-k state stays exactly 'replay of events ≤ hi_k'),
    then each span runs the normal combine-and-write into its own txn
    shuffle dir."""

    def __init__(self, num_partitions: int, spans, key_cols=tuple(KEY_COLS)):
        # spans: list of (lo, hi, shuffle_dir), ordered, non-overlapping
        self.num_partitions = num_partitions
        self.spans = spans
        self.key_cols = list(key_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _shuffle_stats(0, 0)
        lsn = batch.column("lsn").to_numpy(zero_copy_only=False)
        his = np.array([hi for _, hi, _ in self.spans])
        span_idx = np.searchsorted(his, lsn)  # lsn <= hi → this span
        parts = []
        for i, (_lo, _hi, sdir) in enumerate(self.spans):
            mask = span_idx == i
            if not mask.any():
                continue
            sub = batch.take(pa.array(np.flatnonzero(mask)))
            r, f, fname, index = _combine_and_write(
                sub, self.num_partitions, sdir, self.key_cols)
            parts.append(_shuffle_stats(r, f, sdir, fname, index))
        return pa.concat_tables(parts) if parts else _shuffle_stats(0, 0)


def _combine_and_write(batch: pa.Table, num_partitions: int,
                       shuffle_dir: str,
                       key_cols=tuple(KEY_COLS)) -> tuple[int, int]:
    """Per-batch LWW combine + one-file-per-task partitioned write.

    ONE file per call, ONE row group per partition present: the reducer
    prunes to its partition via the sidecar index, and the filesystem sees
    O(tasks) files, not O(tasks × partitions)."""
    import uuid

    pkey = key_hash_partition_cols(
        [batch.column(c) for c in key_cols], num_partitions)
    # one fused take: winner selection and pkey sort compose as index
    # permutations, so the content columns materialize ONCE (the map phase
    # is memory-bandwidth-bound; a second full take was ~a copy of the
    # whole stream per pass)
    win = lww_winner_indices(batch, key_cols)
    pk_win = pkey[win]
    order = np.argsort(pk_win, kind="stable")
    sorted_batch = batch.append_column("pkey", pa.array(pkey)) \
        .take(pa.array(win[order]))
    pk_sorted = pk_win[order]
    bounds = np.flatnonzero(np.diff(pk_sorted)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(pk_sorted)]])
    fname = os.path.join(shuffle_dir, f"task-{uuid.uuid4().hex[:12]}.parquet")
    tmp = fname + ".tmp"
    # codec is a bandwidth/CPU dial: zstd halves the bytes through the
    # shared store at ~10% more encode CPU — the right trade when the
    # store IS memory (tmpfs) and the box is bandwidth-saturated
    codec = os.environ.get("QWERY_SHUFFLE_CODEC", "lz4")
    writer = pq.ParquetWriter(tmp, sorted_batch.schema, compression=codec)
    index = {}
    for rg, (s, e) in enumerate(zip(starts, ends)):
        writer.write_table(sorted_batch.slice(s, e - s))
        index[int(pk_sorted[s])] = rg
    writer.close()
    os.replace(tmp, fname)
    # the pid → row-group index returns through the stats table; the driver
    # folds all tasks' entries into ONE per-txn index.json (no per-file
    # sidecar scans on the reduce side: O(1) metadata reads per merge task)
    return len(sorted_batch), len(starts), os.path.basename(fname), index


def _shuffle_stats(rows: int, files: int, sdir: str = "", fname: str = "",
                   index: Optional[dict] = None) -> pa.Table:
    return pa.table({
        "rows": pa.array([rows], type=pa.int64()),
        "files": pa.array([files], type=pa.int64()),
        "sdir": pa.array([sdir], type=pa.string()),
        "fname": pa.array([fname], type=pa.string()),
        "index_json": pa.array([json.dumps(index or {})], type=pa.string()),
    })


def lww_winner_indices(batch: pa.Table,
                       key_cols: list[str] = KEY_COLS) -> np.ndarray:
    """Row indices of each key's max-LSN event. Only (key cols, lsn) leave
    Arrow (into polars, zero-copy); payload columns are never converted.
    Duplicate (key, lsn) rows are identical by construction, so any-of-ties
    is deterministic in effect."""
    import polars as pl

    data = {c: pl.from_arrow(batch.column(c).combine_chunks())
            for c in key_cols}
    data["lsn"] = pl.from_arrow(batch.column("lsn").combine_chunks())
    df = pl.DataFrame(data).with_row_index("__i")
    win = df.sort("lsn").group_by(list(key_cols)).last()
    return np.sort(win["__i"].to_numpy())


@dataclass
class PartitionMetrics:
    partition_id: int
    staged_file: str
    rows: int
    last_lsn: int
    upserts: int
    deletes: int
    bytes_written: int


def resolve_with_deltas(base: Optional[pa.Table], deltas: list[pa.Table],
                        key_cols: list[str]) -> pa.Table:
    """Merge-on-read resolution: base rows (no ``op`` column) + delta files
    (LWW-reduced rows WITH ``op``) → the partition's current state. LSNs are
    strictly increasing across transactions, so one LWW pass over the concat
    is exact; delete winners drop out. Output is key-sorted (the same
    canonical order a copy-on-write base file has)."""
    if not deltas:
        if base is None:
            return pa.table({})
        return base
    tabs = []
    if base is not None and base.num_rows:
        tabs.append(base.append_column(
            "op", pa.array(["upsert"] * base.num_rows)))
    tabs.extend(d for d in deltas if d.num_rows)
    if not tabs:
        return pa.table({})
    t = _concat_evolving(tabs)
    win = t.take(pa.array(lww_winner_indices(t, key_cols)))
    out = win.filter(pc.not_equal(win.column("op"), "delete")) \
        .drop_columns(["op"])
    return out.sort_by([(c, "ascending") for c in key_cols])


class MergePartitionFS:
    """Reduce-side merge task: SEVERAL lake partitions per task.

    The per-txn ``index.json`` (written once by the driver from the map
    tasks' returned indexes) maps shuffle file → {pid: row group}; each
    merge task opens every shuffle file at most ONCE for its whole pid
    group (one footer parse serves all its partitions — the old
    one-task-per-pid × per-file .idx scan was O(files × partitions)
    metadata ops). The LWW reduce stays BOUNDED: files stream in
    ``merge_fanin`` chunks, per-pid state is O(distinct keys in the
    partition), never O(events). Then copy-on-write against the current
    lake file → staged write. Emits one metrics row per partition."""

    # merge-on-read policy (engine.merge_mode="auto"): a txn whose reduced
    # rows for a partition are under DELTA_MAX_RATIO of the partition's
    # resolved rows stages a DELTA file instead of rewriting the base
    # (copy-on-write cost grows with the lake:chunk ratio otherwise). The
    # base compacts when pending delta ROWS reach COMPACT_ROWS_RATIO of the
    # base — a rows-ratio trigger makes the amortized rewrite cost per event
    # CONSTANT (one base rewrite per ratio×base_rows delta rows) instead of
    # growing with the lake:chunk ratio; COMPACT_AT caps the file count per
    # partition so read fan-in stays bounded. Read amplification ≤
    # ~(1 + COMPACT_ROWS_RATIO) rows and ≤ COMPACT_AT files.
    DELTA_MAX_RATIO = 0.25
    COMPACT_AT = 16
    COMPACT_ROWS_RATIO = 0.5

    def __init__(self, lake_dir: str, txn: str, partition_infos: dict,
                 shuffle_dir: str, merge_fanin: int = 16,
                 key_cols=tuple(KEY_COLS), merge_mode: str = "auto"):
        self.lake_dir = lake_dir
        self.txn = txn
        # pid → {"file": rel, "rows": n, "deltas": [{"file","rows"}...]}
        self.partition_infos = partition_infos
        self.shuffle_dir = shuffle_dir
        self.merge_fanin = max(2, merge_fanin)
        self.key_cols = list(key_cols)
        self.merge_mode = merge_mode
        self._index = None

    def _load_index(self) -> dict:
        if self._index is None:
            path = os.path.join(self.shuffle_dir, "index.json")
            if os.path.exists(path):
                with open(path) as fh:
                    self._index = json.load(fh)
            else:
                self._index = {}
        return self._index

    def __call__(self, batch: pa.Table) -> pa.Table:
        pids = [int(p) for p in batch.column("pid").to_pylist()]
        if not pids:
            return _empty_metrics()
        reduced = self._reduce_shuffle(pids)
        out = [self._merge_one(p, reduced.get(p)) for p in pids]
        return pa.concat_tables(out) if out else _empty_metrics()

    REDUCE_FLUSH_FLOOR = 65536  # min pending rows before an LWW flush

    def _reduce_shuffle(self, pids: list) -> dict:
        """Geometric incremental LWW reduce: slices buffer per pid and
        flush (concat + winner-select) only once the pending rows reach
        the accumulator's size (floor 64k) — each row takes part in
        O(log n) merges, total work O(n log n), NOT O(n²/fanin) as a
        fixed-size-chunk re-merge of the growing accumulator would be.
        Memory per pid stays ≤ ~2× the partition's distinct keys."""
        index = self._load_index()
        want = set(pids)
        files = sorted(index)
        acc: dict = {p: None for p in pids}
        pending: dict = {p: [] for p in pids}
        pend_rows: dict = {p: 0 for p in pids}

        def flush(p):
            if not pending[p]:
                return
            tables = pending[p] + ([acc[p]] if acc[p] is not None else [])
            t = _concat_evolving(tables)
            acc[p] = t.take(pa.array(lww_winner_indices(t, self.key_cols)))
            pending[p] = []
            pend_rows[p] = 0

        for fname in files:
            hits = [(int(p), rg) for p, rg in index[fname].items()
                    if int(p) in want]
            if not hits:
                continue
            pf = pq.ParquetFile(os.path.join(self.shuffle_dir, fname))
            for p, rg in hits:
                tbl = pf.read_row_group(rg)
                pending[p].append(tbl)
                pend_rows[p] += len(tbl)
                thresh = max(self.REDUCE_FLUSH_FLOOR,
                             len(acc[p]) if acc[p] is not None else 0)
                if pend_rows[p] >= thresh:
                    flush(p)
        for p in pids:
            flush(p)
        return acc

    def _metrics_row(self, pid: int, staged: str, kind: str, rows: int,
                     last_lsn: int, upserts: int, deletes: int) -> pa.Table:
        return pa.table({
            "partition_id": pa.array([pid], type=pa.int64()),
            "staged_file": pa.array([os.path.relpath(staged, self.lake_dir)]),
            "kind": pa.array([kind], type=pa.string()),
            "rows": pa.array([rows], type=pa.int64()),
            "last_lsn": pa.array([last_lsn], type=pa.int64()),
            "upserts": pa.array([upserts], type=pa.int64()),
            "deletes": pa.array([deletes], type=pa.int64()),
            "bytes_written": pa.array([os.path.getsize(staged)],
                                      type=pa.int64()),
        })

    def _merge_one(self, pid: int, g: Optional[pa.Table]) -> pa.Table:
        if g is None or len(g) == 0:
            return _empty_metrics()
        last_lsn = int(pc.max(g.column("lsn")).as_py())
        deletes = int(pc.sum(pc.cast(
            pc.equal(g.column("op"), "delete"), pa.int64())).as_py() or 0)
        upserts = len(g) - deletes

        new = g.drop_columns(["pkey"])
        info = self.partition_infos.get(pid) or {}
        old_file = info.get("file")
        old_deltas = info.get("deltas") or []
        old_rows = int(info.get("rows") or 0)
        staged_dir = os.path.join(self.lake_dir, "_staging", self.txn)
        os.makedirs(staged_dir, exist_ok=True)
        staged = os.path.join(staged_dir, f"part-{pid:05d}.parquet")

        delta_rows_pending = sum(int(d["rows"]) for d in old_deltas)
        as_delta = (
            self.merge_mode == "auto"
            and old_file is not None
            and old_rows > 0
            and len(new) < self.DELTA_MAX_RATIO * old_rows
            and len(old_deltas) + 1 < self.COMPACT_AT
            and (delta_rows_pending + len(new)
                 < self.COMPACT_ROWS_RATIO * old_rows)
        )
        if as_delta:
            # merge-on-read delta: stage the LWW-reduced rows WITH the op
            # column (deletes apply at read/compaction); the base file is
            # untouched — write cost is O(txn rows), not O(partition rows).
            delta = new.sort_by([(c, "ascending") for c in self.key_cols])
            tmp = staged + ".tmp"
            pq.write_table(delta, tmp, compression="lz4")
            os.replace(tmp, staged)
            # exact resolved row count WITHOUT reading content: key/lsn/op
            # columns only of base + pending deltas + this delta
            slim_cols = self.key_cols + ["lsn"]
            base_slim = pq.read_table(os.path.join(self.lake_dir, old_file),
                                      columns=slim_cols)
            # base FILE rows, not info["rows"] (that's the resolved count,
            # which already reflects pending deltas)
            slim = [base_slim.append_column(
                "op", pa.array(["upsert"] * base_slim.num_rows))]
            for d in old_deltas:
                slim.append(pq.read_table(
                    os.path.join(self.lake_dir, d["file"]),
                    columns=slim_cols + ["op"]))
            slim.append(delta.select(slim_cols + ["op"]))
            t = _concat_evolving(slim)
            win = t.take(pa.array(lww_winner_indices(t, self.key_cols)))
            n_resolved = int(pc.sum(pc.cast(pc.not_equal(
                win.column("op"), "delete"), pa.int64())).as_py() or 0)
            return self._metrics_row(pid, staged, "delta", n_resolved,
                                     last_lsn, upserts, deletes)

        # copy-on-write (or compaction when deltas are pending): resolve
        # base + pending deltas + this txn's rows into a fresh base file
        base = pq.read_table(os.path.join(self.lake_dir, old_file)) \
            if old_file is not None else None
        pending = [pq.read_table(os.path.join(self.lake_dir, d["file"]))
                   for d in old_deltas]
        # canonical key order → byte-identical partition files regardless of
        # shuffle file arrival order (determinism invariant, FIXTURES.md §5)
        merged = resolve_with_deltas(base, pending + [new], self.key_cols)
        tmp = staged + ".tmp"
        pq.write_table(merged, tmp, compression="lz4")
        os.replace(tmp, staged)
        return self._metrics_row(pid, staged, "base", len(merged), last_lsn,
                                 upserts, deletes)


def _merge_group(merge: "MergePartitionFS", pids: list) -> pa.Table:
    return merge(pa.table({"pid": pa.array(pids, type=pa.int64())}))


_MERGE_TASK = None


def _merge_group_task():
    """Lazily-created ray.remote wrapper for one merge-task group (created
    once per process, not per transaction)."""
    global _MERGE_TASK
    if _MERGE_TASK is None:
        import ray

        _MERGE_TASK = ray.remote(_merge_group)
    return _MERGE_TASK


class _InflightReporter:
    """Periodic IN-FLIGHT progress snapshots while a transaction runs
    (reference StatisticsGenerator.scala:49-80: %complete/ETA rows on a
    10-second cadence, not just at commit). A daemon thread samples the
    txn's staging directories — shuffle bytes written during the map phase,
    staged partition files during the merge phase — and appends
    ``{"type": "inflight", ...}`` records to ``_stats.jsonl``. The manifest
    is untouched, so commit determinism is unaffected."""

    def __init__(self, engine: "CDCLakeEngine", txn: str, shuffle_dir: str,
                 staged_dir: str, expected_bytes: int, n_touched: int):
        import threading
        import time as _time

        self.engine = engine
        self.txn = txn
        self.shuffle_dir = shuffle_dir
        self.staged_dir = staged_dir
        self.expected_bytes = max(1, expected_bytes)
        self.n_touched = n_touched  # 0 = unknown until the map side lands
        self.phase = "map"
        self._t0 = _time.perf_counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_InflightReporter":
        if self.engine.stats_interval_sec > 0:
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()

    def _dir_stats(self, path: str, suffix: str = ".parquet"):
        files = bytes_ = 0
        if os.path.isdir(path):
            for name in os.listdir(path):
                if name.endswith(suffix):
                    try:
                        bytes_ += os.path.getsize(os.path.join(path, name))
                        files += 1
                    except OSError:
                        pass  # racing a rename/cleanup
        return files, bytes_

    def _run(self) -> None:
        import time as _time

        while not self._stop.wait(self.engine.stats_interval_sec):
            elapsed = _time.perf_counter() - self._t0
            rec = {"type": "inflight", "txn": self.txn, "phase": self.phase,
                   "elapsed_sec": round(elapsed, 3)}
            if self.phase == "map":
                files, nbytes = self._dir_stats(self.shuffle_dir)
                # shuffle output ≤ combined+compressed input bytes, so this
                # pct is a floor — good enough for an ETA order of magnitude
                pct = min(0.99, nbytes / self.expected_bytes)
                rec.update(shuffle_files=files, shuffle_bytes=nbytes)
            else:
                files, _ = self._dir_stats(self.staged_dir)
                pct = min(0.99, files / self.n_touched) if self.n_touched \
                    else 0.0
                rec.update(partitions_staged=files,
                           partitions_total=self.n_touched)
            rec["pct_complete"] = round(pct, 4)
            rec["eta_sec"] = round(elapsed * (1 - pct) / pct, 1) if pct > 0 \
                else None
            try:
                self.engine._append_stats(rec)
            except OSError:
                return  # lake dir vanished (test teardown) — stop quietly


class CDCLakeEngine:
    """Partitioned parquet lake + manifest; replay(), resume, verify."""

    def __init__(self, lake_dir: str, *, num_partitions: int = 16,
                 merge_fanin: int = 16, key_cols=tuple(KEY_COLS),
                 stats_interval_sec: float = 10.0,
                 merge_mode: str = "auto"):
        import uuid

        if merge_mode not in ("auto", "cow"):
            raise ValueError(f"merge_mode must be 'auto' or 'cow', "
                             f"got {merge_mode!r}")
        self.lake_dir = lake_dir
        self.num_partitions = num_partitions
        self.merge_fanin = merge_fanin
        self.stats_interval_sec = stats_interval_sec
        self.merge_mode = merge_mode
        self.key_cols = list(key_cols)
        # writer-private staging namespace: concurrent replayers never
        # touch each other's shuffle output (OCC losers just discard)
        self._writer_id = uuid.uuid4().hex[:8]
        os.makedirs(lake_dir, exist_ok=True)
        existing = self.load_manifest()
        if existing.get("key_cols") and existing["key_cols"] != self.key_cols:
            raise ValueError(
                f"lake at {lake_dir} is keyed on {existing['key_cols']}, "
                f"got {self.key_cols}")

    @classmethod
    def open(cls, lake_dir: str) -> "CDCLakeEngine":
        """Open an EXISTING lake adopting its manifest's key columns and
        partition count (the read-side constructor)."""
        mpath = os.path.join(lake_dir, MANIFEST)
        if not os.path.exists(mpath):
            raise FileNotFoundError(f"no lake manifest at {mpath}")
        with open(mpath) as f:
            m = json.load(f)
        return cls(lake_dir,
                   num_partitions=m.get("num_partitions", 16),
                   key_cols=m.get("key_cols") or KEY_COLS)

    # ------------------------------------------------------------ manifest
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.lake_dir, MANIFEST)

    def load_manifest(self) -> dict:
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as f:
                return json.load(f)
        return {
            "version": 0,
            "num_partitions": self.num_partitions,
            "key_cols": self.key_cols,
            "watermark_lsn": 0,
            "partitions": {},  # pid(str) → {file,last_lsn,rows,lineage:[txn]}
            "committed_txns": [],
            "lineage": [],  # per-txn: {txn, lo, hi, partitions, rows, ...}
        }

    # versions kept readable for time travel; older partition files GC
    TIME_TRAVEL_RETAIN = 8

    def _commit_manifest(self, manifest: dict):
        """Atomic rename — the single visibility point (two-phase commit).
        Each committed version is also written to ``_versions/v{N}.json``
        (the Delta-log analog), enabling ``dataset(version=N)`` snapshot
        reads for the last ``TIME_TRAVEL_RETAIN`` versions."""
        payload = json.dumps(manifest, indent=1, sort_keys=True)
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w") as f:
            f.write(payload)
        vdir = os.path.join(self.lake_dir, "_versions")
        os.makedirs(vdir, exist_ok=True)
        vtmp = os.path.join(vdir, f"v{manifest['version']:08d}.json.tmp")
        with open(vtmp, "w") as f:
            f.write(payload)
        os.replace(vtmp, vtmp[:-4])
        os.replace(tmp, self.manifest_path)

    def load_manifest_version(self, version: int) -> dict:
        path = os.path.join(self.lake_dir, "_versions",
                            f"v{version:08d}.json")
        if not os.path.exists(path):
            have = self.versions()
            raise ValueError(
                f"lake version {version} not available (retained: {have})")
        with open(path) as f:
            return json.load(f)

    def versions(self) -> list[int]:
        """Committed versions still readable for time travel."""
        vdir = os.path.join(self.lake_dir, "_versions")
        if not os.path.isdir(vdir):
            return []
        return sorted(int(f[1:9]) for f in os.listdir(vdir)
                      if f.endswith(".json"))

    # -------------------------------------------------------------- replay
    def replay(self, events_path: str, *, chunk_lsns: Optional[int] = None,
               max_lsn: Optional[int] = None, pipelined: bool = True,
               expect_watermark: Optional[int] = None) -> dict:
        """Replays all events with lsn > watermark, committing one txn per
        LSN chunk (chunk = checkpoint granularity). Returns the final
        manifest. Safe to re-run / resume at any time.

        ``pipelined=True`` runs ONE map/shuffle pass covering all pending
        chunks (rows split by LSN span before combining, so each checkpoint's
        state is still exactly 'events ≤ hi_k'), then merges+commits the
        transactions in order — the map side's fixed cost is paid once.

        ``expect_watermark``: optimistic-concurrency guard — when set and
        the manifest watermark differs, NOTHING is applied and the current
        manifest returns unchanged. Callers that stamp event LSNs against
        a snapshot (MERGE INTO lake) use this so a concurrent commit can
        never cause a PARTIAL application of their events (all-or-nothing;
        the caller detects the no-op via lineage and recomputes)."""
        lo_bound, hi_bound = self._events_lsn_range(events_path)
        if max_lsn is not None:
            hi_bound = min(hi_bound, max_lsn)
        manifest = self.load_manifest()
        start = manifest["watermark_lsn"]
        if expect_watermark is not None and start != expect_watermark:
            stale = dict(manifest)
            stale["__stale"] = True  # explicit applied/not-applied signal:
            # a span match in someone ELSE's lineage must never read as
            # "our transaction committed"
            return stale
        if chunk_lsns is None:
            chunk_lsns = max(1, hi_bound - start)
        chunks = []
        lo = start
        while lo < hi_bound:
            hi = min(lo + chunk_lsns, hi_bound)
            chunks.append((lo, hi))
            lo = hi
        pending = [(l, h) for l, h in chunks
                   if f"txn-{l:012d}-{h:012d}" not in manifest["committed_txns"]]
        if pipelined and len(pending) > 1:
            # software pipeline: txn k+1's map/shuffle pass (bandwidth-bound
            # parquet scan) runs CONCURRENTLY with txn k's merge+commit
            # (CPU+IO mixed) in a prefetch thread — wall clock per step is
            # max(map, merge), not their sum. Commit order is untouched:
            # apply_chunk(k) only starts after map(k) joined.
            import threading

            class _MapJob:
                def __init__(self, fn, span):
                    self.err = None

                    def run():
                        try:
                            fn(span)
                        except BaseException as e:  # re-raised on join
                            self.err = e

                    self.t = threading.Thread(target=run, daemon=True)
                    self.t.start()

                def join(self):
                    self.t.join()
                    if self.err is not None:
                        raise self.err

            def run_map(wave):
                self._map_all(events_path, wave)

            # WAVES of spans per map pass: each Dataset execution carries a
            # fixed streaming-executor startup (~0.3-0.5 s), so a chunked
            # replay that mapped one span per pass paid it once per txn —
            # the dominant cost when chunks are small (checkpoint-dense).
            # MultiTxnShuffleWrite splits rows by LSN span inside the pass,
            # so checkpoint-k state is untouched. The lookahead is
            # byte-bounded: staged shuffle output in flight stays under
            # ~4 GiB (or 1 span, whichever is larger) — at 10^10-event
            # scale with production chunk sizes this degrades gracefully
            # to one span per wave.
            from .tail import resolve_tail as _rt

            est_rows, est_bytes = _rt(events_path).size_estimate()
            row_size = (est_bytes // est_rows) if est_rows else 256
            budget = int(os.environ.get("QWERY_MAP_LOOKAHEAD_BYTES",
                                        4 << 30))
            span_bytes = max(1, chunk_lsns * row_size)
            # the bytes budget alone picks the regime: big spans (≥budget)
            # → one span per wave, preserving the map(k+1)∥merge(k)
            # overlap; small spans → many per wave, amortizing the
            # per-execution startup (empirically the dominant cost there —
            # 64×10k-event txns: 12.8 s one-wave vs 17.9 s capped-8)
            lookahead = max(1, min(len(pending), budget // span_bytes))
            waves = [pending[i:i + lookahead]
                     for i in range(0, len(pending), lookahead)]
            job = _MapJob(run_map, waves[0])
            for w, wave in enumerate(waves):
                job.join()
                if w + 1 < len(waves):
                    job = _MapJob(run_map, waves[w + 1])
                for (l, h) in wave:
                    manifest = self.apply_chunk(events_path, l, h, manifest,
                                                premapped=True)
        else:
            for l, h in chunks:
                manifest = self.apply_chunk(events_path, l, h, manifest)
        return manifest

    def _map_all(self, events_path: str, chunks) -> None:
        """Phase A of pipelined replay: one combine+shuffle pass for every
        pending transaction (clears each txn's shuffle dir first — a crashed
        earlier attempt cannot leak rows)."""
        spans = []
        for lo, hi in chunks:
            txn = f"txn-{lo:012d}-{hi:012d}"
            sdir = self._txn_shuffle_dir(txn)
            shutil.rmtree(sdir, ignore_errors=True)
            os.makedirs(sdir, exist_ok=True)
            spans.append((lo, hi, sdir))
        from .tail import resolve_tail

        lo_all, hi_all = chunks[0][0], chunks[-1][1]
        tail = resolve_tail(events_path)
        events = tail.dataset(lo_all, hi_all)
        import ray as _ray

        ncpu = int(_ray.cluster_resources().get("CPU", 8)) \
            if _ray.is_initialized() else 8
        est_rows, est_bytes = tail.size_estimate()
        row_size = (est_bytes // est_rows) if est_rows else 256
        batch_size = self._auto_batch_size(events_path)
        approx_rows = max(1, hi_all - lo_all)
        batch_size = max(2048, min(batch_size,
                                   approx_rows // (2 * ncpu) or batch_size))
        # pipelined replay runs this map pass concurrently with the previous
        # txn's merge — give it its own in-flight reporter (the merge-side
        # reporter lives in apply_chunk)
        txn0 = f"txn-{lo_all:012d}-{hi_all:012d}"
        reporter = _InflightReporter(
            self, txn0, spans[0][2], "", n_touched=0,
            expected_bytes=row_size * approx_rows).start()
        try:
            stats = events.map_batches(
                MultiTxnShuffleWrite(self.num_partitions, spans,
                                     self.key_cols),
                batch_format="pyarrow", batch_size=batch_size)
            self._collect_shuffle_index(stats)
        finally:
            reporter.stop()

    def follow(self, events_path: str, *, poll_interval: float = 1.0,
               idle_rounds: Optional[int] = 3,
               chunk_lsns: Optional[int] = None) -> dict:
        """Tail the event log: replay any LSNs beyond the watermark as new
        segment files appear (the reference's Kafka poll loop,
        KafkaInputDevice.scala:54-67, generalized to a parquet log; resume ≙
        RandomAccessDevice.seek). Returns after ``idle_rounds`` empty polls
        (pass None to follow forever)."""
        import time as _time

        idle = 0
        while idle_rounds is None or idle < idle_rounds:
            manifest = self.load_manifest()
            try:
                _, hi = self._events_lsn_range(events_path)
            except ValueError:
                hi = manifest["watermark_lsn"]  # no segments yet
            if hi > manifest["watermark_lsn"]:
                self.replay(events_path, chunk_lsns=chunk_lsns)
                idle = 0
            else:
                idle += 1
                _time.sleep(poll_interval)
        return self.load_manifest()

    def _events_lsn_range(self, events_path) -> tuple[int, int]:
        """Available (min, max) LSN from the tail source (the default
        ParquetTail reads footer statistics only — no data pages)."""
        from .tail import resolve_tail

        return resolve_tail(events_path).lsn_range()

    def _auto_batch_size(self, events_path,
                         target_bytes: int = 96 << 20) -> int:
        """Combiner batch size from the tail's (rows, bytes) estimate."""
        from .tail import resolve_tail

        rows, nbytes = resolve_tail(events_path).size_estimate()
        if rows == 0 or nbytes == 0:
            return 32768
        row_size = max(1, nbytes // rows)
        return int(min(131072, max(1024, target_bytes // row_size)))

    def apply_chunk(self, events_path: str, lo: int, hi: int,
                    manifest: Optional[dict] = None, *,
                    premapped: bool = False) -> dict:
        """One transaction: apply events with lo < lsn <= hi. Idempotent.
        ``premapped=True`` (pipelined replay) skips the map/shuffle phase —
        _map_all already populated this txn's shuffle dir."""
        import time as _time

        trace = os.environ.get("QWERY_CDC_TIMING") == "1"
        t_start = _time.perf_counter()

        manifest = manifest or self.load_manifest()
        txn = f"txn-{lo:012d}-{hi:012d}"
        if txn in manifest["committed_txns"]:
            return manifest  # exactly-once: committed ranges are no-ops

        shuffle_dir = self._txn_shuffle_dir(txn)
        from .tail import resolve_tail as _resolve_tail

        est_rows, est_bytes = _resolve_tail(events_path).size_estimate()
        row_size = (est_bytes // est_rows) if est_rows else 256
        reporter = _InflightReporter(
            self, txn, shuffle_dir, self._writer_staging(txn),
            expected_bytes=row_size * max(1, hi - lo), n_touched=0).start()
        try:
            return self._apply_chunk_inner(events_path, lo, hi, manifest,
                                           txn, shuffle_dir, reporter,
                                           premapped, trace, t_start)
        finally:
            reporter.stop()

    def _apply_chunk_inner(self, events_path, lo, hi, manifest, txn,
                           shuffle_dir, reporter, premapped, trace, t_start):
        import time as _time

        if not premapped:
            from .tail import resolve_tail

            events = resolve_tail(events_path).dataset(lo, hi)
            # bytes-aware combiner batch size (~96 MiB of rows) so the
            # per-batch dedup actually reduces and shuffle row groups stay
            # read-efficient, capped so the map side has ≥2 tasks per core
            import ray as _ray

            ncpu = int(_ray.cluster_resources().get("CPU", 8)) \
                if _ray.is_initialized() else 8
            batch_size = self._auto_batch_size(events_path)
            approx_rows = max(1, hi - lo)  # LSNs are dense in the tail
            batch_size = max(2048, min(batch_size,
                                       approx_rows // (2 * ncpu) or batch_size))

            # ---- map-side shuffle: combine + partitioned staging writes ----
            # (a fresh attempt of this txn clears any partial shuffle output,
            # so non-deterministic shuffle file names cannot double-apply)
            shutil.rmtree(shuffle_dir, ignore_errors=True)
            os.makedirs(shuffle_dir, exist_ok=True)
            stats = events.map_batches(
                CombineShuffleWrite(self.num_partitions, shuffle_dir,
                                    self.key_cols),
                batch_format="pyarrow", batch_size=batch_size)
            # drives the map side to completion (shuffle barrier) and folds
            # the returned per-file indexes into this txn's index.json
            self._collect_shuffle_index(stats)
        else:
            os.makedirs(shuffle_dir, exist_ok=True)
        if trace:
            print(f"[cdc] {txn} map_side={_time.perf_counter()-t_start:.2f}s "
                  f"premapped={premapped}", flush=True)
            t_map = _time.perf_counter()

        # ---- reduce + commit with optimistic concurrency -------------------
        # merge runs against the partition files of a manifest VERSION; the
        # commit validates under the lake's commit lock that the version is
        # unchanged (Delta-style OCC). A concurrent writer advancing the
        # manifest forces a RE-MERGE against the fresh files (the shuffle
        # output is version-independent, so only the COW phase repeats).
        touched = self._touched_partitions(shuffle_dir)
        reporter.n_touched = len(touched)
        reporter.phase = "merge"
        for attempt in range(4):
            base = self.load_manifest()
            if txn in base["committed_txns"]:
                # a concurrent replayer beat us to this txn: exactly-once
                shutil.rmtree(self._writer_staging(txn), ignore_errors=True)
                return base
            try:
                metrics = self._run_merge(base, txn, shuffle_dir, touched)
            except Exception:
                if attempt == 3:
                    raise
                continue  # peer may have committed+GC'd our base mid-merge
            if trace:
                print(f"[cdc] {txn} merge={_time.perf_counter()-t_map:.2f}s "
                      f"touched={len(touched)}", flush=True)
                t_merge = _time.perf_counter()
            with self._commit_lock():
                current = self.load_manifest()
                if txn in current["committed_txns"]:
                    shutil.rmtree(self._writer_staging(txn),
                                  ignore_errors=True)
                    return current
                if current["version"] == base["version"]:
                    out = self._commit_txn(base, txn, lo, hi, metrics,
                                           t_start)
                    if trace:
                        print(f"[cdc] {txn} "
                              f"commit={_time.perf_counter()-t_merge:.2f}s "
                              f"total={_time.perf_counter()-t_start:.2f}s",
                              flush=True)
                    return out
            # lost the race on a different txn: re-merge on the new base
        raise RuntimeError(
            f"commit conflict on {txn} not resolved after 4 merge attempts")

    def _txn_shuffle_dir(self, txn: str) -> str:
        return os.path.join(self._writer_staging(txn), "shuffle")

    def _writer_staging(self, txn: str) -> str:
        """Writer-private staging for a txn: concurrent replayers map and
        merge in disjoint directories; the OCC loser's output is discarded,
        never clobbered mid-read."""
        return os.path.join(self.lake_dir, "_staging", txn,
                            f"w-{self._writer_id}")

    def _run_merge(self, manifest: dict, txn: str, shuffle_dir: str,
                   touched: list):
        """Reduce side: grouped merge tasks COW against the partition files
        of ``manifest``; returns the metrics frame."""
        partition_infos = {
            int(pid): info for pid, info in manifest["partitions"].items()
        }
        if not touched:
            return _empty_metrics().to_pandas()
        # staged output goes to the writer-private namespace (OCC isolation)
        stage_label = os.path.join(txn, f"w-{self._writer_id}")
        merge = MergePartitionFS(self.lake_dir, stage_label, partition_infos,
                                 shuffle_dir, self.merge_fanin,
                                 self.key_cols, self.merge_mode)

        import ray as _ray

        ncpu = int(_ray.cluster_resources().get("CPU", 8)) \
            if _ray.is_initialized() else 8
        # several partitions per merge task: each task parses every shuffle
        # footer once for its whole group (metadata ops drop from
        # O(files×partitions) to O(files×tasks)); 2×cores tasks keep all
        # cores busy under size skew. Raw Ray tasks, NOT a Dataset: the
        # reduce side is a fixed, known-small list of independent file
        # rewrites, and a per-txn Dataset execution adds a streaming-executor
        # startup/teardown barrier (~0.2-0.5 s) that a chunked replay pays
        # once per transaction — the one case where the Dataset API is the
        # wrong tool (per-record semantics stay on Datasets).
        n_tasks = min(len(touched), max(1, ncpu * 2))
        groups = [touched[i::n_tasks] for i in range(n_tasks)]
        refs = [_merge_group_task().remote(merge, g) for g in groups if g]
        tables = [t for t in _ray.get(refs) if t.num_rows]
        if not tables:
            return _empty_metrics().to_pandas()
        return pa.concat_tables(tables).to_pandas()

    def _commit_txn(self, manifest: dict, txn: str, lo: int, hi: int,
                    metrics, t_start: float) -> dict:
        """Move staged files in and swap the manifest (caller holds the
        commit lock and has validated the base version)."""
        import time as _time

        part_dir = os.path.join(self.lake_dir, "partitions")
        os.makedirs(part_dir, exist_ok=True)
        for r in metrics.itertuples():
            pid = int(r.partition_id)
            kind = getattr(r, "kind", "base")
            old = manifest["partitions"].get(str(pid))
            lineage = (old["lineage"] if old else []) + [txn]
            if kind == "delta":
                final_rel = os.path.join("partitions",
                                         f"delta-{pid:05d}-{txn}.parquet")
                os.replace(os.path.join(self.lake_dir, str(r.staged_file)),
                           os.path.join(self.lake_dir, final_rel))
                size = os.path.getsize(os.path.join(self.lake_dir, final_rel))
                manifest["partitions"][str(pid)] = {
                    "file": old["file"],
                    "deltas": (old.get("deltas") or []) + [
                        {"file": final_rel, "rows": int(r.upserts
                                                        + r.deletes),
                         "bytes": int(size)}],
                    "last_lsn": int(r.last_lsn),
                    "rows": int(r.rows),
                    "lineage": lineage,
                }
            else:
                final_rel = os.path.join("partitions",
                                         f"part-{pid:05d}-{txn}.parquet")
                os.replace(os.path.join(self.lake_dir, str(r.staged_file)),
                           os.path.join(self.lake_dir, final_rel))
                manifest["partitions"][str(pid)] = {
                    "file": final_rel,
                    "last_lsn": int(r.last_lsn),
                    "rows": int(r.rows),
                    "lineage": lineage,
                }
        manifest["watermark_lsn"] = max(manifest["watermark_lsn"], hi)
        manifest["version"] += 1
        manifest["committed_txns"].append(txn)
        elapsed = _time.perf_counter() - t_start
        n_bytes = int(metrics["bytes_written"].sum()) if len(metrics) else 0
        manifest["lineage"].append({
            "txn": txn, "lo": lo, "hi": hi,
            "partitions_touched": int(len(metrics)),
            "rows_upserted": int(metrics["upserts"].sum()) if len(metrics) else 0,
            "rows_deleted": int(metrics["deletes"].sum()) if len(metrics) else 0,
            "bytes_written": n_bytes,
        })
        # progress statistics (reference StatisticsGenerator.scala:49-80
        # records/s + bytes/s snapshots): appended per txn to a side log —
        # NOT the manifest, which stays byte-deterministic across reruns
        self._append_stats({
            "txn": txn, "lo": lo, "hi": hi,
            "elapsed_sec": round(elapsed, 3),
            "events_per_sec": round((hi - lo) / elapsed, 1) if elapsed else 0,
            "bytes_per_sec": round(n_bytes / elapsed, 1) if elapsed else 0,
            "bytes_written": n_bytes,
        })
        self._commit_manifest(manifest)
        # remove only THIS writer's staging: a concurrent (losing) writer may
        # still be map-writing into its own w-{id} subdir of the same txn —
        # it discards that itself once it observes the committed txn
        shutil.rmtree(self._writer_staging(txn), ignore_errors=True)
        try:  # parent txn dir, if no other writer is left in it
            os.rmdir(os.path.join(self.lake_dir, "_staging", txn))
        except OSError:
            pass
        self._gc_superseded(manifest)
        return manifest

    def _commit_lock(self, timeout: float = 60.0, stale: float = 120.0):
        """Exclusive lake commit lock (O_CREAT|O_EXCL lock file; locks older
        than ``stale`` seconds are broken — crashed writers cannot wedge the
        lake). Serializes only the commit critical section."""
        import time as _time
        from contextlib import contextmanager

        path = os.path.join(self.lake_dir, "_commit.lock")

        @contextmanager
        def lock():
            start = _time.time()
            while True:
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    os.write(fd, str(os.getpid()).encode())
                    os.close(fd)
                    break
                except FileExistsError:
                    try:
                        if _time.time() - os.path.getmtime(path) > stale:
                            os.remove(path)
                            continue
                    except FileNotFoundError:
                        continue
                    if _time.time() - start > timeout:
                        raise TimeoutError(
                            f"commit lock at {path} held > {timeout}s")
                    _time.sleep(0.05)
            try:
                yield
            finally:
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass

        return lock()

    @staticmethod
    def _collect_shuffle_index(stats: rd.Dataset) -> None:
        """Drain the map-side stats stream and write ONE index.json per txn
        shuffle dir: {file → {pid → row group}}. Completed-but-unreported
        task attempts (worker death after write) leave orphan files that are
        simply absent from the index — ignored by every reducer."""
        per_dir: dict[str, dict] = {}
        for b in stats.iter_batches(batch_size=None, batch_format="pyarrow"):
            for sdir, fname, idx in zip(b.column("sdir").to_pylist(),
                                        b.column("fname").to_pylist(),
                                        b.column("index_json").to_pylist()):
                if fname:
                    per_dir.setdefault(sdir, {})[fname] = json.loads(idx)
        for sdir, mapping in per_dir.items():
            tmp = os.path.join(sdir, "index.json.tmp")
            with open(tmp, "w") as f:
                json.dump(mapping, f)
            os.replace(tmp, os.path.join(sdir, "index.json"))

    @staticmethod
    def _touched_partitions(shuffle_dir: str) -> list[int]:
        path = os.path.join(shuffle_dir, "index.json")
        if not os.path.exists(path):
            return []
        with open(path) as fh:
            index = json.load(fh)
        pids: set[int] = set()
        for mapping in index.values():
            pids.update(int(k) for k in mapping)
        return sorted(pids)

    def _gc_superseded(self, manifest: dict):
        """Remove partition files not referenced by any RETAINED manifest
        version (the last TIME_TRAVEL_RETAIN snapshots stay readable);
        expired version files are dropped with them."""
        vdir = os.path.join(self.lake_dir, "_versions")
        retained = self.versions()
        expired = retained[:-self.TIME_TRAVEL_RETAIN] \
            if len(retained) > self.TIME_TRAVEL_RETAIN else []
        for v in expired:
            try:
                os.remove(os.path.join(vdir, f"v{v:08d}.json"))
            except FileNotFoundError:
                pass
        def _files_of(m: dict) -> set:
            out = set()
            for info in m["partitions"].values():
                if info.get("file"):
                    out.add(info["file"])
                out |= {d["file"] for d in info.get("deltas") or []}
            return out

        live = _files_of(manifest)
        for v in self.versions():
            try:
                m = self.load_manifest_version(v)
            except ValueError:
                continue
            live |= _files_of(m)
        part_dir = os.path.join(self.lake_dir, "partitions")
        if not os.path.isdir(part_dir):
            return
        for f in os.listdir(part_dir):
            rel = os.path.join("partitions", f)
            if rel not in live:
                os.remove(os.path.join(part_dir, f))

    # ----------------------------------------------------------- compaction
    def compact(self, partitions: Optional[list[int]] = None) -> dict:
        """Fold pending merge-on-read delta files into their partition
        bases (the explicit maintenance surface behind SQL ``OPTIMIZE``;
        the automatic rows-ratio trigger lives in MergePartitionFS). Each
        selected partition rewrites as an independent raw Ray task; the
        commit is optimistic (Delta-style): if a writer advanced the
        manifest mid-compaction, the affected work is recomputed against
        the fresh snapshot (up to 4 attempts), never double-applied. The
        watermark and resolved row counts are unchanged — only file layout
        moves; old versions keep reading their delta files (time travel)."""
        import ray as _ray

        for attempt in range(4):
            manifest = self.load_manifest()
            todo = [(int(pid), info)
                    for pid, info in manifest["partitions"].items()
                    if info.get("deltas")
                    and (partitions is None or int(pid) in partitions)]
            if not todo:
                return manifest
            label = f"compact-v{manifest['version']:08d}-w{self._writer_id}"
            staged_dir = os.path.join(self.lake_dir, "_staging", label)
            os.makedirs(staged_dir, exist_ok=True)
            lake_dir, key_cols = self.lake_dir, list(self.key_cols)

            def compact_one(pid: int, info: dict) -> tuple[int, str]:
                base = pq.read_table(os.path.join(lake_dir, info["file"]))
                deltas = [pq.read_table(os.path.join(lake_dir, d["file"]))
                          for d in info["deltas"]]
                merged = resolve_with_deltas(base, deltas, key_cols)
                staged = os.path.join(staged_dir,
                                      f"part-{pid:05d}.parquet")
                tmp = staged + ".tmp"
                pq.write_table(merged, tmp, compression="lz4")
                os.replace(tmp, staged)
                return pid, staged

            remote = _ray.remote(compact_one)
            done = _ray.get([remote.remote(pid, info)
                             for pid, info in todo]) \
                if _ray.is_initialized() and len(todo) > 1 \
                else [compact_one(pid, info) for pid, info in todo]
            with self._commit_lock():
                current = self.load_manifest()
                if current["version"] != manifest["version"]:
                    shutil.rmtree(staged_dir, ignore_errors=True)
                    continue  # a writer advanced the lake — recompute
                for pid, staged in done:
                    final_rel = os.path.join(
                        "partitions", f"part-{pid:05d}-{label}.parquet")
                    os.replace(staged,
                               os.path.join(self.lake_dir, final_rel))
                    info = current["partitions"][str(pid)]
                    info["file"] = final_rel
                    info["deltas"] = []
                    info["lineage"] = info.get("lineage", []) + [label]
                current["version"] += 1
                self._commit_manifest(current)
            shutil.rmtree(staged_dir, ignore_errors=True)
            self._gc_superseded(current)
            return current
        raise RuntimeError("compact() lost the commit race 4 times — "
                           "retry when the writer load quiets down")

    def vacuum(self, retain: Optional[int] = None) -> dict:
        """Drop version snapshots beyond the retention horizon and every
        partition/delta file no retained version references (the SQL
        ``VACUUM`` surface; the same GC runs automatically at commit with
        the default TIME_TRAVEL_RETAIN). ``retain`` overrides the horizon
        for this call — minimum 1, the current version always stays.
        Returns {files_removed, versions_dropped, version}."""
        part_dir = os.path.join(self.lake_dir, "partitions")
        vdir = os.path.join(self.lake_dir, "_versions")

        def _listing(d):
            return set(os.listdir(d)) if os.path.isdir(d) else set()

        files_before = _listing(part_dir)
        versions_before = _listing(vdir)
        if retain is not None:
            # instance attribute shadows the class default for this call
            self.TIME_TRAVEL_RETAIN = max(1, int(retain))
        try:
            manifest = self.load_manifest()
            self._gc_superseded(manifest)
        finally:
            if retain is not None:
                del self.TIME_TRAVEL_RETAIN
        return {
            "files_removed": len(files_before - _listing(part_dir)),
            "versions_dropped": len(versions_before - _listing(vdir)),
            "version": self.load_manifest()["version"],
        }

    # ---------------------------------------------------------------- read
    def dataset(self, version: Optional[int] = None) -> rd.Dataset:
        """The lake as a Dataset; ``version=N`` reads the retained
        snapshot N (time travel — Delta-style versioned manifests).
        Partitions carrying merge-on-read deltas resolve in parallel
        per-partition tasks; a fully-compacted lake stays on the plain
        zero-copy parquet read."""
        manifest = self.load_manifest() if version is None \
            else self.load_manifest_version(version)
        parts = [info for info in manifest["partitions"].values()
                 if info["rows"] > 0]
        if not parts:
            # visible snapshot is EMPTY (fresh lake or every key
            # tombstoned): 0-row files keep the REAL row schema
            return rd.from_arrow(self.schema(manifest).empty_table())
        if not any(info.get("deltas") for info in parts):
            return rd.read_parquet(
                [os.path.join(self.lake_dir, info["file"])
                 for info in parts])
        lake_dir, key_cols = self.lake_dir, list(self.key_cols)
        specs = [{"files": json.dumps(
                     [info["file"]]
                     + [d["file"] for d in info.get("deltas") or []])}
                 for info in parts]

        def resolve_spec(t: pa.Table) -> pa.Table:
            outs = []
            for files_json in t.column("files").to_pylist():
                files = json.loads(files_json)
                base = pq.read_table(os.path.join(lake_dir, files[0]))
                deltas = [pq.read_table(os.path.join(lake_dir, f))
                          for f in files[1:]]
                outs.append(resolve_with_deltas(base, deltas, key_cols))
            return _concat_evolving([t for t in outs if t.num_rows]) \
                if any(t.num_rows for t in outs) else outs[0]

        return rd.from_items(specs, override_num_blocks=len(specs)) \
            .map_batches(resolve_spec, batch_format="pyarrow", batch_size=1)

    def schema(self, manifest: Optional[dict] = None) -> pa.Schema:
        """The lake's row schema from the footers of every committed base
        and delta file, UNIFIED: additive evolution leaves a new column in
        the files of the partitions that took it, so no single file is the
        authority. A file-less lake falls back to its OWN key columns."""
        manifest = manifest or self.load_manifest()
        schemas = []
        for info in manifest["partitions"].values():
            for rel in [info.get("file")] + [
                    d["file"] for d in info.get("deltas") or []]:
                fp = os.path.join(self.lake_dir, rel or "")
                if rel and os.path.exists(fp):
                    schemas.append(pq.read_schema(fp))
        if not schemas:
            return pa.schema([pa.field(c, pa.string())
                              for c in self.key_cols])
        try:
            sch = pa.unify_schemas(schemas)
        except pa.ArrowTypeError:
            sch = pa.unify_schemas(schemas, promote_options="permissive")
        return pa.schema([f for f in sch if f.name not in ("op", "pkey")])

    def table(self, version: Optional[int] = None) -> pa.Table:
        """Driver-side materialization — tests/small lakes only."""
        manifest = self.load_manifest() if version is None \
            else self.load_manifest_version(version)
        tables = []
        for info in manifest["partitions"].values():
            if info["rows"] > 0:
                base = pq.read_table(
                    os.path.join(self.lake_dir, info["file"]))
                deltas = [pq.read_table(os.path.join(self.lake_dir,
                                                     d["file"]))
                          for d in info.get("deltas") or []]
                tables.append(resolve_with_deltas(base, deltas,
                                                  self.key_cols))
        return _concat_evolving(tables) if tables else pa.table({})

    def sha256_dataset(self) -> rd.Dataset:
        """Distributed per-row sha256(content) — the verification invariant."""

        def hash_batch(batch: pa.Table) -> pa.Table:
            digests = [
                hashlib.sha256((v or "").encode()).hexdigest()
                for v in batch.column("content").to_pylist()
            ]
            return pa.table({
                "repo": batch.column("repo"),
                "path": batch.column("path"),
                "sha256": pa.array(digests),
            })

        return self.dataset().map_batches(hash_batch, batch_format="pyarrow")

    def lookup(self, *key_values) -> Optional[dict]:
        """Point lookup by full key: hashes straight to ONE partition file
        and filters it — O(partition) I/O, no scan of the lake. Returns the
        row dict or None."""
        if len(key_values) != len(self.key_cols):
            raise ValueError(f"lookup needs {len(self.key_cols)} key values "
                             f"({self.key_cols})")
        pid = int(key_hash_partition_cols(
            [pa.chunked_array([pa.array([v])]) for v in key_values],
            self.num_partitions)[0])
        manifest = self.load_manifest()
        info = manifest["partitions"].get(str(pid))
        if info is None or info["rows"] == 0:
            return None

        def key_hits(path: str) -> pa.Table:
            table = pq.read_table(os.path.join(self.lake_dir, path))
            mask = None
            for col, val in zip(self.key_cols, key_values):
                m = pc.equal(table.column(col), val)
                mask = m if mask is None else pc.and_(mask, m)
            return table.filter(mask)

        base_hit = key_hits(info["file"])
        delta_hits = [key_hits(d["file"])
                      for d in info.get("deltas") or []]
        hit = resolve_with_deltas(base_hit if base_hit.num_rows else None,
                                  delta_hits, self.key_cols)
        return hit.to_pylist()[0] if hit.num_rows else None

    def changes(self, v_from: int, v_to: Optional[int] = None) -> rd.Dataset:
        """Change data feed between two retained versions: one row per key
        whose state differs, with ``change`` ∈ {upsert, delete} and the new
        row's columns (delete rows carry the key + last old lsn).

        Scale shape: the manifest diff identifies the partitions whose FILE
        changed between the versions (untouched partitions share the same
        immutable file → skipped entirely); each changed partition diffs
        independently in one task via a keyed merge — work is proportional
        to the touched data, never the lake."""
        m_from = self.load_manifest_version(v_from)
        m_to = self.load_manifest() if v_to is None \
            else self.load_manifest_version(v_to)
        key_cols = list(self.key_cols)

        def state_files(m: dict, pid: str) -> list[str]:
            info = m["partitions"].get(pid)
            if not info:
                return []
            return [info["file"]] + [d["file"]
                                     for d in info.get("deltas") or []]

        pairs = []
        for pid in set(m_from["partitions"]) | set(m_to["partitions"]):
            f_old = state_files(m_from, pid)
            f_new = state_files(m_to, pid)
            if f_old != f_new:
                pairs.append({"old": json.dumps(f_old),
                              "new": json.dumps(f_new)})
        if not pairs:
            return rd.from_arrow(pa.table(
                {"change": pa.array([], type=pa.string())}))
        lake_dir = self.lake_dir

        def load_state(files_json: str) -> Optional[pa.Table]:
            files = json.loads(files_json)
            if not files:
                return None
            base = pq.read_table(os.path.join(lake_dir, files[0]))
            deltas = [pq.read_table(os.path.join(lake_dir, f))
                      for f in files[1:]]
            t = resolve_with_deltas(base, deltas, key_cols)
            return t if t.num_rows else None

        def diff_partition(t: pa.Table) -> pa.Table:
            outs = []
            for old_rel, new_rel in zip(t.column("old").to_pylist(),
                                        t.column("new").to_pylist()):
                old = load_state(old_rel)
                new = load_state(new_rel)
                odf = old.to_pandas() if old is not None else None
                ndf = new.to_pandas() if new is not None else None
                if ndf is not None:
                    if odf is not None:
                        merged = ndf.merge(
                            odf[key_cols + ["lsn"]], on=key_cols,
                            how="left", suffixes=("", "__old"))
                        changed = merged[
                            merged["lsn__old"].isna()
                            | (merged["lsn"] != merged["lsn__old"])]
                        changed = changed.drop(columns=["lsn__old"])
                    else:
                        changed = ndf
                    if len(changed):
                        up = changed.copy()
                        up.insert(0, "change", "upsert")
                        outs.append(pa.Table.from_pandas(
                            up, preserve_index=False))
                if odf is not None:
                    if ndf is not None:
                        gone = odf.merge(ndf[key_cols], on=key_cols,
                                         how="left", indicator=True)
                        gone = gone[gone["_merge"] == "left_only"] \
                            .drop(columns=["_merge"])
                    else:
                        gone = odf
                    if len(gone):
                        dl = gone[key_cols + ["lsn"]].copy()
                        dl.insert(0, "change", "delete")
                        outs.append(pa.Table.from_pandas(
                            dl, preserve_index=False))
            if not outs:
                return pa.table({"change": pa.array([], type=pa.string())})
            return pa.concat_tables(outs, promote_options="permissive")

        spec = rd.from_items(pairs, override_num_blocks=len(pairs))
        return spec.map_batches(diff_partition, batch_format="pyarrow",
                                batch_size=1)

    def _append_stats(self, record: dict) -> None:
        with open(os.path.join(self.lake_dir, "_stats.jsonl"), "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    def stats_records(self) -> list[dict]:
        """Per-txn throughput snapshots (records/s, bytes/s, elapsed) —
        the follow() progress surface; one record per committed replay
        round, mirroring the reference's periodic Statistics rows."""
        path = os.path.join(self.lake_dir, "_stats.jsonl")
        if not os.path.exists(path):
            return []
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    def checkpoints(self) -> pd.DataFrame:
        """Per-partition checkpoint records (partition_id, last_applied_lsn,
        row_count, lineage) — the north rule's resume/lineage surface."""
        manifest = self.load_manifest()
        rows = [{
            "partition_id": int(pid),
            "last_applied_lsn": info["last_lsn"],
            "row_count": info["rows"],
            "lineage": ",".join(info["lineage"]),
        } for pid, info in sorted(manifest["partitions"].items(),
                                  key=lambda kv: int(kv[0]))]
        return pd.DataFrame(rows)


def _concat_evolving(tables: list[pa.Table]) -> pa.Table:
    """Additive schema evolution: union of columns, null-backfill missing."""
    tables = [t for t in tables if t is not None]
    if not tables:
        return pa.table({})
    if len(tables) == 1:
        return tables[0]
    return pa.concat_tables(tables, promote_options="permissive")


def _empty_metrics() -> pa.Table:
    return pa.table({
        "partition_id": pa.array([], type=pa.int64()),
        "staged_file": pa.array([], type=pa.string()),
        "kind": pa.array([], type=pa.string()),
        "rows": pa.array([], type=pa.int64()),
        "last_lsn": pa.array([], type=pa.int64()),
        "upserts": pa.array([], type=pa.int64()),
        "deletes": pa.array([], type=pa.int64()),
        "bytes_written": pa.array([], type=pa.int64()),
    })
