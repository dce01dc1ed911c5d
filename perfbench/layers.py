"""The program's layers as the benchmark sees them: which calls are wrapped
in traced runs, and the counters read from the lake's public manifest and
from the files the map side stages.

Layers of a replay: ``tail`` (ParquetTail.lsn_range / size_estimate), ``map``
(the drain of the map Dataset, CDCLakeEngine._collect_shuffle_index),
``reduce`` (CDCLakeEngine._run_merge) and ``commit`` (the wait to enter
CDCLakeEngine._commit_lock plus CDCLakeEngine._commit_txn). For statements:
``sqlc`` parse, ``engine.session`` execute, and the file/lake DML calls of
``cdc.upsert`` and ``cdc.merge_stmt``.
"""

from __future__ import annotations

import glob
import json
import os
import re
import time

import pyarrow.parquet as pq

from .trace import Tracer

REPLAY_LAYERS = {
    "tail.lsn_range": "tail", "tail.size_estimate": "tail",
    "map": "map", "reduce": "reduce",
    "commit": "commit", "commit.lock_wait": "commit",
}
DML_FUNCS = {
    "qwery_ray.cdc.upsert": ("upsert_into_parquet", "update_parquet",
                             "update_where_parquet", "delete_parquet"),
    "qwery_ray.cdc.merge_stmt": ("merge_into_parquet", "merge_into_lake"),
}


class ShuffleCounter:
    """Rows, bytes and files the map side staged, read from the shuffle
    index files each drain writes (after the drain, before the commit
    removes them)."""

    def __init__(self):
        self.lake_dir = None
        self.rows = self.bytes = self.files = 0

    def on_replay(self, args) -> None:
        self.lake_dir = getattr(args[0], "lake_dir", None)

    def on_drain(self, t0, t1, args) -> None:
        if not self.lake_dir:
            return
        pattern = os.path.join(self.lake_dir, "_staging", "*", "*",
                               "shuffle", "index.json")
        for index in glob.glob(pattern):
            try:
                if os.path.getmtime(index) < t0 - 1e-3:
                    continue
                with open(index) as f:
                    mapping = json.load(f)
            except (OSError, ValueError):
                continue
            sdir = os.path.dirname(index)
            for fname in mapping:
                path = os.path.join(sdir, fname)
                try:
                    self.rows += pq.read_metadata(path).num_rows
                    self.bytes += os.path.getsize(path)
                    self.files += 1
                except OSError:
                    continue


def install(tracer: Tracer) -> ShuffleCounter:
    """Wrap the layer boundaries; a missing name only nulls its metrics."""
    import importlib

    from qwery_ray.cdc import engine as E
    from qwery_ray.cdc import tail as T

    shuffle = ShuffleCounter()
    eng = getattr(E, "CDCLakeEngine", None)
    tracer.wrap(T.ParquetTail, "lsn_range", "tail.lsn_range")
    tracer.wrap(T.ParquetTail, "size_estimate", "tail.size_estimate")
    if eng is None:
        tracer.missing.update(["replay", "map", "reduce", "commit"])
        tracer.warn("CDCLakeEngine not found; replay layers are null")
        return shuffle
    tracer.wrap(eng, "replay", "replay", before=shuffle.on_replay,
                outermost=True)
    tracer.wrap(eng, "_collect_shuffle_index", "map", after=shuffle.on_drain)
    tracer.wrap(eng, "_run_merge", "reduce")
    tracer.wrap(eng, "_commit_txn", "commit")
    tracer.wrap_enter(eng, "_commit_lock", "commit.lock_wait")
    tracer.wrap(eng, "_commit_manifest", "commit.manifest_write")
    tracer.wrap(eng, "_gc_superseded", "commit.gc")
    for mod_name, funcs in DML_FUNCS.items():
        mod = importlib.import_module(mod_name)
        for fn in funcs:
            tracer.wrap(mod, fn, "dml.apply", outermost=True)
    return shuffle


# ------------------------------------------------------- manifest counters
def manifest_files(manifest: dict) -> list[str]:
    out = []
    for info in manifest.get("partitions", {}).values():
        if info.get("file"):
            out.append(info["file"])
        out += [d["file"] for d in info.get("deltas") or []]
    return out


def manifest_diff(before: dict, after: dict) -> dict:
    """What one write did to a lake, from its public manifest: the lineage
    of the new transactions plus which partitions rewrote their base and how
    many delta files were added."""
    old_txns = set(before.get("committed_txns", []))
    new = [t for t in after.get("lineage", []) if t["txn"] not in old_txns]
    rewrites = deltas = 0
    for pid, info in after.get("partitions", {}).items():
        old = before.get("partitions", {}).get(pid) or {}
        if info.get("file") != old.get("file"):
            rewrites += 1
        n_old = len(old.get("deltas") or [])
        n_new = len(info.get("deltas") or [])
        if info.get("file") == old.get("file"):
            deltas += max(0, n_new - n_old)
        else:
            deltas += n_new
    return {
        "commits": len(new),
        "events": sum(int(t["hi"]) - int(t["lo"]) for t in new),
        "partitions_touched": sum(int(t.get("partitions_touched", 0))
                                  for t in new),
        "rows_upserted": sum(int(t.get("rows_upserted", 0)) for t in new),
        "rows_deleted": sum(int(t.get("rows_deleted", 0)) for t in new),
        "bytes_written": sum(int(t.get("bytes_written", 0)) for t in new),
        "base_rewrites": rewrites,
        "delta_files": deltas,
    }


def lake_bytes(lake_dir: str, manifest: dict) -> int:
    return sum(os.path.getsize(os.path.join(lake_dir, f))
               for f in manifest_files(manifest))


def lake_rows_read(lake_dir: str, manifest: dict) -> int:
    return sum(pq.read_metadata(os.path.join(lake_dir, f)).num_rows
               for f in manifest_files(manifest))


# --------------------------------------------------------- Ray Data stats
OP_KINDS = ("ReadParquet", "MapBatches", "Aggregate", "Join", "Sort",
            "Repartition")
_OP_RE = re.compile(r"^Operator \d+ (?P<name>[^:]+):", re.M)
_WALL_RE = re.compile(r"Remote wall time: .*?([\d.]+)(us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def op_kind(name: str) -> str:
    """An operator's kind by the first matching word of its (possibly
    fused) name."""
    first = name.split("->")[0]
    for kind, words in (("ReadParquet", ("Read",)), ("Join", ("Join",)),
                        ("Sort", ("Sort",)),
                        ("Repartition", ("Repartition", "Shuffle")),
                        ("Aggregate", ("Aggregate", "Agg"))):
        if any(w in first for w in words):
            return kind
    return "MapBatches"


def op_times(stats_text: str) -> dict[str, float]:
    """Summed remote wall time per operator kind from ``Dataset.stats()``."""
    out = {k: 0.0 for k in OP_KINDS}
    heads = list(_OP_RE.finditer(stats_text))
    for i, m in enumerate(heads):
        end = heads[i + 1].start() if i + 1 < len(heads) else len(stats_text)
        block = stats_text[m.end():end]
        for w in _WALL_RE.finditer(block):
            out[op_kind(m.group("name"))] += float(w.group(1)) * \
                _UNIT[w.group(2)]
    return out


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0
