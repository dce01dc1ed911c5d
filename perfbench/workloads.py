"""The three workloads: ``backfill``, ``tail`` and ``sql``.

Each is a closed loop with one client: the next operation starts when the
previous one returned. Every operation's output is checked against an
oracle outside the timed region. A traced run does the same work as an
untraced run of the same seed, with the layer wrappers on for every
operation; ``perfbench/overhead.py`` compares the two.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import gen, oracle
from .layers import (OP_KINDS, REPLAY_LAYERS, lake_bytes, lake_rows_read,
                     manifest_diff, manifest_files, op_times, timed)
from .trace import Tracer, attribute

# Input sizes, and ``op_s``: the seconds of ``--seconds`` one timed
# operation (a backfill replay, a tail txn, a sql round) stands for.
# ``--seconds`` sets the amount of work, ``seconds / op_s`` operations, not
# a deadline: every run of a seed then does the same work and leaves the
# lake in the same state, however fast the host is that day. The sizes keep
# a whole run (Ray start, set-up, timed phase, checks) under a minute with
# Ray on one CPU, so that 22 runs of every workload fit in one hour.
SIZES = {
    "backfill": {"events": 60_000, "keys": 12_000, "segments": 16,
                 "partitions": 8, "txns": 4, "op_s": 2.0},
    "tail": {"base_events": 30_000, "keys": 12_000, "base_segments": 16,
             "partitions": 8, "step_events": 2_500, "op_s": 1.0},
    "sql": {"customer": 1_500, "orders": 15_000, "lineitem": 60_000,
            "events": 20_000, "documents": 2_000, "dml_target": 20_000,
            "dml_source": 2_000, "lake_events": 12_000, "lake_keys": 3_000,
            "lake_partitions": 4, "lake_tail_txns": 7,
            "merge_lake_partitions": 4, "lake_merge_rows": 400,
            "op_s": 3.0},
}

BENCH_QUERIES = {
    "q1_pricing_summary":
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
        "AVG(l_quantity) AS avg_qty, COUNT(*) AS n FROM lineitem "
        "WHERE l_quantity < 50 GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus",
    "join_filter_agg":
        "SELECT c.c_mktsegment, COUNT(*) AS n, SUM(o.o_totalprice) AS rev "
        "FROM orders o INNER JOIN customer c ON o.o_custkey = c.c_custkey "
        "WHERE o.o_orderstatus = 'F' GROUP BY c.c_mktsegment",
    "join_large":
        "SELECT o.o_orderpriority, COUNT(*) AS n FROM lineitem l "
        "INNER JOIN orders o ON l.l_orderkey = o.o_orderkey "
        "WHERE l.l_quantity > 30 GROUP BY o.o_orderpriority",
    "sort_limit_topk":
        "SELECT o_orderkey, o_totalprice FROM orders "
        "ORDER BY o_totalprice DESC LIMIT 100",
    "count_distinct":
        "SELECT o_orderstatus, COUNT(DISTINCT o_custkey) AS nc "
        "FROM orders GROUP BY o_orderstatus",
    "window_latest_per_key":
        "SELECT o_custkey, o_orderkey FROM orders "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY o_custkey "
        "ORDER BY o_orderdate DESC, o_orderkey) = 1",
    "events_hourly_window":
        "SELECT DATE_TRUNC('hour', ts) AS h, event_type, COUNT(*) AS n, "
        "SUM(value) AS total FROM events GROUP BY "
        "DATE_TRUNC('hour', ts), event_type",
}
# how each bench query's result is compared: ordered rows, or only the
# sort-key positions of an ORDER BY … LIMIT
QUERY_ORDER = {"q1_pricing_summary": {"ordered": True},
               "sort_limit_topk": {"ordered": True, "key_cols": [1]}}

DML_TARGET_COLS = "k, grp, v, price, note"
DML_STATEMENTS = {
    "upsert_keyed":
        ("UPSERT INTO '{t}' SELECT k, grp, v, price, note FROM dml_src "
         "KEYED ON k",
         "SELECT * FROM src UNION ALL "
         "SELECT * FROM tgt WHERE k NOT IN (SELECT k FROM src)"),
    "merge_3arm":
        ("MERGE INTO '{t}' AS tg USING (SELECT * FROM dml_src) AS sr "
         "ON tg.k = sr.k "
         "WHEN MATCHED AND sr.v < 0 THEN DELETE "
         "WHEN MATCHED THEN UPDATE SET v = sr.v, price = sr.price "
         "WHEN NOT MATCHED THEN INSERT (k, grp, v, price, note) "
         "VALUES (sr.k, sr.grp, sr.v, sr.price, sr.note)",
         "SELECT t.k, t.grp, s.v, s.price, t.note FROM tgt t "
         "JOIN src s ON t.k = s.k WHERE s.v >= 0 UNION ALL "
         "SELECT * FROM tgt WHERE k NOT IN (SELECT k FROM src) UNION ALL "
         "SELECT * FROM src WHERE k NOT IN (SELECT k FROM tgt)"),
    "update_keyed":
        ("UPDATE '{t}' SET v = nv FROM (SELECT k, v AS nv FROM dml_src) "
         "KEYED ON k",
         "SELECT t.k, t.grp, COALESCE(s.v, t.v) AS v, t.price, t.note "
         "FROM tgt t LEFT JOIN src s ON t.k = s.k"),
    "update_where":
        ("UPDATE '{t}' SET price = price * 2 WHERE grp = 'g3'",
         "SELECT k, grp, v, CASE WHEN grp = 'g3' THEN price * 2 "
         "ELSE price END AS price, note FROM tgt"),
    "delete_where":
        ("DELETE FROM '{t}' WHERE v < 100",
         "SELECT * FROM tgt WHERE NOT (v < 100)"),
}
LAKE_MERGE_SQL = (
    "MERGE INTO '{lake}' AS tg USING (SELECT * FROM lake_src) AS sr "
    "ON tg.repo = sr.repo AND tg.path = sr.path "
    "WHEN MATCHED AND sr.kind = 'del' THEN DELETE "
    "WHEN MATCHED THEN UPDATE SET content = sr.content "
    "WHEN NOT MATCHED THEN INSERT (repo, path, content) "
    "VALUES (sr.repo, sr.path, sr.content)")


def _median(xs):
    return statistics.median(xs) if xs else None


def _consume(ds) -> pa.Table:
    """Pull every row of a query result to the driver."""
    import ray.data as rd

    if not isinstance(ds, rd.Dataset):
        return ds
    parts = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not parts:
        return ds.schema().empty_table() if ds.schema() is not None \
            else pa.table({})
    return pa.concat_tables(parts, promote_options="permissive")


class Bench:
    """One run of one workload."""

    name = ""
    # sample classes the workload has no operations of, and the class each
    # of them reports instead: an untraced run prints every end-to-end
    # metric of BENCHMARK.json, so these metrics only mirror the workload's
    # own latency and carry no claim of their own
    mirrors: dict[str, str] = {}
    # idle workers Ray keeps during the run (None: Ray's default, one per
    # CPU slot); see Sql
    idle_workers: int | None = None

    def __init__(self, seed: int, seconds: float, trace: bool, root: str,
                 tracer: Tracer, shuffle):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.root = root
        self.inputs = os.path.join(root, "inputs")
        self.tracer, self.shuffle = tracer, shuffle
        self.sizes = SIZES[self.name]
        # class -> operation kind -> walls
        self.samples: dict[str, dict[str, list[float]]] = \
            defaultdict(lambda: defaultdict(list))
        self.attempted = self.failed = 0
        self.checks_failed: list[str] = []
        self.counts: Counter = Counter()  # traced-run counters
        self.events_committed = 0
        self.write_wall = 0.0
        self.setup: dict[str, float] = {}
        self.timed_s = 0.0
        self.write_amp = self.space_amp = None
        self.con = oracle.connect()
        self._oracle_cache: dict = {}
        self._passed: set = set()
        self.pending: list = []
        self.tail_dir = None

    # -------------------------------------------------------------- ops
    def op(self, classes, kind: str, fn):
        """Run one timed operation. Returns (result, wall); result is None
        when the operation raised."""
        self.attempted += 1
        self.tracer.enabled = self.trace
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            self.failed += 1
            self.checks_failed.append(f"{kind} raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None, None
        finally:
            self.tracer.enabled = False
        wall = time.perf_counter() - t0
        for c in classes:
            self.samples[c][kind].append(wall)
        return out, wall

    def check(self, what: str, fn, *args) -> None:
        """Queue an output check; ``run_checks`` runs them after the timed
        phase, so oracle work is neither timed nor in the peak RSS."""
        self.pending.append((what, fn, args))

    def run_checks(self) -> None:
        for what, fn, args in self.pending:
            try:
                fn(*args)
            except oracle.CheckFailed as exc:
                self.checks_failed.append(str(exc))
                print(f"perfbench: check failed: {exc}", file=sys.stderr)
            except Exception as exc:
                self.checks_failed.append(f"{what}: check raised {exc!r}")
                traceback.print_exc(file=sys.stderr)
        self.pending.clear()

    def compare_rows(self, name: str, got: list, key, want_sql: str,
                     how: dict) -> None:
        # each round repeats the statements: a result equal to one that
        # already passed its check passes it again
        try:
            seen = (key, hash(tuple(got)))
        except TypeError:
            seen = None
        if seen is not None and seen in self._passed:
            return
        oracle.compare(name, got, self.oracle_rows(key, want_sql), **how)
        self._passed.add(seen)

    def oracle_rows(self, key, sql: str):
        if key not in self._oracle_cache:
            self._oracle_cache[key] = self.con.execute(sql).fetchall()
        return self._oracle_cache[key]

    # ------------------------------------------------------------ setup
    def run_setup(self) -> None:
        """Build the inputs from the seed, then the pre-built state."""
        rng = np.random.default_rng([self.seed, 0])
        (_, self.setup["gen.inputs_s"]) = timed(self.generate, rng)
        (_, self.setup["gen.lake_build_s"]) = timed(self.build)

    def run_timed(self) -> None:
        (_, self.timed_s) = timed(self.timed_phase)

    def generate(self, rng) -> None:
        raise NotImplementedError

    def build(self) -> None:
        """Untimed pre-built state (a lake) the timed phase starts from."""

    def timed_phase(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Checks that need the whole run (exactly-once, final state)."""

    # ------------------------------------------------------- replay ops
    def replay_op(self, cls, kind, eng, events_path, **kw):
        """One replay() call; returns (manifest before, manifest after,
        wall, manifest diff) or None when it raised."""
        before = eng.load_manifest()
        out, wall = self.op([cls], kind,
                            lambda: eng.replay(events_path, **kw))
        if out is None:
            return None
        after = eng.load_manifest()
        diff = manifest_diff(before, after)
        self.events_committed += diff["events"]
        self.write_wall += wall
        if self.trace:
            self.count_write(eng, diff)
        return before, after, wall, diff

    def count_write(self, eng, diff: dict) -> None:
        for k, v in diff.items():
            self.counts[f"w.{k}"] += v
        self.counts["w.manifest_bytes"] += _size(eng.manifest_path)
        self.counts["w.writes"] += 1

    # ---------------------------------------------------- lake reads
    LAKE_READS = ("lake_agg", "lake_key_filter", "lake_version",
                  "lake_changes")

    def lake_reads(self, lake: str, events_files: list[str],
                   kinds=LAKE_READS) -> None:
        """Lake statements of ``kinds``, each checked against the LWW oracle
        at the versions it reads."""
        from qwery_ray import QweryEngine
        from qwery_ray.cdc.engine import CDCLakeEngine

        eng = CDCLakeEngine.open(lake)
        vs = eng.versions()
        v_from, v_to = vs[max(0, len(vs) - 5)], vs[-1]
        wm = {v: eng.load_manifest_version(v)["watermark_lsn"]
              for v in (v_from, v_to)}
        state_now = oracle.lww_state_sql(oracle.read_events_sql(events_files))
        state_from = oracle.lww_state_sql(
            oracle.read_events_sql(events_files, wm[v_from]))
        hot = gen.HOT_REPO
        stmts = {
            "lake_agg": (
                f"SELECT lang, COUNT(*) AS n, MAX(lsn) AS max_lsn FROM "
                f"'{lake}' WITH LAKE GROUP BY lang",
                f"SELECT lang, COUNT(*), MAX(lsn) FROM ({state_now}) "
                f"GROUP BY lang"),
            "lake_key_filter": (
                f"SELECT path, lsn, content FROM '{lake}' WITH LAKE "
                f"WHERE repo = '{hot}'",
                f"SELECT path, lsn, content FROM ({state_now}) "
                f"WHERE repo = '{hot}'"),
            "lake_version": (
                f"SELECT lang, COUNT(*) AS n FROM '{lake}' WITH LAKE "
                f"VERSION {v_from} GROUP BY lang",
                f"SELECT lang, COUNT(*) FROM ({state_from}) GROUP BY lang"),
            "lake_changes": (
                f"SELECT change, COUNT(*) AS n FROM '{lake}' WITH LAKE "
                f"CHANGES VERSION {v_from} TO {v_to} GROUP BY change",
                f"SELECT change, n FROM ("
                f"SELECT 'upsert' AS change, COUNT(*) AS n FROM "
                f"({state_now}) b LEFT JOIN ({state_from}) a "
                f"ON a.repo = b.repo AND a.path = b.path "
                f"WHERE a.lsn IS NULL OR a.lsn <> b.lsn UNION ALL "
                f"SELECT 'delete', COUNT(*) FROM ({state_from}) a "
                f"LEFT JOIN ({state_now}) b "
                f"ON a.repo = b.repo AND a.path = b.path "
                f"WHERE b.lsn IS NULL) WHERE n > 0"),
        }
        manifests = {"lake_agg": eng.load_manifest(),
                     "lake_key_filter": eng.load_manifest(),
                     "lake_version": eng.load_manifest_version(v_from)}
        q = QweryEngine(table_root=self.inputs)
        for kind in kinds:
            sql, want_sql = stmts[kind]
            res = self.statement(["lake_read"], kind, q, sql,
                                 span="lake_read")
            if res is None:
                continue
            table, _ = res
            self.check(kind, self.compare_rows, kind, oracle.rows_of(table),
                       (lake, kind, wm[v_from], wm[v_to]), want_sql, {})
            if self.trace:
                m = manifests.get(kind)
                files = manifest_files(m) if m else []
                parts = len(m["partitions"]) if m else 0
                self.counts["lr.files"] += len(files)
                self.counts["lr.partitions"] += parts
                self.counts["lr.deltas"] += max(0, len(files) - parts)
                if m:
                    self.counts["lr.rows_read"] += lake_rows_read(lake, m)
                    self.counts["lr.rows_out"] += table.num_rows

    def statement(self, classes, kind: str, q, sql: str, span: str = "sql"):
        """One SQL statement: parse → execute (plan) → consume. Returns
        (result table, wall) or None when it raised."""
        from qwery_ray.sqlc.parser import parse

        holder = {}
        tracer = self.tracer

        def run():
            with tracer.span(f"{span}.parse"):
                stmts = parse(sql)
            result = None
            for st in stmts:
                with tracer.span(f"{span}.plan"):
                    result = q.execute(st)
            with tracer.span(f"{span}.exec"):
                holder["table"] = _consume(result)
            holder["ds"] = result
            return True

        out, wall = self.op(classes, kind, run)
        if out is None:
            return None
        if self.trace:
            self.count_dataset(holder["ds"], holder["table"], span)
            if span == "dml":
                self.counts["dml.wall"] += wall
        return holder["table"], wall

    def count_dataset(self, ds, table, span: str) -> None:
        import ray.data as rd

        self.counts[f"{span}.rows_out"] += table.num_rows
        if isinstance(ds, rd.Dataset):
            try:
                for kind, t in op_times(ds.stats()).items():
                    self.counts[f"op.{kind}"] += t
            except Exception as exc:
                self.tracer.warn(f"Dataset.stats() unreadable: {exc!r}")

    # ---------------------------------------------------------- metrics
    def class_median(self, cls: str):
        """Median latency of a class: the median over its statement kinds
        of each kind's median over the run, so every kind weighs the same
        however often it ran. A class the workload has no operations of
        reports its mirror (see ``mirrors``)."""
        kinds = self.samples.get(self.mirrors.get(cls, cls)) or {}
        return _median([_median(ws) for ws in kinds.values()])

    def end_to_end(self, setup_s: float, peak_rss: float) -> dict:
        return {
            "setup_s": setup_s,
            "events_per_s": self.events_committed / self.write_wall
            if self.write_wall else None,
            "txn_p50_s": self.class_median("txn"),
            "dml_p50_s": self.class_median("dml"),
            "query_p50_s": self.class_median("query"),
            "lake_read_p50_s": self.class_median("lake_read"),
            "write_amp": self.write_amp,
            "space_amp": self.space_amp,
            "peak_rss_mb": peak_rss,
        }

    def detail(self) -> dict:
        """Per class: sample count, the class median, the highest tail
        percentile with at least ten samples beyond it, and each kind's
        count and median."""
        out = {}
        for cls, kinds in sorted(self.samples.items()):
            walls = sorted(w for ws in kinds.values() for w in ws)
            rec = {"n": len(walls), "p50": self.class_median(cls)}
            for p in (99, 95, 90, 75):
                if len(walls) * (100 - p) / 100 >= 10:
                    rec[f"p{p}"] = walls[min(len(walls) - 1,
                                             int(len(walls) * p / 100))]
                    break
            rec["kinds"] = {k: [len(ws), _median(ws)]
                            for k, ws in kinds.items()}
            out[cls] = rec
        out["mirrors"] = self.mirrors
        return out

    def layer_metrics(self) -> dict:
        tr, c = self.tracer, self.counts
        spans = tr.spans
        windows = [(t0, t1) for n, t0, t1 in spans if n == "replay"]
        wall = sum(t1 - t0 for t0, t1 in windows)
        att = attribute(spans, windows, REPLAY_LAYERS)
        events_in = c["w.events"]
        n_reduce = tr.count("reduce")
        n_commit = tr.count("commit")

        def null_if(names, value):
            return None if any(n in tr.missing for n in names) else value

        def ratio(a, b):
            return a / b if a is not None and b else 0.0

        dml_apply = tr.total("dml.apply")
        m = {
            "ray.init_s": self.setup.get("ray.init_s"),
            "ray.warm_s": self.setup.get("ray.warm_s"),
            "gen.inputs_s": self.setup.get("gen.inputs_s"),
            "gen.lake_build_s": self.setup.get("gen.lake_build_s"),
            "tail.lsn_range_s": tr.total("tail.lsn_range"),
            "tail.size_estimate_s": tr.total("tail.size_estimate"),
            "tail.calls": null_if(
                ["tail.lsn_range", "tail.size_estimate"],
                (tr.count("tail.lsn_range") or 0)
                + (tr.count("tail.size_estimate") or 0)),
            "tail.segments": len(glob.glob(os.path.join(self.tail_dir,
                                                        "*.parquet")))
            if self.tail_dir else 0,
            "tail.self_s": null_if(["tail.lsn_range"], att["tail"]),
            "map.busy_s": tr.total("map"),
            "map.self_s": null_if(["map"], att["map"]),
            "map.events_in": events_in,
            "map.shuffle_rows": null_if(["map"], self.shuffle.rows),
            "map.combine_ratio": null_if(["map"], ratio(self.shuffle.rows,
                                                        events_in)),
            "map.shuffle_bytes": null_if(["map"], self.shuffle.bytes),
            "map.shuffle_files": null_if(["map"], self.shuffle.files),
            "reduce.busy_s": tr.total("reduce"),
            "reduce.self_s": null_if(["reduce"], att["reduce"]),
            "reduce.merge_attempts": n_reduce,
            "reduce.occ_useful_ratio": null_if(
                ["reduce", "commit"], ratio(n_commit, n_reduce)),
            "reduce.partitions_touched": c["w.partitions_touched"],
            "reduce.rows_upserted": c["w.rows_upserted"],
            "reduce.rows_deleted": c["w.rows_deleted"],
            "reduce.bytes_written": c["w.bytes_written"],
            "reduce.delta_files": c["w.delta_files"],
            "reduce.base_rewrites": c["w.base_rewrites"],
            "commit.busy_s": tr.total("commit"),
            "commit.self_s": null_if(["commit"], att["commit"]),
            "commit.lock_wait_s": tr.total("commit.lock_wait"),
            "commit.manifest_write_s": tr.total("commit.manifest_write"),
            "commit.gc_s": tr.total("commit.gc"),
            "commit.manifest_bytes": ratio(c["w.manifest_bytes"],
                                           c["w.writes"]),
            "commit.count": n_commit,
            "replay.calls": null_if(["replay"], len(windows)),
            "replay.wall_s": null_if(["replay"], wall),
            "replay.other_s": null_if(["replay"], att["other"]),
            "replay.layers_share": null_if(
                ["replay"], ratio(wall - att["other"], wall)),
            "lake_read.plan_s": tr.total("lake_read.plan"),
            "lake_read.exec_s": tr.total("lake_read.exec"),
            "lake_read.files": ratio(c["lr.files"], sum(
                len(ws) for ws in self.samples["lake_read"].values())),
            "lake_read.deltas_per_partition": ratio(c["lr.deltas"],
                                                    c["lr.partitions"]),
            "lake_read.rows_read_per_row_returned": ratio(
                c["lr.rows_read"], c["lr.rows_out"]),
            "sql.parse_s": tr.total("sql.parse"),
            "sql.plan_s": tr.total("sql.plan"),
            "sql.exec_s": tr.total("sql.exec"),
            "sql.rows_out": c["sql.rows_out"],
            "dml.source_s": null_if(["dml.apply"],
                                    c["dml.wall"] - (dml_apply or 0.0)),
            "dml.apply_s": dml_apply,
            "dml.rows_in": c["dml.rows_in"],
            "dml.rows_changed": c["dml.rows_changed"],
            "dml.bytes_written": c["dml.bytes_written"],
            "trace.timed_s": self.timed_s,
        }
        for kind in OP_KINDS:
            m[f"op.{kind}_s"] = c[f"op.{kind}"]
        return m

    def events_bytes(self, files) -> int:
        return sum(os.path.getsize(f) for f in files)

    def oracle_state_bytes(self, events_files: list[str]) -> int:
        """Bytes of the oracle final table written once as parquet."""
        state = self.con.execute(oracle.lww_state_sql(
            oracle.read_events_sql(events_files))).arrow()
        path = os.path.join(self.root, "oracle_state.parquet")
        pq.write_table(state, path)
        try:
            return os.path.getsize(path)
        finally:
            os.remove(path)


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def n_ops(bench: Bench, least: int) -> int:
    """Timed operations in a run: ``--seconds`` of nominal work."""
    return max(least, round(bench.seconds / bench.sizes["op_s"]))


# =================================================================== backfill
class Backfill(Bench):
    """Bulk replay of a fresh stream into an empty lake, repeated into new
    lakes for the run length. Map does most of the work, commit almost
    none."""

    name = "backfill"
    mirrors = {"txn": "replay", "dml": "replay", "query": "replay"}

    def generate(self, rng) -> None:
        s = self.sizes
        keys = gen.KeySpace(rng, s["keys"])
        self.events_dir = os.path.join(self.inputs, "events")
        self.events_files = gen.write_stream(
            self.events_dir, rng, keys, s["events"], s["segments"])

    def timed_phase(self) -> None:
        from qwery_ray.cdc.engine import CDCLakeEngine

        s = self.sizes
        chunk = s["events"] // s["txns"]
        seg_bytes = self.events_bytes(self.events_files)
        amps, last = [], None
        n = n_ops(self, 3)
        for i in range(n):
            lake = os.path.join(self.root, f"lake{i}")
            eng = CDCLakeEngine(lake, num_partitions=s["partitions"])
            r = self.replay_op("replay", "backfill_replay", eng,
                               self.events_dir, chunk_lsns=chunk)
            if r is None:
                break
            before, after, wall, diff = r
            amps.append(diff["bytes_written"] / seg_bytes)
            self.check("backfill", self.check_lake, eng, after,
                       i == n - 1)
            self.lake_reads(lake, self.events_files, ["lake_agg"])
            last = lake
        self.write_amp = _median(amps)
        self.last_lake = last

    def check_lake(self, eng, manifest, replay_again: bool) -> None:
        s = self.sizes
        if manifest["version"] != s["txns"] \
                or manifest["watermark_lsn"] != s["events"]:
            raise oracle.CheckFailed(
                f"backfill: version {manifest['version']} watermark "
                f"{manifest['watermark_lsn']}, expected {s['txns']} txns "
                f"up to lsn {s['events']}")
        oracle.check_lake_state(self.con, eng.table(), self.events_files,
                                "backfill")
        if not replay_again:
            return
        again = eng.replay(self.events_dir,
                           chunk_lsns=s["events"] // s["txns"])
        if again["version"] != manifest["version"]:
            raise oracle.CheckFailed("backfill: a repeated replay() moved "
                                     "the manifest version (exactly-once)")

    def verify(self) -> None:
        from qwery_ray.cdc.engine import CDCLakeEngine

        m = CDCLakeEngine.open(self.last_lake).load_manifest()
        self.space_amp = lake_bytes(self.last_lake, m) / \
            self.oracle_state_bytes(self.events_files)


# ======================================================================= tail
class Tail(Bench):
    """A steady CDC tail on an existing lake: publish one segment, replay
    the tail directory (one txn), repeat. Per-txn fixed costs dominate."""

    name = "tail"
    mirrors = {"dml": "txn", "query": "txn"}

    def generate(self, rng) -> None:
        from qwery_ray.cdc.tail import ParquetSegmentSink

        s = self.sizes
        self.keys = gen.KeySpace(rng, s["keys"])
        self.tail_dir = os.path.join(self.inputs, "tail")
        sink = ParquetSegmentSink(self.tail_dir)
        n, segs = s["base_events"], s["base_segments"]
        bounds = np.linspace(0, n, segs + 1, dtype=np.int64)
        for i in range(segs):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            sink.publish(gen.shuffled(rng, gen.cdc_events(
                rng, self.keys, lo, hi - lo, with_size=lo >= 0.75 * n)))
        self.lake = os.path.join(self.root, "lake")

    def build(self) -> None:
        from qwery_ray.cdc.engine import CDCLakeEngine

        s = self.sizes
        CDCLakeEngine(self.lake, num_partitions=s["partitions"]).replay(
            self.tail_dir, chunk_lsns=s["base_events"] // 4)

    def tail_files(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.tail_dir, "*.parquet")))

    def timed_phase(self) -> None:
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.cdc.tail import ParquetSegmentSink

        s = self.sizes
        rng = np.random.default_rng([self.seed, 1])
        eng = CDCLakeEngine.open(self.lake)
        sink = ParquetSegmentSink(self.tail_dir)
        seg_bytes = written = 0
        for i in range(n_ops(self, 2)):
            before_files = set(self.tail_files())
            wm = eng.load_manifest()["watermark_lsn"]
            sink.publish(gen.shuffled(rng, gen.cdc_events(
                rng, self.keys, wm, s["step_events"])))
            seg_bytes += self.events_bytes(set(self.tail_files())
                                           - before_files)
            r = self.replay_op("txn", "tail_txn", eng, self.tail_dir)
            if r is None:
                break
            before, after, _, diff = r
            written += diff["bytes_written"]
            if after["version"] != before["version"] + 1:
                self.checks_failed.append(
                    f"tail: a step moved the version from "
                    f"{before['version']} to {after['version']}")
            if i % 2:
                # reads see the lake at every point of the delta/compaction
                # cycle, not only where the run ends
                self.lake_reads(self.lake, self.tail_files(), ["lake_agg"])
        self.write_amp = written / seg_bytes if seg_bytes else None

    def verify(self) -> None:
        from qwery_ray.cdc.engine import CDCLakeEngine

        eng = CDCLakeEngine.open(self.lake)
        m = eng.load_manifest()

        def final_state():
            oracle.check_lake_state(self.con, eng.table(), self.tail_files(),
                                    "tail")
            again = eng.replay(self.tail_dir)
            if again["version"] != m["version"]:
                raise oracle.CheckFailed("tail: a repeated replay() moved "
                                         "the manifest version")

        self.check("tail", final_state)
        self.space_amp = lake_bytes(self.lake, m) / \
            self.oracle_state_bytes(self.tail_files())


# ======================================================================== sql
class Sql(Bench):
    """Rounds of the same statements in a fixed order: the seven bench
    queries and two driver queries, four lake reads, five file DML
    statements and one MERGE INTO a lake. The lake MERGE is a DML statement
    and the workload's only txn: it counts in both classes."""

    name = "sql"
    # With Ray's default of one idle worker, Ray kills and restarts a worker
    # around almost every Dataset, about 1 s on one CPU and more than most
    # statements take: the lake reads then took 1.5-3 s, bimodally (their
    # 10-seed spread was 0.25), against 0.4-0.8 s with two workers kept, as
    # a host with a few CPUs keeps them. The replay workloads run few, long
    # Datasets and were steadier with the default (backfill's replay p50
    # spread 0.05 against 0.17-0.20 with two kept).
    idle_workers = 2

    def generate(self, rng) -> None:
        s = self.sizes
        self.data = os.path.join(self.inputs, "data")
        gen.tpch_tables(self.data, rng, n_customer=s["customer"],
                        n_orders=s["orders"], n_lineitem=s["lineitem"],
                        n_events=s["events"])
        gen.documents(self.data, rng, s["documents"])
        gen.dml_files(self.data, rng, s["dml_target"], s["dml_source"])
        # the pristine target lives outside the query table root
        self.pristine = os.path.join(self.inputs, "dml_pristine.parquet")
        os.rename(os.path.join(self.data, "dml_target.parquet"),
                  self.pristine)
        keys = gen.KeySpace(rng, s["lake_keys"])
        self.lake_events = os.path.join(self.inputs, "lake_events")
        self.lake_files = gen.write_stream(
            self.lake_events, rng, keys, s["lake_events"], 8,
            content_len=200)
        self.lake = os.path.join(self.root, "lake")
        self.mlake_base = os.path.join(self.root, "lake_merge_base")
        self.mlake = os.path.join(self.root, "lake_merge")
        self.target = os.path.join(self.root, "dml_target.parquet")

    def build(self) -> None:
        """The read lake, with deltas and at least eight retained versions:
        one bulk txn, then small txns that stage merge-on-read deltas, too
        few rows to trigger a compaction, so that the lake has the same
        shape for every seed. And
        the lake MERGE's target: the same events in one txn, on fewer
        partitions. A MERGE into the read lake costs two to four times as
        much, too much to repeat in every round."""
        from qwery_ray.cdc.engine import CDCLakeEngine

        s = self.sizes
        n_tail = s["lake_events"] // 12
        eng = CDCLakeEngine(self.lake, num_partitions=s["lake_partitions"])
        eng.replay(self.lake_events, max_lsn=s["lake_events"] - n_tail)
        eng.replay(self.lake_events, chunk_lsns=n_tail // s["lake_tail_txns"])
        CDCLakeEngine(self.mlake_base,
                      num_partitions=s["merge_lake_partitions"]).replay(
            self.lake_events)
        state = self.con.execute(oracle.lww_state_sql(
            oracle.read_events_sql(self.lake_files))).arrow()
        gen.lake_merge_source(os.path.join(self.data, "lake_src.parquet"),
                              np.random.default_rng([self.seed, 2]), state,
                              s["lake_merge_rows"])

    def timed_phase(self) -> None:
        from qwery_ray import QweryEngine
        from qwery_ray.cdc.engine import CDCLakeEngine
        from qwery_ray.pipelines import driver_queries as dq

        q = QweryEngine(table_root=self.data)
        self.setup_oracle_views()
        m = CDCLakeEngine.open(self.lake).load_manifest()
        self.write_amp = sum(t["bytes_written"] for t in m["lineage"]) / \
            self.events_bytes(self.lake_files)
        for _ in range(n_ops(self, 2)):
            for name, sql in BENCH_QUERIES.items():
                res = self.statement(["query"], name, q, sql)
                if res is not None:
                    self.check(name, self.compare_rows, name,
                               oracle.rows_of(res[0]), name, sql,
                               QUERY_ORDER.get(name, {}))
            for name, fn in (("exact_dedup_docs", dq.exact_dedup_docs),
                             ("near_dup_components", dq.near_dup_components)):
                res = self.driver_query(name, fn)
                if res is not None:
                    self.check(name, self.check_driver_query, name, res)
            self.lake_reads(self.lake, self.lake_files)
            for name, (sql, want) in DML_STATEMENTS.items():
                self.file_dml(q, name, sql, want)
            self.lake_merge(q)

    def driver_query(self, name, fn):
        holder = {}
        tracer = self.tracer

        def run():
            with tracer.span("sql.plan"):
                ds = fn(self.data)
            with tracer.span("sql.exec"):
                holder["table"] = _consume(ds)
            holder["ds"] = ds
            return True

        out, _ = self.op(["query"], name, run)
        if out is None:
            return None
        if self.trace:
            self.count_dataset(holder["ds"], holder["table"], "sql")
        return holder["table"]

    def check_driver_query(self, name: str, table: pa.Table) -> None:
        docs = pq.read_table(os.path.join(self.data, "documents.parquet"))
        if name == "exact_dedup_docs":
            want = self.oracle_rows(name, (
                "SELECT doc_id FROM documents WHERE doc_id IN "
                "(SELECT MIN(doc_id) FROM documents GROUP BY text)"))
            got = [(v,) for v in table.column("doc_id").to_pylist()]
            oracle.compare(name, got, want)
        else:
            want = oracle.components_oracle(docs.column("doc_id").to_pylist())
            got = list(zip(table.column("id").to_pylist(),
                           table.column("component").to_pylist()))
            oracle.compare(name, got, want, ordered=True)

    def setup_oracle_views(self) -> None:
        for f in glob.glob(os.path.join(self.data, "*.parquet")):
            name = os.path.splitext(os.path.basename(f))[0]
            self.con.execute(f"CREATE OR REPLACE VIEW {name} AS "
                             f"SELECT * FROM read_parquet('{f}')")
        self.con.execute(f"CREATE OR REPLACE VIEW tgt AS SELECT "
                         f"{DML_TARGET_COLS} FROM "
                         f"read_parquet('{self.pristine}')")
        self.con.execute(f"CREATE OR REPLACE VIEW src AS SELECT "
                         f"{DML_TARGET_COLS} FROM dml_src")

    def file_dml(self, q, name: str, sql: str, want_sql: str) -> None:
        shutil.copyfile(self.pristine, self.target)
        res = self.statement(["dml"], name, q, sql.format(t=self.target),
                             span="dml")
        if res is None:
            return
        table, _ = res
        got = pq.read_table(self.target).select(
            [c.strip() for c in DML_TARGET_COLS.split(",")])
        self.check(name, self.compare_rows, name, oracle.rows_of(got), name,
                   want_sql, {})
        if self.trace:
            self.count_dml(table, self.count_source("dml_src"),
                           os.path.getsize(self.target))

    def count_source(self, name: str) -> int:
        return pq.read_metadata(os.path.join(self.data,
                                             f"{name}.parquet")).num_rows

    def count_dml(self, result: pa.Table, rows_in: int, nbytes: int) -> None:
        self.counts["dml.rows_in"] += rows_in
        self.counts["dml.rows_changed"] += sum(
            int(result.column(c)[0].as_py() or 0) for c in result.column_names
            if c.startswith("ROWS_") and c != "ROWS_REJECTED")
        self.counts["dml.bytes_written"] += nbytes

    def lake_merge(self, q) -> None:
        """MERGE INTO a copy of the merge lake, restored untimed before each
        statement."""
        from qwery_ray.cdc.engine import CDCLakeEngine

        shutil.rmtree(self.mlake, ignore_errors=True)
        shutil.copytree(self.mlake_base, self.mlake)
        eng = CDCLakeEngine.open(self.mlake)
        before = eng.load_manifest()
        res = self.statement(["dml", "txn"], "merge_into_lake", q,
                             LAKE_MERGE_SQL.format(lake=self.mlake),
                             span="dml")
        if res is None:
            return
        table, wall = res
        after = eng.load_manifest()
        diff = manifest_diff(before, after)
        self.events_committed += diff["events"]
        self.write_wall += wall
        self.check("merge_into_lake", self.check_lake_merge, eng.table(),
                   before, after)
        if self.trace:
            self.count_write(eng, diff)
            self.count_dml(table, self.count_source("lake_src"),
                           diff["bytes_written"])

    def check_lake_merge(self, lake: pa.Table, before, after) -> None:
        if after["version"] != before["version"] + 1:
            raise oracle.CheckFailed(
                f"merge_into_lake: version {before['version']} -> "
                f"{after['version']}, expected one txn")
        state = oracle.lww_state_sql(oracle.read_events_sql(self.lake_files))
        src = f"read_parquet('{os.path.join(self.data, 'lake_src.parquet')}')"
        want = self.oracle_rows("merge_into_lake", f"""
            SELECT s.repo, s.path, COALESCE(r.content, s.content),
                   s.size_bytes
            FROM ({state}) s LEFT JOIN {src} r
              ON s.repo = r.repo AND s.path = r.path
            WHERE r.kind IS NULL OR r.kind <> 'del'
            UNION ALL
            SELECT r.repo, r.path, r.content, NULL FROM {src} r
            LEFT JOIN ({state}) s ON s.repo = r.repo AND s.path = r.path
            WHERE s.repo IS NULL""")
        got = oracle.rows_of(lake.select(["repo", "path", "content",
                                          "size_bytes"]))
        oracle.compare("merge_into_lake", got, want)
        wm = before["watermark_lsn"]
        old_lsn = {(r, p): lsn for r, p, lsn in self.con.execute(
            f"SELECT repo, path, lsn FROM ({state})").fetchall()}
        for r, p, lsn in zip(*(lake.column(c).to_pylist()
                               for c in ("repo", "path", "lsn"))):
            if old_lsn.get((r, p)) != lsn and lsn <= wm:
                raise oracle.CheckFailed(
                    f"merge_into_lake: changed row {(r, p)} has lsn {lsn} "
                    f"at or below the old watermark {wm}")

    def verify(self) -> None:
        from qwery_ray.cdc.engine import CDCLakeEngine

        eng = CDCLakeEngine.open(self.lake)
        m = eng.load_manifest()
        self.check("sql lake", oracle.check_lake_state, self.con,
                   eng.table(), self.lake_files, "sql lake")
        self.space_amp = lake_bytes(self.lake, m) / \
            self.oracle_state_bytes(self.lake_files)


WORKLOADS = {"backfill": Backfill, "tail": Tail, "sql": Sql}
