"""Benchmark driver: headline CDC replay + SQL/ops query suite.

Prints ONE JSON line:
  {"metric": "cdc_replay_wall_sec", "value": <headline sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "events": N, "events_per_sec": N}

``--scaling``: runs the headline pipeline in two fresh processes at
RAY_GRAFT_CPUS=8 and 32 on the SAME input (page cache warmed) and reports
both throughputs + efficiency = (t_8 / t_32) / (32/8), per the sandbox
protocol in BASELINE.md (no real multi-node cluster available).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# Bench storage lives on tmpfs: this sandbox's single virtio disk tops out at
# ~165 MB/s buffered, which storage-binds the replay and masks CPU scaling.
# A real deployment's lake sits on S3/HDFS whose aggregate bandwidth scales
# with the cluster — RAM-backed tmpfs is the closer model of that here.
BENCH_TMP = os.environ.get("QWERY_BENCH_TMP", "/dev/shm/qwery_bench")

# headline CDC stream size scales with the sf tier (sf0.1 sized so the
# 32-cpu run has real work per core, not scheduler overhead)
_EVENTS_BY_SF = {"sf0.001": 20_000, "sf0.01": 100_000, "sf0.1": 16_000_000}
# --scaling uses a larger stream: per-chunk fixed costs (stage scheduling,
# shuffle barrier, commit) are ~4s regardless of size; at 16M they still eat
# ~15% of the 32-cpu run. The driver's plain per-round bench stays at 16M.
_SCALING_EVENTS_BY_SF = {"sf0.001": 40_000, "sf0.01": 400_000,
                         "sf0.1": 16_000_000}


def _sf_tag() -> str:
    return os.path.basename(os.path.normpath(SF_DIR)) or "sf"


def ensure_events(hot_key_frac: float = 0.0) -> tuple[str, int]:
    """Synthesize (once, cached) the deterministic CDC event stream."""
    from qwery_ray.cdc.synth import synth_change_events

    tag = _sf_tag()
    if os.environ.get("BENCH_SCALING_CHILD") == "1":
        n_events = _SCALING_EVENTS_BY_SF.get(tag, 400_000)
    else:
        n_events = _EVENTS_BY_SF.get(tag, 100_000)
    n_keys = max(1000, n_events // 5)
    suffix = f"_hot{int(hot_key_frac * 100)}" if hot_key_frac else ""
    out = os.path.join(BENCH_TMP, tag, f"events_{n_events}{suffix}")
    marker = os.path.join(out, "_complete")
    if not os.path.exists(marker):
        shutil.rmtree(out, ignore_errors=True)
        synth_change_events(out, n_keys=n_keys, n_events=n_events, seed=42,
                            n_segments=64, evolve_after_lsn=n_events * 3 // 4,
                            mean_content_len=600, hot_key_frac=hot_key_frac)
        open(marker, "w").write("ok")
    return out, n_events


def run_headline(events_dir: str, n_events: int) -> float:
    """CDC replay wall time (fresh lake each run, worker pool pre-warmed)."""
    import ray.data as rd

    from qwery_ray.cdc.engine import CDCLakeEngine

    # untimed warmup: spin up the Ray worker pool AND trigger the heavy
    # imports (qwery_ray, polars, pandas) in every worker so the measurement
    # sees steady-state compute, not process spawn + module import
    def _warm_worker(b):
        import pyarrow as _pa

        from qwery_ray.cdc.engine import key_hash_partition_cols

        key_hash_partition_cols([_pa.chunked_array([_pa.array(["w"])]),
                                 _pa.chunked_array([_pa.array(["x"])])], 4)
        return b

    rd.range(NUM_CPUS * 16, override_num_blocks=NUM_CPUS * 8) \
        .map_batches(_warm_worker, batch_format="pyarrow").count()

    lake_dir = os.path.join(BENCH_TMP, _sf_tag(), f"lake_{NUM_CPUS}")
    shutil.rmtree(lake_dir, ignore_errors=True)
    # fixed partition count so both scaling levels do identical work
    eng = CDCLakeEngine(lake_dir, num_partitions=128)
    n_chunks = int(os.environ.get("BENCH_CHUNKS", "2"))
    t0 = time.perf_counter()
    eng.replay(events_dir, chunk_lsns=n_events // n_chunks)
    return time.perf_counter() - t0


def sql_queries() -> dict[str, str]:
    return {
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


def run_queries() -> dict[str, float]:
    from qwery_ray import QweryEngine
    from qwery_ray.pipelines import driver_queries as dq

    times: dict[str, float] = {}
    for name, sql in sql_queries().items():
        eng = QweryEngine(table_root=SF_DIR)
        t0 = time.perf_counter()
        result = eng.sql(sql)
        _consume(result)
        times[name] = round(time.perf_counter() - t0, 3)
    for name, fn in (("exact_dedup", dq.exact_dedup_docs),
                     ("token_count", dq.token_counts),
                     ("text_quality", dq.text_quality),
                     ("ann_topk", dq.ann_topk),
                     ("minhash_near_dups", dq.minhash_near_dups),
                     ("sliding_window", dq.events_sliding_window),
                     ("session_window", dq.events_sessions),
                     ("pack_sequences", dq.pack_sequences_docs),
                     ("lm_quality_score", dq.lm_quality_score),
                     ("chunk_documents", dq.chunk_documents),
                     ("block_dedup", dq.block_dedup_docs),
                     ("dup_spans", dq.dup_span_docs),
                     ("repetition_quality", dq.repetition_quality),
                     ("decontaminate", dq.decontaminate_docs),
                     ("gopher_filter", dq.gopher_filter),
                     ("stratified_sample", dq.stratified_docs),
                     ("bm25_scores", dq.bm25_keyword_scores),
                     ("embedding_kmeans", dq.embedding_kmeans),
                     ("semantic_dedup", dq.semantic_dedup_docs),
                     ("near_dup_components", dq.near_dup_components),
                     ("dsir_weights", dq.dsir_weights_docs),
                     ("bpe_tokens", dq.bpe_tokens),
                     ("streaming_window", dq.streaming_window)):
        t0 = time.perf_counter()
        _consume(fn(SF_DIR))
        times[name] = round(time.perf_counter() - t0, 3)

    # embedding near-dup at bench scale uses the LSH-bucketed scale path
    import ray.data as rd

    from qwery_ray.ops.dedup import embedding_dup_pairs

    t0 = time.perf_counter()
    emb = rd.read_parquet(os.path.join(SF_DIR, "embeddings.parquet"))
    _consume(embedding_dup_pairs(emb, num_buckets=64))
    times["embedding_dups_lsh"] = round(time.perf_counter() - t0, 3)
    return times


def _consume(result):
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        n = 0
        for b in result.iter_batches(batch_size=65536, batch_format="pyarrow"):
            n += len(b)
        return n
    return len(result)


def main() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    events_dir, n_events = ensure_events()
    # warm page cache so both scaling runs measure compute, not first-read I/O
    _warm(events_dir)
    # min-of-N headline: single-run wall noise on this shared VM is ±20%
    # in normal windows and 5x+ during co-tenant bursts (loadavg spikes to
    # 15-30 with nothing of ours running) — min-of-2 is the standard
    # attainable-time estimator; loadavg is recorded for transparency
    default_runs = "1" if os.environ.get("BENCH_SCALING_CHILD") == "1" else "2"
    n_runs = int(os.environ.get("BENCH_HEADLINE_RUNS", default_runs))
    runs = [run_headline(events_dir, n_events) for _ in range(max(1, n_runs))]
    headline = min(runs)
    queries = run_queries() if os.environ.get("BENCH_SKIP_QUERIES") != "1" else {}
    try:
        load1 = round(os.getloadavg()[0], 1)
    except OSError:
        load1 = None
    out = {
        "metric": "cdc_replay_wall_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": _sf_tag(),
        "num_cpus": NUM_CPUS,
        "events": n_events,
        "events_per_sec": round(n_events / headline, 1),
        "headline_runs": [round(r, 3) for r in runs],
        "loadavg_1m": load1,
        # absolute host speed at measurement time — engine-free, so
        # round-over-round headline deltas can be attributed to host windows
        # vs engine changes. Single-core rate isolates per-core speed;
        # the NUM_CPUS-process aggregate isolates the shared-memory-bandwidth
        # window (co-tenant bursts crush the aggregate while leaving the
        # single-core rate intact; see BASELINE.md host-window notes)
        "host_decode_mrows_s": _host_decode_rate(events_dir),
        "host_parallel_decode_mrows_s": _host_parallel_decode_rate(
            events_dir, NUM_CPUS),
    }
    ray.shutdown()
    return out


def _host_decode_rate(events_dir: str) -> float:
    """Single-process parquet-decode rate (M rows/s) over one cached events
    segment: a pure-pyarrow, engine-free probe of this host's current
    per-core speed, recorded alongside every headline so cross-round
    comparisons can separate host-window drift from engine changes."""
    import glob

    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(events_dir, "*.parquet")))
    if not files:
        return 0.0
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < 3.0:
        n += len(pq.read_table(files[0]))
    return round(n / (time.perf_counter() - t0) / 1e6, 2)


def _host_parallel_decode_rate(events_dir: str, procs: int) -> float:
    """Aggregate parquet-decode rate (M rows/s) across ``procs`` plain
    processes — the engine-free probe of the box's CURRENT parallel
    memory-bandwidth window (the quantity co-tenant bursts consume)."""
    import glob
    import multiprocessing as mp

    files = sorted(glob.glob(os.path.join(events_dir, "*.parquet")))
    if not files:
        return 0.0
    _decode_worker.path = files[0]
    with mp.Pool(procs) as pool:
        t0 = time.perf_counter()
        total = sum(pool.map(_decode_worker, range(procs)))
    return round(total / (time.perf_counter() - t0) / 1e6, 2)


def _warm(path: str):
    for root, _, files in os.walk(path):
        for f in files:
            with open(os.path.join(root, f), "rb") as fh:
                while fh.read(1 << 22):
                    pass


def run_scaling() -> dict:
    def run_once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   BENCH_SKIP_QUERIES="1", BENCH_SCALING_CHILD="1")
        proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                              env=env, capture_output=True, text=True,
                              check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(ncpu: int) -> dict:
        # min of 2 fresh-process runs: single-run wall noise on this shared
        # VM is ±20%, min-of-N is the standard estimator of attainable time
        a, b = run_once(ncpu), run_once(ncpu)
        return a if a["value"] <= b["value"] else b

    # N→4N protocol levels. Default 8→32 (the full box); BENCH_SCALE_LO/HI
    # allow a 4→16 pair, which keeps BOTH levels below this single VM's
    # shared-memory saturation point — on a real cluster every node brings
    # its own memory bandwidth, so the unsaturated pair is the closer proxy.
    lo = int(os.environ.get("BENCH_SCALE_LO", "8"))
    hi = int(os.environ.get("BENCH_SCALE_HI", "32"))
    r_lo, r_hi = run(lo), run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    hw = _hardware_ceiling(lo, hi)
    return {
        "metric": "cdc_replay_scaling",
        "sf": _sf_tag(),
        "events": r_lo["events"],
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"events_per_sec_{lo}": r_lo["events_per_sec"],
        f"events_per_sec_{hi}": r_hi["events_per_sec"],
        "scaling_efficiency": round(eff, 3),
        # this sandbox is ONE VM: its 32 vCPUs share a memory/decode
        # bandwidth that does NOT scale 4x from 8 procs (a real N→4N-NODE
        # cluster adds bandwidth with every node). The ceiling is measured
        # with a plain parallel parquet-decode kernel; the normalized number
        # is the engine's efficiency relative to what this hardware allows.
        "hardware_parallel_ceiling": round(hw, 3),
        "normalized_scaling_efficiency": round(eff / hw, 3) if hw else None,
    }


def _decode_worker(_):
    import time as _t

    import pyarrow.parquet as pq

    path = _decode_worker.path
    n, t0 = 0, _t.perf_counter()
    while _t.perf_counter() - t0 < 5.0:
        n += len(pq.read_table(path))
    return n


def _hardware_ceiling(lo: int, hi: int) -> float:
    """Aggregate parquet-decode throughput scaling from lo→hi processes —
    the machine's attainable parallel efficiency for decode-bound work."""
    import glob
    import multiprocessing as mp

    files = sorted(glob.glob(os.path.join(BENCH_TMP, _sf_tag(), "events*",
                                          "*.parquet")))
    if not files:
        return 1.0
    _decode_worker.path = files[0]
    rates = {}
    for procs in (lo, hi):
        with mp.Pool(procs) as pool:
            t0 = time.perf_counter()
            total = sum(pool.map(_decode_worker, range(procs)))
            rates[procs] = total / (time.perf_counter() - t0)
    return (rates[hi] / rates[lo]) / (hi / lo)


def run_skew() -> dict:
    """North-rule hot-key evidence: replay the SAME-size stream twice —
    uniform keys vs 50% of ALL events on one (repo, path) — and report the
    throughput penalty.  The per-batch LWW combiner of the map step
    (MultiTxnShuffleWrite) collapses every key to ≤1 row per map batch
    before the shuffle, so the hot key ships O(batches) rows regardless of
    its event share; the penalty should be ~1.0 with NO salting
    (tests/test_cdc_replay.py::TestHotKeySkew pins final-state correctness
    vs the naive oracle)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    out: dict = {"metric": "cdc_replay_hot_key_skew", "sf": _sf_tag(),
                 "num_cpus": NUM_CPUS}
    for label, frac in (("uniform", 0.0), ("hot50", 0.5)):
        events_dir, n_events = ensure_events(hot_key_frac=frac)
        _warm(events_dir)
        runs = [run_headline(events_dir, n_events) for _ in range(2)]
        out[f"sec_{label}"] = round(min(runs), 3)
        out[f"events_per_sec_{label}"] = round(n_events / min(runs), 1)
    out["events"] = n_events
    out["skew_penalty"] = round(out["sec_hot50"] / out["sec_uniform"], 3)
    try:
        out["loadavg_1m"] = round(os.getloadavg()[0], 1)
    except OSError:
        pass
    ray.shutdown()
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--skew" in sys.argv:
        print(json.dumps(run_skew()))
    else:
        print(json.dumps(main()))
