"""Seeded input generators.

The benchmark makes every input itself, from ``--seed``, so a change to the
program cannot change what it is measured on. Nothing here imports the
engine: the CDC stream, the TPC-H-like tables, the documents and the DML
files are plain pyarrow/numpy.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

LANGS = np.array(["py", "rs", "go", "js", "java", "c", "cpp", "rb", "ts",
                  "scala", "sh", "sql", "md", "yaml", "toml", "css", "html",
                  "kt", "swift", "hs"])
WORDS = np.array(["def", "fn", "let", "const", "return", "import", "class",
                  "struct", "impl", "match", "if", "else", "for", "while",
                  "async", "await", "lambda", "yield", "try", "except",
                  "raise", "print", "self", "super"])


# repo of Zipf rank 1: the one owning the most keys in every stream
HOT_REPO = "org0/repo0"


class KeySpace:
    """The (repo, path) key universe of one CDC stream. Repos are Zipf-hot:
    a few repos own most keys."""

    def __init__(self, rng: np.random.Generator, n_keys: int,
                 n_repos: int = 50, zipf_a: float = 1.3):
        repo_of_key = (rng.zipf(zipf_a, n_keys) - 1) % n_repos
        self.repo = np.array([f"org{r // 10}/repo{r}" for r in range(n_repos)]
                             )[repo_of_key]
        self.path = np.array([f"src/dir{k % 37}/file_{k}.{LANGS[k % 20]}"
                              for k in range(n_keys)])
        self.n = n_keys


def cdc_events(rng: np.random.Generator, keys: KeySpace, lsn0: int,
               n_events: int, *, delete_frac: float = 0.12,
               content_len: int = 600, with_size: bool = True) -> pa.Table:
    """``n_events`` change events with dense LSNs ``lsn0+1 … lsn0+n``.

    ``with_size`` adds the ``size_bytes`` column (the additive schema
    evolution: streams drop it from their early segments). Deletes carry a
    null ``content``."""
    k = rng.integers(0, keys.n, n_events)
    lsn = np.arange(lsn0 + 1, lsn0 + n_events + 1, dtype=np.int64)
    is_del = rng.random(n_events) < delete_frac
    word = rng.integers(0, len(WORDS), n_events)
    word_len = np.array([len(w) + 1 for w in WORDS])[word]
    reps = np.maximum(1, rng.poisson(content_len, n_events) // word_len)
    commit = rng.integers(0, 1 << 62, n_events, dtype=np.int64)
    header = pc.binary_join_element_wise(
        pa.array(keys.repo[k]), pa.array(np.full(n_events, ":")),
        pa.array(keys.path[k]), pa.array(np.full(n_events, "@")),
        pc.cast(pa.array(lsn), pa.string()),
        pa.array(np.full(n_events, "\n")), "")
    body = pc.binary_repeat(pa.array(np.char.add(WORDS[word], " ")),
                            pa.array(reps.astype(np.int64)))
    full = pc.binary_join_element_wise(header, body, "")
    cols = {
        "lsn": pa.array(lsn),
        "op": pa.array(np.where(is_del, "delete", "upsert")),
        "repo": pa.array(keys.repo[k]),
        "path": pa.array(keys.path[k]),
        "commit": pc.cast(pa.array(commit), pa.string()),
        "lang": pa.array(LANGS[rng.integers(0, len(LANGS), n_events)]),
        "content": pc.if_else(pa.array(is_del), pa.scalar(None, pa.string()),
                              full),
    }
    if with_size:
        cols["size_bytes"] = pc.if_else(
            pa.array(is_del), pa.scalar(None, pa.int64()),
            pc.cast(pc.utf8_length(full), pa.int64()))
    return pa.table(cols)


def shuffled(rng: np.random.Generator, table: pa.Table) -> pa.Table:
    """Rows out of key and LSN order (segments are not sorted)."""
    return table.take(pa.array(rng.permutation(table.num_rows)))


def write_stream(out_dir: str, rng: np.random.Generator, keys: KeySpace,
                 n_events: int, n_segments: int, *,
                 evolve_at: float = 0.75, **kw) -> list[str]:
    """A replay input: ``n_segments`` parquet files over contiguous LSN
    ranges, each shuffled. Segments that start past ``evolve_at`` of the
    stream carry ``size_bytes``; earlier ones lack the column."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, n_events, n_segments + 1, dtype=np.int64)
    paths = []
    for i in range(n_segments):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        seg = cdc_events(rng, keys, lo, hi - lo,
                         with_size=lo >= evolve_at * n_events, **kw)
        path = os.path.join(out_dir, f"events-{i:04d}.parquet")
        pq.write_table(shuffled(rng, seg), path)
        paths.append(path)
    return paths


# --------------------------------------------------------- SQL inputs
SEGMENTS = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                     "MACHINERY"])
PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                       "5-LOW"])
EVENT_TYPES = np.array(["view", "click", "purchase", "error", "login"])
DOC_WORDS = np.array(["batch", "part", "spark", "line", "column", "order",
                      "small", "sort", "fast", "value", "scan", "hash",
                      "slow", "group", "agg", "filter", "query", "big",
                      "key", "window", "row", "table", "stream", "merge",
                      "data", "vector"])


def _days(rng, n, start="1992-01-01", span_days=2500):
    base = np.datetime64(start, "us")
    return base + rng.integers(0, span_days, n).astype("timedelta64[D]")


def tpch_tables(out_dir: str, rng: np.random.Generator, *, n_customer: int,
                n_orders: int, n_lineitem: int, n_events: int) -> None:
    """customer / orders / lineitem / events with the column names and
    value domains of the TPC-H-like tables the seven bench queries read."""
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(pa.table({
        "c_custkey": pa.array(np.arange(n_customer, dtype=np.int64)),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_customer)]),
        "c_nationkey": pa.array(rng.integers(0, 25, n_customer)
                                .astype(np.int32)),
        "c_acctbal": pa.array(np.round(rng.uniform(-999, 9999, n_customer),
                                       2)),
        "c_mktsegment": pa.array(SEGMENTS[rng.integers(0, 5, n_customer)]),
    }), os.path.join(out_dir, "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
        "o_custkey": pa.array(rng.integers(0, n_customer, n_orders)),
        "o_orderstatus": pa.array(np.array(["O", "F", "P"])[
            rng.integers(0, 3, n_orders)]),
        "o_totalprice": pa.array(np.round(rng.uniform(900, 500000, n_orders),
                                          2)),
        "o_orderdate": pa.array(_days(rng, n_orders)),
        "o_orderpriority": pa.array(PRIORITIES[rng.integers(0, 5, n_orders)]),
    }), os.path.join(out_dir, "orders.parquet"))
    qty = rng.integers(1, 51, n_lineitem).astype(np.float64)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(rng.integers(0, n_orders, n_lineitem)),
        "l_partkey": pa.array(rng.integers(0, 20000, n_lineitem)),
        "l_suppkey": pa.array(rng.integers(0, 1000, n_lineitem)),
        "l_linenumber": pa.array(rng.integers(1, 8, n_lineitem)
                                 .astype(np.int32)),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(qty * rng.uniform(900, 2000,
                                                               n_lineitem), 2)),
        "l_discount": pa.array(rng.integers(0, 11, n_lineitem) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, n_lineitem) / 100.0),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[
            rng.integers(0, 3, n_lineitem)]),
        "l_linestatus": pa.array(np.array(["O", "F"])[
            rng.integers(0, 2, n_lineitem)]),
        "l_shipdate": pa.array(_days(rng, n_lineitem)),
    }), os.path.join(out_dir, "lineitem.parquet"))
    secs = np.sort(rng.integers(0, 3 * 86400, n_events)).astype(
        "timedelta64[s]")
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
        "ts": pa.array(np.datetime64("2024-01-01", "us") + secs),
        "user_id": pa.array(rng.integers(0, 2000, n_events)),
        "event_type": pa.array(EVENT_TYPES[rng.integers(0, 5, n_events)]),
        "value": pa.array(np.round(rng.uniform(0, 500, n_events), 2)),
        "props": pa.array([f'{{"k": {v}}}' for v in
                           rng.integers(0, 100, n_events)]),
    }), os.path.join(out_dir, "events.parquet"))


def documents(out_dir: str, rng: np.random.Generator, n_docs: int,
              dup_frac: float = 0.1) -> None:
    """documents.parquet: short word-salad texts; ``dup_frac`` of them copy
    an earlier document's text exactly (the exact-dedup work)."""
    texts = []
    for i in range(n_docs):
        if i and rng.random() < dup_frac:
            texts.append(texts[int(rng.integers(0, i))])
        else:
            n = int(rng.integers(8, 60))
            texts.append(" ".join(DOC_WORDS[rng.integers(0, len(DOC_WORDS),
                                                         n)]))
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array(texts),
        "lang": pa.array(np.array(["en", "de", "fr", "zh"])[
            rng.integers(0, 4, n_docs)]),
        "source": pa.array([f"src{i % 7}" for i in range(n_docs)]),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    }), os.path.join(out_dir, "documents.parquet"))


def dml_files(out_dir: str, rng: np.random.Generator, n_target: int,
              n_source: int) -> None:
    """dml_target.parquet (unique ``k``) and dml_src.parquet: a unique-key
    source, half updates of existing keys (a few with negative ``v``, the
    MERGE delete arm) and half new keys."""
    keys = rng.permutation(n_target * 2)[:n_target].astype(np.int64)
    pq.write_table(pa.table({
        "k": pa.array(keys),
        "grp": pa.array(np.array([f"g{i}" for i in range(10)])[
            rng.integers(0, 10, n_target)]),
        "v": pa.array(rng.integers(0, 1000, n_target)),
        "price": pa.array(np.round(rng.uniform(1, 100, n_target), 2)),
        "note": pa.array([f"n{i}" for i in rng.integers(0, 10**6, n_target)]),
    }), os.path.join(out_dir, "dml_target.parquet"))
    n_old = n_source // 2
    old = rng.choice(keys, n_old, replace=False)
    new = np.setdiff1d(np.arange(n_target * 2, n_target * 3), old)[
        :n_source - n_old]
    src_keys = rng.permutation(np.concatenate([old, new]))
    v = rng.integers(0, 1000, n_source)
    v[rng.random(n_source) < 0.1] *= -1
    pq.write_table(pa.table({
        "k": pa.array(src_keys.astype(np.int64)),
        "grp": pa.array(np.array([f"g{i}" for i in range(10)])[
            rng.integers(0, 10, n_source)]),
        "v": pa.array(v),
        "price": pa.array(np.round(rng.uniform(1, 100, n_source), 2)),
        "note": pa.array([f"s{i}" for i in range(n_source)]),
    }), os.path.join(out_dir, "dml_src.parquet"))


def lake_merge_source(path: str, rng: np.random.Generator, state: pa.Table,
                      n: int) -> None:
    """Unique-key source for MERGE INTO a lake: mostly keys of the current
    state (``kind`` 'del' marks the delete arm), some new keys."""
    n_old = min(state.num_rows, n * 3 // 4)
    pick = rng.choice(state.num_rows, n_old, replace=False)
    repo = state.column("repo").take(pa.array(pick)).to_pylist()
    path_ = state.column("path").take(pa.array(pick)).to_pylist()
    repo += [f"org9/new{i % 5}" for i in range(n - n_old)]
    path_ += [f"new/file_{i}.py" for i in range(n - n_old)]
    kind = np.where(rng.random(n) < 0.15, "del", "set")
    pq.write_table(pa.table({
        "repo": pa.array(repo), "path": pa.array(path_),
        "kind": pa.array(kind),
        "content": pa.array([f"merged {i}" for i in range(n)]),
    }), path)


def digest_files(paths: list[str]) -> str:
    """sha256 over the generated input files (names and bytes)."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]
