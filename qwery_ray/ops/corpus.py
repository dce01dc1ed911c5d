"""Corpus-level structural dedup: first-occurrence unit dedup + dup-span
statistics.

Training corpora deduplicate below the document level: C4 removes every
repeated three-sentence span corpus-wide keeping one occurrence (Raffel et
al. 2020, arXiv:1910.10683 §2.2), and Lee et al. 2021 (arXiv:2107.06499)
deduplicate exact substrings, reporting what fraction of each document is
covered by text that occurs elsewhere.  Both reduce to operations over
"units" (lines / paragraphs / token blocks / w-grams) keyed by a content
hash:

- :func:`unit_dedup` — keep the globally FIRST occurrence (min (doc_id,
  ord)) of every distinct unit and rebuild each document from its kept
  units.  Scale shape mirrors ``exact_dedup`` (dedup.py): unit TEXT never
  crosses a shuffle — one narrow (hash, packed-position) pair stream moves
  to ~4×cores hash buckets, losers come back as a broadcast set (or one
  anti join when huge), and the rebuild is a second streaming pass over
  the source documents (a document's units are contiguous within a batch,
  so reassembly is batch-local — no shuffle).
- :func:`line_dedup` / :func:`token_block_dedup` — unit extractors over
  the same core (newline lines; non-overlapping k-token blocks re-joined
  by a single space so the unit string is reproducible in ANSI SQL).
- :func:`dup_span_stats` — per document, how many token positions are
  covered by a w-gram whose two-lane hash occurs more than once in the
  corpus.
  Three narrow integer streams (gram hash pairs → duplicated starts →
  per-doc interval-union coverage); gram text never shuffles.

Reference scope note: the qwery reference has no sub-document dedup —
these are the training-data-pipeline extensions the build brief asks for,
implemented Ray-Data-first.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

# ord (unit index within a document) is packed with doc_id into one int64
# sort key: pos = doc_id * ORD_LIMIT + ord. 2^20 units per document is far
# above any real line/block count; the extractors raise if exceeded.
ORD_LIMIT = 1 << 20

LOSER_BROADCAST_LIMIT = 5_000_000

TOKEN_RE = r"[A-Za-z]+|\d+|[^\w\s]"


# two independently-seeded 64-bit xxhash lanes form the unit/gram key —
# effectively a 128-bit hash, so expected collisions at 10^10 units are
# ~n²/2^129 ≈ 10^-19 (same safety class as the previous md5, but computed
# by ONE vectorized polars call per batch instead of a per-string Python
# hashlib loop; polars .hash is value-stable across workers, unlike
# pd.util.hash_array).
_SEED_A = 0x9E3779B97F4A7C15
_SEED_B = 0xC2B2AE3D27D4EB4F


def _unit_hashes(units: list) -> tuple[np.ndarray, np.ndarray]:
    """(h_a, h_b) int64 arrays — two-lane vectorized hash per unit string."""
    import polars as pl

    s = pl.Series("u", units, dtype=pl.Utf8)
    ha = s.hash(seed=_SEED_A).to_numpy().view(np.int64)
    hb = s.hash(seed=_SEED_B).to_numpy().view(np.int64)
    return ha, hb


class SplitUnits:
    """Explode documents into separator-delimited units (lines by default).

    Emits (doc_id, ord, unit, uh_a, uh_b, dedupable) with one document's
    rows contiguous — downstream per-doc rollups stay batch-local.  Units
    shorter than ``min_chars`` are marked non-dedupable (always kept):
    C4-style line dedup does not collapse blank/trivial lines globally.
    """

    def __init__(self, sep: str = "\n", text_col: str = "text",
                 id_col: str = "doc_id", min_chars: int = 1):
        self.sep = sep
        self.text_col = text_col
        self.id_col = id_col
        self.min_chars = min_chars

    def _units_of(self, text: str) -> list:
        return (text or "").split(self.sep)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = pc.cast(batch.column(self.id_col), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        texts = batch.column(self.text_col).to_pylist()
        per_doc = [self._units_of(t) for t in texts]
        counts = np.fromiter((len(u) for u in per_doc), dtype=np.int64,
                             count=len(per_doc))
        if counts.max(initial=0) >= ORD_LIMIT:
            raise ValueError(f"document exceeds {ORD_LIMIT} units")
        units = [u for us in per_doc for u in us]
        out_ids = np.repeat(ids, counts)
        cum = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ords = np.arange(int(counts.sum())) - np.repeat(cum, counts)
        lens = np.fromiter((len(u) for u in units), dtype=np.int64,
                           count=len(units))
        uh_a, uh_b = _unit_hashes(units)
        return pa.table({
            self.id_col: pa.array(out_ids, pa.int64()),
            "ord": pa.array(ords, pa.int64()),
            "unit": pa.array(units, pa.string()),
            "uh_a": pa.array(uh_a, pa.int64()),
            "uh_b": pa.array(uh_b, pa.int64()),
            "dedupable": pa.array(lens >= self.min_chars),
        })


class TokenBlockUnits(SplitUnits):
    """Explode documents into NON-overlapping ``block_tokens``-token blocks,
    re-joined with single spaces — the unit string is a pure function of
    the token sequence, so an ANSI-SQL oracle reconstructs it exactly with
    list_slice + array_to_string regardless of the source separators."""

    def __init__(self, block_tokens: int = 16, text_col: str = "text",
                 id_col: str = "doc_id"):
        super().__init__(text_col=text_col, id_col=id_col, min_chars=1)
        self.block_tokens = block_tokens
        self.rx = re.compile(TOKEN_RE, re.ASCII)

    def _units_of(self, text: str) -> list:
        toks = self.rx.findall(text or "")
        k = self.block_tokens
        return [" ".join(toks[i:i + k]) for i in range(0, len(toks), k)] \
            or [""]


def _packed(df: pd.DataFrame, id_col: str) -> np.ndarray:
    return df[id_col].to_numpy() * ORD_LIMIT + df["ord"].to_numpy()


def unit_dedup(ds: rd.Dataset, explode, *, id_col: str = "doc_id",
               approx_docs: int | None = None, sep_out: str = "\n",
               loser_broadcast_limit: int = LOSER_BROADCAST_LIMIT,
               ) -> rd.Dataset:
    """Global first-occurrence dedup of ``explode``-defined units.

    Returns one row per document: (doc_id, n_units, n_kept, text_dedup)
    where text_dedup re-joins the kept units with ``sep_out`` in original
    order.  A unit occurrence loses iff an equal unit exists at a smaller
    (doc_id, ord); non-dedupable units (see extractor) always survive.
    """
    import ray

    from ..sqlc.compiler import AddBucketCol, _shuffle_buckets

    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8

    units = ds.map_batches(explode, batch_format="pyarrow")
    pairs = units.map_batches(
        lambda t: t.filter(t.column("dedupable")).select(
            ["uh_a", "uh_b", id_col, "ord"]),
        batch_format="pyarrow")

    def losers_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        pos = _packed(df, id_col)
        m = df.assign(pos=pos).groupby(["uh_a", "uh_b"])["pos"] \
            .transform("min")
        return pd.DataFrame({"pos": pos[pos != m.to_numpy()]})

    # adaptive: tiny corpora resolve losers in one task (no shuffle
    # barrier); large ones bucket-shuffle the narrow (hash, pos) stream so
    # every hash key resolves wholly inside one coarse group
    small = approx_docs is not None and approx_docs <= 100_000
    if small:
        losers = pairs.repartition(1).map_batches(
            losers_in_bucket, batch_format="pandas", batch_size=None)
    else:
        losers = pairs.map_batches(
            AddBucketCol(["uh_a"], _shuffle_buckets(), "__db"),
            batch_format="pyarrow") \
            .groupby("__db").map_groups(losers_in_bucket,
                                        batch_format="pandas")
    losers = losers.materialize()
    n_losers = losers.count()

    if n_losers <= loser_broadcast_limit:
        loser_ref = ray.put(np.sort(
            losers.to_pandas()["pos"].to_numpy().astype(np.int64))
            if n_losers else np.empty(0, np.int64))

        def rebuild(t: pa.Table) -> pa.Table:
            sorted_losers = ray.get(loser_ref)
            df = t.to_pandas()
            pos = _packed(df, id_col)
            i = np.searchsorted(sorted_losers, pos)
            i = np.clip(i, 0, max(len(sorted_losers) - 1, 0))
            lost = (sorted_losers[i] == pos) if len(sorted_losers) \
                else np.zeros(len(pos), bool)
            df["__keep"] = ~lost
            return _reassemble(df, id_col, sep_out)

        return units.map_batches(rebuild, batch_format="pyarrow")

    # huge duplicate set: anti join on the packed position, then the
    # rebuild needs a doc-coarse shuffle (the join breaks batch locality)
    from ..sqlc.compiler import _join_partitions, _shuffle_join

    with_pos = units.map_batches(
        lambda t: t.append_column("pos", pa.array(
            t.column(id_col).to_numpy(zero_copy_only=False) * ORD_LIMIT
            + t.column("ord").to_numpy(zero_copy_only=False))),
        batch_format="pyarrow")
    kept = _shuffle_join(with_pos, losers, join_type="left_anti",
                         num_partitions=_join_partitions(ncpu), on=("pos",))

    # survivors lost doc contiguity in the join: join the per-doc unit
    # totals as the LEFT side (a fully-duplicated document keeps a row
    # with n_kept = 0), doc-bucket shuffle, then the same batch-local
    # reassembly (__keep = survived the anti join, i.e. ord non-null)
    def rebuild_group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(__keep=df["ord"].notna())
        df.loc[~df["__keep"], "unit"] = ""
        df.loc[~df["__keep"], "ord"] = 0
        return _reassemble(df, id_col, sep_out, total_from="n_units") \
            .to_pandas()

    tot = units.map_batches(
        lambda t: pa.table({
            id_col: t.column(id_col),
            "n_units": pa.array(np.ones(len(t), np.int64)),
        }), batch_format="pyarrow") \
        .groupby(id_col).sum("n_units") \
        .map_batches(lambda t: t.rename_columns([id_col, "n_units"]),
                     batch_format="pyarrow")
    joined = _shuffle_join(tot, kept, join_type="left_outer",
                           num_partitions=_join_partitions(ncpu),
                           on=(id_col,))
    return joined.map_batches(
        AddBucketCol([id_col], _shuffle_buckets(), "__gb"),
        batch_format="pyarrow") \
        .groupby("__gb").map_groups(rebuild_group, batch_format="pandas")


def _reassemble(df: pd.DataFrame, id_col: str, sep_out: str,
                total_from: str | None = None) -> pa.Table:
    """Batch-local per-doc rollup: (doc_id, n_units, n_kept, text_dedup).
    Requires each document's unit rows complete within ``df``."""
    if not len(df):
        return pa.table({id_col: pa.array([], pa.int64()),
                         "n_units": pa.array([], pa.int64()),
                         "n_kept": pa.array([], pa.int64()),
                         "text_dedup": pa.array([], pa.string())})
    df = df.sort_values([id_col, "ord"], kind="stable")
    kept = df[df["__keep"]]
    g = df.groupby(id_col, sort=True)
    n_units = (g[total_from].first() if total_from
               else g["ord"].size()).astype("int64")
    gk = kept.groupby(id_col, sort=True)
    n_kept = gk["ord"].size().reindex(n_units.index, fill_value=0) \
        .astype("int64")
    text = gk["unit"].agg(sep_out.join).reindex(n_units.index,
                                                fill_value="")
    return pa.table({
        id_col: pa.array(n_units.index.to_numpy(), pa.int64()),
        "n_units": pa.array(n_units.to_numpy(), pa.int64()),
        "n_kept": pa.array(n_kept.to_numpy(), pa.int64()),
        "text_dedup": pa.array(text.to_numpy(), pa.string()),
    })


def line_dedup(ds: rd.Dataset, *, text_col: str = "text",
               id_col: str = "doc_id", min_chars: int = 1,
               approx_docs: int | None = None, **kw) -> rd.Dataset:
    """C4-style corpus-wide line dedup (keep first occurrence)."""
    return unit_dedup(ds, SplitUnits("\n", text_col, id_col, min_chars),
                      id_col=id_col, approx_docs=approx_docs, **kw)


def token_block_dedup(ds: rd.Dataset, *, block_tokens: int = 16,
                      text_col: str = "text", id_col: str = "doc_id",
                      approx_docs: int | None = None, **kw) -> rd.Dataset:
    """Paragraph-grain dedup over non-overlapping token blocks."""
    return unit_dedup(
        ds, TokenBlockUnits(block_tokens, text_col, id_col),
        id_col=id_col, approx_docs=approx_docs, **kw)


# ------------------------------------------------------------- dup spans
# odd multipliers for the two rolling-polynomial lanes (invertible mod
# 2^64, so a window's hash is a bijective fold of its token hashes)
_POLY_A = np.uint64(0x100000001B3)          # FNV-1a prime
_POLY_B = np.uint64(0x9E3779B97F4A7C15)     # golden-ratio odd constant


class GramHashes:
    """Per batch: explode every w-gram of every document into narrow
    (gh_a, gh_b, doc_id, start, ntok) rows — the gram key is a two-lane
    64-bit rolling polynomial over per-token xxhashes (equal token
    sequences ⇒ equal keys; 128-bit effective width, see _unit_hashes
    collision note).  Fully vectorized: ONE polars hash call over the
    batch's concatenated token stream + w shifted multiply-adds in numpy —
    no per-gram string construction, no per-gram hashlib call.  Documents
    shorter than w emit no gram rows (they appear in the final output via
    the second streaming tokenize pass)."""

    def __init__(self, w: int, text_col: str = "text",
                 id_col: str = "doc_id"):
        self.w = w
        self.text_col = text_col
        self.id_col = id_col
        self.rx = re.compile(TOKEN_RE, re.ASCII)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        w = self.w
        ids = pc.cast(batch.column(self.id_col), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        texts = batch.column(self.text_col).to_pylist()
        tok_lists = [self.rx.findall(t or "") for t in texts]
        counts = np.fromiter((len(l) for l in tok_lists), dtype=np.int64,
                             count=len(tok_lists))
        all_toks = [tok for toks in tok_lists for tok in toks]
        n = len(all_toks)
        empty = pa.table({
            "gh_a": pa.array([], pa.int64()),
            "gh_b": pa.array([], pa.int64()),
            self.id_col: pa.array([], pa.int64()),
            "start": pa.array([], pa.int64()),
            "ntok": pa.array([], pa.int64()),
        })
        if n < w:
            return empty
        ha, hb = _unit_hashes(all_toks)
        ha = ha.view(np.uint64)
        hb = hb.view(np.uint64)
        # rolling polynomial over every length-w window of the
        # concatenated stream (w vectorized passes), computed once for the
        # whole batch; windows that straddle a document boundary are
        # masked out below
        with np.errstate(over="ignore"):
            acc_a = ha[:n - w + 1].copy()
            acc_b = hb[:n - w + 1].copy()
            for j in range(1, w):
                acc_a = acc_a * _POLY_A + ha[j:n - w + 1 + j]
                acc_b = acc_b * _POLY_B + hb[j:n - w + 1 + j]
        doc_of = np.repeat(np.arange(len(counts)), counts)
        valid = doc_of[:n - w + 1] == doc_of[w - 1:]
        if not valid.any():
            return empty
        gpos = np.flatnonzero(valid)
        doc_idx = doc_of[gpos]
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        return pa.table({
            "gh_a": pa.array(acc_a[gpos].view(np.int64), pa.int64()),
            "gh_b": pa.array(acc_b[gpos].view(np.int64), pa.int64()),
            self.id_col: pa.array(ids[doc_idx], pa.int64()),
            "start": pa.array(gpos - offsets[doc_idx], pa.int64()),
            "ntok": pa.array(counts[doc_idx], pa.int64()),
        })


def dup_span_stats(ds: rd.Dataset, *, w: int = 8, text_col: str = "text",
                   id_col: str = "doc_id",
                   approx_docs: int | None = None) -> rd.Dataset:
    """Per-document duplicated-span statistics (Lee et al. 2021 signal).

    Output: (doc_id, ntok, dup_tokens) — dup_tokens = |union of [i, i+w)
    over starts i whose w-gram hash occurs >1 time corpus-wide| (same-doc
    repeats count).  All-integer output → exact cross-engine checks.
    """
    import ray

    from ..sqlc.compiler import AddBucketCol, _shuffle_buckets

    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8

    grams = ds.map_batches(GramHashes(w, text_col, id_col),
                           batch_format="pyarrow")

    def dup_starts(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby(["gh_a", "gh_b"])["gh_a"].transform("size")
        return df.loc[c.to_numpy() > 1, [id_col, "start"]]

    def coverage(df: pd.DataFrame) -> pd.DataFrame:
        # union length of [start, start+w) intervals per doc: sort starts,
        # sum min(w, gap to next start) vectorized
        df = df.sort_values([id_col, "start"], kind="stable")
        s = df["start"].to_numpy()
        d = df[id_col].to_numpy()
        if not len(s):
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "dup_tokens": pd.Series(dtype="int64")})
        gap = np.empty(len(s), np.int64)
        gap[:-1] = np.minimum(s[1:] - s[:-1], w)
        gap[-1] = w
        gap[np.flatnonzero(d[:-1] != d[1:])] = w  # last start of each doc
        out = pd.DataFrame({id_col: d, "cov": gap}) \
            .groupby(id_col, sort=True)["cov"].sum().reset_index()
        return out.rename(columns={"cov": "dup_tokens"}) \
            .astype({id_col: "int64", "dup_tokens": "int64"})

    small = approx_docs is not None and approx_docs <= 100_000
    if small:
        pairs = grams.map_batches(
            lambda t: t.select(["gh_a", "gh_b", id_col, "start"]),
            batch_format="pyarrow")
        dups = pairs.repartition(1).map_batches(
            dup_starts, batch_format="pandas", batch_size=None)
        cov = dups.repartition(1).map_batches(
            coverage, batch_format="pandas", batch_size=None)
    else:
        nb = _shuffle_buckets()
        dups = grams.map_batches(
            lambda t: t.select(["gh_a", "gh_b", id_col, "start"]),
            batch_format="pyarrow") \
            .map_batches(AddBucketCol(["gh_a"], nb, "__db"),
                         batch_format="pyarrow") \
            .groupby("__db").map_groups(dup_starts, batch_format="pandas")
        cov = dups.map_batches(AddBucketCol([id_col], nb, "__cb"),
                               batch_format="pyarrow") \
            .groupby("__cb").map_groups(coverage, batch_format="pandas")

    cov = cov.materialize()
    n_cov = cov.count()
    if n_cov > 2_000_000:
        # doc-level coverage table outgrew broadcast: one outer hash join
        from ..sqlc.compiler import _join_partitions, _shuffle_join

        ntok = ds.map_batches(_NtokOnly(w, text_col, id_col),
                              batch_format="pyarrow")
        joined = _shuffle_join(ntok, cov, join_type="left_outer",
                               num_partitions=_join_partitions(ncpu),
                               on=(id_col,))

        def fill_zero(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            dup = pc.coalesce(pc.cast(t.column("dup_tokens"), pa.int64()),
                              pa.scalar(0, pa.int64()))
            return pa.table({id_col: t.column(id_col),
                             "ntok": t.column("ntok"),
                             "dup_tokens": dup})

        return joined.map_batches(fill_zero, batch_format="pyarrow")

    cov_df = cov.to_pandas() if n_cov else \
        pd.DataFrame({id_col: pd.Series(dtype="int64"),
                      "dup_tokens": pd.Series(dtype="int64")})
    cov_ref = ray.put(cov_df.set_index(id_col)["dup_tokens"])

    def finish(t: pa.Table, _rx=re.compile(TOKEN_RE, re.ASCII)) -> pa.Table:
        import pyarrow.compute as pc

        lut = ray.get(cov_ref)
        ids = pc.cast(t.column(id_col), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ntoks = np.fromiter(
            (len(_rx.findall(x or "")) for x in
             t.column(text_col).to_pylist()), dtype=np.int64,
            count=len(t))
        dup = lut.reindex(ids).fillna(0).to_numpy().astype(np.int64)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "ntok": pa.array(ntoks, pa.int64()),
                         "dup_tokens": pa.array(dup, pa.int64())})

    return ds.map_batches(finish, batch_format="pyarrow")


class _NtokOnly:
    def __init__(self, w, text_col, id_col):
        self.rx = re.compile(TOKEN_RE, re.ASCII)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = pc.cast(t.column(self.id_col), pa.int64())
        ntoks = [len(self.rx.findall(x or ""))
                 for x in t.column(self.text_col).to_pylist()]
        return pa.table({self.id_col: ids,
                         "ntok": pa.array(ntoks, pa.int64())})


def block_dedup_oracle_sql(*, block_tokens: int = 16) -> str:
    """DuckDB oracle for token_block_dedup over the documents view: the
    unit string is reconstructible in ANSI SQL (token slice re-joined by
    ' '), so the winner rule replays exactly — keep iff empty unit or
    own (doc_id, ord) is the global minimum for that unit string."""
    k = block_tokens
    return rf"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^\w\s]') AS tk
  FROM documents
), idx AS (
  SELECT doc_id, tk,
         unnest(generate_series(0,
             greatest(CAST(ceil(len(tk)/{k}.0) AS BIGINT)-1, 0))) AS ord
  FROM toks
), blocks AS (
  SELECT doc_id, ord,
         array_to_string(list_slice(tk, ord*{k}+1, ord*{k}+{k}), ' ') AS unit
  FROM idx
), marked AS (
  SELECT doc_id, ord, unit,
         (length(unit) < 1 OR doc_id*{ORD_LIMIT}+ord =
          min(doc_id*{ORD_LIMIT}+ord) OVER (PARTITION BY unit)) AS keep
  FROM blocks
)
SELECT doc_id,
       COUNT(*) AS n_units,
       COUNT(*) FILTER (WHERE keep) AS n_kept,
       COALESCE(string_agg(unit, chr(10) ORDER BY ord)
                FILTER (WHERE keep), '') AS text_dedup
FROM marked GROUP BY doc_id ORDER BY doc_id
"""


def dup_span_oracle_sql(*, w: int = 8) -> str:
    """DuckDB oracle for dup_span_stats: same token regex, gram window,
    >1-occurrence rule and interval union (count of distinct covered
    positions) — all-integer output, exact cross-engine equality."""
    return rf"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^\w\s]') AS tk
  FROM documents
), gidx AS (
  SELECT doc_id, tk, unnest(generate_series(0, len(tk)-{w})) AS start
  FROM toks
), grams AS (
  SELECT doc_id, start,
         array_to_string(list_slice(tk, start+1, start+{w}), ' ') AS gram
  FROM gidx
), dup AS (
  SELECT doc_id, start FROM (
    SELECT doc_id, start, count(*) OVER (PARTITION BY gram) AS c FROM grams)
  WHERE c > 1
), pos AS (
  SELECT doc_id, unnest(generate_series(start, start+{w}-1)) AS p FROM dup
), cov AS (
  SELECT doc_id, count(DISTINCT p) AS dup_tokens FROM pos GROUP BY doc_id
)
SELECT t.doc_id, len(tk) AS ntok, COALESCE(c.dup_tokens, 0) AS dup_tokens
FROM toks t LEFT JOIN cov c ON t.doc_id = c.doc_id ORDER BY t.doc_id
"""
