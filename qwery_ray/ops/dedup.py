"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine — the dedup family a 100 TB training-data pipeline needs.

Scale shapes (see ray_guide.md aggregation section):
- exact: content-hash column (cheap map_batches) → groupby(hash) keep-first.
  The shuffle moves only (hash, id) — content never moves.
- MinHash-LSH: per-batch shingle→signature (numpy broadcast), explode to
  (band, band_hash, id) rows → groupby(band bucket) → candidate pairs →
  verified per-pair. Signatures are mergeable; buckets bound memory.
- SimHash: 64-bit signature; banded into 4×16-bit chunks for hamming≤3
  candidate lookup.
"""

from __future__ import annotations

import hashlib
import re
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

_MERSENNE = (1 << 61) - 1


class ContentHash:
    """sha256(content) column — per-row digest IS the work; everything else
    stays vectorized."""

    def __init__(self, text_col: str = "text", out_col: str = "content_sha"):
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = batch.column(self.text_col).to_pylist()
        digests = [hashlib.sha256((v or "").encode()).hexdigest() for v in vals]
        return batch.append_column(self.out_col, pa.array(digests))


LOSER_BROADCAST_LIMIT = 5_000_000  # duplicate-id sets below this broadcast


def _drop_ids(ds: rd.Dataset, losers, id_col: str,
              *, broadcast_limit: int | None = None) -> rd.Dataset:
    """Remove rows whose ``id_col`` is in the loser set — the shared
    endgame of every dedup flavor (exact / minhash / simhash / semantic).

    ``losers`` is either a sorted-unique numpy id array (already
    collected) or a single-column Dataset named ``id_col``. Small sets
    broadcast once via ray.put and filter with a vectorized searchsorted
    (a plain task pool: the zero-copy object-store read ships the set once
    per node, not once per batch); sets above ``broadcast_limit`` fall
    back to ONE hash-partitioned left_anti join so the driver never holds
    them. Full rows move at most once either way."""
    import ray

    if broadcast_limit is None:  # read at call time (tests monkeypatch it)
        broadcast_limit = LOSER_BROADCAST_LIMIT
    if isinstance(losers, np.ndarray):
        n_losers = len(losers)
        loser_arr = losers
        loser_ds = None
    else:
        loser_ds = losers.materialize()
        n_losers = loser_ds.count()
        loser_arr = None
    if n_losers == 0:
        return ds
    if n_losers <= broadcast_limit:
        if loser_arr is None:
            loser_arr = np.unique(
                loser_ds.to_pandas()[id_col].to_numpy())
        ref = ray.put(loser_arr)

        def drop_losers(t: pa.Table) -> pa.Table:
            sorted_ids = ray.get(ref)  # sorted unique ids, zero-copy
            ids = t.column(id_col).to_numpy(zero_copy_only=False)
            pos = np.searchsorted(sorted_ids, ids)
            pos = np.clip(pos, 0, len(sorted_ids) - 1)
            keep = sorted_ids[pos] != ids
            return t.filter(pa.array(keep))

        return ds.map_batches(drop_losers, batch_format="pyarrow")
    # large duplicate set: one hash-partitioned anti join on the id column
    from ..sqlc.compiler import _join_partitions, _shuffle_join

    if loser_ds is None:
        loser_ds = rd.from_arrow(pa.table({id_col: pa.array(losers)}))
    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    return _shuffle_join(ds, loser_ds, join_type="left_anti",
                         num_partitions=_join_partitions(ncpu), on=(id_col,))


def exact_dedup(ds: rd.Dataset, text_col: str = "text",
                id_col: str = "doc_id") -> rd.Dataset:
    """Keep the min-id row per distinct content (deterministic 'first').

    Scale shape: the CONTENT never crosses a shuffle. One narrow
    (sha256, id) pair stream shuffles to ~4×cores hash buckets (a sha's
    pairs land wholly in one bucket group); inside each group the non-min
    ids per sha are the duplicate 'losers' (typically a few % of the
    corpus). Losers are removed from the original dataset by a
    broadcast-set filter when small, else by one left_anti hash join on
    the id column — either way full rows move at most once."""
    from ..sqlc.compiler import AddBucketCol, _shuffle_buckets

    pairs = ds.select_columns([id_col, text_col]) \
        .map_batches(ContentHash(text_col), batch_format="pyarrow") \
        .map_batches(lambda t: t.select(["content_sha", id_col]),
                     batch_format="pyarrow")

    def losers_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = df.groupby("content_sha")[id_col].transform("min")
        return df.loc[df[id_col] != m, [id_col]]

    # adaptive: small pair sets (narrow sha+id rows) resolve losers right
    # on the driver — no second pipeline execution; large ones
    # bucket-shuffle by sha so each sha resolves in one group
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    loser_arr = None
    if n_pairs <= 2_000_000:
        df = pairs.to_pandas()
        m = df.groupby("content_sha")[id_col].transform("min")
        loser_arr = np.unique(df.loc[df[id_col] != m, id_col].to_numpy())
    else:
        losers = pairs.map_batches(
            AddBucketCol(["content_sha"], _shuffle_buckets(), "__db"),
            batch_format="pyarrow") \
            .groupby("__db") \
            .map_groups(losers_in_bucket, batch_format="pandas")

    return _drop_ids(ds, loser_arr if loser_arr is not None else losers,
                     id_col)


# --------------------------------------------------------------- MinHash LSH
class MinHashSignatures:
    """Per-batch: k-shingles → n_perm minhash signature (universal hashing,
    numpy broadcast over each doc's shingle-hash set). Seeded a/b params are
    built once per actor."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 num_perm: int = 64, shingle_k: int = 5, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
        self.num_perm = num_perm
        self.k = shingle_k
        self.text_col = text_col
        self.id_col = id_col
        self.norm_re = re.compile(r"\s+")

    def _shingle_hashes(self, text: str) -> np.ndarray:
        t = self.norm_re.sub(" ", (text or "").lower()).strip()
        data = t.encode("utf-8", "ignore")
        if len(data) < self.k:
            data = data + b"\x00" * (self.k - len(data))
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        w = np.uint64(1000003) ** np.arange(self.k - 1, -1, -1, dtype=np.uint64)
        windows = np.lib.stride_tricks.sliding_window_view(arr, self.k)
        return np.unique((windows * w).sum(axis=1, dtype=np.uint64))

    def signature(self, text: str) -> np.ndarray:
        sh = self._shingle_hashes(text)
        # (num_perm, n_shingles) universal hash, min over shingles
        vals = (np.outer(self.a, sh) + self.b[:, None]) % np.uint64(_MERSENNE)
        return vals.min(axis=1)

    # permutations hashed per chunk: bounds the (chunk, Σshingles) temp at
    # ~8 B × 8 × Σshingles per batch instead of 64× that in one allocation
    _PERM_CHUNK = 8

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        # batched: ONE concatenated shingle-hash array for the whole batch
        # with per-doc offsets, then a segmented min (minimum.reduceat) per
        # permutation chunk — replaces the per-doc np.outer loop that
        # allocated a fresh (num_perm, shingles) matrix per document.
        # Arithmetic is elementwise-identical to signature(): uint64
        # wraparound multiply/add then % MERSENNE, so signatures are
        # bit-equal to the per-doc path.
        sh_list = [self._shingle_hashes(t) for t in batch[self.text_col]]
        n_docs = len(sh_list)
        out = pd.DataFrame({self.id_col: batch[self.id_col].values})
        if n_docs == 0:
            out["signature"] = []
            return out
        # _shingle_hashes pads short texts to ≥1 window ⇒ every segment
        # is non-empty, which reduceat requires
        lens = np.fromiter((len(s) for s in sh_list), dtype=np.int64,
                           count=n_docs)
        offsets = np.zeros(n_docs, dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        sh_all = np.concatenate(sh_list)
        m = np.uint64(_MERSENNE)
        sigs = np.empty((n_docs, self.num_perm), dtype=np.uint64)
        for p0 in range(0, self.num_perm, self._PERM_CHUNK):
            a = self.a[p0:p0 + self._PERM_CHUNK, None]
            b = self.b[p0:p0 + self._PERM_CHUNK, None]
            vals = (a * sh_all[None, :] + b) % m        # (chunk, Σshingles)
            sigs[:, p0:p0 + self._PERM_CHUNK] = \
                np.minimum.reduceat(vals, offsets, axis=1).T
        out["signature"] = list(sigs)
        return out


class BandExplode:
    """signature → one row per LSH band: (band_id, band_hash, id)."""

    def __init__(self, num_bands: int, id_col: str = "doc_id"):
        self.num_bands = num_bands
        self.id_col = id_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = np.stack(batch["signature"].values)
        n, num_perm = sigs.shape
        rows_per_band = num_perm // self.num_bands
        ids, bands, hashes = [], [], []
        for b in range(self.num_bands):
            chunk = sigs[:, b * rows_per_band:(b + 1) * rows_per_band]
            h = np.array([hash(c.tobytes()) & 0x7FFFFFFFFFFFFFFF for c in chunk])
            ids.append(batch[self.id_col].values)
            bands.append(np.full(n, b))
            hashes.append(h)
        return pd.DataFrame({
            self.id_col: np.concatenate(ids),
            "band_id": np.concatenate(bands),
            "band_hash": np.concatenate(hashes),
        })


def minhash_lsh_candidates(ds: rd.Dataset, *, text_col: str = "text",
                           id_col: str = "doc_id", num_perm: int = 64,
                           num_bands: int = 16, shingle_k: int = 5,
                           seed: int = 42,
                           approx_docs: Optional[int] = None) -> rd.Dataset:
    """Candidate near-duplicate PAIRS (id_a < id_b) via banded MinHash."""
    import ray

    # signature computation is the CPU-heavy stage; small inputs arrive as a
    # single block which would serialize it — split to the core count first
    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    sigs = ds.repartition(ncpu * 2).map_batches(
        MinHashSignatures(text_col, id_col, num_perm, shingle_k, seed),
        batch_format="pandas")
    bands = sigs.map_batches(_BandExplodeStable(num_bands, id_col),
                             batch_format="pandas")

    # coarse shuffle key: hash the (band, bucket) space down to ~4×cores
    # groups — a bucket lands wholly in one group, but map_groups sees ~10²
    # groups instead of |docs|×bands tiny ones (per-group dispatch dominates
    # otherwise); the exact bucketing happens in pandas inside the group
    n_groups = max(32, ncpu * 4)

    def add_group(df: pd.DataFrame) -> pd.DataFrame:
        df["bucket_grp"] = (df["band_hash"].astype("int64")
                            % np.int64(n_groups))
        return df

    def emit_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized all-pairs within each (band, bucket): sort once, find
        # group boundaries, then for each distinct bucket SIZE materialize
        # every group's pair indices in one triu_indices broadcast — no
        # Python loop over buckets or pairs (the loop version dominated the
        # whole query's wall time once buckets grew dup-heavy)
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        d = df[["band_id", "band_hash", id_col]].drop_duplicates() \
            .sort_values(["band_id", "band_hash", id_col])
        ids = d[id_col].to_numpy()
        key = d[["band_id", "band_hash"]].to_numpy()
        change = np.any(key[1:] != key[:-1], axis=1)
        starts = np.concatenate([[0], np.flatnonzero(change) + 1])
        counts = np.diff(np.concatenate([starts, [len(d)]]))
        parts_a, parts_b = [], []
        for c in np.unique(counts):
            if c < 2:
                continue
            gs = starts[counts == c]
            iu, ju = np.triu_indices(int(c), 1)
            parts_a.append(ids[(gs[:, None] + iu[None, :]).ravel()])
            parts_b.append(ids[(gs[:, None] + ju[None, :]).ravel()])
        if not parts_a:
            return empty
        return pd.DataFrame({"id_a": np.concatenate(parts_a),
                             "id_b": np.concatenate(parts_b)}) \
            .drop_duplicates().astype({"id_a": "int64", "id_b": "int64"})

    # band rows = docs × num_bands exactly (one row per doc per band), so
    # the path choice needs NO materialization barrier: the caller's doc
    # count (parquet footer metadata) keeps the whole signatures→bands→
    # pairs chain one streaming execution
    n_docs = approx_docs if approx_docs is not None else ds.count()
    if n_docs * num_bands <= 2_000_000:
        # small band table: one task groups the (band, bucket) space
        # directly — no shuffle barrier (emit_pairs buckets internally)
        pairs = bands.repartition(1).map_batches(
            emit_pairs, batch_format="pandas", batch_size=None)
    else:
        pairs = bands.map_batches(add_group, batch_format="pandas") \
            .groupby("bucket_grp").map_groups(emit_pairs,
                                              batch_format="pandas")

    # distinct pairs (same pair can fire in several bands/groups):
    # bucketed distinct — O(#buckets) dispatches, not one per pair
    from ..sqlc.compiler import distinct_rows

    return distinct_rows(pairs, names=["id_a", "id_b"])


class _BandExplodeStable(BandExplode):
    """BandExplode with a process-stable band hash (no Python hash())."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = np.stack(batch["signature"].values)
        n, num_perm = sigs.shape
        rows_per_band = num_perm // self.num_bands
        ids, bands, hashes = [], [], []
        for b in range(self.num_bands):
            chunk = np.ascontiguousarray(
                sigs[:, b * rows_per_band:(b + 1) * rows_per_band])
            h = np.array([
                int.from_bytes(hashlib.blake2b(c.tobytes(), digest_size=8).digest(),
                               "little") >> 1
                for c in chunk], dtype=np.int64)
            ids.append(batch[self.id_col].values)
            bands.append(np.full(n, b))
            hashes.append(h)
        return pd.DataFrame({
            self.id_col: np.concatenate(ids),
            "band_id": np.concatenate(bands),
            "band_hash": np.concatenate(hashes),
        })


# ------------------------------------------------------------------- SimHash
def _word_hash64(word: str) -> int:
    """Per-word 64-bit hash = low 8 bytes of MD5, little-endian — chosen to
    equal DuckDB's ``md5_number_lower`` so the SQL oracle can recompute
    signatures bit-for-bit."""
    return int.from_bytes(hashlib.md5(word.encode()).digest()[8:], "little")


class SimHash:
    """64-bit SimHash over word tokens; near-dups differ in ≤3 bits.

    Per doc: Counter(words) once (the old ``words.count(w)`` loop was
    O(unique × total) per document), then one (unique, 64) ±1 matrix–vector
    product. Word→±1-bit rows are md5-derived and cached per worker (corpus
    vocabulary repeats heavily), with new words bit-expanded in one
    vectorized shift per batch."""

    _CACHE_CAP = 2_000_000  # ±1 rows are 64 B/word → ≤ ~128 MB per worker

    def __init__(self, text_col: str = "text", seed: int = 42):
        self.text_col = text_col
        self.word_re = re.compile(r"[A-Za-z0-9]+")
        self._bits: dict[str, np.ndarray] = {}  # word -> (64,) int8 of ±1

    def _intern(self, words: list) -> None:
        new = [w for w in words if w not in self._bits]
        if not new:
            return
        if len(self._bits) + len(new) > self._CACHE_CAP:
            self._bits.clear()
        hs = np.array([_word_hash64(w) for w in new], dtype=np.uint64)
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64))
                & np.uint64(1)).astype(np.int8)
        rows = bits * np.int8(2) - np.int8(1)
        for w, r in zip(new, rows):
            self._bits[w] = r

    def _sig(self, text: str) -> int:
        from collections import Counter

        counts = Counter(self.word_re.findall((text or "").lower()))
        if not counts:
            return 0
        self._intern(list(counts))
        mat = np.stack([self._bits[w] for w in counts]).astype(np.int64)
        cnt = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        acc = cnt @ mat
        return int(((acc > 0).astype(np.uint64)
                    << np.arange(64, dtype=np.uint64)).sum())

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch["simhash"] = [self._sig(t) for t in batch[self.text_col]]
        return batch


def simhash_candidates(ds: rd.Dataset, *, text_col: str = "text",
                       id_col: str = "doc_id",
                       max_hamming: int = 3) -> rd.Dataset:
    """Banded SimHash: 4×16-bit chunks; hamming≤3 pairs share ≥1 chunk
    (pigeonhole: 3 flips cannot hit all 4 bands)."""
    sig = ds.map_batches(SimHash(text_col), batch_format="pandas")

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        s = df["simhash"].values.astype(np.uint64)
        out = []
        for b in range(4):
            chunk = (s >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            out.append(pd.DataFrame({
                id_col: df[id_col].values, "simhash": s,
                "band_id": b, "band_val": chunk.astype(np.int64)}))
        return pd.concat(out, ignore_index=True)

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        pairs = []
        for (_, _), grp in df.groupby(["band_id", "band_val"], sort=False):
            rows = grp.drop_duplicates(id_col).sort_values(id_col)
            ids = rows[id_col].tolist()
            sigs = rows["simhash"].tolist()
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    dist = bin(int(sigs[i]) ^ int(sigs[j])).count("1")
                    if dist <= max_hamming:
                        pairs.append((ids[i], ids[j], dist))
        out = pd.DataFrame(pairs, columns=["id_a", "id_b", "hamming"])
        return out.astype({"id_a": "int64", "id_b": "int64", "hamming": "int64"})

    def add_group(df: pd.DataFrame) -> pd.DataFrame:
        # coarse shuffle key (see minhash_lsh_candidates): buckets stay whole
        df["bucket_grp"] = (df["band_val"].astype("int64") * 7 +
                            df["band_id"].astype("int64")) % np.int64(256)
        return df

    from ..sqlc.compiler import distinct_rows

    pairs = sig.map_batches(explode, batch_format="pandas") \
        .map_batches(add_group, batch_format="pandas") \
        .groupby("bucket_grp").map_groups(emit, batch_format="pandas")
    # same pair may fire in several bands — bucketed distinct
    return distinct_rows(pairs, names=["id_a", "id_b", "hamming"])


# ----------------------------------------------------------- n-gram Jaccard
def ngram_set(text: str, n: int = 3) -> set:
    t = re.sub(r"\s+", " ", (text or "").lower()).strip()
    if len(t) < n:
        return {t} if t else set()
    return {t[i:i + n] for i in range(len(t) - n + 1)}


def jaccard(a: str, b: str, n: int = 3) -> float:
    sa, sb = ngram_set(a, n), ngram_set(b, n)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


def verify_jaccard(pairs: rd.Dataset, docs: rd.Dataset, *,
                   text_col: str = "text", id_col: str = "doc_id",
                   threshold: float = 0.8, n: int = 3) -> rd.Dataset:
    """Verify LSH candidate pairs against the raw texts WITHOUT broadcasting
    the corpus: the candidate id set (small by LSH construction — bounded by
    |pairs|, not |docs|) filters the documents table down to touched docs;
    only those texts ship to the verify stage. The corpus streams through a
    vectorized membership filter — it is never collected on the driver."""
    import ray

    pairs = pairs.materialize()  # small post-LSH; consumed twice below
    id_tbl = pa.concat_tables([
        t.select(["id_a"]).rename_columns([id_col])
        for t in pairs.select_columns(["id_a"])
        .iter_batches(batch_size=None, batch_format="pyarrow")] + [
        t.select(["id_b"]).rename_columns([id_col])
        for t in pairs.select_columns(["id_b"])
        .iter_batches(batch_size=None, batch_format="pyarrow")])
    cand_ids = np.unique(id_tbl.column(id_col).to_numpy(zero_copy_only=False))
    ids_ref = ray.put(cand_ids)

    # task pool, not actors: ray.get of the sorted id array is a zero-copy
    # shared-memory read per task, so there is no state worth an actor
    def keep_candidates(t: pa.Table) -> pa.Table:
        sorted_ids = ray.get(ids_ref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(sorted_ids, ids),
                      0, len(sorted_ids) - 1)
        return t.filter(pa.array(sorted_ids[pos] == ids))

    touched = docs.select_columns([id_col, text_col]) \
        .map_batches(keep_candidates, batch_format="pyarrow").to_pandas()
    texts_ref = ray.put(dict(zip(touched[id_col], touched[text_col])))
    return pairs.map_batches(VerifyJaccard(texts_ref, threshold, n),
                             batch_format="pandas")


class VerifyJaccard:
    """Per-batch pair verification against a ray.put text lookup. Build the
    lookup with :func:`verify_jaccard` (candidate-filtered docs) — never
    from the whole corpus."""

    def __init__(self, texts_ref, threshold: float = 0.8, n: int = 3):
        self.texts_ref = texts_ref
        self.threshold = threshold
        self.n = n
        self._texts = None

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import ray

        if self._texts is None:
            self._texts = ray.get(self.texts_ref)
        sims = [jaccard(self._texts.get(a, ""), self._texts.get(b, ""), self.n)
                for a, b in zip(batch["id_a"], batch["id_b"])]
        batch["jaccard"] = sims
        return batch[batch["jaccard"] >= self.threshold]


# ---------------------------------------------------- embedding cosine dedup
TARGET_BUCKET_VECS = 2048  # aim for ≤ this many vectors per LSH bucket


def choose_nbits(n_vectors: int, target_bucket: int = TARGET_BUCKET_VECS,
                 max_bits: int = 30) -> int:
    """Hyperplane count so the EXPECTED bucket holds ≤ target_bucket vectors
    (within-bucket work is all-pairs O(b²) — b must not grow with the
    corpus): nbits = ceil(log2(N / target))."""
    import math

    if n_vectors <= target_bucket:
        return 1
    return min(max_bits, max(1, math.ceil(
        math.log2(n_vectors / target_bucket))))


def embedding_dup_pairs(ds: rd.Dataset, *, vec_col: str = "embedding",
                        id_col: str = "vec_id", threshold: float = 0.98,
                        num_buckets: int | None = None, seed: int = 42,
                        probes: int = 1) -> rd.Dataset:
    """Near-dup pairs by embedding cosine ≥ threshold.

    Random-hyperplane LSH sign-bit buckets co-locate near-identical vectors;
    exact all-pairs cosine runs inside each bucket. Scale levers:
    - nbits derives from the CORPUS SIZE (``choose_nbits``) so buckets stay
      ≤ ~2k vectors however large the input; pass ``num_buckets`` only to
      pin it (tests / exact mode with 1 bucket).
    - multi-probe: each vector is also emitted into the buckets reached by
      flipping its ``probes`` lowest-|margin| hyperplane bits, recovering
      boundary pairs that straddle one plane.
    - buckets shuffle under a coarse group key (~4×cores groups); the exact
      per-bucket pairing runs in pandas inside the group, so dispatches are
      O(groups), not O(2^nbits).
    Pairs found via several probes dedup through distinct_rows."""
    import math

    import ray

    if num_buckets is not None:
        nbits = max(1, int(math.log2(num_buckets)))
        n_probes = 0 if num_buckets == 1 else probes
    else:
        nbits = choose_nbits(ds.count())
        n_probes = probes

    class Bucket:
        def __init__(self):
            self.planes = None
            self.nbits = nbits
            self.seed = seed

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            vecs = np.stack(batch[vec_col].values).astype(np.float64)
            if self.planes is None:
                rng = np.random.default_rng(self.seed)
                self.planes = rng.standard_normal((vecs.shape[1], self.nbits))
            proj = vecs @ self.planes                      # (n, nbits)
            bits = proj > 0
            weights = 1 << np.arange(self.nbits)
            bucket = (bits @ weights).astype(np.int64)
            ids = batch[id_col].values
            out_ids = [ids]
            out_buckets = [bucket]
            out_vecs = [vecs]
            # multi-probe: flip the lowest-|margin| bits one at a time
            if self.nbits > 1 and n_probes > 0:
                order = np.argsort(np.abs(proj), axis=1)
                for p in range(min(n_probes, self.nbits)):
                    flip = order[:, p]
                    out_ids.append(ids)
                    out_buckets.append(
                        (bucket ^ weights[flip]).astype(np.int64))
                    out_vecs.append(vecs)
            return pd.DataFrame({
                id_col: np.concatenate(out_ids),
                "bucket": np.concatenate(out_buckets),
                vec_col: list(np.vstack(out_vecs)),
            })

    def pairs_in_group(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in df.groupby("bucket", sort=False):
            g = grp.drop_duplicates(id_col)
            if len(g) < 2:
                continue
            vecs = np.stack(g[vec_col].values)
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            unit = vecs / norms
            sim = unit @ unit.T
            ids = g[id_col].values
            ia, ib = np.triu_indices(len(ids), k=1)
            mask = sim[ia, ib] >= threshold
            outs.append(pd.DataFrame({
                "id_a": np.minimum(ids[ia[mask]], ids[ib[mask]]),
                "id_b": np.maximum(ids[ia[mask]], ids[ib[mask]]),
                "cosine": sim[ia, ib][mask],
            }))
        # typed empty frame when no bucket in this group yielded pairs
        if not outs:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "cosine": pd.Series([], dtype="float64")})
        return pd.concat(outs, ignore_index=True)

    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8

    def add_group(df: pd.DataFrame) -> pd.DataFrame:
        df["bucket_grp"] = (df["bucket"].astype("int64")
                            % np.int64(max(32, ncpu * 4)))
        return df

    bucketed = ds.map_batches(Bucket(), batch_format="pandas")
    # ADAPTIVE small path: the groupby barrier costs seconds of fixed sort
    # time even when only thousands of (id, bucket, vec) rows shuffle —
    # bucketed rows = N × (1 + probes) exactly, so the path choice needs no
    # materialization barrier. Below the row bound (vector-payload-aware:
    # 200k × 64-dim float64 ≈ 100 MB) one task runs every bucket locally
    # (pairs_in_group already iterates buckets within its input). At corpus
    # scale the real coarse-group exchange runs as before.
    SMALL_BUCKETED_ROWS = 200_000
    n_bucketed = ds.count() * (1 + (n_probes if nbits > 1 else 0))
    if n_bucketed <= SMALL_BUCKETED_ROWS:
        pairs = bucketed.repartition(1).map_batches(
            pairs_in_group, batch_format="pandas", batch_size=None)
    else:
        pairs = bucketed.map_batches(add_group, batch_format="pandas") \
            .groupby("bucket_grp").map_groups(
                pairs_in_group, batch_format="pandas")
    if n_probes == 0:
        return pairs
    from ..sqlc.compiler import distinct_rows

    return distinct_rows(pairs, names=["id_a", "id_b", "cosine"])


# ------------------------------------------------------- connected components
#: nodes above this per-round-broadcast bound (16 B/node → ≈1 GB at 64M)
#: switch min-label propagation from driver-broadcast pushes to
#: Dataset.join pushes — the driver never holds the label table.
LABEL_BROADCAST_LIMIT = 64_000_000


def connected_components(pairs: rd.Dataset, *, id_a: str = "id_a",
                         id_b: str = "id_b",
                         small_limit: int = 2_000_000,
                         max_rounds: int = 32,
                         label_broadcast_limit: int =
                         LABEL_BROADCAST_LIMIT) -> rd.Dataset:
    """Transitive closure of near-dup pairs → (id, component) with
    component = the MINIMUM id reachable from each node — the endgame of
    pair-based dedup (keep one representative per component, drop the
    rest).

    Adaptive: below ``small_limit`` edges (the common case — LSH bounds
    candidate pairs far below corpus size) a single driver union-find with
    path compression resolves components exactly. Above it, distributed
    min-label propagation runs (public algorithm family: Kiveris et al.
    2014, "Connected Components in MapReduce and Beyond" — each round
    pushes every node's current label across its edges via one vectorized
    batch join against the broadcast label map, then takes per-node mins;
    converges in O(log n) rounds on any graph, checked per round).
    Deterministic either way: min-id labels, no RNG."""
    import ray

    pairs = pairs.materialize()
    n_edges = pairs.count()
    if n_edges == 0:
        return rd.from_arrow(pa.table({
            "id": pa.array([], pa.int64()),
            "component": pa.array([], pa.int64())}))
    if n_edges <= small_limit:
        df = pairs.select_columns([id_a, id_b]).to_pandas()
        parent: dict = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != r:  # path compression
                parent[x], x = r, parent[x]
            return r

        for a, b in zip(df[id_a].to_numpy(), df[id_b].to_numpy()):
            a, b = int(a), int(b)
            ra, rb = find(a), find(b)
            if ra != rb:
                # union by MIN root keeps labels deterministic
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
        nodes = np.unique(np.concatenate(
            [df[id_a].to_numpy(), df[id_b].to_numpy()]))
        comp = np.fromiter((find(int(x)) for x in nodes), dtype=np.int64,
                           count=len(nodes))
        return rd.from_arrow(pa.table({
            "id": pa.array(nodes.astype(np.int64)),
            "component": pa.array(comp)}))

    # ---- distributed min-label propagation (edges too big for a driver)
    def symmetrize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        a = pc.cast(t.column(id_a), pa.int64())
        b = pc.cast(t.column(id_b), pa.int64())
        return pa.table({"src": pa.concat_arrays(
            [a.combine_chunks(), b.combine_chunks()]),
            "dst": pa.concat_arrays(
            [b.combine_chunks(), a.combine_chunks()])})

    edges = pairs.map_batches(symmetrize, batch_format="pyarrow") \
        .materialize()

    def node_rows(t: pa.Table) -> pa.Table:
        return pa.table({"id": t.column("src"),
                         "component": t.column("src")})

    labels = edges.map_batches(node_rows, batch_format="pyarrow") \
        .groupby("id").min("component") \
        .map_batches(lambda t: t.rename_columns(["id", "component"]),
                     batch_format="pyarrow").materialize()

    if labels.count() > label_broadcast_limit:
        # label table too big to broadcast each round: push labels across
        # edges with a hash-partitioned join per round instead — the
        # driver never sees a label row. Convergence check without
        # collecting labels either: min-label propagation only DECREASES
        # labels (new = min(old, pushed)), so Σ component is strictly
        # decreasing until the fixed point — equal sums ⇔ converged.
        return _cc_join_rounds(edges, labels, max_rounds)

    for _ in range(max_rounds):
        # push labels across edges: one broadcast-map per round. The label
        # table is one (int64, int64) row per NODE of the PAIR GRAPH (16
        # B/node), broadcast once per round via ray.put while the EDGE set
        # streams distributed; above label_broadcast_limit the join-push
        # loop (_cc_join_rounds) replaces this.
        lab = labels.to_pandas()
        ids = lab["id"].to_numpy(dtype=np.int64)
        comps = lab["component"].to_numpy(dtype=np.int64)
        order = np.argsort(ids)
        ids_s, comps_s = ids[order], comps[order]
        ref = ray.put((ids_s, comps_s))

        def push(t: pa.Table, _r=ref) -> pa.Table:
            sid, scomp = ray.get(_r)
            src = t.column("src").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(sid, src)
            return pa.table({"id": t.column("dst"),
                             "component": pa.array(scomp[pos])})

        cand = edges.map_batches(push, batch_format="pyarrow")
        base = labels
        new_labels = base.union(cand).groupby("id").min("component") \
            .map_batches(lambda t: t.rename_columns(["id", "component"]),
                         batch_format="pyarrow").materialize()
        # convergence: any label decreased this round?
        new_lab = new_labels.to_pandas()
        nid = new_lab["id"].to_numpy(dtype=np.int64)
        ncomp = new_lab["component"].to_numpy(dtype=np.int64)
        no = np.argsort(nid)
        if np.array_equal(ncomp[no], comps_s):
            labels = new_labels
            break
        labels = new_labels
    return labels


def _cc_join_rounds(edges: rd.Dataset, labels: rd.Dataset,
                    max_rounds: int) -> rd.Dataset:
    """Min-label propagation rounds where the label push is a
    hash-partitioned ``Dataset.join`` (edges ⋈ labels on src=id) instead
    of a driver broadcast — the scale path when the duplicate graph's node
    set exceeds :data:`LABEL_BROADCAST_LIMIT`. One join shuffle + one
    groupby per round over narrow (int64, int64) rows only."""
    import ray

    from ..sqlc.compiler import _drop_empty_blocks, _join_partitions, \
        _shuffle_join

    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    nparts = _join_partitions(ncpu)

    def pushed_rows(t: pa.Table) -> pa.Table:
        return pa.table({"id": t.column("dst"),
                         "component": t.column("component")})

    def renamed(t: pa.Table) -> pa.Table:
        return t.rename_columns(["id", "component"])

    labels = _drop_empty_blocks(labels)
    cur_sum = labels.sum("component")
    for _ in range(max_rounds):
        cand = _shuffle_join(
            edges, labels, join_type="inner", num_partitions=nparts,
            on=("src",), right_on=("id",)) \
            .map_batches(pushed_rows, batch_format="pyarrow") \
            .materialize()  # barrier: keep the join out of the groupby plan
        labels = _drop_empty_blocks(
            labels.union(_drop_empty_blocks(cand))
            .groupby("id").min("component")
            .map_batches(renamed, batch_format="pyarrow").materialize())
        new_sum = labels.sum("component")
        if new_sum == cur_sum:  # labels only decrease ⇒ fixed point
            break
        cur_sum = new_sum
    return labels


def near_dedup(ds: rd.Dataset, *, text_col: str = "text",
               id_col: str = "doc_id", **minhash_kw) -> rd.Dataset:
    """End-to-end near-duplicate removal: MinHash-LSH candidate pairs →
    connected components → keep each component's min-id representative.

    Composition of the scale-shaped pieces: pairs are LSH-bounded, the
    component labels are narrow int rows, and the corpus itself streams
    through :func:`_drop_ids` — broadcast-set filter when the loser set is
    small, one left_anti hash join above ``LOSER_BROADCAST_LIMIT`` — so
    full rows move at most once, exactly like :func:`exact_dedup`."""
    pairs = minhash_lsh_candidates(ds, text_col=text_col, id_col=id_col,
                                   **minhash_kw)
    comp = connected_components(pairs)

    def losers(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.not_equal(t.column("id"), t.column("component"))
        return t.filter(keep).select(["id"]).rename_columns([id_col])

    loser_ds = comp.map_batches(losers, batch_format="pyarrow")
    return _drop_ids(ds, loser_ds, id_col)
