"""Streaming-style window aggregates over an event-time column.

``sliding_window_agg``: tumbling/sliding windows (width W, slide S, W a
multiple of S) — each event belongs to W/S windows. The scale shape is a
per-batch COMBINER (explode the window ids vectorized, partial
count/sum per window id via bincount) followed by one exchange() that
sums each window's partials: the exchange moves one row per (window,
batch), never per event. Money-typed values accumulate as integer cents,
so window sums are exact and bit-stable at any parallelism (the same
decimal-snapping contract as the SQL aggregate oracle bridge).

A tumbling window is the S == W special case. Event-time only (the lake's
LSN ordering is the processing-time authority; see cdc/engine.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


class SlidingWindowPartial:
    """Per-batch combiner: event → its W/S window ids → partial
    (count, cent-sum) per window id present in the batch."""

    def __init__(self, ts_col: str, value_col: str, width_sec: int,
                 slide_sec: int):
        if width_sec % slide_sec != 0:
            raise ValueError("width_sec must be a multiple of slide_sec")
        self.ts_col = ts_col
        self.value_col = value_col
        self.width = width_sec
        self.slide = slide_sec
        self.k = width_sec // slide_sec

    def __call__(self, t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({
                "window_start_sec": pa.array([], type=pa.int64()),
                "__pc": pa.array([], type=pa.int64()),
                "__ps": pa.array([], type=pa.int64()),
            })
        ts_us = pc.cast(t.column(self.ts_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        ts_sec = np.floor_divide(ts_us, 1_000_000)
        base = np.floor_divide(ts_sec, self.slide)
        vals = t.column(self.value_col)
        valid = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        cents = np.where(
            valid,
            np.round(np.nan_to_num(
                pc.cast(vals, pa.float64()).to_numpy(zero_copy_only=False))
                * 100.0),
            0.0).astype(np.int64)
        wids = np.concatenate(
            [(base - j) * self.slide for j in range(self.k)])
        cnts = np.tile(np.ones(len(t), dtype=np.int64), self.k)
        sums = np.tile(cents, self.k)
        uw, inv = np.unique(wids, return_inverse=True)
        pc_ = np.bincount(inv, weights=cnts).astype(np.int64)
        # integer cents < 2^53 stay exact through float64 bincount weights
        ps = np.bincount(inv, weights=sums).astype(np.int64)
        return pa.table({
            "window_start_sec": pa.array(uw, type=pa.int64()),
            "__pc": pa.array(pc_, type=pa.int64()),
            "__ps": pa.array(ps, type=pa.int64()),
        })


def session_window_agg(ds: rd.Dataset, *, key_col: str = "user_id",
                       ts_col: str = "ts",
                       gap_sec: int = 1800) -> rd.Dataset:
    """Gap-based session windows per key: consecutive events closer than
    ``gap_sec`` belong to one session. One ``exchange()`` hands each task
    whole keys; inside it the events sort by (key, second) and a session
    starts at every new key and every gap over ``gap_sec`` (NULL keys form
    one key, as in SQL's PARTITION BY). Session MEMBERSHIP is independent
    of tie order (equal timestamps have gap 0), so the output is
    deterministic at any parallelism.

    Emits (key, session_start_sec, session_end_sec, n_events)."""
    from ..sqlc.compiler import _dense_group_ids, exchange

    def to_secs(t: pa.Table) -> pa.Table:
        secs = np.floor_divide(
            pc.cast(t.column(ts_col), pa.int64()).to_numpy(
                zero_copy_only=False), 1_000_000)
        return pa.table({key_col: t.column(key_col),
                         "__sec": pa.array(secs, type=pa.int64())})

    def sessionize(t: pa.Table) -> pa.Table:
        t = t.sort_by([(key_col, "ascending"), ("__sec", "ascending")])
        gid, _ = _dense_group_ids(t, [key_col])
        sec = t.column("__sec").to_numpy()
        start = np.flatnonzero(np.r_[True, (gid[1:] != gid[:-1])
                                     | (np.diff(sec) > gap_sec)])
        end = np.r_[start[1:], len(t)] - 1
        return pa.table({
            key_col: t.column(key_col).take(start),
            "session_start_sec": pa.array(sec[start]),
            "session_end_sec": pa.array(sec[end]),
            "n_events": pa.array(end - start + 1, pa.int64()),
        })

    return exchange(ds.map_batches(to_secs, batch_format="pyarrow"),
                    [key_col], sessionize)


def _merge_window_partials(t: pa.Table) -> pa.Table:
    """Sum the integer partials of each window exactly (Arrow group_by)."""
    out = t.group_by(["window_start_sec"], use_threads=False) \
        .aggregate([("__pc", "sum"), ("__ps", "sum")])
    return pa.table({
        "window_start_sec": out.column("window_start_sec"),
        "n_events": out.column("__pc_sum"),
        "__cents": out.column("__ps_sum"),
    })


def sliding_window_agg(ds: rd.Dataset, *, ts_col: str = "ts",
                       value_col: str = "value", width_sec: int = 3600,
                       slide_sec: int = 3600) -> rd.Dataset:
    """Per-window (count, exact value sum): combiner → one exchange()
    merges each window's integer partials."""
    from ..sqlc.compiler import exchange

    partial = ds.map_batches(
        SlidingWindowPartial(ts_col, value_col, width_sec, slide_sec),
        batch_format="pyarrow")
    merged = exchange(partial, ["window_start_sec"], _merge_window_partials)

    def finish(t: pa.Table) -> pa.Table:
        total = pc.divide(
            pc.cast(t.column("__cents"), pa.float64()), 100.0)
        return pa.table({
            "window_start_sec": t.column("window_start_sec"),
            "n_events": pc.cast(t.column("n_events"), pa.int64()),
            "total_value": total,
        })

    return merged.map_batches(finish, batch_format="pyarrow")
