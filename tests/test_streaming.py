"""Event-time streaming windows with watermarks (ops/streaming.py).

Gates: equality with the batch sliding_window_agg under infinite lateness
(any chunking, any chunk order), watermark finalization + exactly-once
late-drop semantics on a hand-built stream, checkpoint/restore resume, and
Dataset-vs-Table ingest-path equality."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from conftest import SF_TINY

from qwery_ray.ops.streaming import StreamingWindowAggregator, \
    stream_window_agg
from qwery_ray.ops.windows import sliding_window_agg

EVENTS = f"{SF_TINY}/events.parquet"


def _batch_reference(width, slide, ray_session):
    ds = rd.read_parquet(EVENTS, columns=["ts", "value"])
    return sliding_window_agg(ds, width_sec=width, slide_sec=slide) \
        .to_pandas().sort_values("window_start_sec").reset_index(drop=True)


def _chunks_df(n):
    df = pq.read_table(EVENTS, columns=["event_id", "ts", "value"]) \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    # iloc-slice instead of np.array_split: the latter routes DataFrames
    # through the deprecated DataFrame.swapaxes (removed in pandas 3)
    sub = df[["ts", "value"]]
    bounds = np.linspace(0, len(sub), n + 1).astype(int)
    return [sub.iloc[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


class TestStreamEqualsBatch:
    @pytest.mark.parametrize("nchunks,width,slide",
                             [(1, 7200, 7200), (5, 7200, 7200),
                              (7, 14400, 3600)])
    def test_inf_lateness_equals_batch(self, ray_session, nchunks, width,
                                       slide):
        got = stream_window_agg(_chunks_df(nchunks), width_sec=width,
                                slide_sec=slide).to_pandas()
        ref = _batch_reference(width, slide, ray_session)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), ref[got.columns], check_exact=True)

    def test_chunk_order_invariance(self, ray_session):
        chunks = _chunks_df(6)
        a = stream_window_agg(chunks, width_sec=7200).to_pandas()
        b = stream_window_agg(chunks[::-1], width_sec=7200).to_pandas()
        pd.testing.assert_frame_equal(a, b, check_exact=True)

    def test_dataset_ingest_path_equals_table_path(self, ray_session):
        df = pq.read_table(EVENTS, columns=["ts", "value"]).to_pandas()
        via_tbl = stream_window_agg(
            [pa.Table.from_pandas(df, preserve_index=False)],
            width_sec=7200).to_pandas()
        via_ds = stream_window_agg(
            [rd.read_parquet(EVENTS, columns=["ts", "value"])
             .repartition(5)],
            width_sec=7200).to_pandas()
        pd.testing.assert_frame_equal(via_tbl, via_ds, check_exact=True)


def _ts(secs):
    # microsecond timestamps as the engine's ts columns carry
    return pa.array(np.asarray(secs, dtype=np.int64) * 1_000_000,
                    pa.timestamp("us"))


def _tbl(secs, vals):
    return pa.table({"ts": _ts(secs), "value": pa.array(
        np.asarray(vals, dtype=np.float64), pa.float64())})


class TestWatermark:
    def test_finalize_then_late_drop(self):
        agg = StreamingWindowAggregator(width_sec=2, slide_sec=2,
                                        lateness_sec=0)
        # windows [0,2) [2,4) [4,6)
        out1 = agg.ingest(_tbl([0, 1, 2], [1, 1, 1]))
        # watermark = 2 → window 0 finalizes with 2 events
        assert out1.column("window_start_sec").to_pylist() == [0]
        assert out1.column("n_events").to_pylist() == [2]
        # a late event for the finalized window 0 is dropped exactly-once
        out2 = agg.ingest(_tbl([1, 4], [9, 1]))
        assert agg.late_dropped == 1
        assert out2.column("window_start_sec").to_pylist() == [2]
        assert out2.column("n_events").to_pylist() == [1]
        fin = agg.flush()
        assert fin.column("window_start_sec").to_pylist() == [4]
        # window 0 was never re-emitted, and the late value never summed
        assert agg.late_dropped == 1

    def test_allowed_lateness_admits_stragglers(self):
        agg = StreamingWindowAggregator(width_sec=2, slide_sec=2,
                                        lateness_sec=3)
        agg.ingest(_tbl([0, 4], [1, 1]))   # watermark = 1 → nothing final
        out = agg.ingest(_tbl([1], [5]))   # straggler admitted
        assert len(out) == 0
        fin = agg.flush().to_pandas().set_index("window_start_sec")
        assert fin.loc[0, "n_events"] == 2
        assert fin.loc[0, "total_value"] == 6.0
        assert agg.late_dropped == 0

    def test_sliding_partial_late_window_contributions(self):
        # width 4 slide 2: an event belongs to 2 windows; if one is already
        # finalized only that contribution drops
        agg = StreamingWindowAggregator(width_sec=4, slide_sec=2,
                                        lateness_sec=0)
        agg.ingest(_tbl([0, 5], [1, 1]))   # watermark 5 → windows -2,0 final
        before = agg.late_dropped
        agg.ingest(_tbl([3], [1]))         # windows 0 (final) and 2 (open)
        assert agg.late_dropped == before + 1
        fin = agg.flush().to_pandas().set_index("window_start_sec")
        assert fin.loc[2, "n_events"] == 2  # ts=3 and ts=5


class TestCheckpointResume:
    def test_resume_equals_uninterrupted(self, tmp_path, ray_session):
        chunks = _chunks_df(6)
        full = stream_window_agg(chunks, width_sec=7200).to_pandas()

        ckpt = str(tmp_path / "state.json")
        agg = StreamingWindowAggregator(width_sec=7200, slide_sec=7200,
                                        lateness_sec=float("inf"))
        outs = []
        for c in chunks[:3]:
            outs.append(agg.ingest(c))
            agg.checkpoint(ckpt)
        # simulated crash: a NEW process restores and continues
        agg2 = StreamingWindowAggregator.restore(ckpt)
        for c in chunks[3:]:
            outs.append(agg2.ingest(c))
        outs.append(agg2.flush())
        got = pa.concat_tables([t for t in outs if len(t)]) \
            .sort_by("window_start_sec").to_pandas()
        pd.testing.assert_frame_equal(got, full, check_exact=True)

    def test_checkpoint_roundtrip_preserves_semantics(self, tmp_path):
        agg = StreamingWindowAggregator(width_sec=2, slide_sec=2,
                                        lateness_sec=0)
        agg.ingest(_tbl([0, 1, 2], [1, 1, 1]))
        agg.checkpoint(str(tmp_path / "s.json"))
        r = StreamingWindowAggregator.restore(str(tmp_path / "s.json"))
        assert r.emit_floor == agg.emit_floor
        assert r.open == agg.open
        r.ingest(_tbl([1], [9]))          # still late after restore
        assert r.late_dropped == 1


class TestStreamingFuzz:
    """Property fuzz: random event streams, random chunkings, random
    window geometry — streaming emissions must equal the batch aggregate
    (infinite lateness), and with finite lateness every finalized window
    must be emitted exactly once with monotone window starts."""

    def test_random_streams_equal_batch(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            secs=st.lists(st.integers(min_value=0, max_value=400),
                          min_size=1, max_size=120),
            vals=st.lists(st.floats(min_value=-100, max_value=100,
                                    allow_nan=False, width=32),
                          min_size=1, max_size=1),
            nchunks=st.integers(min_value=1, max_value=6),
            geom=st.sampled_from([(4, 4), (8, 4), (16, 8), (60, 20)]),
        )
        def run(secs, vals, nchunks, geom):
            width, slide = geom
            vs = [round(vals[0] * (i % 7 - 3), 2) for i in range(len(secs))]
            tbl = _tbl(secs, vs)
            # batch reference via one-chunk stream (already equals the
            # batch op per TestStreamEqualsBatch; here it anchors chunking)
            ref = stream_window_agg([tbl], width_sec=width,
                                    slide_sec=slide).to_pandas()
            cuts = [(len(secs) * i) // nchunks for i in range(nchunks + 1)]
            chunks = [tbl.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
            got = stream_window_agg(chunks, width_sec=width,
                                    slide_sec=slide).to_pandas()
            pd.testing.assert_frame_equal(got, ref, check_exact=True)

        run()

    def test_finite_lateness_exactly_once(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            secs=st.lists(st.integers(min_value=0, max_value=200),
                          min_size=2, max_size=80),
            lateness=st.integers(min_value=0, max_value=50),
            nchunks=st.integers(min_value=1, max_value=5),
        )
        def run(secs, lateness, nchunks):
            agg = StreamingWindowAggregator(width_sec=8, slide_sec=8,
                                            lateness_sec=lateness)
            cuts = [(len(secs) * i) // nchunks for i in range(nchunks + 1)]
            emitted = []
            for a, b in zip(cuts, cuts[1:]):
                out = agg.ingest(_tbl(secs[a:b], [1.0] * (b - a)))
                emitted.extend(out.column("window_start_sec").to_pylist())
            emitted.extend(
                agg.flush().column("window_start_sec").to_pylist())
            # exactly-once: no window id twice; total events conserved
            assert len(emitted) == len(set(emitted))
            # accounting: emitted events + late-dropped == all events
            # (every event contributes to exactly 1 tumbling window)
            # re-run to sum n_events
            agg2 = StreamingWindowAggregator(width_sec=8, slide_sec=8,
                                             lateness_sec=lateness)
            total = 0
            for a, b in zip(cuts, cuts[1:]):
                total += sum(agg2.ingest(
                    _tbl(secs[a:b], [1.0] * (b - a)))
                    .column("n_events").to_pylist())
            total += sum(agg2.flush().column("n_events").to_pylist())
            assert total + agg2.late_dropped == len(secs)

        run()


class TestBatchWindowsBothRoutes:
    """ops.windows over the one-task and the key-hash bucket route of the
    exchange, against DuckDB; NULL user ids form one session key, as in
    the SQL oracle's PARTITION BY."""

    @pytest.mark.parametrize("route", ["default", "bucket"])
    def test_matches_duckdb(self, ray_session, monkeypatch, route):
        import duckdb

        from qwery_ray.ops.windows import session_window_agg
        from qwery_ray.pipelines.driver_queries import (
            session_window_oracle, sliding_window_oracle)
        from qwery_ray.sqlc.compiler import Compiler

        if route == "bucket":
            monkeypatch.setattr(Compiler, "SMALL_PARTIALS_LIMIT", 0)
        rng = np.random.default_rng(3)
        n = 3000
        events = pa.table({
            "ts": pa.array(rng.integers(0, 3 * 86400, n) * 1_000_000)
            .cast(pa.timestamp("us")),
            "user_id": pa.array(np.where(rng.random(n) < 0.05, None,
                                         rng.integers(0, 40, n)), pa.int64()),
            "value": pa.array(np.round(rng.random(n) * 100, 2)),
        })
        ds = rd.from_arrow(events).repartition(5)
        con = duckdb.connect()
        con.register("events", events)

        def rows(res):
            return sorted(tuple((v is None, v) for v in r) for r in res)

        got = session_window_agg(ds, key_col="user_id", ts_col="ts")
        assert rows(tuple(r.values()) for r in got.take_all()) == \
            rows(con.execute(session_window_oracle()).fetchall())
        got = sliding_window_agg(ds, width_sec=14400, slide_sec=3600) \
            .to_pandas().sort_values("window_start_sec")
        want = con.execute(sliding_window_oracle()).df() \
            .sort_values("window_start_sec")
        assert got["window_start_sec"].tolist() == \
            want["window_start_sec"].tolist()
        assert got["n_events"].tolist() == want["n_events"].tolist()
        np.testing.assert_allclose(got["total_value"], want["total_value"],
                                   rtol=1e-12)
