"""Deterministic smoke of the DML-sequence differ (scripts/
fuzz_dml_vs_duckdb.py): one fixed-seed randomized INSERT / ANSI-UPDATE /
DELETE / UPSERT-KEYED-ON sequence applied to a parquet target through
the SQL surface and mirrored into DuckDB, with full-state comparison
after every statement. Longer multi-seed sweeps run via the script."""
import sys


def test_dml_sequence_matches_duckdb(ray_session):
    sys.path.insert(0, "/root/repo/scripts")
    import fuzz_dml_vs_duckdb as F
    from qwery_ray.engine.session import QweryEngine

    sess = QweryEngine()
    bad = F.run_sequence(run=0, seed=7, steps=25, sess=sess)
    bad += F.run_sequence(run=1, seed=13, steps=25, sess=sess)
    assert bad == 0


def test_lake_sequence_matches_lww_oracle(ray_session):
    """Fixed-seed smoke of the lake-sequence differ (scripts/
    fuzz_lake_vs_oracle.py): multi-statement UPSERT INTO ... WITH LAKE
    with watermark resume, state checked after every transaction."""
    sys.path.insert(0, "/root/repo/scripts")
    import fuzz_lake_vs_oracle as L
    from qwery_ray.engine.session import QweryEngine

    sess = QweryEngine()
    assert L.run_sequence(run=0, seed=7, steps=8, sess=sess) == 0


def test_dml_sequence_forced_distributed_matches_duckdb(ray_session,
                                                        monkeypatch):
    """The same sequences with every MERGE on the bucketed path and every
    UPSERT/UPDATE source pre-reduced distributed. The fuzzer's targets
    hold duplicate keys, so this checks the bucketed MERGE on
    duplicate-key targets against DuckDB."""
    import os

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts"))
    import fuzz_dml_vs_duckdb as F
    import qwery_ray.cdc.merge_stmt as ms
    import qwery_ray.cdc.upsert as up
    from qwery_ray.engine.session import QweryEngine

    monkeypatch.setattr(ms, "MERGE_DISTRIBUTED_BYTES", 0)
    monkeypatch.setattr(up, "SOURCE_PREREDUCE_BYTES", 0)
    sess = QweryEngine()
    bad = F.run_sequence(run=0, seed=7, steps=25, sess=sess)
    bad += F.run_sequence(run=1, seed=13, steps=25, sess=sess)
    assert bad == 0
