import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_TINY = "/root/testdata/sf0.001"
SF_SMALL = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def engine(ray_session):
    from qwery_ray import QweryEngine

    return QweryEngine(table_root=SF_TINY)


@pytest.fixture()
def duck():
    import duckdb

    con = duckdb.connect()
    for name in ("region", "nation", "customer", "supplier", "part", "orders",
                 "lineitem", "events", "documents", "embeddings"):
        con.execute(
            f"CREATE VIEW {name} AS SELECT * FROM "
            f"read_parquet('{SF_TINY}/{name}.parquet')")
    yield con
    con.close()


def scramble_data_pages(path):
    """Overwrite every byte of a parquet file between the leading magic and
    the footer: the schema and statistics stay readable, any read of the
    data raises."""
    with open(path, "rb") as f:
        b = bytearray(f.read())
    end = len(b) - 8 - int.from_bytes(b[-8:-4], "little")
    b[4:end] = b"\xff" * (end - 4)
    with open(path, "wb") as f:
        f.write(b)


def to_pandas(result):
    """Normalize a Dataset / pa.Table / DataFrame result to pandas."""
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pa.Table):
        return result.to_pandas()
    if isinstance(result, pd.DataFrame):
        return result
    return result.to_pandas()  # ray Dataset


def assert_frames_match(actual, expected, sort_by=None, check_dtype=False):
    """Order-insensitive comparison, mirroring the driver's compare."""
    import pandas as pd

    a = to_pandas(actual)
    e = to_pandas(expected)
    if a.empty and e.empty:
        assert len(a) == len(e)
        return
    a = a.reindex(sorted(a.columns), axis=1)
    e = e.reindex(sorted(e.columns), axis=1)
    sort_cols = sort_by or list(a.columns)
    a = a.sort_values(sort_cols, ignore_index=True)
    e = e.sort_values(sort_cols, ignore_index=True)

    # normalize null-likes in object columns (None vs nan): future pandas
    # equality-testing treats mismatched null-likes as NOT matching
    def _norm(df):
        df = df.copy()
        for c in df.columns:
            if df[c].dtype == object:
                df[c] = df[c].where(df[c].notna(), None)
        return df

    pd.testing.assert_frame_equal(_norm(a), _norm(e),
                                  check_dtype=check_dtype,
                                  check_exact=False, rtol=1e-9, atol=1e-12)
