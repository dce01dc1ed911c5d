"""qwery_ray — a Ray-Data-native data-processing / CDC-ingest engine.

A from-scratch rebuild of the query and ETL capabilities of
ldaniels528/qwery (reference at /root/reference, studied not copied) on
idiomatic Ray Data: SQL statements compile to lazy Dataset pipelines of
vectorized Arrow batch transforms; the CDC specialization replays a
binlog/WAL-style change-event tail into a partitioned Parquet lake with
last-writer-wins semantics, exactly-once manifest commits and
checkpoint/resume (see qwery_ray.cdc).
"""

import os as _os

# polars is used for vectorized hashing/group-max inside Ray worker tasks;
# left unset it spawns a machine-wide thread pool PER WORKER (n_workers ×
# n_cores threads = oversubscription). One thread per task slot is correct —
# Ray provides the process-level parallelism. Must be set before the first
# polars import anywhere in the process.
_os.environ.setdefault("POLARS_MAX_THREADS", "1")


def _stub_fsspec_http() -> None:
    """Ray's path resolution probes ``fsspec.implementations.http`` on every
    read; without aiohttp that import fails, and with CONCURRENT driver
    threads (multi-writer OCC, the replay's prefetch map thread) the
    repeatedly failing import races — a half-initialized module in
    sys.modules turns the ModuleNotFoundError Ray catches into a bare
    ImportError it does not.
    Install a stub module with a sentinel HTTPFileSystem class so the probe
    succeeds deterministically (nothing is ever an instance of it)."""
    import sys as _sys

    try:
        import fsspec.implementations.http  # noqa: F401
        return
    except ImportError:
        pass
    import types as _types

    try:
        import fsspec.implementations as _fi
    except ImportError:
        return
    mod = _types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # sentinel only
        pass

    mod.HTTPFileSystem = HTTPFileSystem  # type: ignore[attr-defined]
    _sys.modules["fsspec.implementations.http"] = mod
    _fi.http = mod  # type: ignore[attr-defined]


_stub_fsspec_http()


def _patch_empty_to_pandas() -> None:
    """Ray 2.49's ``Dataset.to_pandas()`` returns a ZERO-COLUMN DataFrame
    when every block is empty (the pandas block builder never sees a
    batch), silently discarding the result schema. A legitimately empty
    query result must still carry its columns — downstream schema checks
    (and any user writing ``df[colname]``) break otherwise. Wrap the
    method: on an empty, column-less result, rebuild the typed empty
    frame from the dataset's known Arrow schema."""
    import ray.data as _rd

    if getattr(_rd.Dataset.to_pandas, "__qwery_patched__", False):
        return
    _orig = _rd.Dataset.to_pandas

    def to_pandas(self, limit=None):
        df = _orig(self, limit) if limit is not None else _orig(self)
        if len(df.columns) == 0:
            import pandas as _pd
            import pyarrow as _pa

            # the compiler tags its declared output names — the ONLY
            # trustworthy source for an empty result (Ray bypasses UDFs
            # on empty blocks, so block schemas are pre-projection)
            names = getattr(self, "_qwery_columns", None)
            if names:
                return _pd.DataFrame({n: [] for n in names})
            try:
                sch = self.schema(fetch_if_missing=True)
                base = getattr(sch, "base_schema", None)
            except Exception:
                base = None
            if isinstance(base, _pa.Schema) and base.names:
                return base.empty_table().to_pandas()
        return df

    to_pandas.__qwery_patched__ = True  # type: ignore[attr-defined]
    _rd.Dataset.to_pandas = to_pandas


_patch_empty_to_pandas()

from .engine.session import QweryEngine

__version__ = "0.1.0"
__all__ = ["QweryEngine"]
