"""Output sinks: Dataset → parquet directory / single CSV / JSON-lines file.

The reference's INSERT writes a single delimited/JSON file with append or
overwrite (core/sources/DelimitedOutputSource.scala, TextFileOutputDevice.scala,
Hints.append at Hints.scala:44-48). At lake scale the engine writes partitioned
parquet directories (resumable, one file per block); the single-file writers
exist for reference parity on small outputs and stream through ``iter_batches``
— they never materialize the Dataset on the driver.
"""

from __future__ import annotations

import os
from typing import Optional

import pyarrow as pa
import pyarrow.csv as pacsv
import ray.data as rd


def detect_output_format(path: str, hints: Optional[dict] = None) -> str:
    hints = hints or {}
    if hints.get("format"):
        return hints["format"]
    ext = os.path.splitext(path[:-3] if path.endswith(".gz") else path)[1].lower()
    return {".parquet": "parquet", ".csv": "csv", ".tsv": "tsv", ".psv": "psv",
            ".json": "json", ".jsonl": "json", ".txt": "csv"}.get(ext, "parquet")


def write_sink(ds: rd.Dataset, path: str, hints: Optional[dict] = None, *,
               overwrite: bool = False) -> int:
    """Write a Dataset to ``path``; returns rows written (ROWS_INSERTED)."""
    hints = dict(hints or {})
    from ..cdc.tail import resolve_sink, sink_scheme

    if sink_scheme(path):
        # event-sink target (INSERT INTO 'tail:///dir' ... — the reference's
        # streaming output device, KafkaOutputDevice.scala:9-36): publish the
        # rows as atomic LSN-ordered segments a registered tail re-reads
        return resolve_sink(path).publish_dataset(ds)
    fmt = detect_output_format(path, hints)
    if fmt == "parquet" and (os.path.isdir(path) or not os.path.splitext(path)[1]):
        # directory parquet sink — the scale path; WITH PARTITION (cols)
        # writes hive-partitioned subdirectories (resumable output: a
        # rerun can skip finished partitions)
        if overwrite and os.path.isdir(path):
            import shutil
            shutil.rmtree(path)

        def _walk_parquet(root):
            out = set()
            for dirpath, _dirs, files in os.walk(root):
                for name in files:
                    if name.endswith(".parquet"):
                        out.add(os.path.join(dirpath, name))
            return out

        before = _walk_parquet(path) if os.path.isdir(path) else set()
        pcols = hints.get("partition_cols")
        if pcols:
            ds.write_parquet(path, partition_cols=list(pcols))
        else:
            ds.write_parquet(path)
        # count the new files' rows from parquet footers only (no re-read)
        import pyarrow.parquet as pq
        count = 0
        for fp in _walk_parquet(path) - before:
            count += pq.read_metadata(fp).num_rows
        return count
    if fmt == "parquet":
        return _write_single_parquet(ds, path, overwrite)
    if fmt in ("csv", "tsv", "psv"):
        delim = hints.get("delimiter") or {"csv": ",", "tsv": "\t", "psv": "|"}[fmt]
        return _write_single_csv(ds, path, delim, overwrite,
                                 header=hints.get("headers", True))
    if fmt == "json":
        return _write_single_json(ds, path, overwrite)
    if fmt == "fixed":
        return write_fixed_width(ds, path, hints.get("widths"),
                                 overwrite=overwrite)
    raise ValueError(f"unsupported output format {fmt!r} for {path}")


def write_fixed_width(ds: rd.Dataset, path: str, widths, *,
                      overwrite: bool = False) -> int:
    """Fixed-width encode: pad-or-truncate each column to its width
    (reference core/sources/FixedWidthOutputSource.scala:9-35)."""
    import pyarrow.compute as pc

    if not widths:
        raise ValueError("fixed-width output requires widths [(name, w), ...]")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    mode = "w" if overwrite or not exists else "a"
    count = 0
    with open(path, mode) as f:
        for batch in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
            parts = []
            for name, width in widths:
                col = pc.cast(batch.column(name), pa.string())
                col = pc.utf8_slice_codeunits(
                    pc.utf8_rpad(pc.fill_null(col, ""), width, " "), 0, width)
                parts.append(col)
            lines = pc.binary_join_element_wise(*parts, "") if len(parts) > 1 \
                else parts[0]
            for line in lines.to_pylist():
                f.write(line + "\n")
            count += len(batch)
    return count


def _write_single_csv(ds: rd.Dataset, path: str, delim: str,
                      overwrite: bool, header: bool = True) -> int:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    mode = "wb" if overwrite or not exists else "ab"
    count = 0
    with open(path, mode) as f:
        first = mode == "wb"
        for batch in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
            count += len(batch)
            pacsv.write_csv(
                batch, f,
                write_options=pacsv.WriteOptions(
                    include_header=header and first, delimiter=delim),
            )
            first = False
    return count


def _write_single_json(ds: rd.Dataset, path: str, overwrite: bool) -> int:
    """JSON-lines, one compact object per row (JSONOutputSource.scala:7-15)."""
    import json

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    mode = "w" if overwrite or not exists else "a"
    count = 0
    with open(path, mode) as f:
        for batch in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
            for row in batch.to_pylist():
                f.write(json.dumps(row, default=str) + "\n")
            count += len(batch)
    return count


def _unify(a: pa.Schema, b: pa.Schema) -> pa.Schema:
    """The single-file schema policy: additive schema evolution (a new
    column on either side null-backfills the other, lake-engine parity)
    and permissive promotion that widens numeric mismatches (int32 file +
    int64 insert → int64) instead of failing."""
    try:
        return pa.unify_schemas([a, b])
    except pa.ArrowTypeError:
        return pa.unify_schemas([a, b], promote_options="permissive")


def _write_single_parquet(ds: rd.Dataset, path: str, overwrite: bool) -> int:
    import pyarrow.parquet as pq

    from ..sqlc.asof import PadToSchema

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp, prev = path + ".tmp", path + ".tmp.prev"
    count = 0
    base = pq.ParquetFile(path) \
        if os.path.exists(path) and not overwrite else None
    writer = None

    def restart(schema: pa.Schema, old) -> pq.ParquetWriter:
        # a new writer over ``schema`` that first copies ``old``'s rows
        # batch by batch: an append or a widening never holds more than
        # one batch of the already-written rows in memory
        w = pq.ParquetWriter(tmp, schema)
        if old is not None:
            pad = PadToSchema(schema)
            for b in old.iter_batches(batch_size=65536):
                w.write_table(pad(pa.Table.from_batches([b])).cast(schema))
        return w

    try:
        for batch in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
            count += len(batch)
            if writer is None:
                schema = batch.schema
                if base is not None:
                    schema = _unify(base.schema_arrow, schema)
                writer = restart(schema, base)
                pad = PadToSchema(schema)
            elif set(batch.schema.names) - set(schema.names) or any(
                    batch.schema.field(n).type != schema.field(n).type
                    for n in batch.schema.names):
                # a LATER batch introduces a new column or wider type
                # (heterogeneous-schema source): widen the output schema
                # and restart the writer over the rows already written —
                # never silently drop the new column (PadToSchema alone
                # would).
                widened = _unify(schema, batch.schema)
                if widened != schema:
                    writer.close()
                    os.replace(tmp, prev)
                    schema = widened
                    with pq.ParquetFile(prev) as old:
                        writer = restart(schema, old)
                    os.remove(prev)
                    pad = PadToSchema(schema)
            writer.write_table(pad(batch).cast(schema))
    except BaseException:
        # a mid-write failure (unpromotable later-batch type, source
        # error) must NEVER publish the partial .tmp over the committed
        # file — close, discard, re-raise
        if writer is not None:
            writer.close()
            writer = None
        for f in (tmp, prev):
            try:
                os.remove(f)
            except OSError:
                pass
        raise
    finally:
        if base is not None:
            base.close()
        if writer is not None:
            writer.close()
            os.replace(tmp, path)  # atomic visibility point
    return count
