"""Pluggable change-event tail sources for the CDC lake engine.

The reference's Kafka input device (KafkaInputDevice.scala:14-90) exposes a
poll/seek/rewind contract over a partitioned, offset-ordered stream. Here the
same contract is an :class:`EventTail`: a monotonically-growing, LSN-ordered
event source the engine can (a) ask for its available LSN range (poll /
fastForward discovery), (b) read an LSN span from as a Ray Dataset (seek +
bounded read), and (c) size its combiner batches against.

``register_tail(scheme, factory)`` plugs new tail kinds in by URL scheme —
the same device-factory hook shape as ``sources.readers.register_source``
(reference DataResource.scala `apply` registry). The parquet segment log is
just the default implementation, not a hardwired special case.
"""

from __future__ import annotations

import glob
import os
from typing import Callable, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd


class EventTail:
    """LSN-ordered change-event source (poll/seek contract).

    Implementations must be cheap to construct and safe to re-poll: the
    engine calls :meth:`lsn_range` every follow() round and reads each span
    exactly once per committed transaction (re-reads happen only on retry,
    so reads must be repeatable — a tail is a log, not a queue)."""

    def lsn_range(self) -> tuple[int, int]:
        """(min_lsn, max_lsn) currently available. Raises ValueError when
        the tail has no events yet."""
        raise NotImplementedError

    def dataset(self, lo: int, hi: int) -> rd.Dataset:
        """Events with lo < lsn <= hi as a Dataset (repeatable read). A
        span read should touch only the storage that can hold the span:
        :class:`ParquetTail` reads only the segments whose footer ``lsn``
        statistics overlap it."""
        raise NotImplementedError

    def size_estimate(self, lo: Optional[int] = None,
                      hi: Optional[int] = None) -> tuple[int, int]:
        """(rows, bytes) sample for combiner batch sizing, of the span
        (lo, hi] when given (an implementation may size the whole tail
        instead); (0, 0) if unknown — the engine falls back to a default
        batch size."""
        return (0, 0)


def _footer_stats(path: str) -> tuple:
    """(lsn_min, lsn_max, rows, bytes) of one parquet file from its footer
    alone; min/max are None when any row group lacks ``lsn`` statistics
    (such a file overlaps every span)."""
    md = pq.read_metadata(path)
    idx = md.schema.to_arrow_schema().get_field_index("lsn")
    if idx < 0:
        raise ValueError(
            f"events table {path} has no 'lsn' column (the per-key "
            "ordering authority) — add one, e.g. SELECT ..., "
            "event_id AS lsn")
    groups = [md.row_group(i) for i in range(md.num_row_groups)]
    stats = [g.column(idx).statistics for g in groups if g.num_rows]
    nbytes = sum(g.total_byte_size for g in groups)
    if stats and all(st is not None and st.has_min_max for st in stats):
        return (min(st.min for st in stats), max(st.max for st in stats),
                md.num_rows, nbytes)
    return None, None, md.num_rows, nbytes


class ParquetTail(EventTail):
    """The default tail: a directory of parquet segment files (or one file)
    whose ``lsn`` column is the ordering authority.

    Each file's footer is read once per instance, the first time the file
    is listed, into ``{file: (lsn_min, lsn_max, rows, bytes)}``; a renamed
    segment is immutable, and a file rewritten in place (new mtime or size)
    is read again. :meth:`lsn_range`, :meth:`size_estimate` and
    :meth:`dataset` all read that cache, so a re-poll reads only new
    segments' footers. A span read touches only the segments whose ``lsn``
    min/max overlaps the span (files without statistics are always read)
    and keeps the ``lsn`` filter for the row groups inside them."""

    def __init__(self, path: str):
        self.path = path
        self._footers: dict[str, tuple] = {}  # file → ((mtime, size), stats)

    def _files(self) -> list[str]:
        if os.path.isdir(self.path):
            return sorted(glob.glob(os.path.join(self.path, "*.parquet")))
        return [self.path]

    def _segments(self) -> dict[str, tuple]:
        """{file: (lsn_min, lsn_max, rows, bytes)} of the files listed now;
        a vanished file drops out of the cache with its listing."""
        cache = {}
        for f in self._files():
            st = os.stat(f)
            sig = (st.st_mtime_ns, st.st_size)
            hit = self._footers.get(f)
            cache[f] = hit if hit and hit[0] == sig \
                else (sig, _footer_stats(f))
        self._footers = cache
        return {f: stats for f, (_, stats) in cache.items()}

    def _span(self, lo: int, hi: int) -> dict[str, tuple]:
        """The listed files whose lsn min/max overlaps (lo, hi], and every
        file without statistics."""
        return {f: s for f, s in self._segments().items()
                if s[0] is None or (s[0] <= hi and s[1] > lo)}

    def lsn_range(self) -> tuple[int, int]:
        known = [s for s in self._segments().values() if s[0] is not None]
        if not known:
            raise ValueError(f"no lsn statistics found under {self.path}")
        return int(min(s[0] for s in known)), int(max(s[1] for s in known))

    def dataset(self, lo: int, hi: int) -> rd.Dataset:
        files = list(self._span(lo, hi))
        if not files:
            # the span falls in a gap between segments: zero rows, no read
            if not self._footers:
                raise ValueError(f"no segments under {self.path}")
            return rd.from_arrow(
                pq.read_schema(next(iter(self._footers))).empty_table())
        return rd.read_parquet(
            files,
            filter=(pc.field("lsn") > pa.scalar(lo))
            & (pc.field("lsn") <= pa.scalar(hi)),
        )

    def size_estimate(self, lo: Optional[int] = None,
                      hi: Optional[int] = None) -> tuple[int, int]:
        segs = self._segments() if lo is None or hi is None \
            else self._span(lo, hi)
        return (sum(s[2] for s in segs.values()),
                sum(s[3] for s in segs.values()))


class ArrowTail(EventTail):
    """In-memory Arrow-table tail — the mock/test implementation and the
    shape an embedded producer (a socket drainer actor, a CDC connector)
    would feed. ``append`` extends the log; reads are repeatable snapshots."""

    def __init__(self, table: Optional[pa.Table] = None):
        self._table = table

    def append(self, table: pa.Table) -> None:
        self._table = table if self._table is None else pa.concat_tables(
            [self._table, table], promote_options="permissive")

    def publish(self, table: pa.Table) -> int:
        """EventSink duck-type: an in-memory tail is its own sink (the
        embedded producer loop: publish → follow sees it next poll)."""
        self.append(table)
        return table.num_rows

    def publish_dataset(self, ds: rd.Dataset) -> int:
        n = 0
        for batch in ds.iter_batches(batch_format="pyarrow"):
            n += self.publish(batch)
        return n

    def lsn_range(self) -> tuple[int, int]:
        if self._table is None or self._table.num_rows == 0:
            raise ValueError("tail has no events yet")
        col = self._table.column("lsn")
        return (int(pc.min(col).as_py()), int(pc.max(col).as_py()))

    def dataset(self, lo: int, hi: int) -> rd.Dataset:
        t = self._table
        mask = pc.and_(pc.greater(t.column("lsn"), lo),
                       pc.less_equal(t.column("lsn"), hi))
        return rd.from_arrow(t.filter(mask))

    def size_estimate(self, lo: Optional[int] = None,
                      hi: Optional[int] = None) -> tuple[int, int]:
        if self._table is None:
            return (0, 0)
        return (self._table.num_rows, self._table.nbytes)


class EventSink:
    """LSN-ordered change-event sink — the output analog of
    :class:`EventTail` (reference KafkaOutputDevice.scala:9-36: rows
    published to a topic; here: segments appended to a log a tail can
    re-read). ``publish`` appends one table atomically; ``publish_dataset``
    streams a whole Dataset through, distributed when the sink supports
    concurrent writers."""

    def publish(self, table: pa.Table) -> int:
        raise NotImplementedError

    def publish_dataset(self, ds: rd.Dataset) -> int:
        """Driver-streamed fallback: one publish per iterated batch. Sinks
        that allow concurrent writers override this with a map_batches
        fan-out."""
        n = 0
        for batch in ds.iter_batches(batch_format="pyarrow"):
            n += self.publish(batch)
        return n


class ParquetSegmentSink(EventSink):
    """Appends atomic parquet segment files to a tail directory — the
    default sink, and the producer side of :class:`ParquetTail`. Segment
    names carry the segment's min-lsn plus a random suffix so concurrent
    writers (Ray write tasks) never collide; ordering authority stays the
    ``lsn`` column, never the file name. Readers only ever see complete
    files (write to ``.tmp``, then rename)."""

    def __init__(self, path: str):
        self.path = path

    def publish(self, table: pa.Table) -> int:
        if table.num_rows == 0:
            return 0
        if table.schema.get_field_index("lsn") < 0:
            raise ValueError("event sink requires an 'lsn' column "
                             "(the per-key ordering authority)")
        import uuid

        os.makedirs(self.path, exist_ok=True)
        lo = int(pc.min(table.column("lsn")).as_py())
        name = f"seg-{lo:012d}-{uuid.uuid4().hex[:8]}.parquet"
        tmp = os.path.join(self.path, "." + name + ".tmp")
        pq.write_table(table, tmp, compression="lz4")
        os.replace(tmp, os.path.join(self.path, name))
        return table.num_rows

    def publish_dataset(self, ds: rd.Dataset) -> int:
        path = self.path

        def _write_segment(batch: pa.Table) -> pa.Table:
            n = ParquetSegmentSink(path).publish(batch)
            return pa.table({"rows": pa.array([n], type=pa.int64())})

        out = ds.map_batches(_write_segment, batch_format="pyarrow")
        total = 0
        for b in out.iter_batches(batch_format="pyarrow"):
            total += int(pc.sum(b.column("rows")).as_py() or 0)
        return total


_TAIL_FACTORIES: dict[str, Callable[[str], EventTail]] = {}
_SINK_FACTORIES: dict[str, Callable[[str], EventSink]] = {}


def register_tail(scheme: str, factory: Callable[[str], EventTail]) -> None:
    """Register a tail factory for ``scheme://...`` sources (the streaming
    analog of ``sources.readers.register_source``)."""
    _TAIL_FACTORIES[scheme.lower()] = factory


def resolve_tail(src) -> EventTail:
    """str path → ParquetTail; ``scheme://`` → registered factory;
    an EventTail instance passes through."""
    if isinstance(src, EventTail):
        return src
    if isinstance(src, str) and "://" in src:
        scheme = src.split("://", 1)[0].lower()
        if scheme == "kafka" and scheme not in _TAIL_FACTORIES:
            from . import kafka_tail  # noqa: F401 — registers kafka://
        if scheme in _TAIL_FACTORIES:
            return _TAIL_FACTORIES[scheme](src)
        if scheme not in ("file", "local", "tail"):
            raise ValueError(
                f"no tail source registered for scheme '{scheme}' "
                f"(register_tail) — known: {sorted(_TAIL_FACTORIES)}")
        src = src.split("://", 1)[1]
    return ParquetTail(src)


def register_sink(scheme: str, factory: Callable[[str], EventSink]) -> None:
    """Register a sink factory for ``scheme://...`` targets (the output
    analog of :func:`register_tail`)."""
    _SINK_FACTORIES[scheme.lower()] = factory


def resolve_sink(dst) -> EventSink:
    """str path → ParquetSegmentSink; ``scheme://`` → registered factory;
    an EventSink instance passes through. ``tail://`` is the built-in
    scheme for the default parquet segment log."""
    if isinstance(dst, EventSink) or (not isinstance(dst, str)
                                      and hasattr(dst, "publish")):
        return dst  # duck-typed sink (e.g. ArrowTail as its own sink)
    if isinstance(dst, str) and "://" in dst:
        scheme = dst.split("://", 1)[0].lower()
        if scheme == "kafka" and scheme not in _SINK_FACTORIES:
            from . import kafka_tail  # noqa: F401 — registers kafka://
        if scheme in _SINK_FACTORIES:
            return _SINK_FACTORIES[scheme](dst)
        if scheme not in ("file", "local", "tail"):
            raise ValueError(
                f"no event sink registered for scheme '{scheme}' "
                f"(register_sink) — known: {sorted(_SINK_FACTORIES)}")
        dst = dst.split("://", 1)[1]
    return ParquetSegmentSink(dst)


def sink_scheme(path) -> Optional[str]:
    """The scheme of ``path`` when it names an event sink (registered or
    the built-in ``tail``), else None — the writers' dispatch hook."""
    if isinstance(path, str) and "://" in path:
        scheme = path.split("://", 1)[0].lower()
        if scheme in ("tail", "kafka") or scheme in _SINK_FACTORIES:
            return scheme
    return None
