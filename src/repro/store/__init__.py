"""Zero-copy trace store: an mmap-backed columnar corpus of current
traces with shared-memory worker attach.

The data path behind corpus-scale dI/dt sweeps (ROADMAP item 2): traces
are ingested once into an append-only store — chunked float32/float64
columns plus a JSON-lines metadata index — and every later pipeline job
carries only a :class:`TraceRef` (store path + trace id + slice).
Workers resolve the ref by memory-mapping the chunk (or attaching a
``shm://`` shared-memory segment) and run kernels in place, so no trace
bytes ever cross the job pickle channel; the per-trace dtype-explicit
content hashes plug straight into the pipeline cache keys, deduping a
stored trace against a regenerated one.

Quickstart::

    from repro.store import TraceStore
    from repro.uarch import simulate_benchmark

    store = TraceStore(".trace-store", mode="a")
    result = simulate_benchmark("gzip", cycles=65536)
    record = store.ingest(
        result.current, "gzip",
        generator={"benchmark": "gzip", "cycles": 65536,
                   "seed": None, "warmup_cycles": 4096},
    )
    trace = store.attach(record)      # zero-copy read-only mmap view
    ref = store.ref(record)           # travels through a JobSpec

See ``docs/STORE.md`` for the on-disk format and recovery semantics,
and ``repro store ingest|ls|verify|gc`` for the CLI surface; the
perfbench ``store_rescan`` workload (``perfbench/README.md``) measures
its read path end to end.
"""

from .format import (
    DEFAULT_CHUNK_BYTES,
    DTYPES,
    FORMAT_NAME,
    FORMAT_VERSION,
    TraceRecord,
    content_hash,
)
from .ref import TraceRef, ref_for
from .shm import SharedTrace, attach_shared, publish_shared
from .store import TraceStore, open_store

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "DTYPES",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "SharedTrace",
    "TraceRecord",
    "TraceRef",
    "TraceStore",
    "attach_shared",
    "content_hash",
    "open_store",
    "publish_shared",
    "ref_for",
]
