"""``repro.serve`` — the runnable oblivious key-value service.

This package turns the batch Fork Path simulator into a live service:
an asyncio TCP server (:mod:`~repro.serve.service`) speaking a
length-prefixed JSON protocol (:mod:`~repro.serve.protocol`), feeding
client GET/PUT/DELETE requests through a lane
(:mod:`~repro.serve.lane`: engine + bounded admission) into the same
dummy-padded label queue, fork-path merging and stash machinery as the
simulator (:mod:`~repro.serve.engine`), over pluggable storage backends with
crash-safe persistence and deterministic fault injection
(:mod:`~repro.serve.backends`). A concurrent load generator with a
built-in coherence checker lives in :mod:`~repro.serve.loadgen`.

Entry points: ``python -m repro serve`` and ``python -m repro loadgen``;
the wire protocol and operational contract are documented in
``docs/SERVICE.md``.
"""

from repro.serve.backends import (
    FaultPlan,
    FaultyBackend,
    FileBackend,
    InMemoryBackend,
    StorageBackend,
    available_backends,
    make_backend,
)
from repro.serve.engine import (
    AsyncBucketStore,
    ObliviousEngine,
    RetryPolicy,
    ServeRequest,
)
from repro.serve.lane import EngineLane, Lane, ShardLane
from repro.serve.loadgen import LoadgenResult, run_loadgen
from repro.serve.service import OramService, serve_until_signalled

__all__ = [
    "available_backends",
    "StorageBackend",
    "InMemoryBackend",
    "FileBackend",
    "FaultPlan",
    "FaultyBackend",
    "make_backend",
    "RetryPolicy",
    "ServeRequest",
    "AsyncBucketStore",
    "ObliviousEngine",
    "LoadgenResult",
    "run_loadgen",
    "Lane",
    "ShardLane",
    "EngineLane",
    "OramService",
    "serve_until_signalled",
]
