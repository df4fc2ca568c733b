"""Sharded oblivious service: K fork-path ORAMs behind one dispatcher.

The cluster subsystem scales the single-engine service of
:mod:`repro.serve` horizontally while keeping the storage-side view
oblivious *across* shards:

* :mod:`repro.cluster.partition` — public residue striping of the
  address space and the one derivation of a shard's identity
  (:func:`shard_identity`: shallower tree, divided queues, own seed,
  store, replica directory and checkpoint salt);
* :mod:`repro.cluster.router` — the :class:`ShardRouter` over K lanes
  (:mod:`repro.serve.lane`), whose fixed round-robin dispatch schedule
  and per-shard dummy padding make the interleaved shard-visit/bucket
  trace data-independent;
* :mod:`repro.cluster.worker` — the shard worker *process*
  (``cluster.workers = "process"``): one lane behind the wire
  protocol, plus the router-side remote lane :class:`WorkerHandle`;
* :mod:`repro.cluster.supervisor` — the worker fleet's lifecycle
  (spawn / health-check / restart-through-recovery);
* :mod:`repro.cluster.service` — the TCP front end
  (:class:`ClusterService`), sharing its sessions and its turn loop
  with :class:`~repro.serve.service.OramService`.

The cross-shard obliviousness argument and its verification live in
``docs/CLUSTER.md`` and :mod:`repro.security.cluster`.
"""

from repro.cluster.partition import (
    AddressPartitioner,
    ShardIdentity,
    shard_identity,
    shard_levels,
)
from repro.cluster.router import ShardRouter, local_shard_lanes
from repro.cluster.service import ClusterService
from repro.cluster.supervisor import WorkerFleet
from repro.cluster.worker import ShardWorkerService, WorkerHandle

__all__ = [
    "AddressPartitioner",
    "shard_levels",
    "ShardIdentity",
    "shard_identity",
    "ShardRouter",
    "local_shard_lanes",
    "ShardWorkerService",
    "WorkerHandle",
    "WorkerFleet",
    "ClusterService",
]
