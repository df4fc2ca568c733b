"""Replication leaks nothing: the WAL *is* the public trace.

The durability layer (``repro.replica``) writes, ships and replays a
write-ahead log. This module proves the central claim of its security
argument — that every byte of that log is information the untrusted
storage server already observes:

* each WAL record carries the access's **scheduled leaf label**, which
  the fork-path controller reveals by construction (the path it
  touches is a public function of the label sequence);
* each record's **write set** is exactly the refill phase of that
  access — the same ``(WRITE, node_id)`` events, in the same leaf-first
  order, that :func:`repro.security.adversary.expected_fork_trace`
  reconstructs from the labels alone;
* the bucket payloads are the **sealed** ciphertexts the backend
  stores — the storage server's own view of the data.

:func:`verify_replication_stream` checks all three against a WAL, and
optionally that the last-writer-wins replay of the log reproduces a
backend byte-for-byte (the recovery invariant). A standby or an
auditor holding only the WAL therefore learns exactly what the storage
server does: nothing beyond the access pattern the ORAM already pads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReplicationError
from repro.oram.memory import MemoryOp
from repro.oram.tree import TreeGeometry
from repro.replica.wal import WalRecord
from repro.security.adversary import access_chunks

if TYPE_CHECKING:
    from repro.posmap.layout import PosmapLayout


def wal_public_trace(
    records: Sequence[WalRecord],
) -> List[Tuple[MemoryOp, int]]:
    """Flatten a WAL into its adversary-visible write-event sequence."""
    trace: List[Tuple[MemoryOp, int]] = []
    for record in records:
        for node_id, _sealed in record.writes:
            trace.append((MemoryOp.WRITE, node_id))
    return trace


def verify_replication_stream(
    geometry: TreeGeometry,
    records: Sequence[WalRecord],
    *,
    merging: bool = True,
    backend: Optional[object] = None,
    layout: Optional["PosmapLayout"] = None,
) -> None:
    """Raise unless the WAL equals the public trace (and the backend).

    Record by record: data access ``i``'s write set must be the refill
    of path-``leaf_i`` down to the fork with ``leaf_{i+1}``, leaf first
    — the ``writes`` half of the chunk :func:`access_chunks` derives
    from the (public) labels. The final data record's fork level
    depends on a successor label the log has not seen yet, so its
    writes need only be a leaf-first prefix of its full path refill.

    With ``layout`` given (``posmap.mode=recursive``) each record is
    first classified by the node-id range of its writes: posmap records
    must be full-path leaf-first refills of their level tree, and the
    data rule applies to the *data label subsequence* (posmap records
    interleave freely between data records without affecting the fork).

    With ``backend`` given, additionally require that replaying the log
    (last writer wins) reproduces the backend exactly — posmap buckets
    included: every node the log wrote holds the log's final sealed
    bytes, and the backend holds no node the log never wrote — a
    backend write outside the WAL would be an unlogged (hence
    unreplicated, hence unrecoverable) access.
    """
    # Posmap accesses always refill a full (non-empty) path, so a
    # record is a posmap record iff its first write lands in a level's
    # node range; empty write sets (an access whose successor shares
    # its whole path) are data records.
    owners = [
        layout.level_of_node(record.writes[0][0])
        if layout is not None and record.writes
        else None
        for record in records
    ]
    data_leaves = [
        record.leaf for record, level in zip(records, owners) if level is None
    ]
    refills = iter(access_chunks(geometry, data_leaves, merging))
    unseen = len(data_leaves)  # data records not yet checked
    kind = "leaf" if layout is None else "data leaf"
    for record, level in zip(records, owners):
        observed = [node_id for node_id, _sealed in record.writes]
        if level is not None:
            ((_reads, expected),) = access_chunks(
                level.geometry, [record.leaf], False, level.node_base
            )
            if observed != expected:
                raise ReplicationError(
                    f"WAL record seq {record.seq} (posmap level "
                    f"{level.index}, leaf {record.leaf}) is not a full-"
                    f"path refill: expected {expected}, logged {observed}"
                )
            continue
        _reads, expected = next(refills)
        unseen -= 1
        if merging and not unseen:
            expected = expected[: len(observed)]
        if observed != expected:
            raise ReplicationError(
                f"WAL record seq {record.seq} ({kind} {record.leaf}) is "
                f"not the public refill of its access: expected writes "
                f"{expected}, logged {observed}"
            )
    if backend is not None:
        _verify_backend_matches(records, backend)


def _verify_backend_matches(
    records: Iterable[WalRecord], backend: object
) -> None:
    image: dict = {}
    for record in records:
        for node_id, sealed in record.writes:
            image[node_id] = sealed
    for node_id, sealed in image.items():
        stored = backend.get(node_id)  # type: ignore[attr-defined]
        if stored != sealed:
            raise ReplicationError(
                f"backend bucket {node_id} differs from the WAL's final "
                f"write for that node (last-writer-wins replay mismatch)"
            )
    extra = sorted(set(iter(backend)) - set(image))  # type: ignore[call-overload]
    if extra:
        raise ReplicationError(
            f"backend holds buckets the WAL never wrote (unlogged, "
            f"unrecoverable writes): nodes {extra[:8]}"
            + ("..." if len(extra) > 8 else "")
        )


__all__ = [
    "wal_public_trace",
    "verify_replication_stream",
]
