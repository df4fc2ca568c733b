"""Address-space partitioning for the sharded oblivious service.

The cluster stripes the logical address space across ``K`` shards by
residue: address ``a`` lives on shard ``a % K`` at shard-local address
``a // K``. The mapping is a fixed public function of the address alone
— it reveals nothing an adversary does not already get from the
(encrypted, padded) request stream, and striping (rather than range
partitioning) spreads any contiguous hot range evenly over the shards.

Each shard then runs a *full* fork-path ORAM over its slice. Because a
shard holds only ``ceil(N / K)`` blocks, its tree can be shallower than
the monolithic one — roughly one level per doubling of the shard count
(:func:`shard_levels`) — which is where the cluster's aggregate
throughput scaling comes from: every access touches a shorter path, so
each shard's sequential access pipeline does less work per request.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Tuple

from repro.config import ClusterConfig, OramConfig, SystemConfig
from repro.errors import ConfigError


class AddressPartitioner:
    """Residue striping of ``num_blocks`` addresses over ``shards``."""

    def __init__(self, num_blocks: int, shards: int) -> None:
        if num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {num_blocks}")
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if shards > num_blocks:
            raise ConfigError(
                f"cannot stripe {num_blocks} blocks over {shards} shards "
                f"(every shard must own at least one address)"
            )
        self.num_blocks = num_blocks
        self.shards = shards

    def shard_of(self, addr: int) -> int:
        return addr % self.shards

    def local_of(self, addr: int) -> int:
        return addr // self.shards

    def locate(self, addr: int) -> Tuple[int, int]:
        """``addr -> (shard, shard-local address)``."""
        return addr % self.shards, addr // self.shards

    def global_of(self, shard: int, local: int) -> int:
        """Inverse of :meth:`locate`."""
        return local * self.shards + shard

    def shard_capacity(self, shard: int) -> int:
        """Number of logical addresses striped onto ``shard``."""
        if not 0 <= shard < self.shards:
            raise ConfigError(f"no shard {shard} in a {self.shards}-shard cluster")
        return (self.num_blocks - shard + self.shards - 1) // self.shards


def shard_levels(blocks: int, oram: OramConfig, cluster: ClusterConfig) -> int:
    """Tree depth for a shard holding ``blocks`` of the address space.

    The smallest depth whose capacity (``(2^(L+1)-1) * Z * utilization``,
    the same bound :meth:`OramConfig.max_data_blocks` enforces) covers
    the shard's slice, floored at ``cluster.min_shard_levels`` and never
    deeper than the monolithic tree.
    """
    if not cluster.auto_scale_levels:
        return oram.levels
    levels = min(cluster.min_shard_levels, oram.levels)
    while levels < oram.levels:
        buckets = (1 << (levels + 1)) - 1
        if max(1, int(buckets * oram.bucket_slots * oram.utilization)) >= blocks:
            break
        levels += 1
    return levels


@dataclasses.dataclass(frozen=True)
class ShardIdentity:
    """Everything one shard derives from the cluster-level config."""

    #: The shard's own :class:`SystemConfig` (see :func:`shard_identity`).
    config: SystemConfig
    #: Checkpoint-nonce salt separating shards that share one key.
    salt: bytes


def shard_identity(config: SystemConfig, shard_id: int) -> ShardIdentity:
    """Specialise the cluster-level system config for one shard.

    The one place that knows how a shard derives its identity; the
    lane builder, the worker process, recovery and the fleet's
    admission window all call it. The shard's ORAM is sized for its
    slice of the address space (:func:`shard_levels`); the cluster-wide
    scheduling window is divided across the shards (per-shard label
    queue of ``ceil(M / K)``, so K shards together still hold ~M
    entries — with the monolithic M per shard, striping a fixed client
    population would dilute real entries among dummies K-fold and
    scheduling would pick mostly dummies); the admission bound is
    likewise divided (``max(1, capacity // K)`` per shard, so K shards
    together admit at most ~the configured cluster-wide
    ``service.admission_capacity`` rather than K times it); the RNG
    seed is offset by the shard id so position-map labels and dummy
    choices are independent streams across shards; a file-backed shard
    gets its own log (``<backend_path>.shard<k>``) so shards never
    contend for the append handle, and a faulty shard its own fault
    stream (``fault_seed + k``) so fault timing is not correlated
    across shards; and each shard replicates independently into
    ``<replica.dir>/shard<k>`` under a shard-derived checkpoint salt.
    All of these are public functions of the config alone, so they
    reveal nothing about traffic.
    """
    shards = config.cluster.shards
    blocks = AddressPartitioner(
        config.oram.num_blocks, shards
    ).shard_capacity(shard_id)
    tag = f"shard{shard_id}"
    service = config.service
    replica = config.replica
    return ShardIdentity(
        config=config.replace(
            oram=dataclasses.replace(
                config.oram,
                levels=shard_levels(blocks, config.oram, config.cluster),
                num_blocks=blocks,
            ),
            scheduler=dataclasses.replace(
                config.scheduler,
                label_queue_size=max(
                    1, -(-config.scheduler.label_queue_size // shards)
                ),
            ),
            service=dataclasses.replace(
                service,
                admission_capacity=max(1, service.admission_capacity // shards),
                fault_seed=service.fault_seed + shard_id,
                backend_path=(
                    f"{service.backend_path}.{tag}" if service.backend_path else ""
                ),
            ),
            replica=dataclasses.replace(
                replica,
                dir=os.path.join(replica.dir, tag) if replica.dir else "",
            ),
            seed=config.seed + shard_id,
        ),
        salt=tag.encode("ascii"),
    )


__all__ = [
    "AddressPartitioner",
    "shard_levels",
    "ShardIdentity",
    "shard_identity",
]
