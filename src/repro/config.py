"""Configuration objects for every subsystem of the reproduction.

The defaults mirror Table 1 of the paper (MICRO 2015):

* 4 out-of-order cores at 2 GHz, 32 KB 2-way L1s, 1 MB 8-way shared L2;
* ORAM controller at 2 GHz, 64 B blocks, 4 GB data ORAM (``L = 24``),
  ``Z = 4`` slots per bucket, 50% DRAM utilisation;
* DDR3-1600, 2 channels, 12.8 GB/s peak.

All configs are frozen dataclasses: build one, optionally derive a
variant with :func:`dataclasses.replace`, and pass it down. Validation
happens eagerly in ``__post_init__`` so a bad experiment fails at
construction time, not three minutes into a sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Size of one cache line / ORAM block in bytes (Table 1).
DEFAULT_BLOCK_BYTES = 64

#: Blocks per bucket (Table 1, ``Z``).
DEFAULT_Z = 4

#: Paper's default label queue size (Section 5.2.1 picks 64).
DEFAULT_LABEL_QUEUE_SIZE = 64

#: Paper's default stash capacity in blocks (Section 2.3 cites ~200).
DEFAULT_STASH_CAPACITY = 200


def levels_for_capacity(
    data_bytes: int,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    bucket_slots: int = DEFAULT_Z,
    utilization: float = 0.5,
) -> int:
    """Tree depth ``L`` needed to store ``data_bytes`` of program data.

    The paper assumes 50% utilisation: an 8 GB tree stores 4 GB of data.
    The tree has ``2**(L+1) - 1`` buckets of ``bucket_slots`` blocks; we
    return the smallest ``L`` whose tree capacity, scaled by
    ``utilization``, covers the data. For the paper's 4 GB / 64 B / Z=4 /
    50% configuration this yields ``L = 24``, matching Table 1.
    """
    if data_bytes <= 0:
        raise ConfigError(f"data_bytes must be positive, got {data_bytes}")
    if not 0.0 < utilization <= 1.0:
        raise ConfigError(f"utilization must be in (0, 1], got {utilization}")
    blocks_needed = -(-data_bytes // block_bytes)  # ceil division
    level = 0
    while True:
        # Count the tree as ~2**(L+1) buckets (the paper's convention:
        # an 8 GB tree at L = 24), not the exact 2**(L+1) - 1 that
        # TreeGeometry.for_capacity uses — which would say L = 25 here.
        buckets = 1 << (level + 1)
        if buckets * bucket_slots * utilization >= blocks_needed:
            return level
        level += 1


@dataclass(frozen=True)
class OramConfig:
    """Static parameters of one ORAM tree and its controller.

    Attributes
    ----------
    levels:
        Tree depth ``L``; the tree has levels ``0`` (root) .. ``L``
        (leaves) and ``2**levels`` leaves.
    bucket_slots:
        ``Z`` — block slots per bucket.
    block_bytes:
        Payload bytes per block.
    stash_capacity:
        Maximum *persistent* stash occupancy in blocks. Transient
        occupancy during an access may additionally hold one full path.
    utilization:
        Fraction of tree block slots holding real data; bounds the
        number of addressable program blocks.
    num_blocks:
        Number of addressable program blocks. Defaults (0) to the
        maximum permitted by ``utilization``.
    super_block_log2:
        Static super blocks (Ren et al.): ``2**k`` consecutive program
        addresses share one leaf label, so a single path access
        prefetches the whole group into the stash and spatially-local
        requests complete as stash hits. ``0`` disables grouping.
    """

    levels: int = 24
    bucket_slots: int = DEFAULT_Z
    block_bytes: int = DEFAULT_BLOCK_BYTES
    stash_capacity: int = DEFAULT_STASH_CAPACITY
    utilization: float = 0.5
    num_blocks: int = 0
    super_block_log2: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.levels <= 40:
            raise ConfigError(f"levels must be in [0, 40], got {self.levels}")
        if self.bucket_slots < 1:
            raise ConfigError(f"bucket_slots must be >= 1, got {self.bucket_slots}")
        if self.block_bytes < 1:
            raise ConfigError(f"block_bytes must be >= 1, got {self.block_bytes}")
        if self.stash_capacity < 1:
            raise ConfigError(
                f"stash_capacity must be >= 1, got {self.stash_capacity}"
            )
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigError(
                f"utilization must be in (0, 1], got {self.utilization}"
            )
        if not 0 <= self.super_block_log2 <= 8:
            raise ConfigError(
                f"super_block_log2 must be in [0, 8], got {self.super_block_log2}"
            )
        max_blocks = self.max_data_blocks()
        if self.num_blocks == 0:
            object.__setattr__(self, "num_blocks", max_blocks)
        if not 0 < self.num_blocks <= max_blocks:
            raise ConfigError(
                f"num_blocks {self.num_blocks} exceeds the {max_blocks} blocks "
                f"allowed by utilization {self.utilization}"
            )

    @property
    def num_leaves(self) -> int:
        return 1 << self.levels

    @property
    def num_buckets(self) -> int:
        return (1 << (self.levels + 1)) - 1

    @property
    def path_length(self) -> int:
        """Buckets on one root-to-leaf path: ``L + 1``."""
        return self.levels + 1

    @property
    def bucket_bytes(self) -> int:
        return self.bucket_slots * self.block_bytes

    @property
    def super_block_size(self) -> int:
        """Blocks per super block (1 = grouping disabled)."""
        return 1 << self.super_block_log2

    def group_of(self, addr: int) -> int:
        """Super-block (group) id of a program address."""
        return addr >> self.super_block_log2

    def group_base(self, addr: int) -> int:
        """First program address of ``addr``'s super block."""
        return (addr >> self.super_block_log2) << self.super_block_log2

    def max_data_blocks(self) -> int:
        return max(1, int(self.num_buckets * self.bucket_slots * self.utilization))

    @classmethod
    def for_capacity(
        cls,
        data_bytes: int,
        *,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        bucket_slots: int = DEFAULT_Z,
        utilization: float = 0.5,
        **kwargs: object,
    ) -> "OramConfig":
        """Build a config sized for ``data_bytes`` of program data."""
        levels = levels_for_capacity(
            data_bytes, block_bytes, bucket_slots, utilization
        )
        return cls(
            levels=levels,
            bucket_slots=bucket_slots,
            block_bytes=block_bytes,
            utilization=utilization,
            **kwargs,  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class SchedulerConfig:
    """Label queue / scheduling knobs (paper Sections 3.3-3.4, 4).

    Attributes
    ----------
    label_queue_size:
        Number of entries in the label queue; always kept full with
        dummy labels so occupancy leaks nothing (Figure 7b). Size 1
        degenerates to plain path merging with no reordering.
    address_queue_size:
        Entries in the address queue ahead of the position map.
    aging_threshold:
        Number of scheduling rounds an entry may be passed over before
        being promoted to the head of the queue (the per-entry ``Cnt``
        of Figure 9). ``0`` (the default) derives
        ``16 * label_queue_size``: under a deep backlog every queued
        entry is passed over roughly ``label_queue_size`` times before
        winning on overlap, so the guard must sit well above that to
        catch only pathological starvation without collapsing the
        schedule into FIFO.
    enable_merging:
        When False the controller degenerates to traditional Path ORAM
        (full path read and written on every access).
    enable_scheduling:
        When False the queue is FIFO (merging only).
    enable_dummy_replacing:
        When False, queued dummies are never taken over by late real
        requests (ablation knob for Section 3.3).
    replacement_scope:
        Which real requests may take over a scheduled (pending) dummy
        mid-refill. ``"queue"`` (default): any queued real — the swap
        is invisible (the dummy was never revealed), and without it a
        real that once lost the overlap contest can trail an idle
        system's dummy stream indefinitely. ``"arrival"``: only
        requests that arrived during the current write phase, the
        literal reading of Algorithm 1's incoming-request swap; this
        restores the paper's measurable dummy overhead (Figure 11's
        +5% and Figure 12's 64->128 crossover) at the cost of much
        worse low-intensity latency.
    refresh_dummies:
        Ablation knob: re-draw the labels of queued (never-revealed)
        dummies at every scheduling round. Security-neutral (a queued
        dummy's label has not crossed the chip boundary) but
        counterproductive: fresh dummy pools out-compete the
        partially-depleted real entries on overlap degree, so almost
        every access becomes a dummy. The paper's lingering dummies
        lose the overlap contest quickly and stop costing anything —
        measured in ``benchmarks/bench_ablation.py``. Default off.
    """

    label_queue_size: int = DEFAULT_LABEL_QUEUE_SIZE
    address_queue_size: int = 64
    aging_threshold: int = 0
    enable_merging: bool = True
    enable_scheduling: bool = True
    enable_dummy_replacing: bool = True
    refresh_dummies: bool = False
    replacement_scope: str = "queue"

    def __post_init__(self) -> None:
        if self.label_queue_size < 1:
            raise ConfigError(
                f"label_queue_size must be >= 1, got {self.label_queue_size}"
            )
        if self.address_queue_size < 1:
            raise ConfigError(
                f"address_queue_size must be >= 1, got {self.address_queue_size}"
            )
        if self.aging_threshold < 0:
            raise ConfigError(
                f"aging_threshold must be >= 0 (0 = auto), got {self.aging_threshold}"
            )
        if self.replacement_scope not in ("queue", "arrival"):
            raise ConfigError(
                f"unknown replacement_scope {self.replacement_scope!r}"
            )

    @property
    def effective_aging_threshold(self) -> int:
        if self.aging_threshold > 0:
            return self.aging_threshold
        return 16 * self.label_queue_size


@dataclass(frozen=True)
class CacheConfig:
    """On-chip ORAM data cache (treetop or merging-aware, Section 3.5).

    ``mac_allocation`` selects how MAC capacity is spread over levels
    ``m1 .. m2``:

    * ``"full"`` (default) — level ``r`` gets all ``2**r`` of its
      buckets until capacity runs out, i.e. a treetop shifted to start
      below the merged region. This realises the paper's stated goal
      ("only blocks located higher than len_overlap are cached") and
      is the variant that reproduces Figure 13.
    * ``"geometric"`` — the literal ``2**(r - m1 + 1)`` per-level
      allocation printed with Equation (1). Kept as an ablation: with
      uniformly remapped leaves its per-level hit probability is
      ``~2**(1 - m1)`` and it measures near zero benefit (see
      DESIGN.md, "Equation (1) discrepancy").
    """

    #: "none", "treetop" or "mac" (merging-aware caching).
    policy: str = "mac"
    capacity_bytes: int = 1 << 20
    ways: int = 8
    mac_allocation: str = "full"

    def __post_init__(self) -> None:
        if self.policy not in ("none", "treetop", "mac"):
            raise ConfigError(f"unknown cache policy {self.policy!r}")
        if self.mac_allocation not in ("full", "geometric"):
            raise ConfigError(
                f"unknown mac_allocation {self.mac_allocation!r}"
            )
        if self.policy != "none":
            if self.capacity_bytes < 1:
                raise ConfigError("capacity_bytes must be positive")
            if self.ways < 1:
                raise ConfigError("ways must be >= 1")


@dataclass(frozen=True)
class DramTimingConfig:
    """DDR3-1600 style timing, in nanoseconds (DRAMSim2 defaults).

    The values follow Micron DDR3-1600 (11-11-11) sheets as shipped with
    DRAMSim2: tCK = 1.25 ns, CL = tRCD = tRP = 13.75 ns (and tRAS =
    35 ns, which the bank model does not use, so it is not a field).
    """

    t_ck_ns: float = 1.25
    t_cas_ns: float = 13.75
    t_rcd_ns: float = 13.75
    t_rp_ns: float = 13.75
    burst_length: int = 8
    bus_bytes: int = 8
    row_bytes: int = 8192

    def __post_init__(self) -> None:
        for name in ("t_ck_ns", "t_cas_ns", "t_rcd_ns", "t_rp_ns"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.burst_length < 1 or self.bus_bytes < 1 or self.row_bytes < 1:
            raise ConfigError("burst_length, bus_bytes, row_bytes must be >= 1")

    @property
    def burst_bytes(self) -> int:
        """Bytes moved per burst: bus width x burst length."""
        return self.bus_bytes * self.burst_length

    @property
    def burst_time_ns(self) -> float:
        """Data-bus occupancy of one burst (double data rate)."""
        return self.t_ck_ns * self.burst_length / 2.0


@dataclass(frozen=True)
class DramConfig:
    """Channel/bank organisation plus timing (Table 1: 2 channels)."""

    channels: int = 2
    banks_per_channel: int = 8
    timing: DramTimingConfig = field(default_factory=DramTimingConfig)
    #: Levels per sub-tree packed into one DRAM row (Ren et al. layout).
    subtree_levels: int = 0  # 0 = derive from row size
    #: "subtree" (paper baseline, from Ren et al.) or "flat" (naive).
    layout: str = "subtree"

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.banks_per_channel < 1:
            raise ConfigError(
                f"banks_per_channel must be >= 1, got {self.banks_per_channel}"
            )
        if self.layout not in ("subtree", "flat"):
            raise ConfigError(f"unknown DRAM layout {self.layout!r}")
        if self.subtree_levels < 0:
            raise ConfigError("subtree_levels must be >= 0")


@dataclass(frozen=True)
class ProcessorConfig:
    """Core + on-chip cache hierarchy parameters (Table 1)."""

    num_cores: int = 4
    core_type: str = "ooo"  # "ooo" or "inorder"
    frequency_ghz: float = 2.0
    #: Max outstanding LLC misses per core. Table 1's 8-issue OoO cores
    #: with typical L2 MSHR provisioning sustain on the order of 16
    #: outstanding misses; this is the occupancy knob that sets how
    #: full the label queue runs with real requests.
    mlp: int = 16
    l1_bytes: int = 32 * 1024
    l1_ways: int = 2
    l2_bytes: int = 1 << 20
    l2_ways: int = 8

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.core_type not in ("ooo", "inorder"):
            raise ConfigError(f"unknown core_type {self.core_type!r}")
        if self.frequency_ghz <= 0:
            raise ConfigError("frequency_ghz must be positive")
        if self.mlp < 1:
            raise ConfigError(f"mlp must be >= 1, got {self.mlp}")
        for name in ("l1_bytes", "l1_ways", "l2_bytes", "l2_ways"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz

    @property
    def effective_mlp(self) -> int:
        """Outstanding-miss budget: 1 for in-order cores (blocking)."""
        return 1 if self.core_type == "inorder" else self.mlp


@dataclass(frozen=True)
class RecursionConfig:
    """Hierarchical (recursive) position-map ORAM layout (Section 2.3).

    ``labels_per_block`` leaf labels are packed into each PosMap block;
    recursion stops once the final map fits in ``onchip_posmap_bytes``.
    """

    enabled: bool = False
    labels_per_block: int = 16
    onchip_posmap_bytes: int = 256 * 1024
    #: Bytes per PosMap entry used when sizing the on-chip map.
    label_bytes: int = 4
    #: PosMap Lookaside Buffer entries (Freecursive extension);
    #: 0 disables the PLB.
    plb_entries: int = 0

    def __post_init__(self) -> None:
        if self.labels_per_block < 2:
            raise ConfigError(
                f"labels_per_block must be >= 2, got {self.labels_per_block}"
            )
        if self.onchip_posmap_bytes < self.label_bytes:
            raise ConfigError("onchip_posmap_bytes too small for one label")
        if self.label_bytes < 1:
            raise ConfigError("label_bytes must be >= 1")
        if self.plb_entries < 0:
            raise ConfigError("plb_entries must be >= 0")


@dataclass(frozen=True)
class PosmapConfig:
    """Position-map storage mode for the live service engine.

    ``flat`` (default) keeps the whole address → leaf map resident in
    engine memory — simple, but client state and sealed checkpoints are
    O(N) in the address space. ``recursive`` stores the map in a chain
    of small ORAM trees over the same storage backend as the data tree
    (the Path ORAM recursive construction), keeping only a root map and
    per-level stashes resident; client state becomes O(stash + root).

    Attributes
    ----------
    mode:
        ``"flat"`` or ``"recursive"``.
    client_budget_bytes:
        Resident-label budget in *model* bytes (entries × label_bytes):
        recursion keeps adding levels until the root map fits this
        budget. The Python runtime adds a constant per-entry overhead
        on top; the budget controls the asymptotics, not the exact RSS.
    labels_per_block:
        Leaf labels packed per PosMap block. ``0`` (default) derives
        the packing from ``oram.block_bytes`` so PosMap payloads match
        the data plane's block size.
    label_bytes:
        Width of one packed label. Must be able to hold every level's
        leaf range (validated when the layout is planned).
    """

    mode: str = "flat"
    client_budget_bytes: int = 64 * 1024
    labels_per_block: int = 0
    label_bytes: int = 4

    def __post_init__(self) -> None:
        if self.mode not in ("flat", "recursive"):
            raise ConfigError(
                f"posmap.mode must be 'flat' or 'recursive', got {self.mode!r}"
            )
        if self.client_budget_bytes < self.label_bytes:
            raise ConfigError(
                "posmap.client_budget_bytes too small for one label"
            )
        if self.labels_per_block < 0 or self.labels_per_block == 1:
            raise ConfigError(
                "posmap.labels_per_block must be 0 (auto) or >= 2, "
                f"got {self.labels_per_block}"
            )
        if self.label_bytes < 1:
            raise ConfigError("posmap.label_bytes must be >= 1")


@dataclass(frozen=True)
class ServiceConfig:
    """The oblivious key-value service (``repro.serve``).

    Attributes
    ----------
    host / port:
        TCP bind address for ``python -m repro serve``. Port 0 binds an
        ephemeral port (the bound port is printed / returned).
    backend:
        Storage backend behind the ORAM tree, one of the names in the
        :data:`repro.serve.backends.BACKEND_FACTORIES` registry:
        ``"memory"`` (the plain dict store), ``"file"`` (crash-safe
        append-log persistence at ``backend_path``) or ``"faulty"``
        (the in-memory store wrapped in configurable fault injection —
        see the ``fault_*`` knobs).
    backend_path:
        Store file for the ``"file"`` backend. Cluster shards derive
        per-shard paths (``<path>.shard<k>``) from this stem.
    compact_every_appends:
        Engine-side log-compaction trigger for append-log backends:
        once the log holds at least this many records beyond the live
        set, the engine compacts it after finishing the access
        (bounding the log at ``live + N`` records however long the
        service runs). ``0`` (default) disables the trigger; compaction
        is then manual (``repro compact PATH`` or
        :meth:`FileBackend.compact`).
    admission_capacity:
        Bound of the admission queue between client sessions and the
        ORAM engine. When full, session handlers stop reading frames —
        backpressure propagates to clients through TCP flow control
        rather than requests being dropped.
    pace_ns:
        Minimum wall-clock gap between consecutive ORAM accesses of the
        arrival-driven loop (0 = flat out). To keep issuing on idle
        slots at a fixed rate, use ``pace.mode`` instead.
    retry_attempts / retry_base_ns / retry_max_ns:
        Exponential-backoff retry policy for backend operations:
        attempt ``k`` (1-based) sleeps ``min(retry_max_ns,
        retry_base_ns * 2**(k-1))`` before retrying. Only transient
        errors and timeouts are retried; bucket writes are absolute
        (idempotent), so a retried write never corrupts state.
    op_timeout_ns:
        Per-operation backend timeout; a stalled operation is cancelled
        and counts as a retryable failure (0 disables the timeout).
    fault_error_rate / fault_stall_rate / fault_jitter_ns / fault_stall_ns:
        ``FaultyBackend`` knobs: probability of a transient error per
        operation, probability of a stall of ``fault_stall_ns`` (sized
        to trip ``op_timeout_ns``), and uniform extra latency in
        ``[0, fault_jitter_ns]`` per operation.
    fault_seed:
        Seed of the fault plan's private RNG — faults are deterministic
        given the seed and the operation sequence.
    """

    host: str = "127.0.0.1"
    port: int = 0
    backend: str = "memory"
    backend_path: str = ""
    compact_every_appends: int = 0
    admission_capacity: int = 128
    max_frame_bytes: int = 1 << 20
    pace_ns: float = 0.0
    retry_attempts: int = 8
    retry_base_ns: float = 1_000_000.0
    retry_max_ns: float = 200_000_000.0
    op_timeout_ns: float = 250_000_000.0
    fault_error_rate: float = 0.0
    fault_stall_rate: float = 0.0
    fault_jitter_ns: float = 0.0
    fault_stall_ns: float = 0.0
    fault_seed: int = 1

    def __post_init__(self) -> None:
        # The authoritative backend list is the registry dict in
        # repro.serve.backends (imported lazily: backends imports this
        # module at load time, so the reverse import must wait until a
        # config is actually constructed).
        from repro.serve.backends import available_backends

        if self.backend not in available_backends():
            raise ConfigError(
                f"unknown service backend {self.backend!r}; "
                f"available: {', '.join(available_backends())}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.compact_every_appends < 0:
            raise ConfigError(
                f"compact_every_appends must be >= 0, "
                f"got {self.compact_every_appends}"
            )
        if self.admission_capacity < 1:
            raise ConfigError(
                f"admission_capacity must be >= 1, got {self.admission_capacity}"
            )
        if self.max_frame_bytes < 64:
            raise ConfigError(
                f"max_frame_bytes must be >= 64, got {self.max_frame_bytes}"
            )
        if self.retry_attempts < 1:
            raise ConfigError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}"
            )
        for name in ("pace_ns", "retry_base_ns", "retry_max_ns",
                     "op_timeout_ns", "fault_jitter_ns", "fault_stall_ns"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("fault_error_rate", "fault_stall_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")


@dataclass(frozen=True)
class PaceConfig:
    """Fixed-temporal-distribution service mode (``repro.pace``).

    The fork-path schedule makes the *label sequence* oblivious, but the
    *issue times* of accesses still track client traffic. When pacing is
    on, a :class:`repro.pace.Pacer` drives the serve engine's turn loop
    on a configured clock: one (real-or-dummy) ORAM access per pace
    slot, pure-dummy slots while no client work is queued, and never
    more than one access per slot under load — so the backend-visible
    timeline is drawn from a traffic-independent distribution
    (Cloak-style static timing protection for the service layer).

    Attributes
    ----------
    mode:
        ``"off"`` (default — the pre-pace service), ``"fixed"`` (slots
        at exact ``interval_ns`` multiples) or ``"jittered"`` (each
        inter-slot gap is ``interval_ns`` plus a uniform draw from
        ``[0, jitter_ns]`` off a private RNG seeded with ``seed`` —
        one draw per slot regardless of load, so the jitter sequence
        itself is traffic-independent).
    interval_ns:
        Nominal wall-clock gap between consecutive access slots.
        Smaller = lower added latency, higher dummy bandwidth when
        idle; larger = the reverse. Must be positive when pacing is on.
    jitter_ns:
        Width of the uniform jitter added per slot in ``"jittered"``
        mode (must be positive there; ignored in ``"fixed"``).
    seed:
        Seed of the jitter RNG. The jitter stream is deterministic
        given the seed and the slot index — never the traffic.
    adaptive:
        Enable the :class:`repro.pace.AdaptiveDummyController`: the
        cadence may be re-tuned *between epochs* (never within one)
        from public queue-depth watermarks, trading dummy bandwidth
        against queueing latency without opening a timing channel
        (epoch boundaries are a function of the public slot count
        only).
    epoch_slots:
        Pace slots per adaptation epoch. The controller only ever
        changes the interval at an epoch boundary.
    min_interval_ns / max_interval_ns:
        Hard floor / ceiling the adaptive controller may never cross
        (0 = derive: floor ``interval_ns / 8``, ceiling
        ``interval_ns * 8``). With ``adaptive=False`` they are unused.
    high_watermark / low_watermark:
        Public queue-depth thresholds sampled once per slot. An epoch
        where the depth reached ``high_watermark`` on a majority of
        slots speeds the cadence up (more bandwidth, less queueing);
        an epoch where it stayed at or below ``low_watermark`` on
        every slot slows it down (less dummy bandwidth, more latency
        headroom).
    adjust_factor:
        Multiplicative step applied to the interval at an epoch
        boundary (speed-up divides, slow-down multiplies). Must be
        > 1.
    """

    mode: str = "off"
    interval_ns: float = 0.0
    jitter_ns: float = 0.0
    seed: int = 0
    adaptive: bool = False
    epoch_slots: int = 64
    min_interval_ns: float = 0.0
    max_interval_ns: float = 0.0
    high_watermark: int = 8
    low_watermark: int = 0
    adjust_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.mode not in ("off", "fixed", "jittered"):
            raise ConfigError(
                f"pace.mode must be 'off', 'fixed' or 'jittered', "
                f"got {self.mode!r}"
            )
        if self.mode != "off" and self.interval_ns <= 0:
            raise ConfigError(
                f"pace.mode={self.mode!r} requires pace.interval_ns > 0"
            )
        if self.jitter_ns < 0:
            raise ConfigError(
                f"pace.jitter_ns must be >= 0, got {self.jitter_ns}"
            )
        if self.mode == "jittered" and self.jitter_ns <= 0:
            raise ConfigError(
                "pace.mode='jittered' requires pace.jitter_ns > 0"
            )
        if self.epoch_slots < 1:
            raise ConfigError(
                f"pace.epoch_slots must be >= 1, got {self.epoch_slots}"
            )
        for name in ("min_interval_ns", "max_interval_ns"):
            if getattr(self, name) < 0:
                raise ConfigError(f"pace.{name} must be >= 0 (0 = derive)")
        floor, ceiling = self.interval_bounds()
        if self.mode != "off" and not floor <= self.interval_ns <= ceiling:
            raise ConfigError(
                f"pace.interval_ns {self.interval_ns} outside "
                f"[{floor}, {ceiling}] (min_interval_ns/max_interval_ns)"
            )
        if self.high_watermark < 1:
            raise ConfigError(
                f"pace.high_watermark must be >= 1, got {self.high_watermark}"
            )
        if not 0 <= self.low_watermark < self.high_watermark:
            raise ConfigError(
                f"pace.low_watermark must be in [0, high_watermark), "
                f"got {self.low_watermark}"
            )
        if self.adjust_factor <= 1.0:
            raise ConfigError(
                f"pace.adjust_factor must be > 1, got {self.adjust_factor}"
            )

    def interval_bounds(self) -> "tuple[float, float]":
        """(floor, ceiling) the adaptive controller may move within."""
        floor = self.min_interval_ns or self.interval_ns / 8.0
        ceiling = self.max_interval_ns or self.interval_ns * 8.0
        return floor, ceiling


@dataclass(frozen=True)
class ReplicaConfig:
    """Durability and warm-standby replication (``repro.replica``).

    The replication stream is *public by construction*: the write-ahead
    log records exactly what the untrusted storage server observes
    anyway (scheduled leaf labels and sealed bucket writes), and the
    client-state checkpoints are sealed with the state cipher before
    touching disk — so neither artefact opens a leakage channel beyond
    the already-public access trace (``repro.security.replication``
    verifies this).

    Attributes
    ----------
    enabled:
        Master switch. When off, no WAL, no checkpoints, no
        replication endpoint — byte-for-byte the pre-replica service.
    dir:
        Data directory holding ``wal.log`` and ``ckpt-<seq>.bin``
        files. Required when enabled. Cluster shards derive per-shard
        subdirectories (``<dir>/shard<k>``).
    checkpoint_every_accesses:
        Seal a client-state checkpoint every N tree accesses. The
        cadence is a function of the (public) access count only, so
        checkpoint timing is data-independent.
    keep_checkpoints:
        Sealed checkpoints retained on disk (older ones are pruned
        after a successful seal). Minimum 1.
    ack_mode:
        When ``"checkpoint"``, responses to state-changing requests
        (put/delete) are withheld until a sealed checkpoint covering
        them is durable — an acknowledged write can then never be lost
        to a crash (the failover guarantee the recovery path asserts).
        ``"none"`` (default) acknowledges immediately; a crash may then
        lose acknowledged writes that were still stash-resident.
    epoch_accesses:
        Digest-epoch length in accesses for divergence detection
        between primary and standby (0 derives the checkpoint
        interval). Epoch digests cover only public WAL bytes.
    key:
        Checkpoint sealing key (UTF-8). A deployment must supply its
        own secret; the default exists so tests and demos run.
    """

    enabled: bool = False
    dir: str = ""
    checkpoint_every_accesses: int = 64
    keep_checkpoints: int = 2
    ack_mode: str = "none"
    epoch_accesses: int = 0
    key: str = "fork-path-replica"

    def __post_init__(self) -> None:
        if self.enabled and not self.dir:
            raise ConfigError("replica.enabled requires replica.dir")
        if self.checkpoint_every_accesses < 1:
            raise ConfigError(
                f"checkpoint_every_accesses must be >= 1, "
                f"got {self.checkpoint_every_accesses}"
            )
        if self.keep_checkpoints < 1:
            raise ConfigError(
                f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}"
            )
        if self.ack_mode not in ("none", "checkpoint"):
            raise ConfigError(
                f"unknown ack_mode {self.ack_mode!r} "
                f"(choose 'none' or 'checkpoint')"
            )
        if self.epoch_accesses < 0:
            raise ConfigError(
                f"epoch_accesses must be >= 0 (0 = checkpoint interval), "
                f"got {self.epoch_accesses}"
            )
        if not self.key:
            raise ConfigError("replica.key must be non-empty")

    @property
    def effective_epoch_accesses(self) -> int:
        return self.epoch_accesses or self.checkpoint_every_accesses

    @property
    def key_bytes(self) -> bytes:
        return self.key.encode("utf-8")


@dataclass(frozen=True)
class ClusterConfig:
    """The sharded oblivious service (``repro.cluster``).

    Attributes
    ----------
    shards:
        Number of independent fork-path ORAM shards the logical address
        space is striped across (``addr % shards`` owns the address).
        ``1`` degenerates to a single-engine cluster, behaviourally
        equivalent to ``repro.serve`` behind the same front end.
    dispatch:
        The router's fixed, data-independent dispatch schedule. Both
        policies visit every shard exactly once per round in a fixed
        order — the obliviousness requirement — and differ only in
        wall-clock overlap:

        * ``"rr"`` — strict sequential round robin: shard ``k+1``'s
          turn starts only after shard ``k``'s access completed, so
          the *interleaved* backend trace is round-robin-blocked and
          exactly reconstructible from public labels.
        * ``"parallel"`` — each round issues all shard turns
          concurrently (``asyncio.gather``), overlapping backend
          latency across shards; per-shard traces keep the fixed
          per-round cadence but interleave freely in wall time.
    auto_scale_levels:
        Derive each shard's tree depth from its slice of the address
        space (``ceil(num_blocks / shards)`` blocks), so doubling the
        shard count removes roughly one tree level per shard — the
        source of the cluster's aggregate-throughput scaling. When
        False every shard keeps the full ``oram.levels`` depth.
    min_shard_levels:
        Lower bound on a shard's tree depth when auto-scaling
        (degenerate one-bucket trees stress nothing interesting).
    workers:
        Where the shard engines run. ``"inline"`` (default) keeps every
        shard in the service process — one asyncio loop, zero IPC, the
        mode unit tests and the in-process security verifiers use.
        ``"process"`` runs each shard in its own OS process (a
        ``repro worker``) behind the wire protocol, so K shards use K
        cores: the router becomes a protocol client and a supervisor
        owns the worker fleet's lifecycle.
    worker_host:
        Bind/connect address for shard worker sockets. Workers are a
        private backplane, not a public endpoint — keep this on
        loopback unless every worker host is inside the trust boundary
        (the worker protocol carries plaintext values).
    max_worker_restarts:
        Supervisor restart budget *per worker*: a worker that exits
        uncleanly is restarted (through the replica recovery path when
        ``replica.enabled``) at most this many times before the
        cluster gives up and stops.
    worker_record_trace:
        Have each worker process keep an in-memory trace of its
        backend accesses and expose the ``verify`` control command
        (label-reconstruction check inside the worker). Off by default:
        the trace grows with the access count.
    """

    shards: int = 1
    dispatch: str = "parallel"
    auto_scale_levels: bool = True
    min_shard_levels: int = 2
    workers: str = "inline"
    worker_host: str = "127.0.0.1"
    max_worker_restarts: int = 3
    worker_record_trace: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.shards <= 1024:
            raise ConfigError(f"shards must be in [1, 1024], got {self.shards}")
        if self.dispatch not in ("rr", "parallel"):
            raise ConfigError(
                f"unknown dispatch policy {self.dispatch!r} "
                f"(choose 'rr' or 'parallel')"
            )
        if self.min_shard_levels < 0:
            raise ConfigError(
                f"min_shard_levels must be >= 0, got {self.min_shard_levels}"
            )
        if self.workers not in ("inline", "process"):
            raise ConfigError(
                f"unknown workers mode {self.workers!r} "
                f"(choose 'inline' or 'process')"
            )
        if not self.worker_host:
            raise ConfigError("worker_host must be non-empty")
        if self.max_worker_restarts < 0:
            raise ConfigError(
                f"max_worker_restarts must be >= 0, "
                f"got {self.max_worker_restarts}"
            )


def _coerce_override(path: str, value: object, current: object) -> object:
    """Convert a string override to the type of the current value.

    Non-string values pass through untouched (callers supplying real
    Python values know what they want); strings — the CLI ``--set``
    case — are parsed against the existing attribute's type.
    """
    if not isinstance(value, str):
        return value
    if isinstance(current, bool):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{path}: cannot parse {value!r} as a bool")
    try:
        if isinstance(current, int):
            return int(value, 0)
        if isinstance(current, float):
            return float(value)
    except ValueError:
        raise ConfigError(
            f"{path}: cannot parse {value!r} as "
            f"{type(current).__name__}"
        ) from None
    return value


def _apply_override_tree(obj: object, tree: dict, path: str) -> object:
    """Rebuild a (possibly nested) frozen config with overrides applied."""
    names = {f.name for f in dataclasses.fields(obj)}  # type: ignore[arg-type]
    updates: dict = {}
    for key, value in tree.items():
        full = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(
                f"unknown config key {full!r}; valid keys here: "
                f"{', '.join(sorted(names))}"
            )
        current = getattr(obj, key)
        if isinstance(value, dict):
            if not dataclasses.is_dataclass(current):
                raise ConfigError(
                    f"{full} is a plain value, not a config section"
                )
            updates[key] = _apply_override_tree(current, value, full)
        elif dataclasses.is_dataclass(current):
            raise ConfigError(
                f"{full} is a config section; set one of its fields "
                f"(e.g. {full}.{sorted(f.name for f in dataclasses.fields(current))[0]})"
            )
        else:
            updates[key] = _coerce_override(full, value, current)
    # Changing a capacity-determining ORAM field invalidates a derived
    # num_blocks; re-derive it unless the caller pinned it explicitly.
    if (
        isinstance(obj, OramConfig)
        and "num_blocks" not in updates
        and updates.keys() & {"levels", "bucket_slots", "utilization"}
        and obj.num_blocks == obj.max_data_blocks()
    ):
        updates["num_blocks"] = 0
    return dataclasses.replace(obj, **updates)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to instantiate a full secure-processor system."""

    oram: OramConfig = field(default_factory=OramConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    recursion: RecursionConfig = field(default_factory=RecursionConfig)
    posmap: PosmapConfig = field(default_factory=PosmapConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    pace: PaceConfig = field(default_factory=PaceConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    replica: ReplicaConfig = field(default_factory=ReplicaConfig)
    #: Fixed idle gap between ORAM phases for timing protection, in ns.
    idle_gap_ns: float = 0.0
    #: Strict periodic issue (Figure 1c): when > 0, every tree access
    #: starts on a multiple of this period, making the access *start
    #: times* fully data-independent (Fletcher et al.'s static timing
    #: protection). 0 = back-to-back issue.
    issue_period_ns: float = 0.0
    #: Keep the memory-bus stream nonstop with dummy accesses while the
    #: LLC is idle (timing-channel protection, Figure 1c). When False,
    #: idle periods are fast-forwarded instead of simulated.
    nonstop: bool = True
    #: Raise on reads of never-written addresses instead of returning
    #: None-payload blocks.
    strict: bool = False
    seed: int = 0

    def replace(self, **kwargs: object) -> "SystemConfig":
        """Convenience wrapper around :func:`dataclasses.replace`."""
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_overrides(
        cls,
        overrides: "dict[str, object] | None" = None,
        *,
        base: "SystemConfig | None" = None,
        **kwargs: object,
    ) -> "SystemConfig":
        """Build a config from dotted-key overrides on top of ``base``.

        ``overrides`` maps dotted paths to values::

            SystemConfig.from_overrides({
                "scheduler.label_queue_size": 128,
                "dram.timing.t_cas_ns": 12.5,
                "nonstop": False,
            })

        Keyword arguments use ``__`` for the dots
        (``scheduler__label_queue_size=128``). String values — the CLI
        ``--set key=value`` form — are coerced to the target field's
        type. Unknown keys raise :class:`ConfigError` immediately,
        listing the valid keys at that level; section validation runs
        eagerly via each dataclass's ``__post_init__``.

        Overriding ``oram.levels`` / ``oram.bucket_slots`` /
        ``oram.utilization`` re-derives ``oram.num_blocks`` unless the
        base pinned it below the maximum (or the override sets it).
        """
        config = base if base is not None else cls()
        flat: "dict[str, object]" = {}
        if overrides:
            flat.update(overrides)
        for key, value in kwargs.items():
            flat[key.replace("__", ".")] = value
        tree: dict = {}
        for dotted, value in flat.items():
            parts = dotted.split(".")
            node = tree
            for part in parts[:-1]:
                child = node.setdefault(part, {})
                if not isinstance(child, dict):
                    raise ConfigError(
                        f"conflicting overrides under {dotted!r}"
                    )
                node = child
            if isinstance(node.get(parts[-1]), dict):
                raise ConfigError(f"conflicting overrides under {dotted!r}")
            node[parts[-1]] = value
        return _apply_override_tree(config, tree, "")  # type: ignore[return-value]


def flatten_overrides(config: SystemConfig) -> "dict[str, object]":
    """Flatten a config to the dotted-leaf map ``from_overrides`` takes.

    Every leaf field appears under its dotted path with its live value
    (plain str/int/float/bool — JSON-serialisable), so
    ``SystemConfig.from_overrides(flatten_overrides(c)) == c``. This is
    how a supervisor ships its exact configuration to shard worker
    processes: one JSON object on the command line, rebuilt through the
    same validation path as every other config source.
    """
    flat: "dict[str, object]" = {}

    def walk(obj: object, prefix: str) -> None:
        for spec in dataclasses.fields(obj):  # type: ignore[arg-type]
            value = getattr(obj, spec.name)
            dotted = f"{prefix}{spec.name}"
            if dataclasses.is_dataclass(value):
                walk(value, dotted + ".")
            else:
                flat[dotted] = value

    walk(config, "")
    return flat


def table1_processor_config() -> ProcessorConfig:
    """The exact processor configuration of the paper's Table 1 (less
    its hit latencies — L1 1 cycle, L2 10 — which nothing here models:
    the simulator times LLC misses only)."""
    return ProcessorConfig(
        num_cores=4,
        core_type="ooo",
        frequency_ghz=2.0,
        mlp=8,
        l1_bytes=32 * 1024,
        l1_ways=2,
        l2_bytes=1 << 20,
        l2_ways=8,
    )


def table1_oram_config() -> OramConfig:
    """The exact ORAM configuration of the paper's Table 1 (4 GB, L=24)."""
    return OramConfig(levels=24, bucket_slots=4, block_bytes=64, utilization=0.5)


def small_test_config(levels: int = 6, **kwargs: object) -> OramConfig:
    """A small tree suitable for unit tests and examples."""
    merged: dict = {
        "levels": levels,
        "bucket_slots": 4,
        "block_bytes": 16,
        "stash_capacity": 200,
        "utilization": 0.5,
    }
    merged.update(kwargs)
    return OramConfig(**merged)
