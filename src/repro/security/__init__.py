"""Security analysis: adversary-visible trace reconstruction and
statistical tests on the public label sequence."""

from repro.security.adversary import (
    access_chunks,
    expected_fork_trace,
    executed_leaves,
    split_trace_into_accesses,
    engine_chain_slots,
    expected_chain_trace,
    verify_chain_trace,
    verify_engine_trace,
)
from repro.security.properties import (
    chi_square_uniformity,
    mean_pairwise_overlap,
    expected_pairwise_overlap,
)
from repro.security.indistinguishability import (
    TraceProfile,
    profile_run,
    leaf_distribution_pvalue,
    shape_distribution_pvalue,
    adversary_advantage,
)
from repro.security.replication import (
    wal_public_trace,
    verify_replication_stream,
)
from repro.security.cluster import (
    InterleavedTraceRecorder,
    verify_visit_schedule,
    verify_shard_balance,
    expected_interleaved_trace,
    verify_interleaved_cluster_trace,
    shard_profile,
)
from repro.security.temporal import (
    TemporalVerdict,
    arrivals_from_events,
    issues_from_events,
    inter_access_gaps,
    gap_ks_test,
    cross_correlation,
    verify_temporal_independence,
)

__all__ = [
    "access_chunks",
    "expected_fork_trace",
    "executed_leaves",
    "split_trace_into_accesses",
    "chi_square_uniformity",
    "mean_pairwise_overlap",
    "expected_pairwise_overlap",
    "TraceProfile",
    "profile_run",
    "leaf_distribution_pvalue",
    "shape_distribution_pvalue",
    "adversary_advantage",
    "wal_public_trace",
    "verify_replication_stream",
    "engine_chain_slots",
    "expected_chain_trace",
    "verify_chain_trace",
    "verify_engine_trace",
    "InterleavedTraceRecorder",
    "verify_visit_schedule",
    "verify_shard_balance",
    "expected_interleaved_trace",
    "verify_interleaved_cluster_trace",
    "shard_profile",
    "TemporalVerdict",
    "arrivals_from_events",
    "issues_from_events",
    "inter_access_gaps",
    "gap_ks_test",
    "cross_correlation",
    "verify_temporal_independence",
]
