#!/usr/bin/env bash
# Duplication tripwire for the "one kernel, two drivers" refactor.
#
# The per-link state machines (dedup, both-ends merge, reconstruction,
# sanitization, flap tracking, segment close) live in
# crates/core/src/kernel.rs and NOWHERE else. Before the refactor,
# analysis.rs and streaming.rs each carried a copy of this logic and the
# two were kept in sync only by the differential harness; this script
# fails CI the moment a duplicate implementation (or one of the retired
# compatibility shims) creeps back in.
#
# Usage: scripts/check_kernel_single_source.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

KERNEL=crates/core/src/kernel.rs
fail=0

# Rust sources outside the kernel module.
non_kernel_sources() {
    find crates src -name '*.rs' ! -path "$KERNEL" -print
}

# 1. Retired duplicate symbols must not resurface anywhere. Each of
#    these was a second implementation (or bridge) of kernel semantics:
#    - StreamOutput::of_batch   batch→stream output bridge, deleted when
#                               batch started producing StreamOutput itself
#    - *_par                    per-stage parallel twins, replaced by the
#                               serial lane loop in Kernel::apply_grouped
#    - Lane::sanitize_isis etc. streaming.rs's private copy of the lane
#                               machinery, moved wholesale into LinkLane
#    - par_map, ParallelismConfig
#                               the per-batch scoped-thread fan-out and its
#                               knob; the cluster is the one parallelism
#                               mechanism
#    - run_durable_cluster*, run_reshard_cluster*, run_cluster_subprocess,
#      DurableClusterRun, ReshardRun
#                               per-mode and per-transport copies of the
#                               cluster entry point; run_cluster takes the
#                               mode and transport in ClusterConfig
retired=(
    'fn of_batch'
    'fn isis_link_transitions_par'
    'fn dedup_syslog_par'
    'fn reconstruct_par'
    'fn match_failures_par'
    'fn detect_episodes_par'
    'fn classify_ambiguous_par'
    'fn classify_false_positives_par'
    'fn sanitize_isis'
    'fn par_map'
    'struct ParallelismConfig'
    'fn run_durable_cluster'
    'fn run_reshard_cluster'
    'fn run_cluster_subprocess'
    'struct DurableClusterRun'
    'struct ReshardRun'
)
for sym in "${retired[@]}"; do
    if hits=$(non_kernel_sources | xargs grep -n -F "$sym" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: retired symbol '$sym' resurfaced outside $KERNEL:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# 2. The kernel machines must be defined exactly once, in the kernel.
machines=(
    'struct LinkLane'
    'struct DedupState'
    'struct MergeState'
    'struct ReconLane'
    'fn overlaps_offline'
)
for sym in "${machines[@]}"; do
    if ! grep -q -F "$sym" "$KERNEL"; then
        echo "TRIPWIRE: '$sym' missing from $KERNEL (was it moved? update this script and ARCHITECTURE.md together)" >&2
        fail=1
    fi
    if hits=$(non_kernel_sources | xargs grep -n -F "$sym" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: '$sym' redefined outside $KERNEL:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "kernel single-source check FAILED — pipeline semantics must live only in $KERNEL" >&2
    exit 1
fi
echo "kernel single-source check passed: state machines exist only in $KERNEL ✓"
