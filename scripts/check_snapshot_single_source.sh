#!/usr/bin/env bash
# Single-source tripwire for the durable snapshot format.
#
# Every byte that reaches a snapshot or journal file — the magic
# string, version stamp, header layout, FNV hashing, atomic
# write-temp-then-rename — is produced and parsed in
# crates/core/src/recovery.rs and NOWHERE else. The moment a second
# writer (or a hand-rolled header parser) appears in another module, two
# format definitions can drift apart and a checkpoint written by one
# path becomes unreadable by the other. This script fails CI when any
# format-owning token shows up in crate sources outside recovery.rs.
#
# Top-level tests/ are deliberately out of scope for the format tokens:
# the fault-injection harnesses mangle snapshot headers on purpose, and
# reading the format is not the same as owning it.
#
# There is one snapshot kind — a base is a snapshot with no parent — so
# the symbols of the retired second kind (its magic, type, writer,
# loader, and the two policy knobs that only existed to choose between
# kinds) must not resurface anywhere, tests included.
#
# Usage: scripts/check_snapshot_single_source.sh   (run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

RECOVERY=crates/core/src/recovery.rs
fail=0

# Crate sources outside the recovery module (top-level tests/ excluded
# on purpose — see header).
non_recovery_sources() {
    find crates src -name '*.rs' ! -path "$RECOVERY" -print
}

# Format-owning tokens: the file magic, the header hash fields, the hash
# implementation, and the one snapshot file writer.
tokens=(
    'faultline-checkpoint'
    'payload_fnv'
    'parent_fnv'
    'fn fnv1a64'
    'fn write_checkpoint_file'
)
for tok in "${tokens[@]}"; do
    if ! grep -q -F "$tok" "$RECOVERY"; then
        echo "TRIPWIRE: '$tok' missing from $RECOVERY (was it moved? update this script and ARCHITECTURE.md together)" >&2
        fail=1
    fi
    if hits=$(non_recovery_sources | xargs grep -n -F "$tok" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: snapshot-format token '$tok' leaked outside $RECOVERY:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

# Retired symbols of the second snapshot kind, refused in crate sources
# and top-level tests alike.
retired=(
    'faultline-delta'
    'struct StreamDelta'
    'enum SnapKind'
    'fn write_delta_file'
    'fn load_delta'
    'full_every_n_checkpoints'
    'offload_snapshots'
)
for sym in "${retired[@]}"; do
    if hits=$(find crates src tests -name '*.rs' -print | xargs grep -n -F "$sym" 2>/dev/null) && [ -n "$hits" ]; then
        echo "TRIPWIRE: retired snapshot symbol '$sym' resurfaced:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "snapshot single-source check FAILED — the durable format must live only in $RECOVERY" >&2
    exit 1
fi
echo "snapshot single-source check passed: the durable format lives only in $RECOVERY ✓"
