#!/bin/sh
# Offline CI gate: formatting, lints, release build, full test suite.
# Run from the repository root. Everything here works without network
# access — the workspace has no external dependencies.
set -eu

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1 verify: release build + tests =="
cargo build --release --offline
cargo test -q --offline

echo "== strict invariant checking =="
cargo test -q --offline --workspace --features lease-release/strict-invariants

echo "== driver smoke: every scenario, 2 parallel jobs =="
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --smoke --jobs 2 > /dev/null

echo "== lock showdown smoke (asserts zero allocator msgs + combiner ledger) =="
# Delegation locks (MCS/CLH/FC/CCSynch + lease hybrids) vs the paper's
# TTS/leased locks over the same delegated stack. The scenario asserts,
# in-cell, that steady state sends zero simulated allocator messages
# (node pools are pre-allocated), that every delegated op is combined
# exactly once, and that the stack's push/pop/empty ledger balances.
# As a ScenarioKind::Sim entry it also rides the record/replay gate
# below.
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --scenario lock_showdown --smoke > /dev/null

echo "== NUMA serving smoke (asserts op ledger + cross-socket traffic shape) =="
# Zipfian KV serving over the multi-socket topology: plain MSI vs
# lease/release vs node replication at 1/2/4 sockets. The scenario
# asserts, in-cell, that every key lands exactly on the pre-generated
# op ledger under all three protocols, that app_ops matches the issued
# count, that single-socket cells send zero cross-socket messages (the
# sockets=1 degeneracy), and that multi-socket cells with workers on
# more than one socket actually cross the link. As a ScenarioKind::Sim
# entry it also rides the record/replay gate below.
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --scenario numa_serving --smoke > /dev/null
# The kilo-core cell: 1024 simulated cores across 4 sockets — the
# scale the NUMA tier exists for. The same in-cell ledger and
# cross-socket asserts gate it.
LR_NO_JSON=1 \
    cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --scenario numa_serving --threads 1024 --ops 8 --series .s4 > /dev/null

echo "== record/replay: every sim scenario must replay byte-identical =="
# Record every deterministic simulation of a smoke sweep as a trace,
# then re-drive each trace engine-only: the replayed MachineStats must
# match the live run byte-for-byte (exit non-zero on any divergence).
TR_DIR=$(mktemp -d)
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim --record "$TR_DIR" > /dev/null
# No pipe here: a pipeline would report tail's status, not the replay's.
cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --replay "$TR_DIR" > "$TR_DIR/replay.txt"
tail -n 1 "$TR_DIR/replay.txt"
rm -rf "$TR_DIR"

echo "== fuzz farm: seeded differential campaign, twice, diffed =="
# Replay-driven differential fuzzing over a fixed seed range: each seed
# records live under msi/mesi/lease-tight, verifies every trace by
# replay, and checks the workload's built-in FAA-ledger and app-ops
# invariants. The campaign runs twice and the outputs are
# diffed: the farm itself must be byte-deterministic. LR_FUZZ_SEEDS
# opts in to a longer run (default 64 seeds, sub-second).
FZ_DIR=$(mktemp -d)
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --seeds "${LR_FUZZ_SEEDS:-64}" --repro-dir "$FZ_DIR/repro" > "$FZ_DIR/run1.txt"
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --seeds "${LR_FUZZ_SEEDS:-64}" --repro-dir "$FZ_DIR/repro" > "$FZ_DIR/run2.txt"
diff -u "$FZ_DIR/run1.txt" "$FZ_DIR/run2.txt"
tail -n 1 "$FZ_DIR/run1.txt"

echo "== fuzz farm: injected-mutation detection drill =="
# Flip one reply flag in a real recording: the farm must catch it at its
# exact coordinates, shrink the workload to a single op, and persist a
# reproducer that still fails verification after a disk round-trip.
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --self-test --repro-dir "$FZ_DIR/drill"

echo "== lr-replay: a failing replay explains itself =="
# Replay the drill's persisted reproducer through the CLI. Verification
# runs untraced and a failure is replayed again with tracing on, so the
# CLI must exit 1 and print a report whose trace window holds at least
# one t= record (not the tracing-off note).
status=0
cargo run -q --release --offline -p lr-replay --bin lr-replay -- "$FZ_DIR"/drill/*.lrt \
    > /dev/null 2> "$FZ_DIR/drill_replay.txt" || status=$?
if [ "$status" -ne 1 ]; then
    cat "$FZ_DIR/drill_replay.txt"
    echo "lr-replay exited $status on the drill reproducer; expected 1"
    exit 1
fi
if ! sed -n '/^-- trace window --$/,/^-- in-flight protocol state --$/p' \
    "$FZ_DIR/drill_replay.txt" | grep -q '^ *t='; then
    cat "$FZ_DIR/drill_replay.txt"
    echo "lr-replay's failure report has no t= record in its trace window"
    exit 1
fi
# The report is deterministic: a second replay of the same reproducer,
# in a fresh process, must print it byte for byte.
status2=0
cargo run -q --release --offline -p lr-replay --bin lr-replay -- "$FZ_DIR"/drill/*.lrt \
    > /dev/null 2> "$FZ_DIR/drill_replay2.txt" || status2=$?
if [ "$status2" -ne 1 ]; then
    echo "second lr-replay run exited $status2 on the drill reproducer; expected 1"
    exit 1
fi
cmp "$FZ_DIR/drill_replay.txt" "$FZ_DIR/drill_replay2.txt"
rm -rf "$FZ_DIR"

echo "== fuzz farm: checked-in regression corpus =="
# Every committed trace must replay byte-identical.
# Regenerate with: lr-fuzz --regen-corpus corpus --seeds 4
cargo run -q --release --offline -p lr-fuzz --bin lr-fuzz -- \
    --check-corpus corpus

echo "== perfbench self-tests =="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench: fingerprint-checked run of every workload =="
# A short pass over all three workloads (paper cells live, the same
# cells replayed, and the kilo-core NUMA replay). perfbench exits non-zero
# when any cell fails, including a stats fingerprint that no longer
# matches perfbench/fingerprints.txt — so any change that moves a
# simulated result fails here. perfbench refuses to start while an
# LR_* knob is set, so the run clears them.
env $(env | sed -n 's/^\(LR_[A-Za-z0-9_]*\)=.*/-u \1/p') \
    cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 0 --seconds 1 > /dev/null

echo "CI OK"
