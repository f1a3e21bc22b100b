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

echo "== event-queue A/B: heap vs wheel must be byte-identical =="
# Every deterministic (sim) scenario, run once per event-queue store:
# the emitted rows and every BENCH_*.json must not differ by one byte.
# Wall-clock scenarios (--kind host/wall) are exempt by nature.
AB_DIR=$(mktemp -d)
mkdir -p "$AB_DIR/json_heap" "$AB_DIR/json_wheel"
# The "JSON -> <path>" banner echoes the per-variant output directory;
# everything else must match exactly.
LR_EVENTQ=heap LR_JSON_DIR="$AB_DIR/json_heap" \
    cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim | grep -v "^JSON -> " > "$AB_DIR/rows_heap.txt"
LR_EVENTQ=wheel LR_JSON_DIR="$AB_DIR/json_wheel" \
    cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim | grep -v "^JSON -> " > "$AB_DIR/rows_wheel.txt"
diff -u "$AB_DIR/rows_heap.txt" "$AB_DIR/rows_wheel.txt"
diff -ru "$AB_DIR/json_heap" "$AB_DIR/json_wheel"
rm -rf "$AB_DIR"

echo "== engine-shards A/B: 1 vs 4 partitions must be byte-identical =="
# The PDES executor axis: every deterministic (sim) scenario, run once
# single-partition and once with 4 conservatively-synchronized engine
# partitions. Rows and every BENCH_*.json must not differ by one byte —
# the partitioned executor must be invisible in simulated results.
SH_DIR=$(mktemp -d)
mkdir -p "$SH_DIR/json_s1" "$SH_DIR/json_s4"
LR_ENGINE_SHARDS=1 LR_JSON_DIR="$SH_DIR/json_s1" \
    cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim | grep -v "^JSON -> " > "$SH_DIR/rows_s1.txt"
LR_ENGINE_SHARDS=4 LR_JSON_DIR="$SH_DIR/json_s4" \
    cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim | grep -v "^JSON -> " > "$SH_DIR/rows_s4.txt"
diff -u "$SH_DIR/rows_s1.txt" "$SH_DIR/rows_s4.txt"
diff -ru "$SH_DIR/json_s1" "$SH_DIR/json_s4"
rm -rf "$SH_DIR"

echo "== commit-mode A/B: lockstep vs relaxed must be byte-identical =="
# The commit-schedule axis: every deterministic (sim) scenario, run once
# with the lockstep executor (one event at a time in global order) and
# once with the relaxed executor (per-partition safe-window batches),
# both at 4 engine partitions. Rows and every BENCH_*.json must not
# differ by one byte — the simulation must not notice the schedule.
CM_DIR=$(mktemp -d)
mkdir -p "$CM_DIR/json_lock" "$CM_DIR/json_rel"
LR_ENGINE_SHARDS=4 LR_ENGINE_COMMIT=lockstep LR_JSON_DIR="$CM_DIR/json_lock" \
    cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim | grep -v "^JSON -> " > "$CM_DIR/rows_lock.txt"
LR_ENGINE_SHARDS=4 LR_ENGINE_COMMIT=relaxed LR_JSON_DIR="$CM_DIR/json_rel" \
    cargo run -q --release --offline -p lr-bench --bin lr-bench -- \
    --smoke --jobs 2 --kind sim | grep -v "^JSON -> " > "$CM_DIR/rows_rel.txt"
diff -u "$CM_DIR/rows_lock.txt" "$CM_DIR/rows_rel.txt"
diff -ru "$CM_DIR/json_lock" "$CM_DIR/json_rel"
rm -rf "$CM_DIR"

echo "== engine throughput smoke (gates on completion, not numbers) =="
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --scenario engine_throughput --smoke > /dev/null

echo "== PDES scaling smoke (asserts identical stats + batch occupancy) =="
# The scenario itself asserts, in-cell, that every (commit mode x shard
# count) series is byte-identical to the sequential run and that the
# relaxed series commit more than one event per window batch.
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --scenario pdes_scaling --smoke > /dev/null

echo "== lock showdown smoke (asserts zero allocator msgs + combiner ledger) =="
# Delegation locks (MCS/CLH/FC/CCSynch + lease hybrids) vs the paper's
# TTS/leased locks over the same delegated stack. The scenario asserts,
# in-cell, that steady state sends zero simulated allocator messages
# (node pools are pre-allocated), that every delegated op is combined
# exactly once, and that the stack's push/pop/empty ledger balances.
# As a ScenarioKind::Sim entry it also rides every --kind sim A/B gate
# above (event-queue, engine-shards, commit-mode) and the record/replay
# gate below.
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --scenario lock_showdown --smoke > /dev/null

echo "== NUMA serving smoke (asserts op ledger + cross-socket traffic shape) =="
# Zipfian KV serving over the multi-socket topology: plain MSI vs
# lease/release vs node replication at 1/2/4 sockets. The scenario
# asserts, in-cell, that every key lands exactly on the pre-generated
# op ledger under all three protocols, that app_ops matches the issued
# count, that single-socket cells send zero cross-socket messages (the
# sockets=1 degeneracy), and that multi-socket cells with workers on
# more than one socket actually cross the link. As a ScenarioKind::Sim
# entry it also rides every --kind sim A/B gate above (event-queue,
# engine-shards, commit-mode) and the record/replay gate below.
LR_NO_JSON=1 cargo run -q --release --offline -p lr-bench --bin lr-bench -- --scenario numa_serving --smoke > /dev/null
# The kilo-core cell: 1024 simulated cores across 4 sockets, driven by
# the partitioned relaxed executor — the scale the NUMA tier exists for.
# The same in-cell ledger and cross-socket asserts gate it.
LR_ENGINE_SHARDS=4 LR_ENGINE_COMMIT=relaxed LR_NO_JSON=1 \
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
# records live under msi/mesi/lease-tight, replays every trace under
# both event-queue stores crossed with shard/commit combos (1 lockstep,
# 2 lockstep, 2 relaxed), and checks the workload's built-in FAA-ledger
# and app-ops invariants. The campaign runs twice and the outputs are
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
rm -rf "$FZ_DIR"

echo "== fuzz farm: checked-in regression corpus =="
# Every committed trace must replay byte-identical under both event
# queues crossed with engine partition counts 1, 2, and 4 crossed with
# both commit modes (lockstep and relaxed).
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
