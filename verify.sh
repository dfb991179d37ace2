#!/usr/bin/env bash
# Repo verification gate. Runs the tier-1 check from ROADMAP.md plus a
# clippy pass (deny warnings) over the workspace. Fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: tests (root package) =="
cargo test -q --offline

echo "== rustfmt (check only) =="
cargo fmt --all -- --check

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== workspace tests =="
cargo test -q --offline --workspace

echo "== extent oracles under --release =="
# The stored-file extent index does usize/u64 position arithmetic that
# panics on overflow in debug builds but wraps silently in release
# builds, which is what users run: replay its unit tests, the file-system
# oracle and the structure property tests under the release profile.
cargo test -q --release --offline -p iosim-pfs
cargo test -q --release --offline --test fs_oracle
cargo test -q --release --offline -p iosim-bench --test struct_props

echo "== perfbench tests (pins over the run harness and replay APIs) =="
# perfbench/ is its own workspace and imports the run harness, the
# report type and the replay entry points by path; its tests pin the
# monolithic and sharded measurements (mono.*, sharded.*, BTIO digests)
# at a reduced size, so a moved or reshaped API fails here.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== sharded engine determinism (IOSIM_THREADS=1 and =4) =="
# Trace replay and the open-loop generator under the sharded engine:
# virtual times, fingerprints and latency distributions must be
# bit-identical at any worker count, cross-shard dep tokens included;
# degenerate plans must match the monolithic engine exactly. Run with
# the thread pin serial and at four real threads.
IOSIM_THREADS=1 cargo test -q --offline --test replay_shard_determinism
IOSIM_THREADS=4 cargo test -q --offline --test replay_shard_determinism

echo "== advisor determinism (IOSIM_THREADS=1 and =4) =="
# Batch-advisor reports are pure functions of (query set, scale, memo
# history): the suite FNV-pins the rendered bytes and must pass with
# the evaluation fan-out pinned serial and pinned to four threads.
IOSIM_THREADS=1 cargo test -q --offline --test advisor_determinism
IOSIM_THREADS=4 cargo test -q --offline --test advisor_determinism

echo "== advisor sweep smoke (8-config grid, dedup + memo accounting) =="
# A sampled sweep draws 16 queries from an 8-point grid: the report
# must show all 16 admitted, at most 8 simulated, and the memo counters
# must reconcile (misses = unique, everything else dedup'd). Greps run
# against stdout only — the deterministic half of the output.
out="$(cargo run --release --offline -q --bin iosim -- \
  sweep --workload synth --cache 0,2 --queue-depth 1,8 --io-nodes 2,4 \
  --sample 16 --seed 7 --scale 0.25 2>/dev/null)"
echo "$out" | grep -E "^batch scale=0.25 queries=16 unique=[1-8] " >/dev/null || {
  echo "sweep smoke: missing or malformed batch header:"
  echo "$out"
  exit 1
}
echo "$out" | grep -E "^memo: hits=0 misses=[1-8] evictions=0$" >/dev/null || {
  echo "sweep smoke: memo counters did not reconcile:"
  echo "$out"
  exit 1
}

echo "== workload replay smoke (three modes over the committed sample) =="
# Replays tests/data/sample_opstream.trace through every replay mode and
# fails on a nonzero exit or an empty latency histogram: the engine must
# both run the committed trace and actually measure per-op latency.
for mode in direct list twophase; do
  out="$(cargo run --release --offline -q --bin iosim -- \
    replay --trace tests/data/sample_opstream.trace \
    --machine paragon-small --mode "$mode" 2>&1)"
  echo "$out" | grep -E "^latency: n=[1-9]" >/dev/null || {
    echo "replay smoke ($mode): empty or missing latency histogram:"
    echo "$out"
    exit 1
  }
done

echo "== bench wallclock smoke =="
# Gate is "runs without panicking and emits a well-formed v8 document"
# — wall-clock timings are machine-dependent and never fail the build,
# but `bench check` does fail on NaN/negative wall times, non-integer
# counters, a missing data_plane/workload/struct_ops/advisor section,
# a struct_ops storm (extent, lru, cmdq) with zero operations or
# without finite, positive throughput,
# an open-loop shard_scaling or replay_shard_scaling ladder whose
# fingerprints diverge across thread counts, an adaptive round count
# above the static one, a zero per-shard memory peak, a mem_10k story where the wide decomposition
# does not shrink the worst shard,
# an advisor hit rate outside [0,1], a halving winner that disagrees
# with exhaustive search, all-zero
# data-plane byte tallies (which would mean the zero-copy accounting
# came unwired), or an empty workload latency histogram.
# The smoke run writes under target/ so the committed trajectory file
# (BENCH_wallclock.json) is left untouched; both are validated.
cargo run --release --offline -p iosim-bench --bin bench -- \
  wallclock --smoke --out target/BENCH_wallclock.smoke.json
cargo run --release --offline -p iosim-bench --bin bench -- \
  check target/BENCH_wallclock.smoke.json
cargo run --release --offline -p iosim-bench --bin bench -- \
  check BENCH_wallclock.json

echo "== flat-structure hygiene: no raw std hash maps on sim paths =="
# Engine-side crates take hash maps from iosim_simkit::hash (fixed
# keys, documented point-lookup-only discipline), never directly from
# std::collections, whose per-process random iteration order is a
# determinism hazard. Top-level imports only: test modules (indented
# imports) may use std maps to build reference-model twins, and the
# wrapper module itself is exempt.
if grep -rn "^use std::collections::.*Hash\(Map\|Set\)" \
    crates/simkit/src crates/machine/src crates/cache/src \
    crates/pfs/src crates/msg/src crates/workload/src \
  | grep -v "crates/simkit/src/hash.rs"; then
  echo "raw std hash map import on a sim path - use iosim_simkit::hash"
  exit 1
fi

echo "== flat-structure hygiene: no unreviewed map iteration on sim paths =="
# No sim-visible decision may consume hash-map iteration order. Every
# iteration-shaped call in an engine-side file that holds an FxHash map
# must be on the reviewed list below (each flows through a sort before
# anything order-dependent, or lives in a test module); a new site
# fails the gate until it is reviewed and listed here.
fx_files=$(grep -rl "FxHashMap\|FxHashSet" \
    crates/simkit/src crates/machine/src crates/cache/src \
    crates/pfs/src crates/msg/src crates/workload/src \
  | grep -v "crates/simkit/src/hash.rs" || true)
if [ -n "$fx_files" ]; then
  # shellcheck disable=SC2086
  hits=$(grep -n "\.keys()\|\.values()\|\.values_mut()\|\.drain()" $fx_files \
    | grep -v "crates/pfs/src/fs.rs:.*files\.keys()" \
    | grep -v "crates/workload/src/engine.rs:.*handles\.drain()" \
    | grep -v "crates/workload/src/engine.rs:.*map\.keys()" \
    | grep -v "crates/cache/src/lru.rs:" || true)
  if [ -n "$hits" ]; then
    echo "unreviewed hash-map iteration on a sim path:"
    echo "$hits"
    exit 1
  fi
fi

echo "== one build configuration: no cargo features =="
# Every test, oracle and bench builds and runs under the default
# configuration; a cargo feature would bring back code that plain
# `cargo test` never compiles. (perfbench/ is its own workspace.)
if grep -rn --include=Cargo.toml "^\[features\]" Cargo.toml crates \
  || grep -rn "cfg(feature" Cargo.toml crates src tests examples; then
  echo "cargo feature or cfg(feature) gate found - keep one build configuration"
  exit 1
fi

echo "verify.sh: all checks passed"
