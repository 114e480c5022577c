#!/usr/bin/env bash
# The benchmark's one command: build `qbench`, then run it.
#
#   benchmark/run.sh [--seed N] [--runs K]  every workload (K times, seeds N..N+K-1), span recorder off
#                                           -> benchmark/out/result.json
#   benchmark/run.sh trace [--seed N] [--runs K]
#                                           every workload traced, plus the layer probes
#                                           -> benchmark/out/trace.json, benchmark/out/trace-<workload>.jsonl
#   benchmark/run.sh compare a.json b.json  judge two sets of runs against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one run; the last line of stdout is the result as JSON
#
# Builds offline from the repository's own crates (path dependencies on
# ../crates/*), so it fails - printing no result - where they are absent.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/qbench" "$@"
