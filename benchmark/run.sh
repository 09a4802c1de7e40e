#!/usr/bin/env bash
# Build (release) and run the benchmark; every argument goes to hsd-benchmark.
#   benchmark/run.sh                       all four workloads, measured run
#   benchmark/run.sh --workload olap_scan --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh trace --workload cold_tier
#   benchmark/run.sh compare a.json b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
