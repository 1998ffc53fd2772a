#!/usr/bin/env bash
# The ledger's own gate: unit and integration tests, then every workload at
# 1/50 size in both modes. Every run fails if BENCHMARK.json does not name
# exactly the metrics and workloads it prints, or if an output check breaks.
# pipefail carries the benchmark's exit code through the grep.
# Run from anywhere; CI wiring is a later issue.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
cargo test --release --offline --quiet --manifest-path "$manifest"
for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        --workload all --smoke --trace "$trace" \
        | grep -E '^(# |MANIFEST|VIOLATION|attempted=)'
done
echo "benchmark/check.sh: ok"
