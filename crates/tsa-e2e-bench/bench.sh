#!/usr/bin/env bash
# Build the `tsa` binary and the benchmark from this checkout, then run
# one measurement:
#   bash crates/tsa-e2e-bench/bench.sh --workload W --seed N --seconds S --trace 0|1
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo build --release --quiet -p tsa-cli -p tsa-e2e-bench 1>&2
exec "${CARGO_TARGET_DIR:-target}/release/tsa-e2e-bench" run "$@"
