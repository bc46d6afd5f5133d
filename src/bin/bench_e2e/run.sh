#!/usr/bin/env bash
# The benchmark's command: builds the harness and the two binaries it
# spawns from the checkout's own workspace (so they carry the workspace's
# build settings), then runs one workload. Arguments go to bench_e2e.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --bin bench_e2e --bin camelot-node --bin camelot-serve >&2
exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
