#!/bin/sh
# Run every workload once, each in its own process, and print each run's
# metric table (stderr) and result line (stdout). Stops with a non-zero
# exit at the first failed run (oracle mismatch, drain-ledger violation,
# generator behind schedule).
#
#   perfbench/run_all.sh [seed] [seconds] [trace]    # defaults: 1 45 0
set -e
seed=${1:-1}
seconds=${2:-45}
trace=${3:-0}
manifest="$(dirname "$0")/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$manifest"
for workload in solve_hot solve_cold ft_run tree_rounds; do
    echo "== $workload" >&2
    cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
