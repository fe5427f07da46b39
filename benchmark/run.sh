#!/usr/bin/env bash
# Build mpwbench (offline, release), then run it from the checkout root.
#
#   benchmark/run.sh                 every metric of every workload (mpwbench all)
#   benchmark/run.sh --smoke         the same at 1/20 size, one repetition, tiny drives: 8–10 s after the build
#   benchmark/run.sh <arguments>     passed to mpwbench as they are; the acceptance driver calls
#                                    benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The build honours CARGO_TARGET_DIR (the driver sets it); cargo's own output goes to stderr,
# so the last line of stdout is mpwbench's.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/mpwbench"
case "${1:-}" in
    "") exec "$bin" all ;;
    --smoke) exec "$bin" all --smoke ;;
    *) exec "$bin" "$@" ;;
esac
