#!/usr/bin/env bash
# The benchmark's one command. Run it from the repository root.
#
#   bash benchmark/run.sh
#       build, then run the four workloads in sequence, each in a process
#       of its own with tracing off; prints every end-to-end metric by
#       name with its unit and writes benchmark/out/summary.json
#   bash benchmark/run.sh --workload <w> --seed <n> [--seconds <s>] [--trace 0|1]
#       one workload; the last line of output is the result object
#   bash benchmark/run.sh suite --runs 10 | aa --runs 10 | diff a.json b.json | ...
#       any other subcommand of `bench` (see README.md)
#
# The build is `cargo build --offline --release` into benchmark/target
# (or $CARGO_TARGET_DIR); the executable is then copied to
# benchmark/out/bench and run from there, so a later build does not
# replace a binary that is being measured.
#
# Comparing two commits: build each ONCE, with this script in a checkout
# of each, and keep the two copies of benchmark/out/bench. From one
# checkout, alternate them for at least ten pairs, switching which side
# goes first, with one seed per pair:
#
#   for i in 1 2 3 4 5 6 7 8 9 10; do
#     first=parent; second=change
#     if [ $((i % 2)) -eq 0 ]; then first=change; second=parent; fi
#     ./bench.$first  suite --seed $i --summary benchmark/out/$first.$i.json
#     ./bench.$second suite --seed $i --summary benchmark/out/$second.$i.json
#   done
#
# or, when the host is quiet, run `suite --runs 10` once per side and hand
# the two summaries to `bench diff parent.json change.json`, which applies
# the bounds of BENCHMARK.json and reports worse / within / unresolved per
# (metric, workload).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout ends with the result line.
cargo build --offline --release --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
mkdir -p "$here/out"
cp "$target/release/bench" "$here/out/bench"

case "${1:-}" in
  "") exec "$here/out/bench" suite ;;
  --*) exec "$here/out/bench" run "$@" ;;
  *) exec "$here/out/bench" "$@" ;;
esac
