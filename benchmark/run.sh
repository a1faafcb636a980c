#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json): builds both binaries from source, then
# runs the one the arguments ask for. `--trace 1` (or `--traced`) selects `bench_traced`, the
# same program with the counting allocator installed. Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload axpy_fine --seed 1 --seconds 10 --trace 0
#
# Without --workload it runs all six workloads interleaved and prints the full document.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins 1>&2

bin=bench
previous=
for arg in "$@"; do
    if [[ $arg == --traced || ( $previous == --trace && $arg == 1 ) ]]; then
        bin=bench_traced
    fi
    previous=$arg
done
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
