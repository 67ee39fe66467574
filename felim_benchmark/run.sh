#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash felim_benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Two builds live side by side under $CARGO_TARGET_DIR (default:
# felim_benchmark/target): `plain` (default features, with the
# felim-shardd daemon) and `traced` (--features telemetry), so switching
# between untraced and traced runs never rebuilds either. Every run uses
# the plain build; `--trace 1` also runs the traced build once, for the
# program's own counters and the tracing overhead. Other arguments go
# to the binary as given.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
base="${CARGO_TARGET_DIR:-$here/target}"
build() {
    cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --target-dir "$base/$1" "${@:2}"
}
build plain
build plain -p felim-serve --bin felim-shardd
build traced --features telemetry

export FELIM_SHARDD_BIN="$base/plain/release/felim-shardd"
bin="$base/plain/release/felim_benchmark"
if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
exec "$bin" "$@" --traced-bin "$base/traced/release/felim_benchmark"
