#!/usr/bin/env bash
# The judged benchmark, in one command (see README.md beside this file).
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--seed <n>] [--smoke] [--traced] [--sets <k>]
#
# Builds the shipped `live` binary from the root workspace and the
# benchmark package from its own, offline, into one target directory
# (CARGO_TARGET_DIR if set, else <repo>/target), then hands its arguments
# to `ta-bench`. Fails, printing no result, where the repository's sources
# are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The sources under measurement must be there: never fall back to a stale
# binary from an earlier build.
[ -f Cargo.toml ] && [ -d crates ] || {
    echo "run.sh: no workspace at $root (Cargo.toml, crates/): nothing to measure" >&2
    exit 1
}

out="$here/out"
mkdir -p "$out/tmp"
# Leftovers of a killed run (the recovery journal alone is ~90 MB).
rm -rf "$out/tmp"/*
free_kb="$(df -Pk "$out" | awk 'NR == 2 { print $4 }')"
if [ "${free_kb:-0}" -lt 1048576 ]; then
    echo "run.sh: less than 1 GB free under $out (${free_kb:-?} kB)" >&2
    exit 1
fi

cargo build --release --offline --quiet -p ta-experiments --bin live
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin ta-bench
# The ladder names functions inside the layer crates; if one of them has
# moved, only the traced run loses its rungs, not the end-to-end metrics.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin ta-bench-layers ||
    echo "run.sh: ta-bench-layers does not build: traced runs will fail" >&2

exec "$target/release/ta-bench" "$@"
