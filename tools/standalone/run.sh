#!/usr/bin/env bash
# Standalone build/test/measure loop for registry-offline environments.
#
# Cargo cannot resolve even vendored-free deps when the crate registry is
# unreachable, but bare rustc can still compile the real vira-obs,
# vira-grid, vira-extract and vira-comm sources against tiny shims for
# serde / serde_json / bytes / crossbeam (see shims/). The serde_derive shim is a no-op
# proc-macro, so `#[derive(Serialize, Deserialize)]` parses and expands
# to nothing; nothing in the kernel layer needs real serialization.
#
# Usage:
#   ./run.sh tests    # build debug + run obs/grid/extract unit tests
#   ./run.sh bench    # build -O + run the microbench harness
#   ./run.sh all      # both (default)
#
# Bench output: $OUT/fresh_measurements.json — a JSON array of
# {"name","measured_ns"} pairs in the exact shape that
# vira_bench::micro_manifest::merge_measurements consumes.
# MICROBENCH_QUICK=1 shrinks the time budget for CI smoke runs.
set -euo pipefail
cd "$(dirname "$0")"
REPO="$(cd ../.. && pwd)"
OUT="${OUT:-$PWD/target}"
MODE="${1:-all}"
RUSTC="${RUSTC:-rustc}"
mkdir -p "$OUT"

build_shims() {
  "$RUSTC" --edition 2021 --crate-type proc-macro shims/serde_derive_shim.rs \
    --crate-name serde_derive_shim -o "$OUT/libserde_derive_shim.so"
  "$RUSTC" --edition 2021 --crate-type rlib shims/serde_shim.rs --crate-name serde \
    --extern serde_derive_shim="$OUT/libserde_derive_shim.so" -L "$OUT" \
    -o "$OUT/libserde.rlib"
  "$RUSTC" --edition 2021 --crate-type rlib shims/serde_json_shim.rs \
    --crate-name serde_json -o "$OUT/libserde_json.rlib"
  "$RUSTC" --edition 2021 --crate-type rlib shims/bytes_shim.rs \
    --crate-name bytes -o "$OUT/libbytes.rlib"
  "$RUSTC" --edition 2021 --crate-type rlib shims/crossbeam_shim.rs \
    --crate-name crossbeam -o "$OUT/libcrossbeam.rlib"
}

# build_crates [extra rustc flags...] — rlibs of the real workspace crates.
build_crates() {
  "$RUSTC" --edition 2021 "$@" --crate-type rlib "$REPO/crates/obs/src/lib.rs" \
    --crate-name vira_obs -o "$OUT/libvira_obs.rlib"
  "$RUSTC" --edition 2021 -D warnings "$@" --crate-type rlib \
    "$REPO/crates/grid/src/lib.rs" --crate-name vira_grid \
    --extern serde="$OUT/libserde.rlib" \
    --extern serde_json="$OUT/libserde_json.rlib" \
    --extern vira_obs="$OUT/libvira_obs.rlib" \
    -L "$OUT" -o "$OUT/libvira_grid.rlib"
  "$RUSTC" --edition 2021 -D warnings "$@" --crate-type rlib \
    "$REPO/crates/extract/src/lib.rs" --crate-name vira_extract \
    --extern serde="$OUT/libserde.rlib" \
    --extern bytes="$OUT/libbytes.rlib" \
    --extern vira_obs="$OUT/libvira_obs.rlib" \
    --extern vira_grid="$OUT/libvira_grid.rlib" \
    -L "$OUT" -o "$OUT/libvira_extract.rlib"
  "$RUSTC" --edition 2021 -D warnings "$@" --crate-type rlib \
    "$REPO/crates/comm/src/lib.rs" --crate-name vira_comm \
    --extern bytes="$OUT/libbytes.rlib" \
    --extern crossbeam="$OUT/libcrossbeam.rlib" \
    --extern vira_obs="$OUT/libvira_obs.rlib" \
    -L "$OUT" -o "$OUT/libvira_comm.rlib"
}

run_tests() {
  echo "== unit tests: vira-comm (channels via crossbeam shim) =="
  "$RUSTC" --edition 2021 -O --test "$REPO/crates/comm/src/lib.rs" \
    --crate-name vira_comm \
    --extern bytes="$OUT/libbytes.rlib" \
    --extern crossbeam="$OUT/libcrossbeam.rlib" \
    --extern vira_obs="$OUT/libvira_obs.rlib" \
    -L "$OUT" -o "$OUT/comm_unit"
  "$OUT/comm_unit" --quiet
  echo "== unit tests: vira-obs =="
  "$RUSTC" --edition 2021 -O --test "$REPO/crates/obs/src/lib.rs" \
    --crate-name vira_obs -o "$OUT/obs_unit"
  "$OUT/obs_unit" --quiet
  echo "== unit tests: vira-grid (descriptor tests skipped — serde_json shim) =="
  "$RUSTC" --edition 2021 -O --test "$REPO/crates/grid/src/lib.rs" \
    --crate-name vira_grid \
    --extern serde="$OUT/libserde.rlib" \
    --extern serde_json="$OUT/libserde_json.rlib" \
    --extern vira_obs="$OUT/libvira_obs.rlib" \
    -L "$OUT" -o "$OUT/grid_unit"
  "$OUT/grid_unit" --quiet --skip io::tests::disk_dataset_roundtrip \
    --skip io::tests::missing_item_file_fails_at_load
  echo "== unit tests: vira-extract =="
  "$RUSTC" --edition 2021 -O --test "$REPO/crates/extract/src/lib.rs" \
    --crate-name vira_extract \
    --extern serde="$OUT/libserde.rlib" \
    --extern bytes="$OUT/libbytes.rlib" \
    --extern vira_obs="$OUT/libvira_obs.rlib" \
    --extern vira_grid="$OUT/libvira_grid.rlib" \
    -L "$OUT" -o "$OUT/extract_unit"
  "$OUT/extract_unit" --quiet
}

run_bench() {
  echo "== microbench (optimized) =="
  "$RUSTC" --edition 2021 -O microbench.rs --crate-name microbench \
    --extern vira_obs="$OUT/libvira_obs.rlib" \
    --extern vira_grid="$OUT/libvira_grid.rlib" \
    --extern vira_extract="$OUT/libvira_extract.rlib" \
    --extern vira_comm="$OUT/libvira_comm.rlib" \
    -L "$OUT" -o "$OUT/microbench"
  "$OUT/microbench" > "$OUT/fresh_measurements.json"
  echo "wrote $OUT/fresh_measurements.json"
}

build_shims
case "$MODE" in
  tests)
    build_crates
    run_tests
    ;;
  bench)
    build_crates -O
    run_bench
    ;;
  all)
    build_crates
    run_tests
    build_crates -O
    run_bench
    ;;
  *)
    echo "usage: $0 [tests|bench|all]" >&2
    exit 2
    ;;
esac
