#!/usr/bin/env bash
# Standalone build/test/measure loop for registry-offline environments.
#
# Cargo cannot resolve even vendored-free deps when the crate registry is
# unreachable, but bare rustc can still compile the real vira-obs,
# vira-grid, vira-storage, vira-dms, vira-extract and vira-comm sources
# against the stand-ins for serde / serde_json / bytes / crossbeam /
# parking_lot under benchmark/shims (read here, never written). The
# serde_derive shim is a no-op proc-macro, so
# `#[derive(Serialize, Deserialize)]` parses and expands to nothing;
# nothing in these layers needs real serialization.
#
# Usage:
#   ./run.sh tests    # build debug rlibs + run the unit suites of all six crates
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
SHIMS="$REPO/benchmark/shims"
OUT="${OUT:-$PWD/target}"
MODE="${1:-all}"
RUSTC="${RUSTC:-rustc}"
mkdir -p "$OUT"

CRATES=(obs grid storage dms extract comm)

# What each crate links, shims and in-repo crates alike (its [dependencies]).
deps_of() {
  case "$1" in
    obs) ;;
    grid) echo serde serde_json vira_obs ;;
    storage) echo parking_lot serde vira_obs vira_grid ;;
    dms) echo parking_lot crossbeam serde vira_obs vira_grid vira_storage ;;
    extract) echo bytes vira_obs vira_grid ;;
    comm) echo bytes crossbeam vira_obs ;;
  esac
}

# externs <lib>... — the --extern flags for rlibs already in $OUT.
externs() {
  local lib
  for lib in "$@"; do
    echo "--extern" "$lib=$OUT/lib$lib.rlib"
  done
}

build_shims() {
  "$RUSTC" --edition 2021 --crate-type proc-macro "$SHIMS/serde_derive.rs" \
    --crate-name serde_derive -o "$OUT/libserde_derive.so"
  "$RUSTC" --edition 2021 --crate-type rlib "$SHIMS/serde.rs" --crate-name serde \
    --extern serde_derive="$OUT/libserde_derive.so" -o "$OUT/libserde.rlib"
  local shim
  for shim in serde_json bytes crossbeam parking_lot; do
    "$RUSTC" --edition 2021 --cap-lints allow --crate-type rlib "$SHIMS/$shim.rs" \
      --crate-name "$shim" -o "$OUT/lib$shim.rlib"
  done
}

# build_crates [extra rustc flags...] — rlibs of the real workspace crates.
build_crates() {
  local c
  for c in "${CRATES[@]}"; do
    # shellcheck disable=SC2046
    "$RUSTC" --edition 2021 -D warnings "$@" --crate-type rlib \
      "$REPO/crates/$c/src/lib.rs" --crate-name "vira_$c" \
      $(externs $(deps_of "$c")) -L "$OUT" -o "$OUT/libvira_$c.rlib"
  done
}

run_tests() {
  local c skips
  for c in "${CRATES[@]}"; do
    echo "== unit tests: vira-$c =="
    # shellcheck disable=SC2046
    "$RUSTC" --edition 2021 -O --test "$REPO/crates/$c/src/lib.rs" \
      --crate-name "vira_$c" $(externs $(deps_of "$c")) -L "$OUT" -o "$OUT/${c}_unit"
    # Tests that write a dataset descriptor need a serde_json that
    # serializes; the shim's returns an error.
    case "$c" in
      grid) skips=(--skip io::tests::disk_dataset_roundtrip
        --skip io::tests::missing_item_file_fails_at_load) ;;
      storage) skips=(--skip source::tests::disk_source_roundtrip) ;;
      *) skips=() ;;
    esac
    "$OUT/${c}_unit" --quiet ${skips[@]+"${skips[@]}"}
  done
  echo "== integration test: vira-extract golden digests =="
  # shellcheck disable=SC2046
  "$RUSTC" --edition 2021 -O --test "$REPO/crates/extract/tests/golden_digests.rs" \
    --crate-name golden_digests $(externs vira_extract vira_grid) -L "$OUT" \
    -o "$OUT/golden_digests"
  "$OUT/golden_digests" --quiet
}

run_bench() {
  echo "== microbench (optimized) =="
  # shellcheck disable=SC2046
  "$RUSTC" --edition 2021 -O microbench.rs --crate-name microbench \
    $(externs vira_obs vira_grid vira_extract vira_comm) -L "$OUT" -o "$OUT/microbench"
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
