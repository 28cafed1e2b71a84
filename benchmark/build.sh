#!/usr/bin/env bash
# Builds the benchmark harness with bare rustc: the cargo registry is
# unreachable in the build container, so external crates are replaced by
# the stand-ins under shims/ (see README.md, "Shim builds").
#
# The build order is read from crates/*/Cargo.toml: each required crate
# is built after every [dependencies] entry that is an in-repo crate or
# has a shim, so a crate that drops an external dependency or gains an
# in-repo one needs no change here. A dependency with neither (rand,
# proptest) gets no --extern; if the crate really uses it, its build
# fails below and names the crate.
#
# Usage: build.sh [out-dir]   (default: $CARGO_TARGET_DIR or benchmark/out/build)
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(cd "$HERE/.." && pwd)"
cd "$ROOT"
OUT="${1:-${CARGO_TARGET_DIR:-benchmark/out/build}}/vira-bench"
RUSTC="${RUSTC:-rustc}"
# Matches [profile.release] (opt-level 3); debug info is left out, it
# does not change the generated code.
FLAGS=(--edition 2021 -C opt-level=3)
REQUIRED=(obs grid storage dms extract comm)

die() {
  echo "build.sh: $*" >&2
  exit 1
}

[ -d crates ] || die "no crates/ directory beside benchmark/: the harness builds the repository's crates from source"
mkdir -p "$OUT"

declare -A DIR_OF   # package name -> crate directory
for manifest in crates/*/Cargo.toml; do
  name="$(sed -n 's/^name *= *"\([^"]*\)".*/\1/p' "$manifest" | head -n 1)"
  [ -n "$name" ] && DIR_OF["$name"]="$(dirname "$manifest")"
done

# Names listed under [dependencies] of one manifest.
deps_of() {
  awk '/^\[/ { on = ($0 == "[dependencies]") ; next }
       on && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, RSTART, RLENGTH) }' "$1"
}

declare -A BUILT   # package name -> rlib path ("" while in progress)

build_shim() {
  local name="$1" lib="$OUT/lib$1.rlib"
  if [ "$name" = serde ]; then
    "$RUSTC" "${FLAGS[@]}" --crate-type proc-macro benchmark/shims/serde_derive.rs \
      --crate-name serde_derive -o "$OUT/libserde_derive.so" ||
      die "shim serde_derive failed to build"
    "$RUSTC" "${FLAGS[@]}" --crate-type rlib benchmark/shims/serde.rs --crate-name serde \
      --extern serde_derive="$OUT/libserde_derive.so" -o "$lib" ||
      die "shim serde failed to build"
  else
    "$RUSTC" "${FLAGS[@]}" --cap-lints allow --crate-type rlib "benchmark/shims/$name.rs" \
      --crate-name "$name" -o "$lib" || die "shim $name failed to build"
  fi
  BUILT["$name"]="$lib"
}

build_crate() {
  local name="$1"
  [ -n "${BUILT[$name]+x}" ] && return 0
  BUILT["$name"]=""
  local dir="${DIR_OF[$name]}" dep externs=()
  for dep in $(deps_of "$dir/Cargo.toml"); do
    if [ -n "${DIR_OF[$dep]+x}" ]; then
      build_crate "$dep"
    elif [ -f "benchmark/shims/$dep.rs" ]; then
      [ -n "${BUILT[$dep]+x}" ] || build_shim "$dep"
    else
      continue
    fi
    [ -n "${BUILT[$dep]}" ] || die "dependency cycle through $dep"
    externs+=(--extern "${dep//-/_}=${BUILT[$dep]}")
  done
  local lib="$OUT/lib${name//-/_}.rlib"
  echo "build.sh: $name" >&2
  "$RUSTC" "${FLAGS[@]}" --cap-lints allow --crate-type rlib "$dir/src/lib.rs" \
    --crate-name "${name//-/_}" "${externs[@]}" -L "$OUT" -o "$lib" ||
    die "crate $name ($dir) failed to build"
  BUILT["$name"]="$lib"
}

for short in "${REQUIRED[@]}"; do
  pkg=""
  for name in "${!DIR_OF[@]}"; do
    [ "${DIR_OF[$name]}" = "crates/$short" ] && pkg="$name"
  done
  [ -n "$pkg" ] || die "required crate crates/$short is missing"
  build_crate "$pkg"
done

# The harness links every crate built above plus the bytes shim.
[ -n "${BUILT[bytes]+x}" ] || build_shim bytes
externs=()
for name in "${!BUILT[@]}"; do
  externs+=(--extern "${name//-/_}=${BUILT[$name]}")
done
echo "build.sh: harness" >&2
"$RUSTC" "${FLAGS[@]}" benchmark/harness/main.rs --crate-name vira_bench \
  "${externs[@]}" -L "$OUT" -o "$OUT/vira_bench.tmp" || die "harness failed to build"
mv "$OUT/vira_bench.tmp" "$OUT/vira_bench"
echo "$OUT/vira_bench"
