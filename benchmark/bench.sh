#!/usr/bin/env bash
# The benchmark command of BENCHMARK.json: builds the harness when it is
# missing or older than a source file, then runs it with the arguments
# given (a run, or `check <a> <b>`). Always works from the repository
# root, so every path the harness touches lies inside the checkout.
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
cd "$HERE/.."
BIN="${CARGO_TARGET_DIR:-benchmark/out/build}/vira-bench/vira_bench"

newer_source() {
  find crates benchmark/harness benchmark/shims benchmark/build.sh \
    -type f -newer "$BIN" -print -quit 2>/dev/null
}

if [ ! -x "$BIN" ] || [ -n "$(newer_source)" ]; then
  bash benchmark/build.sh >/dev/null
fi
exec "$BIN" "$@"
