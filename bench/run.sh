#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root. Everything
# the Go toolchain writes (build cache, temporary files, binaries) stays
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
  echo "bench/run.sh: $root is not the repository (no go.mod): nothing to measure" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$here/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
(cd "$here" && go build -o out/e2ebench .)
(cd "$root" && go build -o "$here/out/fwsim" ./cmd/fwsim)
cd "$root"
exec "$here/out/e2ebench" -fwsim "$here/out/fwsim" -outdir "$here/out" "$@"
