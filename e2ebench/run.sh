#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write
# stays inside the checkout: the Go build cache and the binary under
# .bench_build/, the traced run's span dumps under .bench_out/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
