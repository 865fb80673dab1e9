#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repo root.
# Everything the Go toolchain writes (build cache, telemetry, module cache)
# is redirected under .bench_build/, so a run touches no file outside the
# checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"

(
	cd "$root/bench"
	HOME=$build/home GOCACHE=$build/gocache GOPATH=$build/gopath \
		GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/gtd-bench" .
) >&2

cd "$root"
exec "$build/gtd-bench" "$@"
