#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ at the repository root
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and toolchain state stay inside
# .bench_build/, and the toolchain is never downloaded.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
