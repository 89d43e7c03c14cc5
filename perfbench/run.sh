#!/usr/bin/env bash
# Builds cspd, cspr and the perfbench load generator from this checkout,
# then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Every build product and Go cache stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/cspd" || ! -d "$root/cmd/cspr" ]]; then
	echo "perfbench: run from the root of a csdb checkout (cmd/cspd and cmd/cspr are missing)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/cspd" ./cmd/cspd
go build -o "$out/bin/cspr" ./cmd/cspr
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
