#!/usr/bin/env bash
# Prints the sim_digest of every bench/ workload at -scale 0.05, seeds 1-3,
# one "workload seed digest" line each. The digest hashes the simulated
# outcome of a run, so a change that is not meant to move the simulation
# must leave all 15 lines as they are: CI diffs this script's output against
# bench-digests.golden beside it. After a change that is meant to move them,
# regenerate the file from the repository root with
#
#	bash internal/harness/testdata/bench-digests.sh > internal/harness/testdata/bench-digests.golden
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -C bench -o "$tmp/bench" .
for w in fwd_64 incast_spill faa_telemetry lookup_zipf reliable_mirror; do
	for s in 1 2 3; do
		"$tmp/bench" -workload "$w" -seed "$s" -scale 0.05 -out "$tmp/result.json" >/dev/null
		echo "$w $s $(grep -o '"sim_digest": *"[^"]*"' "$tmp/result.json" | cut -d'"' -f4)"
	done
done
