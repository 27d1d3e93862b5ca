#!/bin/sh
# Regenerate the committed benchmark snapshots: each named experiment
# (default: every one that has a BENCH_<experiment>.json) runs in full
# mode and writes BENCH_<experiment>.json at the repo root.
#
#   sh bench/regen.sh                     # all of them
#   sh bench/regen.sh scaleout failover   # a subset
#
# A failed identity or oracle gate still writes the file; the script
# then runs the remaining experiments and exits 1.
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- pipeline serve cache failover scan reshard scaleout net
dune build bench/main.exe
status=0
for e in "$@"; do
  dune exec bench/main.exe -- "$e" --json "BENCH_$e.json" || status=1
done
exit "$status"
