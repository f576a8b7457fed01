#!/usr/bin/env bash
# Build haf_bench from source in this checkout, then run it with the
# given arguments, for example:
#
#   bash bench/haf_bench/run.sh --workload sim-steady --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the benchmark's JSON result stays the
# last line of stdout.  Without the repository's libraries the build
# fails and so does this script.
set -euo pipefail
cd "$(dirname "$0")/../.."
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/haf_bench/haf_bench.exe 1>&2
exec ./_build/default/bench/haf_bench/haf_bench.exe "$@"
