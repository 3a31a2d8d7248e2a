#!/usr/bin/env bash
# Build `tupelo` and the benchmark driver from source, then run the driver:
#   bash perfbench/run.sh --workload serve-hit|serve-cold|migrate-csv \
#     --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selftest
# Run from the repository root. Build output goes to _build/, scratch
# files to .perfbench-run/; nothing is written outside the checkout.
set -u
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/tupelo_cli.ml ] || [ ! -d lib ]; then
  echo "perfbench: not a tupelo source tree: $(pwd)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./bin/tupelo_cli.exe ./perfbench/bench.exe ./perfbench/selftest.exe >&2 || exit 3
tupelo=_build/default/bin/tupelo_cli.exe
if [ "${1:-}" = "--selftest" ]; then
  _build/default/perfbench/selftest.exe --spawn "$tupelo"
  exit $?
fi
exec _build/default/perfbench/bench.exe --tupelo "$tupelo" "$@"
