#!/usr/bin/env bash
# Build the benchmark program from this checkout and run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the program's last stdout line is the result.
set -euo pipefail
if [[ ! -f dune-project || ! -d lib ]]; then
  echo "perfbench: run from the root of an accals checkout" >&2
  exit 2
fi
# Provenance stamp: the git commit when there is one, otherwise a digest of
# the sources the program is built from.
if [[ ! -e .git ]] || ! ACCALS_BUILD_COMMIT=$(git rev-parse HEAD 2>/dev/null); then
  ACCALS_BUILD_COMMIT="src-$(find bin lib perfbench dune-project -type f \
    \( -name '*.ml' -o -name '*.mli' -o -name '*.c' -o -name dune -o -name dune-project \) \
    -print0 | sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi
export ACCALS_BUILD_COMMIT
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
