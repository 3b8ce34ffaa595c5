#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails unless at least
# one test binary ran at least one test.
#
# libtest passes when a name filter selects nothing, so a CI step that
# filters on a test that was renamed or deleted would otherwise go on
# passing while it checks nothing.
#
# Usage: ci/cargo-test-some.sh --release -p pdx-store --lib -- mask
set -euo pipefail

log="$(mktemp)"
trap 'rm -f "$log"' EXIT

cargo test "$@" 2>&1 | tee "$log"
if ! grep -Eq '^running [1-9][0-9]* tests?$' "$log"; then
    echo "error: \`cargo test $*\` selected no test" >&2
    exit 1
fi
