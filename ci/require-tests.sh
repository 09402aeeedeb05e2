#!/usr/bin/env bash
# Runs a filtered test command and fails unless it ran at least one
# test, so a filter that a rename left matching nothing cannot pass as a
# green run of zero tests. Usage:
#
#   ci/require-tests.sh cargo test -p mte-core arena::tests::
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$@" 2>&1 | tee "$log"
if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$log"; then
    echo "error: the filter matched no test: $*" >&2
    exit 1
fi
