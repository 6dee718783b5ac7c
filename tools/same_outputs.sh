#!/bin/sh
# Check that the working tree's src/ writes the same outputs as a revision's:
# tools/same_outputs.sh REV
#
# Extracts REV's src/ with `git archive` into a temporary directory, runs
# tools/outputs.sh on it and on the working tree's src/, and compares the two
# outputs with `diff -r`.  Exits with diff's status (0 when every output is
# byte-identical) and removes the temporary directory.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
git -C "$ROOT" archive "$1" src | tar -x -C "$TMP"
"$ROOT/tools/outputs.sh" "$TMP/src" "$TMP/out-rev"
"$ROOT/tools/outputs.sh" "$ROOT/src" "$TMP/out-tree"
code=0
diff -r "$TMP/out-rev" "$TMP/out-tree" || code=$?
exit $code
