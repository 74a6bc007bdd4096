#!/usr/bin/env sh
# Prints the repository's non-test code-line count: non-blank *.rs lines
# under crates/ and src/ that are not `//` comments, excluding every
# tests/ directory. Unit-test modules inside source files are counted.
#
#   sh ci/code_lines.sh
set -eu
cd "$(dirname "$0")/.."
find crates src -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -exec cat {} + |
    grep -v '^[[:space:]]*$' |
    grep -cv '^[[:space:]]*//'
