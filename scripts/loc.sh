#!/usr/bin/env bash
# The two size figures ROADMAP.md and CHANGES.md quote, over the Rust
# sources under the given paths (default: crates/) outside shims/ and
# */tests/, each file cut at its first `#[cfg(test)]`, `tests.rs`
# modules excluded: all remaining lines (the PR 13/14 figure), and the
# non-blank, non-comment ones among them (the simplicity guide's count).
set -euo pipefail
cd "$(dirname "$0")/.."
find "${@:-crates}" -name '*.rs' -not -path '*/shims/*' -not -path '*/tests/*' \
    -not -name tests.rs -print0 |
    xargs -0 awk '
        FNR == 1 { cut = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
        cut { next }
        { lines++ }
        !/^[[:space:]]*(\/\/.*)?$/ { code++ }
        END { printf "%d lines, %d code\n", lines, code }'
