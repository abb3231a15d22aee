#!/usr/bin/env bash
# Exit-code contract of flexiwalker_cli: 0 ok, 1 usage error or unreadable
# file, 2 a serving mode under a baseline engine, 3 malformed input. A flag
# given outside the modes it applies to is refused, never ignored, and the
# walks written to --out do not depend on --threads.
#
#   bash tests/cli_test.sh <path to flexiwalker_cli>
set -u
cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

# expect <code> <stdin> <flag>...: runs the CLI on <stdin> and checks its
# exit code.
expect() {
  local want=$1 input=$2
  shift 2
  printf '%b' "$input" | "$cli" "$@" > "$work/stdout" 2> "$work/stderr"
  local got=$?
  if [ "$got" != "$want" ]; then
    echo "FAIL: exit $got, want $want: flexiwalker_cli $*"
    sed 's/^/  stderr: /' "$work/stderr"
    failures=$((failures + 1))
  fi
}

oneshot=(--dataset YT --workload deepwalk --queries 16 --length 8)
serve=(--dataset YT --workload deepwalk --length 8 --serve)

expect 0 "" --help
# Input failures exit precisely instead of aborting on an exception.
expect 1 "" --dataset XX
expect 1 "" --graph "$work/missing.txt"
expect 1 "" --graph "$work"  # opens, but reading a directory fails
printf 'zero one\n' > "$work/junk.txt"
expect 3 "" --graph "$work/junk.txt"
: > "$work/empty.txt"
expect 3 "" --graph "$work/empty.txt"
expect 1 "" "${oneshot[@]}" --out "$work/no/such/dir/walks.txt"
expect 1 "0 1\n" "${serve[@]}" --out "$work/no/such/dir/walks.txt"
# Flags outside their modes, and the serving modes with each other.
expect 1 "" "${oneshot[@]}" --static-cache
expect 1 "" "${oneshot[@]}" --pipeline 4
expect 1 "" "${oneshot[@]}" --coalesce-us 5
expect 1 "" "${oneshot[@]}" --overflow bogus
expect 1 "" "${serve[@]}" --queries 4
expect 1 "" "${serve[@]}" --listen 0
expect 1 "" --connect 1 --threads 4
# A serving mode needs the flexiwalker engine; stdin batches parse strictly.
expect 2 "" "${serve[@]}" --engine flowwalker
expect 3 "0 1 x\n" "${serve[@]}"

# Paths depend on the seed and the query id only, never on --threads.
expect 0 "" --dataset YT --workload node2vec --queries 64 --length 16 --threads 1 \
    --out "$work/threads1.txt"
expect 0 "" --dataset YT --workload node2vec --queries 64 --length 16 --threads 4 \
    --out "$work/threads4.txt"
if [ "$(wc -l < "$work/threads1.txt")" != 64 ] ||
    ! cmp -s "$work/threads1.txt" "$work/threads4.txt"; then
  echo "FAIL: --out walks differ between --threads 1 and 4 (or are not 64 lines)"
  failures=$((failures + 1))
fi

if [ "$failures" != 0 ]; then
  echo "$failures CLI contract check(s) failed"
  exit 1
fi
echo "all CLI contract checks passed"
