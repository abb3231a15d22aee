#!/usr/bin/env bash
# Exit-code contract of flexiwalker_cli: 0 ok, 1 usage error or unreadable
# file, 2 a serving mode under a baseline engine, 3 malformed input. A
# --connect session keeps going past a failed request (a server error or a
# request timeout) and exits 1 after its "received ..." summary if any
# request failed. A flag given outside the modes it applies to is refused,
# never ignored, and the walks written to --out do not depend on --threads,
# nor, for first-order workloads, on whether the run is one-shot or out of
# core.
#
#   bash tests/cli_test.sh <path to flexiwalker_cli>
set -u
cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# expect <code> <stdin> <flag>...: runs the CLI on <stdin> and checks its
# exit code.
expect() {
  local want=$1 input=$2
  shift 2
  printf '%b' "$input" | "$cli" "$@" > "$work/stdout" 2> "$work/stderr"
  local got=$?
  if [ "$got" != "$want" ]; then
    fail "exit $got, want $want: flexiwalker_cli $*"
    sed 's/^/  stderr: /' "$work/stderr"
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
# Queries are claimed one way, so there is no dispensation flag to give.
expect 1 "" "${oneshot[@]}" --chunk 64
expect 1 "" "${oneshot[@]}" --steal on
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
  fail "--out walks differ between --threads 1 and 4 (or are not 64 lines)"
fi

# One EdgeCost ratio in every mode: out of core, a first-order workload
# walks exactly as it does one-shot, and both summaries name the ratio.
for workload in deepwalk ppr; do
  walks=(--dataset YT --workload "$workload" --queries 256 --length 16)
  expect 0 "" "${walks[@]}" --out "$work/$workload-oneshot.txt"
  grep -q 'EdgeCost ratio 1.00 (host)' "$work/stdout" || fail "one-shot $workload: no host ratio"
  expect 0 "" "${walks[@]}" --block-bytes 4096 --cache-blocks 2 --out "$work/$workload-ooc.txt"
  grep -q 'EdgeCost ratio 1.00 (host)' "$work/stdout" || fail "out-of-core $workload: no host ratio"
  if [ "$(wc -l < "$work/$workload-oneshot.txt")" != 256 ] ||
      ! cmp -s "$work/$workload-oneshot.txt" "$work/$workload-ooc.txt"; then
    fail "$workload --out walks differ between one-shot and out of core"
  fi
done

# --connect against a --listen server on an ephemeral port: a failed
# request (an unregistered workload id, an out-of-range start) keeps the
# session going, and the exit code reports it.
mkfifo "$work/serverctl"
"$cli" --dataset YT --workload deepwalk --length 8 --listen 0 < "$work/serverctl" \
    > "$work/server.log" 2>&1 &
server=$!
exec 3> "$work/serverctl"
port=
for _ in $(seq 200); do
  port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' "$work/server.log")
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  fail "--listen 0 printed no port"
  sed 's/^/  server: /' "$work/server.log"
else
  expect 0 "0 1 2\n" --connect "$port"
  expect 1 "0 1\n" --connect "$port" --workload-id 9
  grep -q 'unknown workload' "$work/stderr" || fail "--workload-id 9 printed no 'unknown workload'"
  expect 1 "99999999\n3 4\n" --connect "$port"
  grep -q 'received 1 results (2 walks)' "$work/stdout" ||
      fail "a failed request ended the --connect session"
fi
echo quit >&3
exec 3>&-
wait "$server" || fail "the --listen server exited non-zero"

if [ "$failures" != 0 ]; then
  echo "$failures CLI contract check(s) failed"
  exit 1
fi
echo "all CLI contract checks passed"
