#!/usr/bin/env bash
# Runs a test binary as many copies at once, round after round, so that
# assertions which depend on the thread schedule meet an oversubscribed
# host (more runnable threads than cores).
#
#   tools/oversubscribe.sh <copies> <rounds> <binary> [gtest args...]
#
# Each round starts <copies> instances together and waits for all of them.
# Prints the output of every failing instance and exits non-zero if any
# instance of any round failed.
set -u
if [ "$#" -lt 3 ]; then
  echo "usage: $0 <copies> <rounds> <binary> [gtest args...]" >&2
  exit 2
fi
copies=$1
rounds=$2
binary=$3
shift 3
name=$(basename "$binary")
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

failed=0
for ((round = 1; round <= rounds; ++round)); do
  pids=()
  for ((i = 0; i < copies; ++i)); do
    "$binary" "$@" >"$logs/$i.log" 2>&1 &
    pids+=("$!")
  done
  for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
      echo "== $name: round $round, copy $i failed" >&2
      cat "$logs/$i.log" >&2
      failed=$((failed + 1))
    fi
  done
done
total=$((copies * rounds))
echo "$name: $((total - failed))/$total passed ($copies at once, $rounds rounds)"
[ "$failed" -eq 0 ]
