#!/usr/bin/env bash
# stackbench in one command: build offline if needed, run, verify every
# reply, print every metric by name with its unit.
#
#   benchmark/run.sh                                  all four workloads, end to end
#   benchmark/run.sh --trace 1                        all four, per-layer (traced) run
#   benchmark/run.sh --workload cold-read --seed 2    one workload
#   benchmark/run.sh --self-test                      the benchmark's own checks
#
# Flags after the script name go to stackbench unchanged:
#   --workload W   hot-read | cold-read | degraded-repair | ingest-mix
#   --seed N       inputs are a pure function of N (default 1)
#   --seconds S    wall time to measure per workload (default 12)
#   --trace 0|1    0: end-to-end metrics; 1: per-layer metrics + span file
#
# The last line of standard output is the result as one JSON object;
# build chatter goes to standard error. Exit code is non-zero if the
# build fails or any op fails.
set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
REPO="$(cd "$HERE/.." && pwd)"
BIN="$HERE/out/stackbench"

stale() {
  [ ! -x "$BIN" ] && return 0
  [ -d "$REPO/crates" ] || return 1
  [ -n "$(find "$REPO/crates" "$REPO/tools/offline" "$HERE/src" "$HERE/build.sh" \
            -newer "$BIN" \( -name '*.rs' -o -name build.sh \) -print -quit)" ]
}
if stale; then
  bash "$HERE/build.sh" 1>&2
fi

case " $* " in
  *" --workload "* | *" --self-test "*)
    exec "$BIN" "$@"
    ;;
esac

status=0
for workload in hot-read cold-read degraded-repair ingest-mix; do
  "$BIN" --workload "$workload" "$@" || status=$?
done
exit "$status"
