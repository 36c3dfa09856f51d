#!/usr/bin/env bash
# A/A check of the benchmark's own noise: two interleaved sets of full
# runs of the same build (A B A B A B), set medians compared for every
# (workload, end-to-end metric) against the bounds in BENCHMARK.json.
# Prints a markdown report (committed as benchmark/NOISE.md) and exits
# non-zero if any pair differs by more than its bound.
#
#   benchmark/selfcheck.sh [ROUNDS]     ROUNDS per set, default and minimum 3
set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
REPO="$(cd "$HERE/.." && pwd)"
ROUNDS="${1:-3}"
[ "$ROUNDS" -ge 3 ] || { echo "selfcheck.sh: at least 3 rounds per set" >&2; exit 2; }

SECONDS_PER_RUN="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$REPO/BENCHMARK.json")"
LOG="$HERE/out/selfcheck.jsonl"
mkdir -p "$HERE/out"
: > "$LOG"

bash "$HERE/run.sh" --self-test 1>&2
for round in $(seq 1 "$ROUNDS"); do
  for set in A B; do
    for workload in hot-read cold-read degraded-repair ingest-mix; do
      echo "selfcheck: round $round set $set $workload" >&2
      output="$(bash "$HERE/run.sh" --workload "$workload" --seed "$round" --seconds "$SECONDS_PER_RUN" --trace 0)"
      FINGERPRINT="$(grep -m1 '^fingerprint: ' <<<"$output")"
      printf '{"set":"%s","round":%s,"workload":"%s","result":%s}\n' \
        "$set" "$round" "$workload" "$(tail -n 1 <<<"$output")" >> "$LOG"
    done
  done
done

python3 - "$REPO/BENCHMARK.json" "$LOG" "$ROUNDS" "$FINGERPRINT" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
rounds = int(sys.argv[3])
bounds = {m["name"]: m for m in bench["end_to_end"]}
# Counts repeat exactly for one seed; everything else is a timing.
counts = {"stored_per_user_byte", "io_bytes_per_user_byte", "alloc_bytes_per_user_byte", "approx_psnr_db"}

print("# stackbench noise report (A/A)")
print()
print(f"`{sys.argv[4]}`")
print()
print(f"Two interleaved sets of {rounds} full runs of one build (A B A B ...), seeds 1..{rounds}, "
      f"{bench['run_seconds']} s measured per run. `diff` is |median B - median A| / median A; "
      "`spread` is (max - min) / median over all runs of both sets.")
print()
print("| workload | metric | unit | median A | median B | diff % | bound % | spread % | verdict |")
print("|---|---|---|---:|---:|---:|---:|---:|---|")
violations, notable, bad_runs = [], [], 0
for w in [x["name"] for x in bench["workloads"]]:
    for name, meta in bounds.items():
        vals = {s: [r["result"]["metrics"][name]["value"] for r in runs if r["workload"] == w and r["set"] == s]
                for s in "AB"}
        a, b = statistics.median(vals["A"]), statistics.median(vals["B"])
        both = vals["A"] + vals["B"]
        diff = abs(b - a) / a
        spread = (max(both) - min(both)) / statistics.median(both)
        verdict = "ok"
        if diff > meta["bound"]:
            verdict = "VIOLATION"
            violations.append((w, name))
        elif name in counts and round(a, 3) != round(b, 3):
            verdict = "VIOLATION (count differs)"
            violations.append((w, name))
        elif name not in counts and diff > meta["bound"] / 2:
            verdict = "over half the bound"
            notable.append((w, name, diff))
        print(f"| {w} | {name} | {meta['unit']} | {a:.4f} | {b:.4f} | {100*diff:.2f} | "
              f"{100*meta['bound']:.0f} | {100*spread:.2f} | {verdict} |")
for r in runs:
    res = r["result"]
    if not res["correct"] or res["failed"]:
        bad_runs += 1
print()
print(f"Runs: {len(runs)}; runs with failed ops or incorrect output: {bad_runs}.")
if notable:
    print()
    print("Timing pairs that differ by more than half their bound:")
    for w, name, diff in notable:
        print(f"- {w} / {name}: {100*diff:.2f} % (see the README section on noise for the cause)")
if violations or bad_runs:
    print()
    print("FAILED:", ", ".join(f"{w}/{n}" for w, n in violations) or "incorrect runs")
    sys.exit(1)
print()
print("All pairs within their bounds.")
PY
