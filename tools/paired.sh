#!/usr/bin/env bash
# Paired benchmark runs of two checkouts, the way a change is compared
# with its parent: perfbench/run.sh runs in BASE and in CHANGE, one after
# the other, N times, the order swapped every pair so that a drift of the
# host's speed falls on both sides. Pair i runs seed SEED+i-1 on both.
#
#   bash tools/paired.sh [-n PAIRS] [--workload random|corpus|observed]
#                        [--seconds S] [--seed N] [--trace 0|1] BASE CHANGE
#
# BASE and CHANGE are checkout directories (git clone or git archive of
# each commit); each builds its own perfbench. Defaults: 2 pairs of 45 s
# corpus runs at seed 1, untraced. Each run's result line goes to stderr.
# Stdout is one row per metric of the result JSON: the median and the
# quartiles of each side, and the ratio of the medians (CHANGE / BASE).
# A metric with a bound in BENCHMARK.json is flagged SPREAD when, on
# either side, its interquartile range exceeds that bound as a fraction
# of its median: its runs spread too widely to tell a change by.
# Needs jq.
set -euo pipefail

pairs=2 workload=corpus seconds=45 seed=1 trace=0
while [ $# -gt 0 ]; do
  case $1 in
    -n) pairs=$2; shift 2 ;;
    --workload) workload=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    -*) echo "paired.sh: unknown option $1" >&2; exit 2 ;;
    *) break ;;
  esac
done
if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: paired.sh [-n PAIRS] [--workload W] [--seconds S] [--seed N] [--trace 0|1] BASE CHANGE" >&2
  exit 2
fi
base=$(cd "$1" && pwd) change=$(cd "$2" && pwd)
bench=$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json
samples=$(mktemp)
trap 'rm -f "$samples"' EXIT

# run SIDE DIR SEED: one perfbench run, its metrics appended to $samples
run() {
  local line
  line=$(bash "$2/perfbench/run.sh" --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)
  echo "$1 seed $3: $line" >&2
  echo "$line" | jq -r --arg side "$1" \
    '.metrics | to_entries[] | "\($side) \(.key) \(.value.value)"' >>"$samples"
}

for i in $(seq 1 "$pairs"); do
  s=$((seed + i - 1))
  if [ $((i % 2)) -eq 1 ]; then
    run base "$base" "$s"; run change "$change" "$s"
  else
    run change "$change" "$s"; run base "$base" "$s"
  fi
done

bounds=$(jq -r '.end_to_end[] | "\(.name) \(.bound)"' "$bench")

# One row per metric: quartiles by linear interpolation between the
# sorted samples of each side.
sort -k1,1 -k2,2 -k3,3g "$samples" | awk -v bounds="$bounds" '
  BEGIN {
    n = split(bounds, b, "\n")
    for (i = 1; i <= n; i++) { split(b[i], f, " "); bound[f[1]] = f[2] }
  }
  { k = $1 SUBSEP $2; v[k, ++c[k]] = $3; keys[$2] = 1 }
  function q(side, m, p,   k, n, x, lo) {
    k = side SUBSEP m; n = c[k]
    if (n == 0) return "nan"
    x = 1 + (n - 1) * p; lo = int(x)
    if (lo >= n) return v[k, n]
    return v[k, lo] + (x - lo) * (v[k, lo + 1] - v[k, lo])
  }
  function spread(side, m,   med) {
    med = q(side, m, 0.5)
    return med == 0 ? 0 : (q(side, m, 0.75) - q(side, m, 0.25)) / (med < 0 ? -med : med)
  }
  END {
    printf "%-40s %14s %27s %14s %27s %8s\n", "metric", "base median", "[q1, q3]", \
      "change median", "[q1, q3]", "ratio"
    for (m in keys) order[++nk] = m
    for (i = 1; i <= nk; i++) for (j = i + 1; j <= nk; j++)
      if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
    for (i = 1; i <= nk; i++) {
      m = order[i]
      bm = q("base", m, 0.5); cm = q("change", m, 0.5)
      flag = ""
      if (m in bound && (spread("base", m) > bound[m] || spread("change", m) > bound[m]))
        flag = "  SPREAD > " bound[m]
      printf "%-40s %14.6g [%12.6g, %12.6g] %14.6g [%12.6g, %12.6g] %8.3f%s\n", m, \
        bm, q("base", m, 0.25), q("base", m, 0.75), \
        cm, q("change", m, 0.25), q("change", m, 0.75), (bm == 0 ? 0 : cm / bm), flag
    }
  }'
