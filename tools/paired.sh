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
# For each end-to-end metric of BENCHMARK.json (one with a bound), the
# "better" column counts the pairs in which CHANGE read better than
# BASE, in the direction the metric's "better" names. Such a metric is
# flagged WORSE when CHANGE's median is worse than BASE's by more than
# the bound, as a fraction of BASE's median, and SPREAD when, on either
# side, its interquartile range exceeds the bound as a fraction of its
# median: its runs spread too widely to tell a change by. The row
# "attempted" is each run's length in trials or cells, so that a metric
# that grows with the work a run does (peak_heap_mb) is read against it.
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

# run SIDE DIR SEED PAIR: one perfbench run, its length and metrics
# appended to $samples as "SIDE METRIC VALUE PAIR"
run() {
  local line
  line=$(bash "$2/perfbench/run.sh" --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)
  echo "$1 seed $3: $line" >&2
  echo "$line" | jq -r --arg side "$1" --arg pair "$4" \
    '"\($side) attempted \(.attempted) \($pair)",
     (.metrics | to_entries[] | "\($side) \(.key) \(.value.value) \($pair)")' >>"$samples"
}

for i in $(seq 1 "$pairs"); do
  s=$((seed + i - 1))
  if [ $((i % 2)) -eq 1 ]; then
    run base "$base" "$s" "$i"; run change "$change" "$s" "$i"
  else
    run change "$change" "$s" "$i"; run base "$base" "$s" "$i"
  fi
done

bounds=$(jq -r '.end_to_end[] | "\(.name) \(.bound) \(.better)"' "$bench")

# One row per metric: quartiles by linear interpolation between the
# sorted samples of each side.
sort -k1,1 -k2,2 -k3,3g "$samples" | awk -v bounds="$bounds" '
  BEGIN {
    n = split(bounds, b, "\n")
    for (i = 1; i <= n; i++) { split(b[i], f, " "); bound[f[1]] = f[2]; better[f[1]] = f[3] }
  }
  { k = $1 SUBSEP $2; v[k, ++c[k]] = $3; keys[$2] = 1; pv[$1, $2, $4] = $3; np = $4 > np ? $4 : np }
  # whether value x reads better than y for metric m
  function improves(m, x, y) { return better[m] == "higher" ? x > y : x < y }
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
    printf "%-40s %14s %27s %14s %27s %8s %7s\n", "metric", "base median", "[q1, q3]", \
      "change median", "[q1, q3]", "ratio", "better"
    for (m in keys) order[++nk] = m
    for (i = 1; i <= nk; i++) for (j = i + 1; j <= nk; j++)
      if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
    for (i = 1; i <= nk; i++) {
      m = order[i]
      bm = q("base", m, 0.5); cm = q("change", m, 0.5)
      flag = ""; wins = ""
      if (m in bound) {
        won = 0; both = 0
        for (p = 1; p <= np; p++)
          if (("base", m, p) in pv && ("change", m, p) in pv) {
            both++
            if (improves(m, pv["change", m, p], pv["base", m, p])) won++
          }
        wins = won "/" both
        worse = better[m] == "higher" ? bm - cm : cm - bm
        if (bm != 0 && worse / (bm < 0 ? -bm : bm) > bound[m]) flag = flag "  WORSE > " bound[m]
        if (spread("base", m) > bound[m] || spread("change", m) > bound[m])
          flag = flag "  SPREAD > " bound[m]
      }
      printf "%-40s %14.6g [%12.6g, %12.6g] %14.6g [%12.6g, %12.6g] %8.3f %7s%s\n", m, \
        bm, q("base", m, 0.25), q("base", m, 0.75), \
        cm, q("change", m, 0.25), q("change", m, 0.75), (bm == 0 ? 0 : cm / bm), wins, flag
    }
  }'
