#!/usr/bin/env bash
# bench_smoke.sh BENCH_EXE
#
# Quick end-to-end check of the bench telemetry pipeline, run from the
# @bench-smoke dune alias on every `dune runtest`:
#   1. a quick bench run must produce a valid provkit-bench/1 artifact;
#   2. comparing the artifact against itself must pass;
#   3. a synthetic 2x regression must make bench_compare.sh fail.
#
# The run's artifact is kept (not just checked and thrown away with the
# temp dir): it is copied to BENCH_<date>.json in BENCH_ARTIFACT_DIR
# (default: the working directory), so every runtest leaves a bench
# trajectory point.  When a committed BENCH_*.json baseline exists next
# to tools/, the fresh artifact is also compared against it — advisory
# only (a warning, not a failure): absolute timings are not portable
# across machines, and the hard gates below already cover the invariants
# that are.
set -eu

bench_exe="${1:?usage: bench_smoke.sh BENCH_EXE}"
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench_smoke.XXXXXX")"
trap 'rm -rf "$work"' EXIT

BENCH_QUICK=1 BENCH_OUT="$work/base.json" "$bench_exe" --json > "$work/stdout.txt" 2>&1 ||
  { echo "bench_smoke: bench run failed"; cat "$work/stdout.txt"; exit 1; }

grep -q '"schema": "provkit-bench/1"' "$work/base.json" ||
  { echo "bench_smoke: artifact missing provkit-bench/1 schema marker"; exit 1; }
grep -q '"ns_per_op":' "$work/base.json" ||
  { echo "bench_smoke: artifact has no ns_per_op rows"; exit 1; }

# The hot-path pairs (read cache, WAL group commit) and the matview
# pair (incremental update vs cold rescan) must be present, and each
# "after" side must beat its "before" side by at least 5x.
for row in hot-select-cold hot-select-cached wal-ingest-unbatched wal-ingest-batched \
           matview-update cold-rescan \
           stats-analyze estimate-error-heuristic estimate-error-stats \
           lint-full-tree lint-full-tree-cold alert-eval \
           daemon-ingest daemon-query-p99 range-strict-full-scan range-strict-index \
           E3-contextual-words E4-personalize-words E3-timectx-words E7-lineage-words \
           E12-pagerank-words E12-hits-words; do
  grep -q "\"name\":\"$row\"" "$work/base.json" ||
    { echo "bench_smoke: artifact missing expected row $row"; exit 1; }
done
check_speedup() {
  before="$(grep "\"name\":\"$1\"" "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
  after="$(grep "\"name\":\"$2\"" "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
  awk -v b="$before" -v a="$after" 'BEGIN { exit !(a > 0 && b >= 5 * a) }' ||
    { echo "bench_smoke: $2 ($after ns) is not >= 5x faster than $1 ($before ns)"; exit 1; }
}
check_speedup hot-select-cold hot-select-cached
check_speedup wal-ingest-unbatched wal-ingest-batched
check_speedup cold-rescan matview-update
# The strict-range planner fix: the reopened index path must beat the
# full scan at the same selectivity by at least 5x.
check_speedup range-strict-full-scan range-strict-index

# The daemon pair must carry real measurements: a fleet that ingested
# nothing or served no reads writes zeros here.
daemon_ns="$(grep '"name":"daemon-ingest"' "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
daemon_p99="$(grep '"name":"daemon-query-p99"' "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
awk -v i="$daemon_ns" -v p="$daemon_p99" 'BEGIN { exit !(i > 0 && p > 0) }' ||
  { echo "bench_smoke: daemon rows not positive (ingest=$daemon_ns p99=$daemon_p99)"; exit 1; }

# The estimate-error pair stores max error ratios (not latencies) in
# ns_per_op: the stats-guided estimator must be strictly more accurate
# than the heuristic on the skewed workload.
heur_err="$(grep '"name":"estimate-error-heuristic"' "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
stats_err="$(grep '"name":"estimate-error-stats"' "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
awk -v h="$heur_err" -v s="$stats_err" 'BEGIN { exit !(s >= 1 && h > s) }' ||
  { echo "bench_smoke: stats estimate error ($stats_err) not below heuristic ($heur_err)"; exit 1; }

# E3-contextual-words stores a count (minor words allocated per
# contextual search over the quick dataset's queries), not a latency.
# The count repeats exactly, so it is gated against a fixed ceiling:
# the 764 words/query this row measures once walks filter edges by the
# tags packed into the adjacency and the page sums map nodes through the
# store's dense page targets (952 with closure filters and a page
# lookup that allocated an option; 986 before one BM25 pass served every
# text query; 3,091 with a Hashtbl of reached nodes; 3,343 before that,
# with array postings, a dense BM25 accumulator and dense page sums;
# 7,725 with Imap postings and Hashtbl sums; 16,615 with the hash-table
# graph walks before that).
words="$(grep '"name":"E3-contextual-words"' "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
awk -v w="$words" 'BEGIN { exit !(w > 0 && w <= 764) }' ||
  { echo "bench_smoke: E3-contextual-words ($words words/query) above 764"; exit 1; }

# E4-personalize-words is the same kind of count for
# Personalize.expand over the same queries, gated at the 1,778
# words/query this row measures with tag-mask walks and dense page
# targets (1,970 before them; 2,009 before one BM25 pass; 4,862 with a
# Hashtbl expansion and a sort of every candidate term; 5,114 with an
# option per graph-scored node; 17,777 when it tokenized the terms).
personalize_words="$(grep '"name":"E4-personalize-words"' "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
awk -v w="$personalize_words" 'BEGIN { exit !(w > 0 && w <= 1778) }' ||
  { echo "bench_smoke: E4-personalize-words ($personalize_words words/query) above 1778"; exit 1; }

# E3-timectx-words is the same kind of count for Time_search.search
# over the quick dataset's dual-topic contexts, gated at the 4,378
# words/query it measures once a page's best gap reads its visits by
# tag and their open and close times without allocating (9,218 with an
# option, a tuple and an inner option per visit; 12,735 with a second,
# per-candidate scorer; 21,862 with a Hashtbl of candidates and a fold
# per score).
timectx_words="$(grep '"name":"E3-timectx-words"' "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
awk -v w="$timectx_words" 'BEGIN { exit !(w > 0 && w <= 4378) }' ||
  { echo "bench_smoke: E3-timectx-words ($timectx_words words/query) above 4378"; exit 1; }

# E7-lineage-words is the same kind of count for download lineage
# (Lineage.first_recognizable over the quick dataset's downloads),
# gated at the 124 words/query this row measures with the tag-mask walk
# (127 with a closure filter; 335 with the hand-rolled Hashtbl/Queue
# search).
lineage_words="$(grep '"name":"E7-lineage-words"' "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
awk -v w="$lineage_words" 'BEGIN { exit !(w > 0 && w <= 124) }' ||
  { echo "bench_smoke: E7-lineage-words ($lineage_words words/query) above 124"; exit 1; }

# E12-pagerank-words and E12-hits-words are the same kind of count for
# E12's search_pagerank and search_hits over the quick dataset's
# queries, gated at the 4,122 and 3,800 words/query these rows measure
# once the walk and the induced subgraph filter edges by packed tags and
# the page sums read dense page targets (6,961 and 6,639 before that;
# 6,963 and 6,641 before one BM25 pass; 10,414 and 10,092 before the
# members were gathered in a scratch and pages mapped as ints; 286,672
# and 328,250 with Hashtbl scores over a sub-Digraph).
for gate in E12-pagerank-words:4122 E12-hits-words:3800; do
  row="${gate%%:*}" ceiling="${gate##*:}"
  w="$(grep "\"name\":\"$row\"" "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
  awk -v w="$w" -v c="$ceiling" 'BEGIN { exit !(w > 0 && w <= c) }' ||
    { echo "bench_smoke: $row ($w words/query) above $ceiling"; exit 1; }
done

# Alert rules run on every pulse point; evaluation must stay cheap in
# absolute terms (ns per rule per point — 20 us is already two orders
# of magnitude above the expected cost, so this only catches blowups).
alert_ns="$(grep '"name":"alert-eval"' "$work/base.json" | sed 's/.*"ns_per_op":\([0-9.]*\).*/\1/')"
awk -v a="$alert_ns" 'BEGIN { exit !(a > 0 && a < 20000) }' ||
  { echo "bench_smoke: alert-eval ($alert_ns ns/rule/point) outside (0, 20000)"; exit 1; }

# Keep the trajectory: pick the committed baseline (if any) before the
# fresh copy lands, then persist this run's artifact.
baseline="$(ls "$root"/BENCH_*.json 2>/dev/null | sort | tail -1 || true)"
artifact_dir="${BENCH_ARTIFACT_DIR:-$PWD}"
stamp="$(date +%Y-%m-%d)"
cp "$work/base.json" "$artifact_dir/BENCH_$stamp.json" 2>/dev/null ||
  echo "bench_smoke: warning: could not persist artifact to $artifact_dir"
if [ -n "$baseline" ] && [ -f "$baseline" ]; then
  if bash "$here/bench_compare.sh" "$baseline" "$work/base.json" 400 > "$work/trend.txt" 2>&1; then
    echo "bench_smoke: within 400% of committed baseline $(basename "$baseline")"
  else
    echo "bench_smoke: warning: drift against committed baseline $(basename "$baseline") (advisory)"
    cat "$work/trend.txt"
  fi
fi

# First-run grace: a missing baseline must skip cleanly, not fail.
bash "$here/bench_compare.sh" "$work/no_such_baseline.json" "$work/base.json" > /dev/null ||
  { echo "bench_compare: missing baseline should be a clean skip"; exit 1; }

bash "$here/bench_compare.sh" "$work/base.json" "$work/base.json" > /dev/null ||
  { echo "bench_smoke: self-comparison unexpectedly flagged a regression"; exit 1; }

# Double every ns_per_op: a guaranteed >15% regression the comparator
# must catch, otherwise the regression gate is not actually gating.
awk '{
  if (match($0, /"ns_per_op":[0-9.]+/)) {
    v = substr($0, RSTART + 12, RLENGTH - 12)
    printf "%s\"ns_per_op\":%.3f%s\n", substr($0, 1, RSTART - 1), v * 2, substr($0, RSTART + RLENGTH)
  } else print
}' "$work/base.json" > "$work/slow.json"

if bash "$here/bench_compare.sh" "$work/base.json" "$work/slow.json" > /dev/null; then
  echo "bench_smoke: comparator missed a synthetic 2x regression"
  exit 1
fi

# Drop one expected row from the candidate: the comparator must fail on
# the missing benchmark, not silently compare the remainder.
grep -v '"name":"matview-update"' "$work/base.json" > "$work/missing.json"
if bash "$here/bench_compare.sh" "$work/base.json" "$work/missing.json" > /dev/null; then
  echo "bench_smoke: comparator missed a dropped benchmark row"
  exit 1
fi

echo "bench_smoke: artifact valid, comparator gates regressions and dropped rows"
