#!/bin/sh
# bench.sh — run the benchmark suite and record the perf trajectory.
#
# Emits BENCH_<YYYY-MM-DD>.<run>.json in the repo root (or $1 if
# given): one JSON object per benchmark with name, iterations, ns/op,
# bytes/op and allocs/op, plus host metadata for comparing runs. The
# run suffix is monotonic per day, so same-day re-runs never clash and
# "latest" is decided by the (date, run) in the name — not by mtime,
# which a git checkout flattens. If a previous BENCH_*.json exists, a
# report-only delta table against the latest one is printed after the
# run. Keep the JSON files out of git or check them in deliberately;
# EXPERIMENTS.md quotes the headline numbers.
#
# Usage: scripts/bench.sh [-universe huge] [outfile]
#        scripts/bench.sh -compare OLD.json NEW.json
#        scripts/bench.sh -gate [OLD.json] NEW.json
#        scripts/bench.sh -latest
#   BENCH=<regex>       benchmarks to run (default: the counting/selection core;
#                       BenchmarkCoordHeartbeat is left out on purpose: its
#                       time is the disk's fsync, not the code)
#   BENCHTIME=<n>       -benchtime value (default: go test's heuristic)
#   GATE_THRESHOLD=<p>  -gate failure threshold in percent (default: 15)
#
# -universe huge switches to the lazy-census tier: a ~50M-host synthetic
# census (TASS_HUGE_HOSTS overrides) measured by BenchmarkOpenSnapshot
# (cold-open latency, lazy vs eager), BenchmarkLazyCount (first-touch
# decode cost and resident block count) and BenchmarkVarintDecode. The
# tier writes the same JSON shape; records from different tiers simply
# share no benchmark names.
#
# -compare prints a report-only ns/op delta table. -gate prints the
# same table but exits non-zero when any benchmark present in both
# files regressed by more than GATE_THRESHOLD percent; with one
# argument the old side defaults to the latest committed BENCH_*.json.
# A tier absent from the baseline (no common benchmarks at all) is
# skipped with a warning, not failed — a new tier's first record has
# nothing to regress against. Absolute ns/op only means something on
# comparable hardware, so when the two records name different CPUs the
# gate downgrades itself to report-only instead of failing on the
# machine gap. -latest prints the name of the latest record and exits.
set -eu

cd "$(dirname "$0")/.."

# host_cpu: this machine's CPU model, for gate comparability checks.
host_cpu() {
    awk -F': *' '/model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null ||
        uname -m
}

# record_cpu FILE: the "cpu" field of a record ("" on older records).
record_cpu() {
    awk '/"cpu":/ { split($0, q, "\""); print q[4]; exit }' "$1"
}

# latest_bench: newest record by the (date, run) encoded in the name.
latest_bench() {
    ls -1 BENCH_*.json 2>/dev/null | awk '{
        d = $0
        sub(/^BENCH_/, "", d)
        sub(/\.json$/, "", d)
        n = 1
        if (match(d, /\.[0-9]+$/)) {
            n = substr(d, RSTART + 1) + 0
            d = substr(d, 1, RSTART - 1)
        }
        printf "%s.%09d %s\n", d, n, $0
    }' | sort | tail -n 1 | cut -d" " -f2
}

# delta OLD NEW THRESHOLD: print a ns/op delta table; exit 1 when
# THRESHOLD >= 0 and any common benchmark regressed past it, or when a
# threshold is set but no benchmark was comparable at all (a gate that
# compared nothing must not pass vacuously). Names are normalized by
# stripping go test's -GOMAXPROCS suffix, so records from hosts with
# different core counts still line up.
delta() {
    awk -v thr="$3" '
        FNR == 1 { fi++ }
        /"name":/ {
            split($0, q, "\"")
            name = q[4]
            sub(/-[0-9]+$/, "", name)
            if (match($0, /"ns_per_op": *[0-9.eE+-]+/)) {
                val = substr($0, RSTART, RLENGTH)
                sub(/.*: */, "", val)
                if (fi == 1) { old[name] = val }
                else if (!(name in new)) { new[name] = val; order[n++] = name }
            }
        }
        END {
            fail = 0
            compared = 0
            printf "%-55s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
            for (i = 0; i < n; i++) {
                name = order[i]
                if (name in old) {
                    compared++
                    d = (new[name] - old[name]) / old[name] * 100
                    flag = ""
                    if (thr >= 0 && d > thr) { flag = "  REGRESSION"; fail = 1 }
                    printf "%-55s %14.0f %14.0f %+8.1f%%%s\n", name, old[name], new[name], d, flag
                } else {
                    printf "%-55s %14s %14.0f %9s\n", name, "-", new[name], "(new)"
                }
            }
            if (thr >= 0 && compared == 0) {
                # A disjoint benchmark set means a different tier (e.g.
                # the first huge-tier record with only default-tier
                # baselines committed): nothing to regress against, so
                # skip rather than fail.
                print "gate: no benchmark of this tier in the baseline; skipping" > "/dev/stderr"
            }
            exit fail
        }' "$1" "$2"
}

tier=""
if [ "${1:-}" = "-universe" ]; then
    tier="${2:?bench.sh: -universe needs a tier name (huge)}"
    shift 2
fi

case "${1:-}" in
-compare)
    delta "$2" "$3" -1
    exit 0
    ;;
-gate)
    thr="${GATE_THRESHOLD:-15}"
    if [ $# -ge 3 ]; then
        old="$2" new="$3"
    else
        old=$(latest_bench)
        new="$2"
        if [ -z "$old" ]; then
            echo "bench.sh: -gate: no committed BENCH_*.json to compare against" >&2
            exit 0
        fi
    fi
    oldcpu=$(record_cpu "$old")
    newcpu=$(record_cpu "$new")
    # Downgrade only on a *proven* CPU mismatch. A record without the
    # field (pre-gate bench.sh, e.g. the base-commit side of the CI
    # A/B) stays gating: the comparison may well be same-machine, and
    # an unprovable one should fail closed, not pass vacuously.
    if [ -n "$oldcpu" ] && [ -n "$newcpu" ] && [ "$oldcpu" != "$newcpu" ]; then
        echo "gate: baseline CPU ($oldcpu) != this CPU ($newcpu); report-only" >&2
        delta "$old" "$new" -1 || true
        exit 0
    fi
    echo "gate: $old -> $new (fail above +$thr% ns/op)" >&2
    delta "$old" "$new" "$thr"
    exit $?
    ;;
-latest)
    latest_bench
    exit 0
    ;;
esac

# Default output name: a monotonic per-day run suffix, never clobbering
# or shadowing an existing record.
if [ -n "${1:-}" ]; then
    out="$1"
else
    day=$(date +%Y-%m-%d)
    run=$(ls -1 "BENCH_$day".json "BENCH_$day".*.json 2>/dev/null | awk '{
        d = $0
        sub(/^BENCH_[0-9-]*/, "", d)
        sub(/\.json$/, "", d)
        sub(/^\./, "", d)
        n = (d == "") ? 1 : d + 0
        if (n > max) max = n
    } END { print max + 1 }')
    out="BENCH_$day.$run.json"
fi
if [ "$tier" = "huge" ]; then
    export TASS_BENCH_UNIVERSE=huge
    bench="${BENCH:-BenchmarkOpenSnapshot|BenchmarkLazyCount|BenchmarkVarintDecode}"
elif [ -n "$tier" ]; then
    echo "bench.sh: unknown -universe tier \"$tier\" (want huge)" >&2
    exit 2
else
    bench="${BENCH:-BenchmarkSparseCount|BenchmarkIntersect|BenchmarkSelect$|BenchmarkSelect6$|BenchmarkRank$|BenchmarkRunAll$|BenchmarkBuildWorld$|BenchmarkChurnStep$|BenchmarkScanCycle|BenchmarkChurnToSelect|BenchmarkIncrementalRank|BenchmarkAblationCounting|BenchmarkPolicyLimiter|BenchmarkVarintDecode}"
fi
benchtime="${BENCHTIME:-}"

args="-run=^$ -bench=$bench -benchmem -count=1"
if [ -n "$benchtime" ]; then
    args="$args -benchtime=$benchtime"
fi

# The most recent previous record, for the post-run delta table.
prev=$(latest_bench | grep -Fxv "$out" || true)

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# shellcheck disable=SC2086 # args are intentionally word-split
go test $args . | tee "$tmp"

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "goos": "%s",\n' "$(go env GOOS)"
    printf '  "goarch": "%s",\n' "$(go env GOARCH)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "cpu": "%s",\n' "$(host_cpu)"
    printf '  "benchmarks": [\n'
    awk '$1 ~ /^Benchmark/ && $4 == "ns/op" {
        if (n++) printf ",\n"
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", $1, $2, $3
        if ($6 == "B/op") printf ", \"bytes_per_op\": %s", $5
        if ($8 == "allocs/op") printf ", \"allocs_per_op\": %s", $7
        printf "}"
    }
    END { printf "\n" }' "$tmp"
    printf '  ]\n'
    printf '}\n'
} > "$out"

echo "wrote $out" >&2

if [ -n "$prev" ]; then
    echo "" >&2
    echo "delta vs $prev (report-only):" >&2
    delta "$prev" "$out" -1 >&2 || true
fi
