#!/bin/sh
# Run every sweep bench serially (--jobs=1) and in parallel
# (--jobs=N), verify the parallel run reproduces the serial stats
# byte for byte, and record wall-clock and speedup per sweep in
# BENCH_sweeps.json - the start of the perf trajectory.  Then time
# all twelve paper benches run one after another, at --jobs=1 and at
# --jobs=N (the cost of regenerating every paper table and figure),
# and add that as the "paper_tables" row.  Finally run the
# host-throughput bench (firefly_perf) and record its grid in
# BENCH_perf.json - the baseline scripts/check.sh perf compares
# against.
#
#   scripts/bench_all.sh [builddir] [jobs]
#
# Defaults: builddir = build, jobs = nproc.  Exits nonzero if any
# bench fails or any parallel stats file diverges from its serial
# twin (the determinism contract: same seed => identical stats,
# independent of --jobs).
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
builddir="${1:-$repo/build}"
jobs="${2:-$(nproc)}"
out="$repo/BENCH_sweeps.json"

sweeps="bench_protocols bench_scaling bench_line_size bench_migration \
bench_cvax_upgrade bench_table1_estimated"
papers="bench_fig3_states bench_fig4_mbus_timing bench_table1_estimated \
bench_table2_measured bench_protocols bench_scaling bench_line_size \
bench_migration bench_cvax_upgrade bench_io_dma bench_mdc_display \
bench_rpc"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

now_ns() { date +%s%N; }

for bench in $sweeps; do
    bin="$builddir/bench/$bench"
    [ -x "$bin" ] || { echo "missing $bin (build first)" >&2; exit 1; }

    echo "== $bench --jobs=1"
    t0=$(now_ns)
    "$bin" --jobs=1 --stats-json="$tmpdir/$bench.serial.json" \
        > /dev/null
    t1=$(now_ns)

    echo "== $bench --jobs=$jobs"
    "$bin" --jobs="$jobs" --stats-json="$tmpdir/$bench.parallel.json" \
        > /dev/null
    t2=$(now_ns)

    identical=na
    if [ -s "$tmpdir/$bench.serial.json" ]; then
        if cmp -s "$tmpdir/$bench.serial.json" \
                  "$tmpdir/$bench.parallel.json"; then
            identical=true
        else
            echo "$bench: stats diverge between --jobs=1 and" \
                 "--jobs=$jobs" >&2
            exit 1
        fi
    fi
    echo "$bench $((t1 - t0)) $((t2 - t1)) $identical" \
        >> "$tmpdir/rows"
done

# One row for the whole set of paper benches, each pass in one go.
run_papers() {
    for bench in $papers; do
        bin="$builddir/bench/$bench"
        [ -x "$bin" ] || { echo "missing $bin (build first)" >&2; exit 1; }
        "$bin" --jobs="$1" > /dev/null
    done
}
echo "== paper tables --jobs=1"
t0=$(now_ns)
run_papers 1
t1=$(now_ns)
echo "== paper tables --jobs=$jobs"
run_papers "$jobs"
t2=$(now_ns)
echo "paper_tables $((t1 - t0)) $((t2 - t1)) na" >> "$tmpdir/rows"

python3 - "$tmpdir/rows" "$jobs" "$out" <<'EOF'
import json, os, sys, time

rows_path, jobs, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sweeps = []
for line in open(rows_path):
    bench, serial_ns, parallel_ns, identical = line.split()
    serial_s, parallel_s = int(serial_ns) / 1e9, int(parallel_ns) / 1e9
    sweeps.append({
        "bench": bench,
        "seconds_jobs1": round(serial_s, 3),
        f"seconds_jobs{jobs}": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "stats_identical": {"true": True, "na": None}[identical],
    })
host_cpu = None
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            host_cpu = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
doc = {
    "schema": "firefly-bench-sweeps-v1",
    "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "host_cores": os.cpu_count(),
    "host_cpu": host_cpu,
    "jobs": jobs,
    "sweeps": sweeps,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
EOF

echo "== firefly_perf"
"$builddir/bench/firefly_perf" --perf-json="$repo/BENCH_perf.json"
echo "wrote $repo/BENCH_perf.json"
