#!/bin/sh
# One-command verification: configure, build, and run the test suite,
# then smoke-test the flight recorder end to end.
#
#   scripts/check.sh                 # plain RelWithDebInfo build
#   scripts/check.sh address         # AddressSanitizer build
#   scripts/check.sh undefined       # UBSan build
#   scripts/check.sh thread          # ThreadSanitizer build
#   scripts/check.sh fuzz            # coherence fuzzing under ASan
#   scripts/check.sh faults          # fault injection under ASan
#   scripts/check.sh perf            # host-performance lane
#
# Each variant uses its own build directory so they do not trample
# one another's caches.  The thread variant runs the tests labelled
# "tsan" (sweep harness, observability - everything the
# parallel harness threads through) so new threading stays race-clean
# without paying TSan's ~10x slowdown on the whole cycle-level suite.
# The fuzz variant runs the "checker"-labelled tests plus the
# fixed-seed firefly_fuzz corpus (5 protocols x 3 machine shapes)
# under AddressSanitizer; see DESIGN.md section 9.  The faults
# variant runs the "faults"-labelled tests, the firefly_faults
# availability experiment (with a --jobs determinism check), and the
# fuzz corpus with fault injection armed, all under ASan with the
# coherence checker on; see DESIGN.md section 10.  The perf variant
# guards the host-performance work (DESIGN.md section 11): it proves
# idle fast-forward changes nothing observable (byte-identical stats
# exports with FIREFLY_NO_FASTFORWARD=1), that the idle-heavy
# speedup is still there, that the deterministic work counters (tick
# calls per cycle, snoop probes per transaction, events scheduled per
# cycle, cycles stepped rather than skipped per cycle) have not grown
# over the committed BENCH_perf.json baseline (strict: they do not
# depend on the host), and that throughput has not cratered against it
# (lenient threshold: hosts differ; the file tracks the trajectory).
set -eu

sanitize="${1:-}"
repo="$(cd "$(dirname "$0")/.." && pwd)"

case "$sanitize" in
    "")        builddir="$repo/build" ;;
    address)   builddir="$repo/build-asan" ;;
    undefined) builddir="$repo/build-ubsan" ;;
    thread)    builddir="$repo/build-tsan" ;;
    fuzz)      builddir="$repo/build-asan" ;;
    faults)    builddir="$repo/build-asan" ;;
    perf)      builddir="$repo/build" ;;
    *)
        echo "usage: $0 [address|undefined|thread|fuzz|faults|perf]" >&2
        exit 2
        ;;
esac

if [ "$sanitize" = fuzz ]; then
    cmake -B "$builddir" -S "$repo" -DFIREFLY_SANITIZE=address
    cmake --build "$builddir" -j "$(nproc)"
    (cd "$builddir" && ctest --output-on-failure -j "$(nproc)" -L checker)
    # The full fixed-seed corpus, parallel, with a deeper reference
    # stream than the ctest default.  Any violation exits nonzero
    # with the checker's diagnostic and the reproduction seed.
    "$builddir/bench/firefly_fuzz" --seeds=10 --steps=4000 \
        --jobs="$(nproc)"
    echo "check.sh: all green (fuzz)"
    exit 0
fi

if [ "$sanitize" = faults ]; then
    cmake -B "$builddir" -S "$repo" -DFIREFLY_SANITIZE=address
    cmake --build "$builddir" -j "$(nproc)"
    (cd "$builddir" && ctest --output-on-failure -j "$(nproc)" -L faults)
    faultdir="$(mktemp -d)"
    trap 'rm -rf "$faultdir"' EXIT
    # The availability experiment: recoverable faults recover, device
    # timeouts fail gracefully, a fenced CPU leaves a working N-1
    # machine - and the same fault config exports a byte-identical
    # stats file whatever --jobs is.
    "$builddir/bench/firefly_faults" --jobs=1 \
        --stats-json="$faultdir/serial.json" > /dev/null
    "$builddir/bench/firefly_faults" --jobs=8 \
        --stats-json="$faultdir/parallel.json" > /dev/null
    cmp "$faultdir/serial.json" "$faultdir/parallel.json" || {
        echo "fault stats diverge between --jobs=1 and --jobs=8" >&2
        exit 1
    }
    # The coherence fuzz corpus with faults armed: injected parity,
    # ECC, and device timeouts must never perturb load values.
    "$builddir/bench/firefly_fuzz" --seeds=4 --steps=1500 \
        --fault-rate=0.01 --jobs="$(nproc)"
    # Fault flags exist only on the fault-aware benches; everything
    # else must reject them as unknown arguments.
    for bench in bench_scaling bench_protocols bench_io_dma; do
        if "$builddir/bench/$bench" --fault-rate=0.01 \
                > /dev/null 2>&1; then
            echo "$bench accepted --fault-rate; it must reject it" >&2
            exit 1
        fi
    done
    echo "check.sh: all green (faults)"
    exit 0
fi

if [ "$sanitize" = perf ]; then
    cmake -B "$builddir" -S "$repo"
    cmake --build "$builddir" -j "$(nproc)"
    perfdir="$(mktemp -d)"
    trap 'rm -rf "$perfdir"' EXIT

    # 1. Fast-forward must be invisible: the perf bench's headline
    #    stat export and a standard event-heavy bench's export must be
    #    byte-identical with the fast path on and forced off.
    "$builddir/bench/firefly_perf" --perf-reps=1 --perf-seconds=0.01 \
        --stats-json="$perfdir/perf.fast.json" \
        --perf-json="$perfdir/perf.fast.perf.json" > /dev/null
    FIREFLY_NO_FASTFORWARD=1 \
        "$builddir/bench/firefly_perf" --perf-reps=1 \
        --perf-seconds=0.01 \
        --stats-json="$perfdir/perf.slow.json" > /dev/null
    cmp "$perfdir/perf.fast.json" "$perfdir/perf.slow.json" || {
        echo "stats diverge between fast-forward and forced-slow" >&2
        exit 1
    }
    "$builddir/bench/bench_io_dma" \
        --stats-json="$perfdir/dma.fast.json" > /dev/null
    FIREFLY_NO_FASTFORWARD=1 "$builddir/bench/bench_io_dma" \
        --stats-json="$perfdir/dma.slow.json" > /dev/null
    cmp "$perfdir/dma.fast.json" "$perfdir/dma.slow.json" || {
        echo "bench_io_dma stats diverge with fast-forward off" >&2
        exit 1
    }

    # 2. The point of the machinery: a real measurement run, checked
    #    for the idle-heavy speedup and (leniently - hosts vary) for
    #    throughput against the committed baseline.
    "$builddir/bench/firefly_perf" \
        --perf-json="$perfdir/perf.json" > /dev/null
    python3 - "$perfdir/perf.json" "$repo/BENCH_perf.json" <<'EOF'
import json, sys

def with_stepped(points):
    # Stepped cycles per cycle: the share of cycles idle fast-forward
    # did not skip, derived from the existing export.
    for p in points:
        p["stepped_per_cycle"] = 1 - p["ff_skipped_cycles"] / p["sim_cycles"]
    return points

cur = json.load(open(sys.argv[1]))
points = {(p["workload"], p["protocol"], p["cpus"]): p
          for p in with_stepped(cur["points"])}

# Idle fast-forward must still deliver: >= 3x over the forced-slow
# path on every idle-heavy point (measured well above 10x in
# practice; 3x is the contract).
for key, p in points.items():
    if key[0] != "idle":
        continue
    if p["speedup_vs_slow"] < 3.0:
        sys.exit(f"idle point {key}: fast-forward speedup "
                 f"{p['speedup_vs_slow']:.2f}x < 3x")

# Trajectory check against the committed baseline.  Hosts differ, so
# only a collapse (< 0.4x of the recorded throughput) fails; slower
# hosts trip nothing, real regressions (an accidental O(n) in the
# cycle loop) trip everything.
try:
    base = json.load(open(sys.argv[2]))
except FileNotFoundError:
    print("no committed BENCH_perf.json; skipping trajectory check")
    sys.exit(0)
for bp in with_stepped(base["points"]):
    key = (bp["workload"], bp["protocol"], bp["cpus"])
    p = points.get(key)
    if p is None:
        continue
    ratio = p["fast_cycles_per_sec"] / bp["fast_cycles_per_sec"]
    if ratio < 0.4:
        sys.exit(f"point {key}: {p['fast_cycles_per_sec']:.3g} "
                 f"cycles/s is {ratio:.2f}x of the committed "
                 f"baseline - host-performance regression")
    # The work counters do not depend on the host: any increase over
    # the committed baseline is a regression (re-record the baseline
    # with scripts/bench_all.sh when a change lowers them).
    for counter in ("tick_calls_per_cycle", "snoop_calls_per_txn",
                    "events_per_cycle", "stepped_per_cycle"):
        if counter in bp and p[counter] > bp[counter] * (1 + 1e-9):
            sys.exit(f"point {key}: {counter} {p[counter]:.4f} exceeds "
                     f"the committed {bp[counter]:.4f}")

# The saturated 7-CPU Firefly point must keep the gating, the snoop
# filter and the exact idle jump doing their job (was 8.0
# ticks/cycle, 6.0 probes/txn, 0.9975 stepped cycles per cycle).
sat7 = points[("saturated", "Firefly", 7)]
if (sat7["tick_calls_per_cycle"] > 2.5 or
        sat7["snoop_calls_per_txn"] > 0.5 or
        sat7["stepped_per_cycle"] > 0.82):
    sys.exit(f"saturated 7-CPU point: {sat7['tick_calls_per_cycle']:.3f} "
             f"ticks/cycle (max 2.5), {sat7['snoop_calls_per_txn']:.3f} "
             f"snoops/txn (max 0.5), {sat7['stepped_per_cycle']:.3f} "
             f"stepped cycles/cycle (max 0.82)")
print("perf lane: fast/slow identical, idle speedup >= 3x, "
      "work counters within baseline, throughput within baseline "
      "envelope")
EOF
    echo "check.sh: all green (perf)"
    exit 0
fi

cmake -B "$builddir" -S "$repo" \
    ${sanitize:+-DFIREFLY_SANITIZE="$sanitize"}
cmake --build "$builddir" -j "$(nproc)"
if [ "$sanitize" = thread ]; then
    (cd "$builddir" && ctest --output-on-failure -j "$(nproc)" -L tsan)
    # A parallel sweep in a real bench binary must run race-free and
    # produce the same stats file as the serial loop - for the cache
    # sweep and for Table 2's two Topaz machines.
    tsandir="$(mktemp -d)"
    trap 'rm -rf "$tsandir"' EXIT
    for bench in bench_line_size bench_table2_measured; do
        "$builddir/bench/$bench" --jobs=1 \
            --stats-json="$tsandir/$bench.serial.json" > /dev/null
        "$builddir/bench/$bench" --jobs=4 \
            --stats-json="$tsandir/$bench.parallel.json" > /dev/null
        cmp "$tsandir/$bench.serial.json" \
            "$tsandir/$bench.parallel.json" || {
            echo "$bench stats diverge between --jobs=1 and --jobs=4" >&2
            exit 1
        }
    done
    # The fuzz corpus shares checker state across sweep workers; it
    # must be race-clean too - with and without fault injection.
    "$builddir/bench/firefly_fuzz" --jobs=4 > /dev/null
    "$builddir/bench/firefly_fuzz" --seeds=2 --steps=800 \
        --fault-rate=0.01 --jobs=4 > /dev/null
    echo "check.sh: all green (sanitize=thread)"
    exit 0
fi
(cd "$builddir" && ctest --output-on-failure -j "$(nproc)")

# Flight-recorder smoke test: the observed bench run must produce a
# parseable trace with the MBus phase instants and a stats export
# (obs_test covers the details; this checks the command-line plumbing
# in a real binary), and a debug flag that names no trace category
# must be a usage error.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
"$builddir/bench/bench_scaling" \
    --trace-out="$tmpdir/trace.json" \
    --stats-json="$tmpdir/stats.json" > /dev/null
for f in trace.json stats.json stats.json.timeseries.csv; do
    test -s "$tmpdir/$f" || { echo "missing $f" >&2; exit 1; }
done
python3 - "$tmpdir" <<'EOF'
import json, sys
d = sys.argv[1]
trace = json.load(open(f"{d}/trace.json"))
cats = {r.get("cat") for r in trace if r["ph"] != "M"}
assert {"MBus", "Cache", "Cpu", "Sched"} <= cats, cats
# The bus phases of paper Figure 4 are flight-recorder instants.
assert any(r["ph"] == "i" and r.get("cat") == "MBus" and
           r["name"] == "wdata+probe" for r in trace), "no MBus phases"
stats = json.load(open(f"{d}/stats.json"))
assert stats["name"] == "system"
EOF
# Debug flags: a name that is no trace category is a usage error.
fig4="$builddir/bench/bench_fig4_mbus_timing"
status=0
"$fig4" --debug-flags=Mbus > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "--debug-flags=Mbus exited $status, not 2" >&2
    exit 1
fi

echo "check.sh: all green${sanitize:+ (sanitize=$sanitize)}"
