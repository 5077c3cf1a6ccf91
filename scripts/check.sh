#!/bin/sh
# One-command verification: configure, build, and run the test suite,
# then smoke-test the flight recorder end to end.
#
#   scripts/check.sh                 # plain RelWithDebInfo build, -Werror
#                                    # (and a Release build, -Werror)
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
# The fuzz variant runs the "checker"-labelled tests, the
# fixed-seed firefly_fuzz corpus (5 protocols x 3 machine shapes) and
# all twelve paper benches with --check under AddressSanitizer; see
# DESIGN.md section 9.  The faults
# variant runs the "faults"-labelled tests, the firefly_faults
# availability experiment (with a --jobs determinism check), and the
# fuzz corpus with fault injection armed, all under ASan with the
# coherence checker on; see DESIGN.md section 10.  The perf variant
# guards the host-performance work (DESIGN.md section 11): it proves
# idle fast-forward changes nothing observable (byte-identical stats
# exports, and for the four rig-built benches - Figures 3 and 4, MDC
# and RPC - and for Table 2 stdout too, with --no-fast-forward), that
# the idle-heavy speedup is still there, that the deterministic work
# counters (tick
# calls per cycle, snoop probes per transaction, events scheduled per
# cycle, cycles stepped rather than skipped per cycle, lines the
# coherence checker checks per transaction, and heap allocations per
# thousand references) have not grown
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
    # Every paper bench at full size under the checker: a violation
    # aborts the bench with its diagnostic.
    for bench in bench_fig3_states bench_fig4_mbus_timing \
            bench_table1_estimated bench_table2_measured bench_protocols \
            bench_scaling bench_line_size bench_migration \
            bench_cvax_upgrade bench_io_dma bench_mdc_display bench_rpc; do
        "$builddir/bench/$bench" --check --jobs="$(nproc)" > /dev/null
    done
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
    # machine - and the same fault config prints the same report and
    # exports a byte-identical stats file whatever --jobs is (the
    # disk section's timeouts and retries appear only on stdout).
    "$builddir/bench/firefly_faults" --jobs=1 \
        --stats-json="$faultdir/serial.json" > "$faultdir/serial.out"
    "$builddir/bench/firefly_faults" --jobs=8 \
        --stats-json="$faultdir/parallel.json" > "$faultdir/parallel.out"
    for ext in out json; do
        cmp "$faultdir/serial.$ext" "$faultdir/parallel.$ext" || {
            echo "fault $ext diverges between --jobs=1 and --jobs=8" >&2
            exit 1
        }
    done
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
    "$builddir/bench/firefly_perf" --no-fast-forward --perf-reps=1 \
        --perf-seconds=0.01 \
        --stats-json="$perfdir/perf.slow.json" > /dev/null
    cmp "$perfdir/perf.fast.json" "$perfdir/perf.slow.json" || {
        echo "stats diverge between fast-forward and forced-slow" >&2
        exit 1
    }
    "$builddir/bench/bench_io_dma" \
        --stats-json="$perfdir/dma.fast.json" > /dev/null
    "$builddir/bench/bench_io_dma" --no-fast-forward \
        --stats-json="$perfdir/dma.slow.json" > /dev/null
    cmp "$perfdir/dma.fast.json" "$perfdir/dma.slow.json" || {
        echo "bench_io_dma stats diverge with fast-forward off" >&2
        exit 1
    }
    # The rig-built benches take it through checkedConfig too;
    # Table 2 covers Topaz threads, halting processors and events.
    for bench in bench_fig3_states bench_fig4_mbus_timing \
            bench_mdc_display bench_rpc bench_table2_measured; do
        for mode in fast slow; do
            flag=
            [ "$mode" = slow ] && flag=--no-fast-forward
            "$builddir/bench/$bench" $flag \
                --stats-json="$perfdir/$bench.$mode.json" \
                > "$perfdir/$bench.$mode.out"
        done
        for ext in out json; do
            cmp "$perfdir/$bench.fast.$ext" "$perfdir/$bench.slow.$ext" || {
                echo "$bench $ext diverges with fast-forward off" >&2
                exit 1
            }
        done
    done

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
                    "events_per_cycle", "stepped_per_cycle",
                    "line_checks_per_txn", "heap_allocs_per_kref"):
        if counter in bp and p[counter] > bp[counter] * (1 + 1e-9):
            sys.exit(f"point {key}: {counter} {p[counter]:.4f} exceeds "
                     f"the committed {bp[counter]:.4f}")

# The saturated 7-CPU Firefly point must keep the gating, the snoop
# filter, the exact idle jump and the bus's sleep through the MShared
# cycle (and through the probe cycle when nobody else holds the line)
# doing their job (was 8.0 ticks/cycle, 6.0 probes/txn, 0.9975
# stepped cycles per cycle; 1.542 and 0.787 with a bus ticked on all
# four phases).
sat7 = points[("saturated", "Firefly", 7)]
if (sat7["tick_calls_per_cycle"] > 1.25 or
        sat7["snoop_calls_per_txn"] > 0.5 or
        sat7["stepped_per_cycle"] > 0.65):
    sys.exit(f"saturated 7-CPU point: {sat7['tick_calls_per_cycle']:.3f} "
             f"ticks/cycle (max 1.25), {sat7['snoop_calls_per_txn']:.3f} "
             f"snoops/txn (max 0.5), {sat7['stepped_per_cycle']:.3f} "
             f"stepped cycles/cycle (max 0.65)")
print("perf lane: fast/slow identical, idle speedup >= 3x, "
      "work counters within baseline, throughput within baseline "
      "envelope")
EOF
    echo "check.sh: all green (perf)"
    exit 0
fi

# The plain lane treats every compiler warning as an error.
werror=-Werror
[ -z "$sanitize" ] || werror=
cmake -B "$builddir" -S "$repo" -DCMAKE_CXX_FLAGS="$werror" \
    ${sanitize:+-DFIREFLY_SANITIZE="$sanitize"}
cmake --build "$builddir" -j "$(nproc)"
if [ "$sanitize" = thread ]; then
    (cd "$builddir" && ctest --output-on-failure -j "$(nproc)" -L tsan)
    # A parallel sweep in a real bench binary must run race-free and
    # produce the same stats file as the serial loop - for the cache
    # sweep, for Table 2's two Topaz machines, and for the CVAX
    # upgrade's two sweeps, whose export is the second one's last
    # point.
    tsandir="$(mktemp -d)"
    trap 'rm -rf "$tsandir"' EXIT
    for bench in bench_line_size bench_table2_measured \
            bench_cvax_upgrade; do
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
if [ -z "$sanitize" ]; then
    # The optimiser's warnings (GCC's -Wrestrict, say) show only in an
    # optimised build, so the plain lane compiles Release too.
    cmake -B "$repo/build-release" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-Werror
    cmake --build "$repo/build-release" -j "$(nproc)"
fi

# Flight-recorder smoke test: the observed bench run must produce a
# parseable trace with the MBus transaction slices and its sampled
# counters, and a stats export (obs_test covers the details; this
# checks the command-line plumbing in a real binary), and a debug flag
# that names no trace category must be a usage error.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
"$builddir/bench/bench_scaling" \
    --trace-out="$tmpdir/trace.json" \
    --stats-json="$tmpdir/stats.json" > "$tmpdir/stdout"
for f in trace.json stats.json; do
    test -s "$tmpdir/$f" || { echo "missing $f" >&2; exit 1; }
done
python3 - "$tmpdir" <<'EOF'
import json, os, re, sys
d = sys.argv[1]
trace = json.load(open(f"{d}/trace.json"))
# The time series is trace counters on the bus's and cache 0's tracks,
# one bus.busy record per sample the run reports, not a side file.
counters = [r for r in trace if r["ph"] == "C"]
tracks = {r["tid"]: r["args"]["name"] for r in trace if r["ph"] == "M"}
assert {(r["cat"], tracks[r["tid"]]) for r in counters} == {
    ("MBus", "mbus"), ("Cache", "cache0")}, counters[:3]
assert all(isinstance(v, (int, float)) for r in counters
           for v in r["args"].values()), "non-numeric counter args"
samples = int(re.search(r"(\d+) samples", open(f"{d}/stdout").read())[1])
busy = sum(r["name"] == "bus.busy" for r in counters)
assert samples == busy > 0, (samples, busy)
files = sorted(os.listdir(d))
assert files == ["stats.json", "stdout", "trace.json"], f"side files: {files}"
cats = {r.get("cat") for r in trace if r["ph"] != "M"}
assert {"MBus", "Cache", "Cpu", "Sched"} <= cats, cats
# Each bus transaction is one MBus slice whose args say what paper
# Figure 4's phases did.
assert any(r["ph"] == "B" and r.get("cat") == "MBus" and
           {"addr", "kind", "by", "words", "wait"} <= r["args"].keys()
           for r in trace), "no MBus transaction slices"
assert any(r["ph"] == "E" and r.get("cat") == "MBus" and
           {"mshared", "supplied"} <= r.get("args", {}).keys()
           for r in trace), "no MBus slice ends with probe results"
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
