/**
 * @file
 * Unit tests for the simulation kernel: RNG, events, stats, clocking.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

using namespace firefly;

TEST(Types, WordAddressConversions)
{
    EXPECT_EQ(wordAddr(0), 0u);
    EXPECT_EQ(wordAddr(4), 1u);
    EXPECT_EQ(wordAddr(7), 1u);
    EXPECT_EQ(byteAddr(3), 12u);
}

TEST(Types, TimeConversions)
{
    // 10 bus cycles = 1 microsecond.
    EXPECT_DOUBLE_EQ(cyclesToSeconds(10), 1e-6);
    EXPECT_EQ(secondsToCycles(1e-6), 10u);
    // One simulated second is 10 million bus cycles.
    EXPECT_EQ(secondsToCycles(1.0), 10'000'000u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeFullWidthSpan)
{
    // Regression: hi - lo + 1 wraps to zero for the full 64-bit span
    // and used to panic inside below(); every value is in range, so
    // the draw must just succeed.
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        const auto v = rng.range(INT64_MIN, INT64_MAX);
        EXPECT_GE(v, INT64_MIN);
        EXPECT_LE(v, INT64_MAX);
    }
    // Degenerate single-value spans at both extremes still work.
    EXPECT_EQ(rng.range(INT64_MIN, INT64_MIN), INT64_MIN);
    EXPECT_EQ(rng.range(INT64_MAX, INT64_MAX), INT64_MAX);
}

TEST(Rng, RangeSpansWiderThanInt64Max)
{
    // Spans in (INT64_MAX, UINT64_MAX): the drawn offset does not
    // fit in int64, so the addition must happen in uint64 space.
    Rng rng(21);
    bool saw_negative = false, saw_positive = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.range(INT64_MIN, INT64_MAX - 1);
        ASSERT_LE(v, INT64_MAX - 1);
        saw_negative |= v < 0;
        saw_positive |= v > 0;
    }
    // A uniform draw over nearly all of int64 hits both halves.
    EXPECT_TRUE(saw_negative);
    EXPECT_TRUE(saw_positive);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, IntegerChanceMatchesDoubleForm)
{
    // chance() tests x < ceil(p * 2^53) on the 53-bit draw x; the
    // reference is the double form it replaced, uniform() < p with no
    // draw at p <= 0 or p >= 1.  Same answers and the same number of
    // draws, so the streams stay in lockstep.
    const double probabilities[] = {0.0, 0x1.0p-60, 0.1, 0.5,
                                    1.0 - 0x1.0p-53, 1.0};
    for (const std::uint64_t seed : {1ULL, 42ULL, 0x5eedf1ef1ULL}) {
        for (const double p : probabilities) {
            Rng viaChance(seed), viaThreshold(seed), reference(seed);
            const std::uint64_t threshold = Rng::chanceThreshold(p);
            int mismatches = 0;
            for (int i = 0; i < 1'000'000; ++i) {
                const bool want = p <= 0.0 ? false
                                : p >= 1.0 ? true
                                           : reference.uniform() < p;
                mismatches += viaChance.chance(p) != want;
                mismatches += viaThreshold.chanceScaled(threshold) != want;
            }
            EXPECT_EQ(mismatches, 0) << "p=" << p << " seed=" << seed;
            const std::uint64_t after = reference.next();
            EXPECT_EQ(viaChance.next(), after);
            EXPECT_EQ(viaThreshold.next(), after);
        }
    }
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(5); });
    q.schedule(2, [&] { order.push_back(2); });
    q.schedule(9, [&] { order.push_back(9); });
    q.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{2, 5, 9}));
}

TEST(EventQueue, FifoAmongEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3, [&] { order.push_back(1); });
    q.schedule(3, [&] { order.push_back(2); });
    q.schedule(3, [&] { order.push_back(3); });
    q.runUntil(3);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(2, [&] { ++fired; });
    });
    q.runUntil(5);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, DoesNotRunFutureEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.runUntil(9);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.nextEventCycle(), 10u);
    q.runUntil(10);
    EXPECT_EQ(fired, 1);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
}

TEST(Stats, AccumulatorTracksMinMaxMean)
{
    Accumulator a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(4, 2.0);  // [0,2) [2,4) [4,6) [6,8)
    h.sample(0.5);
    h.sample(3.0);
    h.sample(3.9);
    h.sample(7.9);
    h.sample(100.0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 5u);
}

TEST(Stats, GroupGetAndFormula)
{
    StatGroup g("g");
    Counter c;
    g.addCounter(&c, "hits", "hit count");
    g.addFormula("double_hits", "twice the hits",
                 [&] { return 2.0 * c.value(); });
    c += 3;
    EXPECT_DOUBLE_EQ(g.get("hits"), 3.0);
    EXPECT_DOUBLE_EQ(g.get("double_hits"), 6.0);
}

namespace
{

struct Recorder : Clocked
{
    std::vector<std::pair<int, Cycle>> *log;
    int id;
    Recorder(std::vector<std::pair<int, Cycle>> *log, int id)
        : log(log), id(id) {}
    void tick(Cycle now) override { log->emplace_back(id, now); }
};

} // namespace

TEST(Simulator, PhaseOrderWithinCycle)
{
    Simulator sim;
    std::vector<std::pair<int, Cycle>> log;
    Recorder device(&log, 2), bus(&log, 0), cpu(&log, 1);
    // Register out of phase order; phases must still run Bus then
    // Cpu, and components within a phase in registration order.
    sim.addClocked(&cpu, Phase::Cpu);
    sim.addClocked(&bus, Phase::Bus);
    sim.addClocked(&device, Phase::Cpu);
    sim.run(2);
    ASSERT_EQ(log.size(), 6u);
    EXPECT_EQ(log[0], (std::pair<int, Cycle>{0, 0}));
    EXPECT_EQ(log[1], (std::pair<int, Cycle>{1, 0}));
    EXPECT_EQ(log[2], (std::pair<int, Cycle>{2, 0}));
    EXPECT_EQ(log[3], (std::pair<int, Cycle>{0, 1}));
}

TEST(Simulator, EventsRunBeforeClocked)
{
    Simulator sim;
    std::vector<int> order;
    Recorder bus(nullptr, 0);
    struct Tick : Clocked
    {
        std::vector<int> *order;
        explicit Tick(std::vector<int> *o) : order(o) {}
        void tick(Cycle) override { order->push_back(2); }
    } ticked(&order);
    sim.addClocked(&ticked, Phase::Bus);
    sim.events().schedule(0, [&] { order.push_back(1); });
    sim.run(1);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunAdvancesClock)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    sim.run(25);
    EXPECT_EQ(sim.now(), 25u);
    sim.runUntil(40);
    EXPECT_EQ(sim.now(), 40u);
    EXPECT_DOUBLE_EQ(sim.seconds(), 40 * 100e-9);
}

TEST(EventQueueDeathTest, SchedulingBeforeProcessedTimePanics)
{
    // A lost-completion bug that schedules "in the past" must die
    // loudly, not fire late and pretend it was on time.
    EventQueue q;
    int ran = 0;
    q.schedule(5, [&] { ++ran; });
    q.runUntil(5);
    EXPECT_EQ(ran, 1);
    EXPECT_DEATH(q.schedule(3, [] {}), "already run");

    // The horizon advances through empty sweeps too.
    EventQueue q2;
    q2.runUntil(10);
    EXPECT_DEATH(q2.schedule(9, [] {}), "already run");
    q2.schedule(10, [] {});  // exactly at the horizon is legal
}

namespace
{

/** A component with work only every `period` cycles, opting in to
 *  due-cycle gating and recording everything that happens to it. */
struct Periodic : Clocked
{
    Cycle period;
    std::vector<Cycle> ticks;          ///< cycles tick() saw
    Cycle covered = 0;                 ///< cycles ticked + slept through
    Cycle coveredTo = 0;               ///< cycles before this counted

    explicit Periodic(Cycle p) : period(p) {}

    void
    tick(Cycle now) override
    {
        settle(now);
        ++covered;
        coveredTo = now + 1;
        if (now % period == 0) {
            ticks.push_back(now);
            setDue(now + period);
        }
    }

    void
    settle(Cycle horizon) override
    {
        if (horizon > coveredTo) {
            covered += horizon - coveredTo;
            coveredTo = horizon;
        }
    }
};

} // namespace

TEST(Simulator, FastForwardMatchesSlowPathTickForTick)
{
    // The core invariant: with every component asleep until its due
    // cycle, the fast path must deliver the exact same tick sequence
    // as cycle-by-cycle execution, with the skipped spans accounted
    // for through settle.
    Simulator fast;
    fast.setFastForward(true);
    Periodic pf(1000);
    fast.addClocked(&pf, Phase::Cpu);
    fast.run(5000);

    Simulator slow;
    slow.setFastForward(false);
    Periodic ps(1000);
    slow.addClocked(&ps, Phase::Cpu);
    slow.run(5000);

    const std::vector<Cycle> expected = {0, 1000, 2000, 3000, 4000};
    EXPECT_EQ(pf.ticks, expected);
    EXPECT_EQ(ps.ticks, expected);
    EXPECT_EQ(pf.covered, 5000u);  // every cycle ticked or skipped
    EXPECT_EQ(ps.covered, 5000u);
    EXPECT_GT(fast.cyclesFastForwarded(), 0u);
    EXPECT_EQ(slow.cyclesFastForwarded(), 0u);
    EXPECT_EQ(fast.now(), slow.now());
}

TEST(Simulator, FastForwardJumpsToNextEvent)
{
    // An otherwise-empty machine leaps straight to the next scheduled
    // event instead of ticking thousands of empty cycles.
    Simulator sim;
    sim.setFastForward(true);
    std::vector<Cycle> fired;
    sim.events().schedule(4000, [&] { fired.push_back(sim.now()); });
    sim.run(5000);
    EXPECT_EQ(fired, (std::vector<Cycle>{4000}));
    EXPECT_EQ(sim.now(), 5000u);
    EXPECT_GE(sim.cyclesFastForwarded(), 4000u);
}

TEST(Simulator, FastForwardSkipsEveryIdleSpanWhole)
{
    // Ten rounds of 40 busy cycles then 100 idle ones: the jump is
    // exact, so every idle cycle is skipped and every busy one ticks,
    // however long the busy stretch before it.
    struct Bursty : Clocked
    {
        void
        tick(Cycle now) override
        {
            if (now % 140 == 39)
                setDue(now + 101);
        }
    } bursty;
    Simulator sim;
    sim.setFastForward(true);
    sim.addClocked(&bursty, Phase::Cpu);
    sim.run(1400);
    EXPECT_EQ(sim.cyclesFastForwarded(), 1000u);
    EXPECT_EQ(sim.ticksDispatched(), 400u);
}

namespace
{

/** Acts only when another component pokes it awake; records the
 *  cycles it acted at, then sleeps again. */
struct Sleeper : Clocked
{
    std::vector<Cycle> acted;

    Sleeper() { setDue(kNeverWakes); }

    void poke(Cycle cycle) { setDue(cycle); }

    void
    tick(Cycle now) override
    {
        if (now < dueCycle())
            return;  // ticked every cycle on the slow path
        acted.push_back(now);
        setDue(kNeverWakes);
    }
};

/** Every `period` cycles from cycle `period` on, pokes `target` awake
 *  at `now + lead`. */
struct Poker : Clocked
{
    Sleeper &target;
    Cycle period;
    Cycle lead;

    Poker(Sleeper &t, Cycle p, Cycle l) : target(t), period(p), lead(l)
    {
        setDue(period);
    }

    void
    tick(Cycle now) override
    {
        if (now < dueCycle())
            return;
        target.poke(now + lead);
        setDue(now + period);
    }
};

} // namespace

TEST(Simulator, WakeLoweredAfterTheWalkPassedIsFolded)
{
    // A processor-phase component lowers a bus-phase component's due
    // cycle to the next cycle, after the walk has already read it:
    // the wake must fold the lowered cycle in, or the fast path would
    // leap over it to the poker's next turn.
    std::vector<std::vector<Cycle>> acted;
    for (const bool fast_forward : {true, false}) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        Sleeper bus;
        Poker cpu(bus, 100, 1);
        sim.addClocked(&bus, Phase::Bus);
        sim.addClocked(&cpu, Phase::Cpu);
        sim.run(500);
        acted.push_back(bus.acted);
    }
    EXPECT_EQ(acted[0], (std::vector<Cycle>{101, 201, 301, 401}));
    EXPECT_EQ(acted[0], acted[1]);
}

TEST(Simulator, WakeLoweredBeforeTheWalkArrivesIsReadThere)
{
    // A bus-phase component wakes a processor-phase one for this very
    // cycle, and the processor goes back to sleep on its own tick.
    // The walk reads the processor's raised due cycle, so the wake is
    // exact and the whole idle span after each pair of ticks is
    // skipped.  (Folding the lowered cycle in as well would step one
    // needless cycle per round.)
    Simulator sim;
    sim.setFastForward(true);
    Sleeper cpu;
    Poker bus(cpu, 100, 0);
    sim.addClocked(&bus, Phase::Bus);
    sim.addClocked(&cpu, Phase::Cpu);
    sim.run(1000);
    EXPECT_EQ(cpu.acted.size(), 9u);  // cycles 100 .. 900
    EXPECT_EQ(cpu.acted.front(), 100u);
    // Stepped: cycle 0 (everything starts due) and the nine rounds.
    EXPECT_EQ(sim.cyclesFastForwarded(), 1000u - 10u);
}

TEST(Simulator, WatchdogWedgesAtTheSameCycleEitherPath)
{
    // Fast-forward must never leap past the watchdog deadline: a
    // wedged machine dies at the identical cycle both ways.
    const auto wedgeCycle = [](bool fast_forward) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        sim.setWatchdog(100, /*throw_on_wedge=*/true);
        struct Quiet : Clocked
        {
            Quiet() { setDue(kNeverWakes); }
            void tick(Cycle) override {}
        } quiet;
        sim.addClocked(&quiet, Phase::Cpu);
        try {
            sim.run(10000);
        } catch (const SimulationWedged &) {
            return sim.now();
        }
        ADD_FAILURE() << "watchdog did not fire";
        return Cycle(0);
    };
    const Cycle fast = wedgeCycle(true);
    EXPECT_EQ(fast, wedgeCycle(false));
    EXPECT_EQ(fast, 100u);
}

TEST(Json, EscapeHandlesHostileStrings)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
    EXPECT_EQ(jsonQuote("say \"hi\""), "\"say \\\"hi\\\"\"");
}

TEST(Stats, DumpJsonEscapesHostileNames)
{
    // Stat and group names flow into the JSON export; a quote,
    // backslash, or control character must not corrupt the document.
    StatGroup g("evil \"group\"\\name");
    Counter c;
    g.addCounter(&c, "count\"er", "hostile counter");
    g.addFormula("new\nline", "hostile formula", [] { return 1.0; });
    ++c;
    std::ostringstream os;
    g.dumpJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("evil \\\"group\\\"\\\\name"), std::string::npos)
        << out;
    EXPECT_NE(out.find("count\\\"er"), std::string::npos) << out;
    EXPECT_NE(out.find("new\\nline"), std::string::npos) << out;
    // And the raw unescaped forms never appear inside the document.
    EXPECT_EQ(out.find("count\"er"), std::string::npos) << out;
    EXPECT_EQ(out.find("new\nline"), std::string::npos) << out;
}
