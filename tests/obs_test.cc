/**
 * @file
 * The flight recorder: stats-as-JSON, trace sinks, the sampler, and
 * the invariant that observing the machine never changes it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "firefly/system.hh"
#include "obs/chrome_trace.hh"
#include "obs/text_trace.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "topaz/runtime.hh"
#include "topaz/workloads.hh"

using namespace firefly;

namespace
{

// --- a minimal JSON parser, enough to validate our own output --------

struct Json
{
    enum class Kind { Object, Array, String, Number, Bool, Null };
    Kind kind = Kind::Null;
    std::map<std::string, Json> object;
    std::vector<Json> array;
    std::string string;
    double number = 0;
    bool boolean = false;

    const Json &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }
    bool has(const std::string &key) const { return object.count(key); }
};

struct JsonParser
{
    const std::string &text;
    std::size_t pos = 0;

    explicit JsonParser(const std::string &t) : text(t) {}

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= text.size())
            throw std::runtime_error("unexpected end of JSON");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected '") + c +
                                     "' at offset " +
                                     std::to_string(pos));
        ++pos;
    }

    Json
    parse()
    {
        Json v = parseValue();
        skipWs();
        if (pos != text.size())
            throw std::runtime_error("trailing garbage after JSON");
        return v;
    }

    Json
    parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't': return parseLiteral("true", true);
          case 'f': return parseLiteral("false", false);
          case 'n': {
            Json v = parseLiteral("null", false);
            v.kind = Json::Kind::Null;
            return v;
          }
          default: return parseNumber();
        }
    }

    Json
    parseLiteral(const std::string &word, bool value)
    {
        skipWs();
        if (text.compare(pos, word.size(), word) != 0)
            throw std::runtime_error("bad literal at " +
                                     std::to_string(pos));
        pos += word.size();
        Json v;
        v.kind = Json::Kind::Bool;
        v.boolean = value;
        return v;
    }

    Json
    parseString()
    {
        expect('"');
        Json v;
        v.kind = Json::Kind::String;
        while (true) {
            if (pos >= text.size())
                throw std::runtime_error("unterminated string");
            char c = text[pos++];
            if (c == '"')
                break;
            if (c == '\\') {
                char esc = text[pos++];
                switch (esc) {
                  case '"': v.string += '"'; break;
                  case '\\': v.string += '\\'; break;
                  case '/': v.string += '/'; break;
                  case 'n': v.string += '\n'; break;
                  case 't': v.string += '\t'; break;
                  case 'r': v.string += '\r'; break;
                  case 'b': v.string += '\b'; break;
                  case 'f': v.string += '\f'; break;
                  case 'u':
                    // Our writer only emits \u00XX control escapes.
                    v.string += static_cast<char>(
                        std::stoi(text.substr(pos, 4), nullptr, 16));
                    pos += 4;
                    break;
                  default:
                    throw std::runtime_error("bad escape");
                }
            } else {
                v.string += c;
            }
        }
        return v;
    }

    Json
    parseNumber()
    {
        skipWs();
        std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E'))
            ++pos;
        if (pos == start)
            throw std::runtime_error("bad number at " +
                                     std::to_string(pos));
        Json v;
        v.kind = Json::Kind::Number;
        v.number = std::stod(text.substr(start, pos - start));
        return v;
    }

    Json
    parseArray()
    {
        expect('[');
        Json v;
        v.kind = Json::Kind::Array;
        if (peek() == ']') {
            ++pos;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            char c = peek();
            ++pos;
            if (c == ']')
                break;
            if (c != ',')
                throw std::runtime_error("expected , or ] in array");
        }
        return v;
    }

    Json
    parseObject()
    {
        expect('{');
        Json v;
        v.kind = Json::Kind::Object;
        if (peek() == '}') {
            ++pos;
            return v;
        }
        while (true) {
            Json key = parseString();
            expect(':');
            v.object.emplace(key.string, parseValue());
            char c = peek();
            ++pos;
            if (c == '}')
                break;
            if (c != ',')
                throw std::runtime_error("expected , or } in object");
        }
        return v;
    }
};

Json
parseJson(const std::string &text)
{
    JsonParser parser(text);
    return parser.parse();
}

// --- StatGroup::dumpJson ---------------------------------------------

TEST(StatsJson, ParsesAndNests)
{
    FireflySystem sys(FireflyConfig::microVax(2));
    sys.attachSyntheticWorkload(SyntheticConfig{});
    sys.run(0.005);

    std::ostringstream os;
    sys.stats().dumpJson(os);
    const Json root = parseJson(os.str());

    EXPECT_EQ(root.at("name").string, "system");
    std::vector<std::string> child_names;
    for (const Json &child : root.at("children").array)
        child_names.push_back(child.at("name").string);
    for (const char *expected :
         {"cache0", "cache1", "mbus", "memory", "cpu0", "cpu1"}) {
        EXPECT_NE(std::find(child_names.begin(), child_names.end(),
                            expected),
                  child_names.end())
            << "missing child " << expected;
    }
}

TEST(StatsJson, ValuesMatchTheCounters)
{
    FireflySystem sys(FireflyConfig::microVax(2));
    sys.attachSyntheticWorkload(SyntheticConfig{});
    sys.run(0.005);

    std::ostringstream os;
    sys.stats().dumpJson(os);
    const Json root = parseJson(os.str());

    const Json *mbus = nullptr, *cache0 = nullptr;
    for (const Json &child : root.at("children").array) {
        if (child.at("name").string == "mbus")
            mbus = &child;
        if (child.at("name").string == "cache0")
            cache0 = &child;
    }
    ASSERT_NE(mbus, nullptr);
    ASSERT_NE(cache0, nullptr);

    EXPECT_EQ(mbus->at("counters").at("cycles").number,
              sys.bus().stats().get("cycles"));
    EXPECT_EQ(mbus->at("formulas").at("load").number, sys.busLoad());
    EXPECT_EQ(cache0->at("counters").at("fills").number,
              static_cast<double>(sys.cache(0).fills.value()));
    EXPECT_EQ(cache0->at("formulas").at("miss_rate").number,
              sys.cache(0).stats().get("miss_rate"));
}

TEST(StatsJson, HistogramsAndAccumulators)
{
    StatGroup group("g");
    Accumulator acc;
    Histogram hist(10, 4);
    group.addAccumulator(&acc, "lat", "latency");
    group.addHistogram(&hist, "hist", "distribution");
    acc.sample(5);
    acc.sample(15);
    hist.sample(12);
    hist.sample(99);

    std::ostringstream os;
    group.dumpJson(os);
    const Json root = parseJson(os.str());

    const Json &lat = root.at("accumulators").at("lat");
    EXPECT_EQ(lat.at("count").number, 2);
    EXPECT_EQ(lat.at("sum").number, 20);
    EXPECT_EQ(lat.at("mean").number, 10);
    EXPECT_EQ(lat.at("min").number, 5);
    EXPECT_EQ(lat.at("max").number, 15);

    const Json &h = root.at("histograms").at("hist");
    EXPECT_EQ(h.at("count").number, 2);
    EXPECT_EQ(h.at("buckets").array.at(3).number, 1);  // 12 -> [12,16)
    EXPECT_EQ(h.at("overflow").number, 1);             // 99 -> overflow
}

TEST(StatsJson, GoldenDeterminism)
{
    // Byte-identical across runs: the export is usable as a golden
    // artefact in scripted comparisons.
    auto dump = [] {
        FireflySystem sys(FireflyConfig::microVax(3));
        sys.attachSyntheticWorkload(SyntheticConfig{});
        sys.run(0.01);
        std::ostringstream os;
        sys.stats().dumpJson(os);
        return os.str();
    };
    EXPECT_EQ(dump(), dump());
}

// --- the Chrome trace sink -------------------------------------------

std::string
tracedRun(unsigned cpus = 2, double seconds = 0.003)
{
    std::ostringstream trace;
    {
        obs::ChromeTraceSink sink(trace);
        obs::ScopedTraceSink attach(&sink);
        FireflySystem sys(FireflyConfig::microVax(cpus));
        sys.attachSyntheticWorkload(SyntheticConfig{});
        sys.run(seconds);
        sink.close();
    }
    return trace.str();
}

TEST(ChromeTrace, WellFormedRecords)
{
    const Json root = parseJson(tracedRun());
    ASSERT_EQ(root.kind, Json::Kind::Array);
    ASSERT_GT(root.array.size(), 100u);

    for (const Json &rec : root.array) {
        ASSERT_TRUE(rec.has("ph"));
        ASSERT_TRUE(rec.has("ts"));
        ASSERT_TRUE(rec.has("pid"));
        ASSERT_TRUE(rec.has("tid"));
        const std::string &ph = rec.at("ph").string;
        ASSERT_TRUE(ph == "B" || ph == "E" || ph == "i" || ph == "M")
            << "unexpected phase " << ph;
        if (ph == "B" || ph == "i") {
            ASSERT_TRUE(rec.has("name"));
        }
    }
}

TEST(ChromeTrace, CoversTheSubsystems)
{
    const Json root = parseJson(tracedRun());
    std::map<std::string, int> categories;
    std::vector<std::string> track_names;
    for (const Json &rec : root.array) {
        if (rec.at("ph").string == "M") {
            track_names.push_back(
                rec.at("args").at("name").string);
            continue;
        }
        ++categories[rec.at("cat").string];
    }
    EXPECT_GT(categories["MBus"], 0);
    EXPECT_GT(categories["Cache"], 0);
    EXPECT_GT(categories["Cpu"], 0);
    for (const char *track : {"mbus", "cache0", "cache1", "cpu0"}) {
        EXPECT_NE(std::find(track_names.begin(), track_names.end(),
                            track),
                  track_names.end())
            << "missing track " << track;
    }
}

TEST(ChromeTrace, MBusSlicesCarryTheTransaction)
{
    // One slice per bus transaction, named for its operation: the
    // begin says what was asked for, the end what the probe found.
    // The slices are all the bus emits: it has no instants.
    const Json root = parseJson(tracedRun());
    int begins = 0, ends = 0;
    for (const Json &rec : root.array) {
        const std::string &ph = rec.at("ph").string;
        if (ph == "M" || rec.at("cat").string != "MBus")
            continue;
        ASSERT_TRUE(ph == "B" || ph == "E") << ph;
        ASSERT_TRUE(rec.has("args"));
        const Json &args = rec.at("args");
        if (ph == "B") {
            ++begins;
            const std::string &op = rec.at("name").string;
            EXPECT_TRUE(op == "MRead" || op == "MWrite" ||
                        op == "MReadOwned" || op == "MInvalidate")
                << op;
            for (const char *key :
                 {"addr", "kind", "by", "words", "wait"})
                ASSERT_TRUE(args.has(key)) << key;
        } else {
            ++ends;
            ASSERT_TRUE(args.has("mshared"));
            ASSERT_TRUE(args.has("supplied"));
        }
    }
    EXPECT_GT(begins, 0);
    EXPECT_EQ(begins, ends);
}

TEST(ChromeTrace, NondecreasingTimestampsPerTrack)
{
    const Json root = parseJson(tracedRun());
    std::map<double, double> last_ts;  // tid -> last ts
    for (const Json &rec : root.array) {
        if (rec.at("ph").string == "M")
            continue;
        const double tid = rec.at("tid").number;
        const double ts = rec.at("ts").number;
        auto it = last_ts.find(tid);
        if (it != last_ts.end()) {
            ASSERT_GE(ts, it->second) << "ts went backwards on tid "
                                      << tid;
        }
        last_ts[tid] = ts;
    }
}

TEST(ChromeTrace, ConcatenatesSequentialRuns)
{
    // Two machines recorded into one sink: the second's cycle counter
    // restarts at zero, but the output timeline must keep moving
    // forward (Perfetto rejects time travel).
    std::ostringstream trace;
    {
        obs::ChromeTraceSink sink(trace);
        obs::ScopedTraceSink attach(&sink);
        for (int run = 0; run < 2; ++run) {
            FireflySystem sys(FireflyConfig::microVax(1));
            sys.attachSyntheticWorkload(SyntheticConfig{});
            sys.run(0.001);
        }
        sink.close();
    }
    const Json root = parseJson(trace.str());
    std::map<double, double> last_ts;
    for (const Json &rec : root.array) {
        if (rec.at("ph").string == "M")
            continue;
        const double tid = rec.at("tid").number;
        auto it = last_ts.find(tid);
        if (it != last_ts.end()) {
            ASSERT_GE(rec.at("ts").number, it->second);
        }
        last_ts[tid] = rec.at("ts").number;
    }
}

TEST(ChromeTrace, SchedulerAndRpcEventsAppear)
{
    std::ostringstream trace;
    {
        obs::ChromeTraceSink sink(trace);
        obs::ScopedTraceSink attach(&sink);
        FireflySystem sys(FireflyConfig::microVax(2));
        TopazConfig tc;
        tc.cpus = 2;
        TopazRuntime runtime(tc);
        ExerciserParams params;
        params.threads = 4;
        params.iterations = 5;
        buildThreadsExerciser(runtime, params);
        std::vector<RefSource *> sources{&runtime.port(0),
                                         &runtime.port(1)};
        sys.attachSources(sources);
        sys.runToCompletion(5'000'000);
        sink.close();
    }
    const Json root = parseJson(trace.str());
    int sched = 0;
    std::vector<std::string> names;
    for (const Json &rec : root.array) {
        if (rec.at("ph").string == "M")
            continue;
        if (rec.at("cat").string == "Sched") {
            ++sched;
            names.push_back(rec.at("name").string);
        }
    }
    EXPECT_GT(sched, 0);
    EXPECT_NE(std::find(names.begin(), names.end(), "ready"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "dispatch"),
              names.end());
}

TEST(ChromeTrace, RuntimeBuiltAfterAnotherMachineReadsItsClock)
{
    // The scheduler stamps its events with the published trace clock.
    // A runtime built after another machine ran on the same thread
    // must stamp its first `ready` with the new machine's cycle 0,
    // not the last cycle the old machine stepped.
    struct Capture : obs::TraceSink
    {
        std::vector<obs::TraceEvent> events;
        void event(const obs::TraceEvent &ev) override
        {
            events.push_back(ev);
        }
    };
    Cycle oldLast = 0;
    std::vector<Cycle> ready;
    std::thread([&] {
        {
            FireflySystem old(FireflyConfig::microVax(1));
            old.attachSyntheticWorkload(SyntheticConfig{});
            old.simulator().run(50'000);
            oldLast = obs::traceNow();
        }
        Capture sink;
        obs::ScopedTraceSink attach(&sink);
        FireflySystem sys(FireflyConfig::microVax(2));
        TopazConfig tc;
        tc.cpus = 2;
        TopazRuntime runtime(tc);
        ExerciserParams params;
        params.threads = 4;
        params.iterations = 1;
        buildThreadsExerciser(runtime, params);
        for (const auto &ev : sink.events) {
            if (ev.name == "ready")
                ready.push_back(ev.when);
        }
    }).join();
    EXPECT_GT(oldLast, 40'000u);
    ASSERT_FALSE(ready.empty());
    EXPECT_EQ(ready.front(), 0u);
}

TEST(ChromeTrace, CounterRecordsCarryNumbers)
{
    // A counter sample is a "C" record whose args are JSON numbers,
    // and one line of the text sink.
    std::ostringstream trace, text;
    {
        obs::ChromeTraceSink chrome(trace);
        obs::TextTraceSink printer({"MBus"}, text);
        obs::TeeSink tee;
        tee.add(&chrome);
        tee.add(&printer);
        tee.counter(10'000, obs::kCatMBus, "mbus", "bus.busy", 4242);
        tee.counter(20'000, obs::kCatMBus, "mbus", "bus.busy", 0.125);
        chrome.close();
    }
    EXPECT_NE(trace.str().find("\"ph\":\"C\",\"ts\":1000.0,"),
              std::string::npos)
        << trace.str();
    EXPECT_NE(trace.str().find("\"args\":{\"value\":4242}"),
              std::string::npos)
        << trace.str();

    const Json root = parseJson(trace.str());
    std::vector<double> values;
    for (const Json &rec : root.array) {
        if (rec.at("ph").string != "C")
            continue;
        EXPECT_EQ(rec.at("name").string, "bus.busy");
        const Json &value = rec.at("args").at("value");
        ASSERT_EQ(value.kind, Json::Kind::Number);
        values.push_back(value.number);
    }
    EXPECT_EQ(values, (std::vector<double>{4242, 0.125}));

    EXPECT_EQ(text.str(), "[MBus] 10000 mbus: bus.busy (value=4242)\n"
                          "[MBus] 20000 mbus: bus.busy (value=0.125)\n");
}

// --- observing must not perturb --------------------------------------

TEST(Observation, TracingDoesNotChangeTheMachine)
{
    auto statsDump = [](bool traced) {
        std::ostringstream trace;
        std::unique_ptr<obs::ChromeTraceSink> sink;
        std::unique_ptr<obs::ScopedTraceSink> attach;
        if (traced) {
            sink = std::make_unique<obs::ChromeTraceSink>(trace);
            attach = std::make_unique<obs::ScopedTraceSink>(sink.get());
        }
        FireflySystem sys(FireflyConfig::microVax(5));
        sys.attachSyntheticWorkload(SyntheticConfig{});
        sys.run(0.01);
        std::ostringstream os;
        sys.stats().dumpJson(os);
        return os.str();
    };
    EXPECT_EQ(statsDump(false), statsDump(true));
}

// --- the text sink ----------------------------------------------------

TEST(TextTrace, FiltersOnDebugFlags)
{
    std::ostringstream out;
    obs::TextTraceSink sink({"MBus"}, out);
    obs::ScopedTraceSink attach(&sink);

    obs::traceSink()->instant(11, obs::kCatMBus, "mbus", "request",
                              {{"addr", "0x40"}});
    obs::traceSink()->instant(12, obs::kCatCache, "cache0", "fill");
    EXPECT_EQ(sink.linesPrinted(), 1u) << "only MBus is enabled";

    const std::string text = out.str();
    EXPECT_NE(text.find("[MBus]"), std::string::npos);
    EXPECT_NE(text.find("mbus"), std::string::npos);
    EXPECT_NE(text.find("addr=0x40"), std::string::npos);
    EXPECT_EQ(text.find("cache0"), std::string::npos);
}

// The flag list a text sink is built with.  --debug-flags is read by
// the bench option parse; its cases are in bench_options_test.cc.

TEST(LoggingFlags, DefaultsToAllOff)
{
    std::ostringstream out;
    obs::TextTraceSink sink({}, out);
    for (const char *category : obs::kCategories)
        sink.instant(10, category, "track", "event");
    EXPECT_EQ(sink.linesPrinted(), 0u);
    EXPECT_TRUE(out.str().empty());
}

TEST(LoggingFlags, SetAndClearOneFlag)
{
    // One sink per flag set: each prints exactly its own categories.
    std::ostringstream with_out, without_out;
    obs::TextTraceSink with({"MBus"}, with_out);
    obs::TextTraceSink without({"Cache"}, without_out);
    for (obs::TextTraceSink *sink : {&with, &without})
        sink->instant(10, obs::kCatMBus, "mbus", "request");
    EXPECT_EQ(with.linesPrinted(), 1u);
    EXPECT_EQ(without.linesPrinted(), 0u);
}

TEST(LoggingFlags, CommaSeparatedList)
{
    EXPECT_EQ(obs::splitFlags("MBus,Cache,Sched"),
              (std::vector<std::string>{"MBus", "Cache", "Sched"}));

    std::ostringstream out;
    obs::TextTraceSink sink(obs::splitFlags("MBus,Cache,Sched"), out);
    sink.instant(1, obs::kCatMBus, "mbus", "request");
    sink.instant(2, obs::kCatCache, "cache0", "fill");
    sink.instant(3, obs::kCatSched, "sched", "dispatch");
    sink.instant(4, obs::kCatDma, "dma", "start");
    EXPECT_EQ(sink.linesPrinted(), 3u);
    EXPECT_EQ(out.str().find("[Dma]"), std::string::npos);
}

TEST(LoggingFlags, ListSkipsEmptyTokens)
{
    EXPECT_EQ(obs::splitFlags(",MBus,,Cache,"),
              (std::vector<std::string>{"MBus", "Cache"}));
    EXPECT_TRUE(obs::splitFlags("").empty());
    EXPECT_TRUE(obs::splitFlags(",,").empty());
}

} // namespace
