/**
 * @file
 * Tests of the benchmark's own code.  Run with ctest in the benchmark's
 * build directory, or run the perfbench_test binary; it exits non-zero
 * if any check fails.
 *
 *  - the probes are transparent: a traced run's digest equals an
 *    untraced one's, on every workload;
 *  - a run cut into slices has the same digest as one uncut run;
 *  - the digest leaves out the checker's own subtree, and only it;
 *  - every metric name and unit is well formed, and the result line
 *    carries every metric of its scope.
 */

#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "report.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                     \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                         __LINE__, #cond);                              \
            ++failures;                                                 \
        }                                                               \
    } while (0)

Outcome
runOnce(const WorkloadSpec &spec, std::uint64_t seed, bool sliced,
        Spans *spans)
{
    Rig rig(spec, seed, spans);
    if (sliced)
        rig.runSliced();
    else
        rig.run();
    return rig.finish();
}

void
testDigestsAgree()
{
    for (const WorkloadSpec &spec : workloads()) {
        const Outcome uncut = runOnce(spec, 3, false, nullptr);
        const Outcome sliced = runOnce(spec, 3, true, nullptr);
        Spans spans;
        const Outcome traced = runOnce(spec, 3, true, &spans);
        std::printf("%-10s uncut %016llx sliced %016llx traced %016llx\n",
                    spec.name,
                    static_cast<unsigned long long>(uncut.digest),
                    static_cast<unsigned long long>(sliced.digest),
                    static_cast<unsigned long long>(traced.digest));
        CHECK(uncut.ok && sliced.ok && traced.ok);
        CHECK(uncut.digest == sliced.digest);
        CHECK(uncut.digest == traced.digest);
        CHECK(sliced.counts == traced.counts);
        // The traced run recorded what it wraps.
        CHECK(!spans.sliceUs.empty());
        CHECK(spans.genSteps > 0);
        CHECK((spans.busTxns > 0) == (spec.kind == WorkloadKind::Checked7));
        CHECK((spans.hookLoads > 0) ==
              (spec.kind == WorkloadKind::Checked7));
    }
    // A different seed is a different job.
    const WorkloadSpec &first = workloads().front();
    CHECK(runOnce(first, 3, false, nullptr).digest !=
          runOnce(first, 4, false, nullptr).digest);
}

void
testCheckerSubtreeLeftOut()
{
    firefly::StatGroup root("system"), a("cache0"), checker("checker"),
        b("mbus");
    firefly::Counter ca, cc, cb;
    a.addCounter(&ca, "refs", "");
    checker.addCounter(&cc, "loads", "");
    b.addCounter(&cb, "reads", "");
    root.addChild(&a);
    root.addChild(&checker);
    root.addChild(&b);

    firefly::StatGroup plain("system");
    plain.addChild(&a);
    plain.addChild(&b);
    std::ostringstream expect;
    plain.dumpJson(expect);

    const std::string cut = statsJsonWithout(root, "checker");
    CHECK(cut == expect.str());
    CHECK(cut.find("checker") == std::string::npos);
    // Nothing to cut: unchanged.
    CHECK(statsJsonWithout(plain, "checker") == expect.str());
}

void
testMetricTable()
{
    const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> names;
    std::map<std::string, double> e2e, layer;
    for (const MetricSpec &m : metricSpecs()) {
        CHECK(validMetricName(m.name));
        CHECK(std::regex_match(std::string(m.unit), unit));
        CHECK(names.insert(m.name).second);
        (m.scope == Scope::EndToEnd ? e2e : layer)[m.name] = 1.5;
    }
    CHECK(e2e.count("setup_s") == 1);
    CHECK(!validMetricName("bad name"));
    CHECK(!validMetricName(".dot-first"));

    const std::string line = resultLine(Scope::EndToEnd, 3, 0, e2e);
    CHECK(line.rfind("{\"correct\": true, \"attempted\": 3, "
                     "\"failed\": 0, \"metrics\": {",
                     0) == 0);
    for (const auto &[name, value] : e2e)
        CHECK(line.find("\"" + name + "\": {\"value\": 1.5") !=
              std::string::npos);
    CHECK(resultLine(Scope::PerLayer, 2, 1, layer).find(
              "\"correct\": false") != std::string::npos);
}

void
testStatistics()
{
    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({4, 1, 3, 2}) == 2.5);
    CHECK(quantile({0, 10}, 0.99) > 9.8);
    // Python: statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75]
    // and statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4, 12].
    CHECK(spread({1, 2, 3, 4, 5, 6, 7, 8}) == (6.75 - 2.25) / 4.5);
    CHECK(spread({16, 1, 8, 2, 4}) == (12.0 - 1.5) / 4.0);
    CHECK(spread({5}) == 0.0);
}

} // namespace

int
main()
{
    testMetricTable();
    testStatistics();
    testCheckerSubtreeLeftOut();
    testDigestsAgree();
    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("all perfbench checks passed\n");
    return 0;
}
