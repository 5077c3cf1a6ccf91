/**
 * @file
 * Experiment X8: RPC data-transfer bandwidth vs concurrent threads.
 *
 * "We have found that our RPC data transfer protocol, with multiple
 * outstanding calls, achieves very high performance.  The remote
 * server can sustain a bandwidth of 4.6 megabits per second using an
 * average of three concurrent threads."
 */

#include <cstdio>

#include "bench_util.hh"
#include "check/rig.hh"
#include "topaz/rpc.hh"

using namespace firefly;

namespace
{

struct Point
{
    double mbps;
    double avgOutstanding;
    double callsPerSec;
};

Point
run(unsigned threads, double seconds = 1.0)
{
    check::Rig rig(
        bench::checkedConfig(check::rigConfig(ProtocolKind::Firefly, 1)));
    QBus qbus(rig.sim, *rig.caches[0], 16 * 1024 * 1024);
    qbus.identityMap();
    EthernetController nic(rig.sim, qbus, "net0");

    RpcEngine rpc(rig.sim, nic, threads);
    rpc.start();
    rig.sim.run(secondsToCycles(seconds));
    bench::exportStats(rpc.stats());
    return {rpc.bandwidthMbps(), rpc.averageOutstanding(),
            rpc.callsCompleted.value() / seconds};
}

void
experiment()
{
    bench::banner("X8", "RPC data transfer vs concurrent threads");
    std::printf("1500-byte requests over the 10 Mbit/s Ethernet "
                "model; server service time dominates.\n\n");
    std::printf("%8s %16s %18s %12s\n", "threads", "Mbit/s",
                "avg outstanding", "calls/s");
    bench::rule();
    for (unsigned threads : {1u, 2u, 3u, 4u, 6u, 8u}) {
        const auto point = run(threads);
        std::printf("%8u %16.2f %18.2f %12.0f\n", threads, point.mbps,
                    point.avgOutstanding, point.callsPerSec);
    }
    bench::rule();
    std::printf("Paper: \"4.6 megabits per second using an average "
                "of three concurrent threads\" - the 3-thread row "
                "should sit near 4.6 and the curve should flatten "
                "beyond it.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
