/**
 * @file
 * RPC transport tests: pipelining behaviour and the Section 6
 * bandwidth claim's shape (more outstanding calls -> more bandwidth,
 * saturating at the server's service rate).
 */

#include <gtest/gtest.h>

#include "check/rig.hh"
#include "topaz/rpc.hh"

using namespace firefly;
using firefly::check::Rig;
using firefly::check::rigConfig;

namespace
{

struct RpcRig : Rig
{
    QBus qbus;
    EthernetController nic;

    RpcRig()
        : Rig(rigConfig(ProtocolKind::Firefly, 1)),
          qbus(sim, *caches[0], 16 * 1024 * 1024),
          nic(sim, qbus, "net0")
    {
        qbus.identityMap();
    }

    double
    run(unsigned threads, double seconds = 0.5)
    {
        RpcEngine rpc(sim, nic, threads);
        rpc.start();
        sim.run(secondsToCycles(seconds));
        EXPECT_GT(rpc.callsCompleted.value(), 0u);
        return rpc.bandwidthMbps();
    }
};

} // namespace

TEST(Rpc, SingleThreadCompletesCalls)
{
    RpcRig rig;
    RpcEngine rpc(rig.sim, rig.nic, 1);
    rpc.start();
    rig.sim.run(secondsToCycles(0.1));
    EXPECT_GT(rpc.callsCompleted.value(), 10u);
    EXPECT_NEAR(rpc.averageOutstanding(), 1.0, 0.05);
    rpc.stop();
}

TEST(Rpc, BandwidthGrowsWithThreadsThenSaturates)
{
    RpcRig rig1, rig3, rig8;
    const double one = rig1.run(1);
    const double three = rig3.run(3);
    const double eight = rig8.run(8);
    EXPECT_GT(three, one * 1.4);       // pipelining wins
    EXPECT_LT(eight, three * 1.35);    // but the server saturates
    EXPECT_GT(eight, three * 0.95);
}

TEST(Rpc, ThreeThreadsNearPaperBandwidth)
{
    // "4.6 megabits per second using an average of three concurrent
    // threads" - the model is calibrated to land in that band.
    RpcRig rig;
    const double mbps = rig.run(3, 1.0);
    EXPECT_GT(mbps, 3.8);
    EXPECT_LT(mbps, 5.4);
}

TEST(Rpc, RepliesLandInMemory)
{
    RpcRig rig;
    RpcEngine rpc(rig.sim, rig.nic, 1);
    rpc.start();
    rig.sim.run(secondsToCycles(0.05));
    rpc.stop();
    // The reply pattern was DMAed into the rx buffer.
    EXPECT_EQ(rig.memory.read(RpcEngine::bufferBase + 2048), 0xaa55aa55u);
}

TEST(Rpc, WireTrafficIsAccounted)
{
    RpcRig rig;
    RpcEngine rpc(rig.sim, rig.nic, 2);
    rpc.start();
    rig.sim.run(secondsToCycles(0.2));
    rpc.stop();
    // Every completed call transmitted one request; up to `threads`
    // more may be in flight at the cut-off.
    EXPECT_GE(rig.nic.txPackets.value(), rpc.callsCompleted.value());
    EXPECT_LE(rig.nic.txPackets.value(),
              rpc.callsCompleted.value() + 2);
    EXPECT_GE(rig.nic.rxPackets.value(), rpc.callsCompleted.value());
}
