#include "topaz/rpc.hh"

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly
{

namespace
{

constexpr unsigned kRequestBytes = 1500;
constexpr unsigned kReplyBytes = 96;

/** Client software per call: marshal, dispatch, unmarshal. */
constexpr Cycle kClientOverheadCycles = 14000;  // 1.4 ms
/** Server occupancy per call (serialised; the bottleneck). */
constexpr Cycle kServerBusyCycles = 26000;      // 2.6 ms
/** Fixed network-stack latency at the server. */
constexpr Cycle kServerLatencyCycles = 2000;    // 0.2 ms

} // namespace

RpcEngine::RpcEngine(Simulator &sim, EthernetController &nic,
                     unsigned threads)
    : sim(sim), nic(nic), threads(threads), statGroup("rpc")
{
    if (threads == 0)
        fatal("RPC engine needs at least one call slot");
    statGroup.addCounter(&callsCompleted, "calls", "RPCs completed");
    statGroup.addCounter(&bytesTransferred, "bytes",
                         "request payload bytes transferred");
    statGroup.addCounter(&callsFailed, "calls_failed",
                         "RPCs abandoned after transmit failure");
    statGroup.addFormula("bandwidth_mbps",
                         "payload bandwidth in Mbit/s",
                         [this] { return bandwidthMbps(); });
}

Addr
RpcEngine::txBuffer(unsigned slot) const
{
    return bufferBase + slot * 4096;
}

Addr
RpcEngine::rxBuffer(unsigned slot) const
{
    return bufferBase + slot * 4096 + 2048;
}

void
RpcEngine::start()
{
    running = true;
    startCycle = sim.now();
    lastOutstandingChange = sim.now();
    for (unsigned slot = 0; slot < threads; ++slot)
        issueCall(slot);
}

void
RpcEngine::issueCall(unsigned slot)
{
    if (!running)
        return;
    outstandingIntegral +=
        static_cast<double>(outstanding) *
        (sim.now() - lastOutstandingChange);
    lastOutstandingChange = sim.now();
    ++outstanding;

    // Each slot serves one call at a time, so the call renders as a
    // slice on its own "rpc.slot<N>" track, send to reply-unmarshal.
    if (auto *ts = obs::traceSink()) {
        ts->begin(sim.now(), obs::kCatRpc,
                  "rpc.slot" + std::to_string(slot), "call",
                  {{"bytes", std::to_string(kRequestBytes)}});
    }

    // Client software: marshal the arguments, then hand the packet
    // to the controller (the DEQNA DMAs it out of main memory).
    sim.events().schedule(
        sim.now() + kClientOverheadCycles / 2, [this, slot] {
            nic.transmit(txBuffer(slot), kRequestBytes,
                         [this, slot](IoStatus status) {
                             if (status != IoStatus::Ok) {
                                 abandonCall(slot);
                                 return;
                             }
                             serverAccept(slot);
                         });
        }, "rpc marshal");
}

void
RpcEngine::abandonCall(unsigned slot)
{
    // The request never made it onto the wire; give up on this call
    // and start a fresh one on the slot (Topaz RPC retransmits).
    ++callsFailed;
    if (auto *ts = obs::traceSink()) {
        ts->end(sim.now(), obs::kCatRpc,
                "rpc.slot" + std::to_string(slot));
    }
    outstandingIntegral += static_cast<double>(outstanding) *
                           (sim.now() - lastOutstandingChange);
    lastOutstandingChange = sim.now();
    --outstanding;
    issueCall(slot);
}

void
RpcEngine::serverAccept(unsigned slot)
{
    sim.events().schedule(sim.now() + kServerLatencyCycles,
                          [this, slot] {
                              serverPending.push_back(slot);
                              if (!serverBusy)
                                  serverDone(serverPending.front());
                          });
}

void
RpcEngine::serverDone(unsigned slot)
{
    serverBusy = true;
    sim.events().schedule(sim.now() + kServerBusyCycles, [this, slot] {
        serverPending.pop_front();
        // Reply comes back over the wire into the client's posted
        // receive buffer (a real DMA into simulated memory).
        nic.addReceiveBuffer(rxBuffer(slot), 2048);
        nic.injectFromWire(
            std::vector<Word>((kReplyBytes + 3) / 4, 0xaa55aa55),
            kReplyBytes);
        replyDelivered(slot);
        if (!serverPending.empty())
            serverDone(serverPending.front());
        else
            serverBusy = false;
    });
}

void
RpcEngine::replyDelivered(unsigned slot)
{
    // Client unmarshal + thread wakeup, then reuse the slot.
    sim.events().schedule(
        sim.now() + kClientOverheadCycles / 2, [this, slot] {
            ++callsCompleted;
            if (auto *ts = obs::traceSink()) {
                ts->end(sim.now(), obs::kCatRpc,
                        "rpc.slot" + std::to_string(slot));
            }
            bytesTransferred += kRequestBytes;
            outstandingIntegral +=
                static_cast<double>(outstanding) *
                (sim.now() - lastOutstandingChange);
            lastOutstandingChange = sim.now();
            --outstanding;
            issueCall(slot);
        });
}

double
RpcEngine::bandwidthMbps() const
{
    const Cycle elapsed = sim.now() - startCycle;
    if (elapsed == 0)
        return 0.0;
    const double seconds = elapsed * 100e-9;
    return bytesTransferred.value() * 8.0 / seconds / 1e6;
}

double
RpcEngine::averageOutstanding() const
{
    const Cycle elapsed = sim.now() - startCycle;
    if (elapsed == 0)
        return 0.0;
    const double integral = outstandingIntegral +
        static_cast<double>(outstanding) *
            (sim.now() - lastOutstandingChange);
    return integral / elapsed;
}

} // namespace firefly
