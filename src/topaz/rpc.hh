/**
 * @file
 * The Topaz RPC data-transfer engine.
 *
 * "Communication is implemented uniformly through the use of remote
 * procedure calls... We have found that our RPC data transfer
 * protocol, with multiple outstanding calls, achieves very high
 * performance.  The remote server can sustain a bandwidth of 4.6
 * megabits per second using an average of three concurrent threads."
 *
 * The engine models the client side faithfully on the simulated
 * machine - per-call marshalling overhead, packet DMA out of main
 * memory through the I/O processor's cache, 10 Mbit/s wire time,
 * reply DMA back in - and the remote server as a latency/throughput
 * model (per-call processing occupies the server serially; the
 * remote machine itself is not simulated).  Each "thread" is one
 * outstanding call slot, matching the paper's usage.
 */

#ifndef FIREFLY_TOPAZ_RPC_HH
#define FIREFLY_TOPAZ_RPC_HH

#include <deque>

#include "io/ethernet.hh"

namespace firefly
{

/** Pipelined RPC client + modelled remote server. */
class RpcEngine
{
  public:
    struct Config
    {
        /** Concurrent outstanding calls (the paper's "threads"). */
        unsigned threads = 3;
        unsigned requestBytes = 1500;
        unsigned replyBytes = 96;

        /** Client software per call: marshal, dispatch, unmarshal. */
        Cycle clientOverheadCycles = 14000;  // 1.4 ms
        /** Server occupancy per call (serialised; the bottleneck). */
        Cycle serverBusyCycles = 26000;      // 2.6 ms
        /** Fixed network-stack latency at the server. */
        Cycle serverLatencyCycles = 2000;    // 0.2 ms

        /** QBus address of the first per-call buffer (tx then rx,
         *  each rounded to 2 KB). */
        Addr bufferBase = 0x0020'0000;
    };

    RpcEngine(Simulator &sim, QBus &qbus, EthernetController &nic,
              Config config);

    /** Launch all call slots; they loop until stop(). */
    void start();
    void stop() { running = false; }

    /** Payload bandwidth achieved so far (request data, Mbit/s). */
    double bandwidthMbps() const;
    /** Mean outstanding calls over the run so far. */
    double averageOutstanding() const;

    StatGroup &stats() { return statGroup; }

    Counter callsCompleted;
    Counter bytesTransferred;
    /** Calls whose request transmit failed (device timeout past the
     *  NIC's retry budget); the slot reissues a fresh call. */
    Counter callsFailed;

  private:
    void issueCall(unsigned slot);
    void abandonCall(unsigned slot);
    void serverAccept(unsigned slot);
    void serverDone(unsigned slot);
    void replyDelivered(unsigned slot);
    Addr txBuffer(unsigned slot) const;
    Addr rxBuffer(unsigned slot) const;

    Simulator &sim;
    QBus &qbus;
    EthernetController &nic;
    Config cfg;

    bool running = false;
    Cycle startCycle = 0;
    unsigned outstanding = 0;
    double outstandingIntegral = 0.0;
    Cycle lastOutstandingChange = 0;

    /** Server model: calls queue and are served one at a time. */
    bool serverBusy = false;
    std::deque<unsigned> serverPending;

    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_TOPAZ_RPC_HH
