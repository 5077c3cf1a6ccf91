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
    /** QBus address of the first per-call buffer (tx then rx, each
     *  rounded to 2 KB). */
    static constexpr Addr bufferBase = 0x0020'0000;

    /** An engine with `threads` concurrent outstanding calls (the
     *  paper's "threads"). */
    RpcEngine(Simulator &sim, EthernetController &nic, unsigned threads);

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
    EthernetController &nic;
    unsigned threads;

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
