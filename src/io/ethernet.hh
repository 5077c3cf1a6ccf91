/**
 * @file
 * The Ethernet controller (DEC DEQNA model).
 *
 * A buffered DMA controller on the QBus: transmit fetches the packet
 * from main memory through the I/O processor's cache, then drives
 * the 10 Mbit/s wire; receive DMAs arriving packets into host-posted
 * buffers and raises a completion.  Two controllers can be connected
 * back to back (the RPC experiments), or a packet can be injected
 * from a modelled remote peer.
 *
 * The paper's fast path - "Any processor can enqueue work for the
 * network and then initiate the transfer by a specialized
 * interprocessor interrupt to the I/O processor" - corresponds to
 * calling transmit() from any context; the few CSR instructions are
 * modelled as a fixed setup time.
 */

#ifndef FIREFLY_IO_ETHERNET_HH
#define FIREFLY_IO_ETHERNET_HH

#include <deque>
#include <functional>

#include "io/qbus.hh"

namespace firefly
{

/** A DEQNA-like Ethernet controller. */
class EthernetController
{
  public:
    /** Receive notification: physical buffer address and length. */
    using RxHandler = std::function<void(Addr qbus_addr,
                                         unsigned bytes)>;

    EthernetController(Simulator &sim, QBus &qbus, std::string name);

    /**
     * Transmit `bytes` starting at the QBus address.  The packet is
     * DMAed out of memory, serialised onto the wire, and delivered
     * to the connected peer (or dropped if none).  `done` fires when
     * the wire transfer completes - with TimedOut if the DMA fetch
     * kept timing out past the retry budget (packet never sent).
     */
    using TxCallback = std::function<void(IoStatus)>;
    void transmit(Addr qbus_addr, unsigned bytes, TxCallback done);

    /** Post a receive buffer (used in FIFO order). */
    void addReceiveBuffer(Addr qbus_addr, unsigned capacity_bytes);

    void setReceiveHandler(RxHandler handler);

    /** Connect to a peer controller (one-directional; call on both). */
    void connectTo(EthernetController *peer);

    /** A packet arrives from the wire. */
    void injectFromWire(std::vector<Word> payload, unsigned bytes);

    StatGroup &stats() { return statGroup; }

    Counter txPackets, txBytes;
    Counter rxPackets, rxBytes;
    Counter rxDropped;

  private:
    Cycle wireCycles(unsigned bytes) const;
    void pumpTx();

    struct TxRequest
    {
        Addr addr;
        unsigned bytes;
        TxCallback done;
        unsigned attempt = 0;  ///< timed-out DMA fetches so far
    };

    /** DMA the packet out of memory and put it on the wire;
     *  re-entered on retry after a DMA timeout. */
    void startTx(TxRequest req);

    struct RxBuffer
    {
        Addr addr;
        unsigned capacity;
    };

    Simulator &sim;
    QBus &qbus;
    std::string name;
    EthernetController *peer = nullptr;
    RxHandler rxHandler;

    std::deque<TxRequest> txQueue;
    bool txBusy = false;
    std::deque<RxBuffer> rxBuffers;

    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_IO_ETHERNET_HH
