#include "io/ethernet.hh"

#include "fault/fault_injector.hh"
#include "sim/logging.hh"

namespace firefly
{

namespace
{

constexpr double kLineMbps = 10.0;  // wire rate
static_assert(kLineMbps > 0, "Ethernet line rate must be positive");
constexpr Cycle kSetupCycles = 60;  // CSR pokes to start a transfer
constexpr unsigned kInterFrameGapBits = 96;

} // namespace

EthernetController::EthernetController(Simulator &sim, QBus &qbus,
                                       std::string name)
    : sim(sim), qbus(qbus), name(std::move(name)), statGroup(this->name)
{
    statGroup.addCounter(&txPackets, "tx_packets",
                         "packets transmitted");
    statGroup.addCounter(&txBytes, "tx_bytes", "bytes transmitted");
    statGroup.addCounter(&rxPackets, "rx_packets", "packets received");
    statGroup.addCounter(&rxBytes, "rx_bytes", "bytes received");
    statGroup.addCounter(&rxDropped, "rx_dropped",
                         "packets dropped for lack of a buffer");
}

Cycle
EthernetController::wireCycles(unsigned bytes) const
{
    // bits / (Mbit/s) = microseconds; 10 cycles per microsecond.
    const double bits = 8.0 * bytes + kInterFrameGapBits;
    return static_cast<Cycle>(bits / kLineMbps * 10.0) + 1;
}

void
EthernetController::transmit(Addr qbus_addr, unsigned bytes,
                             TxCallback done)
{
    if (bytes == 0)
        fatal("cannot transmit an empty packet");
    txQueue.push_back({qbus_addr, bytes, std::move(done)});
    if (!txBusy)
        pumpTx();
}

void
EthernetController::pumpTx()
{
    if (txQueue.empty()) {
        txBusy = false;
        return;
    }
    txBusy = true;
    TxRequest req = txQueue.front();
    txQueue.pop_front();

    sim.events().schedule(
        sim.now() + kSetupCycles,
        [this, req = std::move(req)]() mutable {
            startTx(std::move(req));
        },
        "ethernet tx setup");
}

void
EthernetController::startTx(TxRequest req)
{
    const unsigned words = (req.bytes + 3) / 4;
    const Addr addr = req.addr;
    qbus.dmaRead(addr, words, [this, req = std::move(req)](
                                  IoStatus status,
                                  std::vector<Word> payload) mutable {
        if (status != IoStatus::Ok) {
            warn("%s: transmit of %u bytes failed after %u attempts",
                 name.c_str(), req.bytes, fault::kDeviceRetryBudget);
            if (req.done)
                req.done(IoStatus::TimedOut);
            pumpTx();
            return;
        }
        const Cycle wire = wireCycles(req.bytes);
        sim.events().schedule(
            sim.now() + wire,
            [this, req = std::move(req),
             payload = std::move(payload)]() mutable {
                ++txPackets;
                txBytes += req.bytes;
                if (peer)
                    peer->injectFromWire(std::move(payload),
                                         req.bytes);
                if (req.done)
                    req.done(IoStatus::Ok);
                pumpTx();
            },
            "ethernet wire transfer");
    });
}

void
EthernetController::addReceiveBuffer(Addr qbus_addr,
                                     unsigned capacity_bytes)
{
    rxBuffers.push_back({qbus_addr, capacity_bytes});
}

void
EthernetController::setReceiveHandler(RxHandler handler)
{
    rxHandler = std::move(handler);
}

void
EthernetController::connectTo(EthernetController *other)
{
    peer = other;
}

void
EthernetController::injectFromWire(std::vector<Word> payload,
                                   unsigned bytes)
{
    if (rxBuffers.empty()) {
        ++rxDropped;
        return;
    }
    const RxBuffer buffer = rxBuffers.front();
    if (bytes > buffer.capacity) {
        ++rxDropped;
        return;
    }
    rxBuffers.pop_front();
    const Addr addr = buffer.addr;
    qbus.dmaWrite(addr, std::move(payload),
                  [this, addr, bytes](IoStatus status) {
        if (status != IoStatus::Ok) {
            // The receive DMA hung past the engine's retry budget;
            // the packet is lost on the floor exactly as on a real
            // wire - the sender's upper layers retransmit.  The
            // posted buffer was consumed.
            ++rxDropped;
            return;
        }
        ++rxPackets;
        rxBytes += bytes;
        if (rxHandler)
            rxHandler(addr, bytes);
    });
}

} // namespace firefly
