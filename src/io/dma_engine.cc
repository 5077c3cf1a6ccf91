#include "io/dma_engine.hh"

#include <algorithm>

#include "fault/fault_injector.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly
{

DmaEngine::DmaEngine(Simulator &sim, Cache &io_cache, Addr io_limit,
                     Cycle cycles_per_word)
    : sim(sim), ioCache(io_cache), ioLimit(io_limit),
      pacing(cycles_per_word), statGroup("dma")
{
    if (pacing == 0)
        fatal("DMA pacing must be at least one cycle per word");
    statGroup.addCounter(&wordsRead, "words_read",
                         "longwords DMAed from memory");
    statGroup.addCounter(&wordsWritten, "words_written",
                         "longwords DMAed to memory");
    statGroup.addCounter(&requestCount, "requests", "DMA requests");
}

void
DmaEngine::readWords(Addr addr, unsigned count, ReadCallback done)
{
    submit({false, addr, count, {}, std::move(done), {}});
}

void
DmaEngine::writeWords(Addr addr, std::vector<Word> data,
                      WriteCallback done)
{
    const auto count = static_cast<unsigned>(data.size());
    submit({true, addr, count, std::move(data), {}, std::move(done)});
}

void
DmaEngine::submit(Request req)
{
    if (req.addr % bytesPerWord != 0)
        fatal("DMA address 0x%x not longword aligned", req.addr);
    if (req.addr + req.remaining * bytesPerWord > ioLimit) {
        fatal("DMA beyond the I/O processor's reach: 0x%x + %u words "
              "(limit 0x%x)", req.addr, req.remaining, ioLimit);
    }
    if (req.remaining == 0) {
        complete(req, IoStatus::Ok);
        return;
    }
    if (injector && injector->faultPlan().deviceTimeout()) {
        timeOut(std::move(req));
        return;
    }
    ++requestCount;
    // A read fills its buffer in place; a write's is already full.
    req.data.resize(req.remaining);
    requests.push_back(std::move(req));
    if (!wordInFlight)
        pump();
}

void
DmaEngine::timeOut(Request req)
{
    // The transfer never starts; the engine only learns after the bus
    // timeout expires.  Completing through the event queue keeps hung
    // devices from wedging "while (!done)" loops.
    ++injector->deviceTimeouts;
    if (auto *ts = obs::traceSink()) {
        ts->instant(sim.now(), obs::kCatFault, statGroup.name(),
                    "device-timeout",
                    {{"addr", obs::hexAddr(req.addr)},
                     {"op", req.isWrite ? "dma-write" : "dma-read"}});
    }
    sim.events().schedule(
        sim.now() + injector->config().deviceTimeoutCycles,
        [this, req = std::move(req)]() mutable {
            if (++req.attempt < fault::kDeviceRetryBudget) {
                ++injector->deviceRetries;
                sim.events().schedule(
                    sim.now() + injector->deviceBackoff(req.attempt),
                    [this, req = std::move(req)]() mutable {
                        submit(std::move(req));
                    },
                    "dma retry");
                return;
            }
            ++injector->deviceFailures;
            complete(req, IoStatus::TimedOut);
        },
        "dma timeout completion");
}

void
DmaEngine::complete(Request &req, IoStatus status)
{
    if (req.isWrite) {
        if (req.writeDone)
            req.writeDone(status);
    } else if (req.readDone) {
        req.readDone(status, std::move(req.data));
    }
}

void
DmaEngine::pump()
{
    if (requests.empty()) {
        wordInFlight = false;
        return;
    }
    wordInFlight = true;
    Request &req = requests.front();
    const std::size_t word = req.data.size() - req.remaining;

    // Requests are served FIFO and whole, so each renders as one
    // contiguous slice on the DMA track, first word to last callback.
    if (word == 0) {
        if (auto *ts = obs::traceSink()) {
            ts->begin(sim.now(), obs::kCatDma, statGroup.name(),
                      req.isWrite ? "dma-write" : "dma-read",
                      {{"addr", obs::hexAddr(req.addr)},
                       {"words", std::to_string(req.data.size())}});
        }
    }

    // One word now; the next word starts `pacing` cycles after this
    // one was issued (the QBus word cycle covers the transfer).
    const Cycle issued = sim.now();
    ioCache.dmaAccess(
        {static_cast<Addr>(req.addr + word * bytesPerWord),
         req.isWrite ? RefType::DataWrite : RefType::DataRead,
         req.data[word]},
        [this, issued](Word value) {
            Request &front = requests.front();
            if (front.isWrite) {
                ++wordsWritten;
            } else {
                ++wordsRead;
                front.data[front.data.size() - front.remaining] = value;
            }
            if (--front.remaining == 0) {
                if (auto *ts = obs::traceSink())
                    ts->end(sim.now(), obs::kCatDma, statGroup.name());
                Request done = std::move(front);
                requests.pop_front();
                complete(done, IoStatus::Ok);
            }
            const Cycle next = std::max(issued + pacing, sim.now() + 1);
            sim.events().schedule(next, [this] { pump(); },
                                  "dma word pacing");
        });
}

} // namespace firefly
