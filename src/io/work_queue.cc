#include "io/work_queue.hh"

#include <algorithm>
#include <utility>

#include "mem/main_memory.hh"
#include "sim/logging.hh"

namespace firefly
{

namespace
{

constexpr Cycle kPollIntervalCycles = 2000;  // 200 us idle poll

} // namespace

WorkQueue::WorkQueue(Simulator &sim, QBus &qbus, Addr base,
                     Execute execute)
    : sim(sim), qbus(qbus), base(base), execute(std::move(execute))
{
}

Addr
WorkQueue::blockAddr(Word index) const
{
    return base + 8 + (index % entries) * sizeof(Command);
}

void
WorkQueue::start()
{
    if (started)
        return;
    started = true;
    sim.events().schedule(sim.now() + kPollIntervalCycles,
                          [this] { poll(); });
}

void
WorkQueue::pollLater()
{
    sim.events().schedule(sim.now() + kPollIntervalCycles,
                          [this] { poll(); }, "mdc poll");
}

void
WorkQueue::poll()
{
    ++polls;
    qbus.dmaRead(base, 2, [this](IoStatus status,
                                     std::vector<Word> header) {
        if (status != IoStatus::Ok || header[0] == header[1]) {
            pollLater();
            return;
        }
        qbus.dmaRead(blockAddr(header[1]), 8,
                     [this](IoStatus st, std::vector<Word> block) {
                         if (st != IoStatus::Ok) {
                             pollLater();  // the next poll rereads it
                             return;
                         }
                         Command command{};
                         std::copy(block.begin(), block.end(),
                                   command.begin());
                         execute(command);
                     });
    });
}

void
WorkQueue::finish(Cycle busy)
{
    busyCycles += busy;
    sim.events().schedule(sim.now() + busy, [this] {
        qbus.dmaRead(base, 2, [this](IoStatus status,
                                         std::vector<Word> header) {
            if (status != IoStatus::Ok) {
                // Consumer not advanced: the command runs again
                // (at-least-once, as on the real hardware).
                pollLater();
                return;
            }
            qbus.dmaWrite(base + 4, {header[1] + 1},
                          [this](IoStatus) { poll(); });
        });
    }, "mdc command finish");
}

void
WorkQueue::enqueue(MainMemory &memory, const Command &command) const
{
    const Word producer = memory.read(base);
    // peek: the full check adds no memory traffic to the statistics.
    if (producer - memory.peek(base + 4) >= entries)
        panic("work queue at %#x is full", base);
    for (unsigned i = 0; i < command.size(); ++i)
        memory.write(blockAddr(producer) + 4 * i, command[i]);
    memory.write(base, producer + 1);
}

bool
WorkQueue::drained(MainMemory &memory) const
{
    return memory.read(base + 4) == memory.read(base);
}

} // namespace firefly
