#include "io/disk.hh"

#include <cmath>

#include "fault/fault_injector.hh"
#include "sim/logging.hh"

namespace firefly
{

namespace
{

// The drive's mechanics.
constexpr double kRpm = 3600.0;
constexpr double kSeekBaseMs = 4.0;  // head settle
constexpr double kSeekPerCylinderMs = 0.03;
constexpr double kTransferKBps = 625.0;  // media rate

constexpr unsigned kWordsPerSector =
    DiskController::bytesPerSector / bytesPerWord;

} // namespace

DiskController::DiskController(Simulator &sim, QBus &qbus,
                               std::string name)
    : sim(sim), qbus(qbus),
      media(static_cast<Addr>(totalSectors) * kWordsPerSector),
      statGroup(std::move(name))
{
    statGroup.addCounter(&reads, "reads", "read requests completed");
    statGroup.addCounter(&writes, "writes",
                         "write requests completed");
    statGroup.addCounter(&sectorsMoved, "sectors",
                         "sectors transferred");
    statGroup.addAccumulator(&seekCylinders, "seek_cylinders",
                             "cylinders moved per seek");
    statGroup.addAccumulator(&serviceCycles, "service_cycles",
                             "request service time (cycles)");
}

unsigned
DiskController::cylinderOf(unsigned lba) const
{
    return lba / (heads * sectorsPerTrack);
}

double
DiskController::rotationFractionAt(Cycle when) const
{
    const double cycles_per_rev = 60.0 / kRpm * 1e7;  // 100ns units
    const double pos =
        std::fmod(static_cast<double>(when), cycles_per_rev);
    return pos / cycles_per_rev;
}

Cycle
DiskController::mechanicalDelay(const Request &req) const
{
    // Seek.
    const unsigned target = cylinderOf(req.lba);
    const unsigned distance = target > currentCylinder
        ? target - currentCylinder
        : currentCylinder - target;
    double ms = 0.0;
    if (distance > 0)
        ms += kSeekBaseMs + kSeekPerCylinderMs * distance;
    Cycle delay = static_cast<Cycle>(ms * 1e4);  // ms -> 100ns cycles

    // Rotation: wait for the target sector to come under the head.
    const double cycles_per_rev = 60.0 / kRpm * 1e7;
    const double target_angle =
        static_cast<double>(req.lba % sectorsPerTrack) / sectorsPerTrack;
    const double angle_at_arrival =
        rotationFractionAt(sim.now() + delay);
    double wait = target_angle - angle_at_arrival;
    if (wait < 0)
        wait += 1.0;
    delay += static_cast<Cycle>(wait * cycles_per_rev);
    return delay;
}

void
DiskController::read(unsigned lba, unsigned sectors, Addr qbus_buffer,
                     Callback done)
{
    if (lba + sectors > totalSectors)
        fatal("disk access beyond media: lba %u + %u", lba, sectors);
    queue.push_back({false, lba, sectors, qbus_buffer,
                     std::move(done), sim.now()});
    if (!busy)
        pump();
}

void
DiskController::write(unsigned lba, unsigned sectors, Addr qbus_buffer,
                      Callback done)
{
    if (lba + sectors > totalSectors)
        fatal("disk access beyond media: lba %u + %u", lba, sectors);
    queue.push_back({true, lba, sectors, qbus_buffer,
                     std::move(done), sim.now()});
    if (!busy)
        pump();
}

void
DiskController::pump()
{
    if (queue.empty()) {
        busy = false;
        return;
    }
    busy = true;
    Request req = queue.front();
    queue.pop_front();

    const Cycle mech = mechanicalDelay(req);
    const unsigned target = cylinderOf(req.lba);
    seekCylinders.sample(std::abs(static_cast<int>(target) -
                                  static_cast<int>(currentCylinder)));
    currentCylinder = target;

    // Media transfer time (the DMA into memory overlaps it; the
    // controller is buffered, so we charge max(media, DMA) ~ media).
    const double bytes =
        static_cast<double>(req.sectors) * bytesPerSector;
    const Cycle media_time =
        static_cast<Cycle>(bytes / (kTransferKBps * 1024.0) * 1e7);

    sim.events().schedule(sim.now() + mech + media_time,
                          [this, req]() mutable { transfer(req); },
                          "disk mechanical delay");
}

void
DiskController::retryOrFail(Request req)
{
    auto *inj = qbus.engine().faultInjector();
    ++req.attempt;
    if (inj && req.attempt < fault::kDeviceRetryBudget) {
        ++inj->deviceRetries;
        sim.events().schedule(
            sim.now() + inj->deviceBackoff(req.attempt),
            [this, req]() mutable { transfer(std::move(req)); },
            "disk transfer retry");
        return;
    }
    if (inj)
        ++inj->deviceFailures;
    warn("%s: %s of %u sectors at lba %u failed after %u attempts",
         statGroup.name().c_str(), req.isWrite ? "write" : "read",
         req.sectors, req.lba, req.attempt);
    if (req.done)
        req.done(IoStatus::TimedOut);
    pump();
}

void
DiskController::transfer(Request req)
{
    const unsigned total_words = req.sectors * kWordsPerSector;
    const Addr media_word = static_cast<Addr>(req.lba) * kWordsPerSector;

    if (req.isWrite) {
        // DMA the data out of memory, then commit to the media.
        qbus.dmaRead(req.buffer, total_words,
                     [this, req, media_word](IoStatus status,
                                             std::vector<Word> data) {
                         if (status != IoStatus::Ok) {
                             retryOrFail(req);
                             return;
                         }
                         for (unsigned i = 0; i < data.size(); ++i)
                             media.write(media_word + i, data[i]);
                         ++writes;
                         sectorsMoved += req.sectors;
                         serviceCycles.sample(
                             static_cast<double>(sim.now() -
                                                 req.queued));
                         if (req.done)
                             req.done(IoStatus::Ok);
                         pump();
                     });
    } else {
        std::vector<Word> data(total_words);
        for (unsigned i = 0; i < total_words; ++i)
            data[i] = media.read(media_word + i);
        qbus.dmaWrite(req.buffer, std::move(data),
                      [this, req](IoStatus status) {
            if (status != IoStatus::Ok) {
                retryOrFail(req);
                return;
            }
            ++reads;
            sectorsMoved += req.sectors;
            serviceCycles.sample(
                static_cast<double>(sim.now() - req.queued));
            if (req.done)
                req.done(IoStatus::Ok);
            pump();
        });
    }
}

Word
DiskController::peekWord(unsigned lba, unsigned word_in_sector) const
{
    return media.read(static_cast<Addr>(lba) * kWordsPerSector +
                      word_in_sector);
}

} // namespace firefly
