/**
 * @file
 * The disk controller (DEC RQDX3 model).
 *
 * "A buffered controller for rigid and floppy disks (RQDX3)" - a DMA
 * device on the QBus.  The model keeps real sector contents in its
 * own backing store, serves requests one at a time, and charges
 * seek + rotational + transfer time.  Rotational position is derived
 * deterministically from simulated time, so latencies are realistic
 * and reproducible.
 */

#ifndef FIREFLY_IO_DISK_HH
#define FIREFLY_IO_DISK_HH

#include <deque>
#include <functional>

#include "io/qbus.hh"
#include "mem/sparse_memory.hh"

namespace firefly
{

/** An RQDX3-like disk controller with one attached drive. */
class DiskController
{
  public:
    /** The drive's geometry. */
    static constexpr unsigned cylinders = 1024;
    static constexpr unsigned heads = 8;
    static constexpr unsigned sectorsPerTrack = 17;
    static constexpr unsigned bytesPerSector = 512;
    static constexpr unsigned totalSectors =
        cylinders * heads * sectorsPerTrack;
    static_assert(bytesPerSector % bytesPerWord == 0,
                  "sector size must be longword aligned");

    /** Completion callback: Ok, or TimedOut after the DMA engine's
     *  retry budget is exhausted (the request fails gracefully). */
    using Callback = std::function<void(IoStatus)>;

    DiskController(Simulator &sim, QBus &qbus, std::string name);

    /** Queue a read of `sectors` sectors at `lba` into memory. */
    void read(unsigned lba, unsigned sectors, Addr qbus_buffer,
              Callback done);

    /** Queue a write of `sectors` sectors at `lba` from memory. */
    void write(unsigned lba, unsigned sectors, Addr qbus_buffer,
               Callback done);

    // --- functional access for tests ---------------------------------
    Word peekWord(unsigned lba, unsigned word_in_sector) const;

    StatGroup &stats() { return statGroup; }

    Counter reads, writes, sectorsMoved;
    Accumulator seekCylinders;
    Accumulator serviceCycles;

  private:
    struct Request
    {
        bool isWrite;
        unsigned lba;
        unsigned sectors;
        Addr buffer;
        Callback done;
        Cycle queued;
    };

    unsigned cylinderOf(unsigned lba) const;
    double rotationFractionAt(Cycle when) const;
    Cycle mechanicalDelay(const Request &req) const;
    void submit(Request req);
    void pump();
    void transfer(const Request &req);
    /** The DMA finished: count it, or warn if it timed out past the
     *  engine's retry budget; then serve the next request. */
    void complete(const Request &req, IoStatus status);

    Simulator &sim;
    QBus &qbus;
    SparseMemory media;
    unsigned currentCylinder = 0;
    bool busy = false;
    std::deque<Request> queue;

    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_IO_DISK_HH
