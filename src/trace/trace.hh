/**
 * @file
 * Reference-trace recording and replay.
 *
 * The paper's own methodology: "Trace-driven simulation of the
 * MicroVAX CPU, carried out for us by Deborrah Zukowski... showed it
 * to be an 11.9 tick-per-instruction implementation" - processor
 * characterisation came from captured reference traces.  This module
 * provides the equivalent plumbing: any RefSource can be recorded to
 * a compact binary trace file, and a trace file can drive a
 * processor again (exactly reproducible workloads, cross-machine
 * what-if runs, corpus distribution).
 *
 * File format (little-endian):
 *   16-byte header: magic "FFTR", version u32, record count u64
 *   then per record 8 bytes:
 *     u32 addr | u32 (type in bits 0..1, payload in bits 2..31)
 *   where type 0/1/2 = I-read/D-read/D-write with payload = write
 *   value (truncated to 30 bits), and type 3 = compute with payload
 *   = tick count.
 */

#ifndef FIREFLY_TRACE_TRACE_HH
#define FIREFLY_TRACE_TRACE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cpu/ref_source.hh"

namespace firefly
{

/** One trace entry: a reference or a compute gap. */
struct TraceRecord
{
    enum class Kind : std::uint8_t
    {
        InstrRead = 0,
        DataRead = 1,
        DataWrite = 2,
        Compute = 3,
    };

    Kind kind = Kind::Compute;
    Addr addr = 0;           ///< for references
    std::uint32_t payload = 0;  ///< write value or compute ticks

    static TraceRecord fromStep(const CpuStep &step);
    CpuStep toStep() const;
};

/** Writes trace records to a binary file. */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const TraceRecord &record);

    /** Flush and finalise the header.  Implied by destruction. */
    void close();

  private:
    std::FILE *file;
    std::uint64_t count = 0;
};

/** Reads a trace file into memory. */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    const std::vector<TraceRecord> &records() const { return _records; }

  private:
    std::vector<TraceRecord> _records;
};

/**
 * Tees another RefSource to a trace file while passing its steps
 * through unchanged (records everything up to the Halt).
 */
class RecordingSource : public RefSource
{
  public:
    RecordingSource(RefSource &inner, const std::string &path);

    CpuStep next() override;
    void onRefCompleted(const MemRef &ref, Word data) override;
    std::uint64_t instructionsCompleted() const override;

    TraceWriter &writer() { return _writer; }

  private:
    RefSource &inner;
    TraceWriter _writer;
};

/** Replays a trace file as a processor workload. */
class ReplaySource : public RefSource
{
  public:
    /** @param repeat  number of passes over the trace (0 = forever). */
    explicit ReplaySource(const std::string &path, unsigned repeat = 1);

    CpuStep next() override;
    std::uint64_t instructionsCompleted() const override;

  private:
    TraceReader reader;
    std::size_t pos = 0;
    unsigned remainingPasses;
    bool forever;
    std::uint64_t instructions = 0;
};

} // namespace firefly

#endif // FIREFLY_TRACE_TRACE_HH
