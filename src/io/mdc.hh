/**
 * @file
 * The monochrome display controller (MDC).
 *
 * "The MDC periodically polls a work queue kept in Firefly main
 * memory, and executes commands from the queue... This design
 * provides fully symmetric access to the displays by any processor."
 * Commands are BitBlt operations within the frame buffer or between
 * main memory and the buffer, plus an optimised character painter
 * that blts glyphs from a font cache kept in off-screen video RAM.
 * "Sixty times per second, the controller deposits in Firefly memory
 * the current mouse position and an unencoded bitmap representing
 * the current state of the keyboard."
 *
 * Timing targets from the paper: 16 megapixels/second for large
 * areas, ~20,000 10-point characters/second, 60 Hz input deposits.
 */

#ifndef FIREFLY_IO_MDC_HH
#define FIREFLY_IO_MDC_HH

#include <array>

#include "io/framebuffer.hh"
#include "io/work_queue.hh"

namespace firefly
{

/** MDC command opcodes (word 0 of a queue entry). */
enum class MdcOpcode : Word
{
    Nop = 0,
    /** Fill: x, y, width, height, rasterOp. */
    Fill = 1,
    /** CopyRect within the frame buffer: sx, sy, dx, dy, w, h, op. */
    CopyRect = 2,
    /** PaintChars: x, y, count, qbusAddr of packed char codes. */
    PaintChars = 3,
    /** BltFromMemory: qbusAddr, strideWords, dx, dy, w, h. */
    BltFromMemory = 4,
};

/** The display controller. */
class Mdc
{
  public:
    struct Config
    {
        Addr queueBase = 0;  ///< QBus address of the command ring
        /** Input deposit area (mouseX, mouseY, 4 keyboard words). */
        Addr inputBase = 0;
    };

    Mdc(Simulator &sim, QBus &qbus, const Config &config);

    /** Begin polling (and input deposits). */
    void start();

    FrameBuffer &frameBuffer() { return fb; }
    WorkQueue &queue() { return workQueue; }

    /**
     * Load the built-in 8x16 glyph set into the font cache (the
     * off-screen quarter of video RAM).  Glyph for code c lives at
     * ((c % 128) * 8 % 1024, 768 + 16 * ((c % 128) / 128 ... packed
     * row-major).
     */
    void loadBuiltinFont();

    /** Where glyph `code` lives in the off-screen font cache. */
    static PixelRect glyphRect(unsigned code);

    // --- host-side command encoding --------------------------------------
    static WorkQueue::Command encodeFill(unsigned x, unsigned y,
                                         unsigned w, unsigned h,
                                         RasterOp op);
    static WorkQueue::Command encodeCopyRect(unsigned sx, unsigned sy,
                                             unsigned dx, unsigned dy,
                                             unsigned w, unsigned h,
                                             RasterOp op);
    static WorkQueue::Command encodePaintChars(unsigned x, unsigned y,
                                               unsigned count,
                                               Addr chars_qbus_addr);
    static WorkQueue::Command encodeBltFromMemory(Addr src_qbus_addr,
                                                  unsigned stride_words,
                                                  unsigned dx,
                                                  unsigned dy,
                                                  unsigned w,
                                                  unsigned h);

    // --- input devices ----------------------------------------------------
    void setMouse(unsigned x, unsigned y);
    void keyEvent(unsigned keycode, bool down);

    StatGroup &stats() { return statGroup; }

    Counter commandsExecuted;
    Counter pixelsPainted;
    Counter charsPainted;
    Counter deposits;

  private:
    void executeEntry(const WorkQueue::Command &entry);
    void depositInput();
    void paintCharsFromCodes(const std::vector<Word> &packed,
                             unsigned x, unsigned y, unsigned count);

    Simulator &sim;
    QBus &qbus;
    Config cfg;
    FrameBuffer fb;
    WorkQueue workQueue;
    bool started = false;

    unsigned mouseX = 0, mouseY = 0;
    std::array<Word, 4> keyBitmap{};

    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_IO_MDC_HH
