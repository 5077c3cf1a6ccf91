/**
 * @file
 * The optional high-resolution color display controller.
 *
 * "Optional hardware includes a high resolution color display" -
 * and, because display controllers are ordinary QBus work-queue
 * devices, "it is easy to plug multiple display controllers into a
 * single Firefly.  Many SRC researchers now have multiple displays."
 *
 * The color controller follows the MDC's architecture - it polls a
 * WorkQueue (io/work_queue.hh) in main memory via DMA - but drives
 * an 8-bit-deep 1024x768 frame buffer through a 256-entry color map.
 * Commands: rectangle fill with a color index, rectangle copy,
 * color-map load, and image upload from main memory (four pixels per
 * longword).
 */

#ifndef FIREFLY_IO_COLOR_DISPLAY_HH
#define FIREFLY_IO_COLOR_DISPLAY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "io/framebuffer.hh"  // PixelRect
#include "io/work_queue.hh"

namespace firefly
{

/** 8-bit-deep frame buffer with a 256-entry RGB color map. */
class ColorFrameBuffer
{
  public:
    static constexpr unsigned widthPx = 1024;
    static constexpr unsigned heightPx = 768;

    ColorFrameBuffer();

    std::uint8_t pixel(unsigned x, unsigned y) const;
    void setPixel(unsigned x, unsigned y, std::uint8_t index);

    /** Fill a rectangle with a color index; returns pixels touched. */
    std::uint64_t fill(const PixelRect &rect, std::uint8_t index);

    /** Copy a rectangle (overlap-safe); returns pixels touched. */
    std::uint64_t copy(const PixelRect &src, unsigned dst_x,
                       unsigned dst_y);

    /** Color map: packed 0x00RRGGBB entries. */
    void setColor(std::uint8_t index, std::uint32_t rgb);
    std::uint32_t color(std::uint8_t index) const;

    /** Resolve a pixel through the color map. */
    std::uint32_t rgbAt(unsigned x, unsigned y) const;

    /** Pixels in `rect` whose index equals `index` (for tests). */
    std::uint64_t countIndex(const PixelRect &rect,
                             std::uint8_t index) const;

  private:
    void clip(PixelRect &rect) const;

    std::vector<std::uint8_t> pixels;
    std::array<std::uint32_t, 256> colormap{};
};

/** Color display command opcodes. */
enum class CdcOpcode : Word
{
    Nop = 0,
    /** FillColor: x, y, w, h, colorIndex. */
    FillColor = 1,
    /** CopyRect: sx, sy, dx, dy, w, h. */
    CopyRect = 2,
    /** LoadColorMap: firstIndex, count, qbusAddr of 0x00RRGGBB. */
    LoadColorMap = 3,
    /** PutImage: qbusAddr, strideWords, dx, dy, w, h (4 px/word). */
    PutImage = 4,
};

/** The color display controller: same work-queue design as the MDC. */
class ColorDisplayController
{
  public:
    struct Config
    {
        WorkQueue::Config queue;
        double pixelsPerCycle = 1.2;  ///< deeper pixels paint slower
        Cycle commandOverheadCycles = 300;
    };

    ColorDisplayController(Simulator &sim, QBus &qbus,
                           const Config &config);

    ColorFrameBuffer &frameBuffer() { return fb; }
    /** The controller's work queue; queue().start() begins polling. */
    WorkQueue &queue() { return workQueue; }

    static WorkQueue::Command encodeFill(unsigned x, unsigned y,
                                         unsigned w, unsigned h,
                                         std::uint8_t index);
    static WorkQueue::Command encodeCopyRect(unsigned sx, unsigned sy,
                                             unsigned dx, unsigned dy,
                                             unsigned w, unsigned h);
    static WorkQueue::Command encodeLoadColorMap(unsigned first,
                                                 unsigned count,
                                                 Addr qbus_addr);
    static WorkQueue::Command encodePutImage(Addr qbus_addr,
                                             unsigned stride_words,
                                             unsigned dx, unsigned dy,
                                             unsigned w, unsigned h);

    StatGroup &stats() { return statGroup; }

    Counter commandsExecuted;
    Counter pixelsPainted;

  private:
    void executeEntry(const WorkQueue::Command &entry);

    QBus &qbus;
    Config cfg;
    ColorFrameBuffer fb;
    WorkQueue workQueue;

    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_IO_COLOR_DISPLAY_HH
