#include "io/color_display.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace firefly
{

ColorFrameBuffer::ColorFrameBuffer()
    : pixels(static_cast<std::size_t>(widthPx) * heightPx, 0)
{
    // A sensible default map: index == grey level.
    for (unsigned i = 0; i < 256; ++i)
        colormap[i] = (i << 16) | (i << 8) | i;
}

std::uint8_t
ColorFrameBuffer::pixel(unsigned x, unsigned y) const
{
    if (x >= widthPx || y >= heightPx)
        return 0;
    return pixels[static_cast<std::size_t>(y) * widthPx + x];
}

void
ColorFrameBuffer::setPixel(unsigned x, unsigned y, std::uint8_t index)
{
    if (x >= widthPx || y >= heightPx)
        return;
    pixels[static_cast<std::size_t>(y) * widthPx + x] = index;
}

void
ColorFrameBuffer::clip(PixelRect &rect) const
{
    if (rect.x >= widthPx || rect.y >= heightPx) {
        rect.width = rect.height = 0;
        return;
    }
    rect.width = std::min<unsigned>(rect.width, widthPx - rect.x);
    rect.height = std::min<unsigned>(rect.height, heightPx - rect.y);
}

std::uint64_t
ColorFrameBuffer::fill(const PixelRect &rect_in, std::uint8_t index)
{
    PixelRect rect = rect_in;
    clip(rect);
    for (unsigned row = 0; row < rect.height; ++row) {
        auto *line = &pixels[static_cast<std::size_t>(rect.y + row) *
                                 widthPx + rect.x];
        std::fill(line, line + rect.width, index);
    }
    return static_cast<std::uint64_t>(rect.width) * rect.height;
}

std::uint64_t
ColorFrameBuffer::copy(const PixelRect &src_in, unsigned dst_x,
                       unsigned dst_y)
{
    PixelRect src = src_in;
    clip(src);
    if (dst_x >= widthPx || dst_y >= heightPx)
        return 0;
    const unsigned width = std::min<unsigned>(src.width, widthPx - dst_x);
    const unsigned height =
        std::min<unsigned>(src.height, heightPx - dst_y);

    const bool backward =
        dst_y > src.y || (dst_y == src.y && dst_x > src.x);
    for (unsigned row = 0; row < height; ++row) {
        const unsigned r = backward ? height - 1 - row : row;
        const auto *from =
            &pixels[static_cast<std::size_t>(src.y + r) * widthPx +
                    src.x];
        auto *to = &pixels[static_cast<std::size_t>(dst_y + r) *
                               widthPx + dst_x];
        if (backward)
            std::copy_backward(from, from + width, to + width);
        else
            std::copy(from, from + width, to);
    }
    return static_cast<std::uint64_t>(width) * height;
}

void
ColorFrameBuffer::setColor(std::uint8_t index, std::uint32_t rgb)
{
    colormap[index] = rgb & 0xffffffu;
}

std::uint32_t
ColorFrameBuffer::color(std::uint8_t index) const
{
    return colormap[index];
}

std::uint32_t
ColorFrameBuffer::rgbAt(unsigned x, unsigned y) const
{
    return colormap[pixel(x, y)];
}

std::uint64_t
ColorFrameBuffer::countIndex(const PixelRect &rect_in,
                             std::uint8_t index) const
{
    PixelRect rect = rect_in;
    clip(rect);
    std::uint64_t count = 0;
    for (unsigned row = 0; row < rect.height; ++row) {
        for (unsigned col = 0; col < rect.width; ++col)
            count += pixel(rect.x + col, rect.y + row) == index;
    }
    return count;
}

ColorDisplayController::ColorDisplayController(Simulator &sim,
                                               QBus &qbus,
                                               const Config &config)
    : qbus(qbus), cfg(config),
      workQueue(sim, qbus, cfg.queue, "cdc poll", "cdc command finish",
                std::bind_front(&ColorDisplayController::executeEntry,
                                this)),
      statGroup("cdc")
{
    statGroup.addCounter(&commandsExecuted, "commands",
                         "work-queue commands executed");
    statGroup.addCounter(&pixelsPainted, "pixels", "pixels painted");
    statGroup.addCounter(&workQueue.polls, "polls", "work-queue polls");
    statGroup.addCounter(&workQueue.busyCycles, "busy_cycles",
                         "cycles spent executing commands");
}

WorkQueue::Command
ColorDisplayController::encodeFill(unsigned x, unsigned y, unsigned w,
                                   unsigned h, std::uint8_t index)
{
    return {static_cast<Word>(CdcOpcode::FillColor), x, y, w, h,
            index, 0, 0};
}

WorkQueue::Command
ColorDisplayController::encodeCopyRect(unsigned sx, unsigned sy,
                                       unsigned dx, unsigned dy,
                                       unsigned w, unsigned h)
{
    return {static_cast<Word>(CdcOpcode::CopyRect), sx, sy, dx, dy, w,
            h, 0};
}

WorkQueue::Command
ColorDisplayController::encodeLoadColorMap(unsigned first,
                                           unsigned count,
                                           Addr qbus_addr)
{
    return {static_cast<Word>(CdcOpcode::LoadColorMap), first, count,
            qbus_addr, 0, 0, 0, 0};
}

WorkQueue::Command
ColorDisplayController::encodePutImage(Addr qbus_addr,
                                       unsigned stride_words,
                                       unsigned dx, unsigned dy,
                                       unsigned w, unsigned h)
{
    return {static_cast<Word>(CdcOpcode::PutImage), qbus_addr,
            stride_words, dx, dy, w, h, 0};
}

void
ColorDisplayController::executeEntry(const WorkQueue::Command &entry)
{
    ++commandsExecuted;
    Cycle busy = cfg.commandOverheadCycles;

    switch (static_cast<CdcOpcode>(entry[0])) {
      case CdcOpcode::Nop:
        break;

      case CdcOpcode::FillColor: {
        const auto pixels =
            fb.fill({entry[1], entry[2], entry[3], entry[4]},
                    static_cast<std::uint8_t>(entry[5]));
        pixelsPainted += pixels;
        busy += static_cast<Cycle>(pixels / cfg.pixelsPerCycle);
        break;
      }

      case CdcOpcode::CopyRect: {
        const auto pixels =
            fb.copy({entry[1], entry[2], entry[5], entry[6]},
                    entry[3], entry[4]);
        pixelsPainted += pixels;
        busy += static_cast<Cycle>(pixels / cfg.pixelsPerCycle);
        break;
      }

      case CdcOpcode::LoadColorMap: {
        const unsigned first = entry[1];
        const unsigned count = std::min<unsigned>(entry[2], 256);
        qbus.dmaRead(entry[3], count,
                     [this, first, count](IoStatus st,
                                          std::vector<Word> map) {
                         if (st != IoStatus::Ok) {
                             workQueue.finish(cfg.commandOverheadCycles);
                             return;
                         }
                         for (unsigned i = 0; i < count; ++i) {
                             fb.setColor(
                                 static_cast<std::uint8_t>(
                                     (first + i) & 0xff),
                                 map[i]);
                         }
                         workQueue.finish(cfg.commandOverheadCycles +
                                          count);
                     });
        return;
      }

      case CdcOpcode::PutImage: {
        const unsigned stride = entry[2];
        const unsigned dx = entry[3], dy = entry[4];
        const unsigned w = entry[5], h = entry[6];
        qbus.dmaRead(entry[1], stride * h,
                     [this, stride, dx, dy, w,
                      h](IoStatus st, std::vector<Word> data) {
                         if (st != IoStatus::Ok) {
                             workQueue.finish(cfg.commandOverheadCycles);
                             return;
                         }
                         std::uint64_t painted = 0;
                         for (unsigned row = 0; row < h; ++row) {
                             for (unsigned col = 0; col < w; ++col) {
                                 const Word word =
                                     data[row * stride + col / 4];
                                 const auto index =
                                     static_cast<std::uint8_t>(
                                         (word >> (8 * (col % 4))) &
                                         0xff);
                                 fb.setPixel(dx + col, dy + row,
                                             index);
                                 ++painted;
                             }
                         }
                         pixelsPainted += painted;
                         workQueue.finish(
                             cfg.commandOverheadCycles +
                             static_cast<Cycle>(painted /
                                                cfg.pixelsPerCycle));
                     });
        return;
      }

      default:
        warn("color controller: unknown opcode %u", entry[0]);
        break;
    }
    workQueue.finish(busy);
}

} // namespace firefly
