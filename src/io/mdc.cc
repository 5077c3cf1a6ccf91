#include "io/mdc.hh"

#include "sim/logging.hh"

namespace firefly
{

namespace
{

/**
 * Classic 5x7 column font, ASCII 32..126.  Each glyph is five column
 * bytes, bit 0 at the top.  Rendered into the 8x16 font-cache cells
 * with a 1,4 offset, approximating the 10-point screen font.
 */
const unsigned char font5x7[95][5] = {
    {0x00,0x00,0x00,0x00,0x00}, {0x00,0x00,0x5F,0x00,0x00},
    {0x00,0x07,0x00,0x07,0x00}, {0x14,0x7F,0x14,0x7F,0x14},
    {0x24,0x2A,0x7F,0x2A,0x12}, {0x23,0x13,0x08,0x64,0x62},
    {0x36,0x49,0x55,0x22,0x50}, {0x00,0x05,0x03,0x00,0x00},
    {0x00,0x1C,0x22,0x41,0x00}, {0x00,0x41,0x22,0x1C,0x00},
    {0x08,0x2A,0x1C,0x2A,0x08}, {0x08,0x08,0x3E,0x08,0x08},
    {0x00,0x50,0x30,0x00,0x00}, {0x08,0x08,0x08,0x08,0x08},
    {0x00,0x60,0x60,0x00,0x00}, {0x20,0x10,0x08,0x04,0x02},
    {0x3E,0x51,0x49,0x45,0x3E}, {0x00,0x42,0x7F,0x40,0x00},
    {0x42,0x61,0x51,0x49,0x46}, {0x21,0x41,0x45,0x4B,0x31},
    {0x18,0x14,0x12,0x7F,0x10}, {0x27,0x45,0x45,0x45,0x39},
    {0x3C,0x4A,0x49,0x49,0x30}, {0x01,0x71,0x09,0x05,0x03},
    {0x36,0x49,0x49,0x49,0x36}, {0x06,0x49,0x49,0x29,0x1E},
    {0x00,0x36,0x36,0x00,0x00}, {0x00,0x56,0x36,0x00,0x00},
    {0x00,0x08,0x14,0x22,0x41}, {0x14,0x14,0x14,0x14,0x14},
    {0x41,0x22,0x14,0x08,0x00}, {0x02,0x01,0x51,0x09,0x06},
    {0x32,0x49,0x79,0x41,0x3E}, {0x7E,0x11,0x11,0x11,0x7E},
    {0x7F,0x49,0x49,0x49,0x36}, {0x3E,0x41,0x41,0x41,0x22},
    {0x7F,0x41,0x41,0x22,0x1C}, {0x7F,0x49,0x49,0x49,0x41},
    {0x7F,0x09,0x09,0x01,0x01}, {0x3E,0x41,0x41,0x51,0x32},
    {0x7F,0x08,0x08,0x08,0x7F}, {0x00,0x41,0x7F,0x41,0x00},
    {0x20,0x40,0x41,0x3F,0x01}, {0x7F,0x08,0x14,0x22,0x41},
    {0x7F,0x40,0x40,0x40,0x40}, {0x7F,0x02,0x04,0x02,0x7F},
    {0x7F,0x04,0x08,0x10,0x7F}, {0x3E,0x41,0x41,0x41,0x3E},
    {0x7F,0x09,0x09,0x09,0x06}, {0x3E,0x41,0x51,0x21,0x5E},
    {0x7F,0x09,0x19,0x29,0x46}, {0x46,0x49,0x49,0x49,0x31},
    {0x01,0x01,0x7F,0x01,0x01}, {0x3F,0x40,0x40,0x40,0x3F},
    {0x1F,0x20,0x40,0x20,0x1F}, {0x7F,0x20,0x18,0x20,0x7F},
    {0x63,0x14,0x08,0x14,0x63}, {0x03,0x04,0x78,0x04,0x03},
    {0x61,0x51,0x49,0x45,0x43}, {0x00,0x00,0x7F,0x41,0x41},
    {0x02,0x04,0x08,0x10,0x20}, {0x41,0x41,0x7F,0x00,0x00},
    {0x04,0x02,0x01,0x02,0x04}, {0x40,0x40,0x40,0x40,0x40},
    {0x00,0x01,0x02,0x04,0x00}, {0x20,0x54,0x54,0x54,0x78},
    {0x7F,0x48,0x44,0x44,0x38}, {0x38,0x44,0x44,0x44,0x20},
    {0x38,0x44,0x44,0x48,0x7F}, {0x38,0x54,0x54,0x54,0x18},
    {0x08,0x7E,0x09,0x01,0x02}, {0x08,0x14,0x54,0x54,0x3C},
    {0x7F,0x08,0x04,0x04,0x78}, {0x00,0x44,0x7D,0x40,0x00},
    {0x20,0x40,0x44,0x3D,0x00}, {0x00,0x7F,0x10,0x28,0x44},
    {0x00,0x41,0x7F,0x40,0x00}, {0x7C,0x04,0x18,0x04,0x78},
    {0x7C,0x08,0x04,0x04,0x78}, {0x38,0x44,0x44,0x44,0x38},
    {0x7C,0x14,0x14,0x14,0x08}, {0x08,0x14,0x14,0x18,0x7C},
    {0x7C,0x08,0x04,0x04,0x08}, {0x48,0x54,0x54,0x54,0x20},
    {0x04,0x3F,0x44,0x40,0x20}, {0x3C,0x40,0x40,0x20,0x7C},
    {0x1C,0x20,0x40,0x20,0x1C}, {0x3C,0x40,0x30,0x40,0x3C},
    {0x44,0x28,0x10,0x28,0x44}, {0x0C,0x50,0x50,0x50,0x3C},
    {0x44,0x64,0x54,0x4C,0x44}, {0x00,0x08,0x36,0x41,0x00},
    {0x00,0x00,0x7F,0x00,0x00}, {0x00,0x41,0x36,0x08,0x00},
    {0x08,0x08,0x2A,0x1C,0x08},
};

constexpr Cycle inputPeriodCycles = 166667;  // 60 Hz in 100 ns cycles
constexpr double pixelsPerCycle = 1.6;       // 16 Mpixel/s
constexpr Cycle commandOverheadCycles = 300; // microcode per command
constexpr Cycle charOverheadCycles = 400;    // per character

} // namespace

Mdc::Mdc(Simulator &sim, QBus &qbus, const Config &config)
    : sim(sim), qbus(qbus), cfg(config),
      workQueue(sim, qbus, cfg.queueBase,
                std::bind_front(&Mdc::executeEntry, this)),
      statGroup("mdc")
{
    statGroup.addCounter(&commandsExecuted, "commands",
                         "work-queue commands executed");
    statGroup.addCounter(&pixelsPainted, "pixels", "pixels painted");
    statGroup.addCounter(&charsPainted, "chars",
                         "characters painted from the font cache");
    statGroup.addCounter(&workQueue.polls, "polls", "work-queue polls");
    statGroup.addCounter(&deposits, "deposits",
                         "60 Hz mouse/keyboard deposits");
    statGroup.addCounter(&workQueue.busyCycles, "busy_cycles",
                         "cycles spent executing commands");
}

void
Mdc::start()
{
    if (started)
        return;
    started = true;
    workQueue.start();
    sim.events().schedule(sim.now() + inputPeriodCycles,
                          [this] { depositInput(); });
}

PixelRect
Mdc::glyphRect(unsigned code)
{
    return {(code % 128) * 8, FrameBuffer::visibleRows, 8, 16};
}

void
Mdc::loadBuiltinFont()
{
    for (unsigned c = 32; c <= 126; ++c) {
        const PixelRect cell = glyphRect(c);
        for (unsigned col = 0; col < 5; ++col) {
            const unsigned char column = font5x7[c - 32][col];
            for (unsigned row = 0; row < 7; ++row) {
                if (column & (1u << row)) {
                    fb.setPixel(cell.x + 1 + col, cell.y + 4 + row,
                                true);
                }
            }
        }
    }
}

WorkQueue::Command
Mdc::encodeFill(unsigned x, unsigned y, unsigned w, unsigned h,
                RasterOp op)
{
    return {static_cast<Word>(MdcOpcode::Fill), x, y, w, h,
            static_cast<Word>(op), 0, 0};
}

WorkQueue::Command
Mdc::encodeCopyRect(unsigned sx, unsigned sy, unsigned dx, unsigned dy,
                    unsigned w, unsigned h, RasterOp op)
{
    return {static_cast<Word>(MdcOpcode::CopyRect), sx, sy, dx, dy, w,
            h, static_cast<Word>(op)};
}

WorkQueue::Command
Mdc::encodePaintChars(unsigned x, unsigned y, unsigned count,
                      Addr chars_qbus_addr)
{
    return {static_cast<Word>(MdcOpcode::PaintChars), x, y, count,
            chars_qbus_addr, 0, 0, 0};
}

WorkQueue::Command
Mdc::encodeBltFromMemory(Addr src_qbus_addr, unsigned stride_words,
                         unsigned dx, unsigned dy, unsigned w,
                         unsigned h)
{
    return {static_cast<Word>(MdcOpcode::BltFromMemory), src_qbus_addr,
            stride_words, dx, dy, w, h, 0};
}

void
Mdc::setMouse(unsigned x, unsigned y)
{
    mouseX = x;
    mouseY = y;
}

void
Mdc::keyEvent(unsigned keycode, bool down)
{
    const unsigned word = (keycode / 32) % keyBitmap.size();
    const Word mask = 1u << (keycode % 32);
    if (down)
        keyBitmap[word] |= mask;
    else
        keyBitmap[word] &= ~mask;
}

void
Mdc::depositInput()
{
    ++deposits;
    std::vector<Word> words = {mouseX, mouseY, keyBitmap[0],
                               keyBitmap[1], keyBitmap[2],
                               keyBitmap[3]};
    // A timed-out deposit just loses one input sample; the next
    // period writes fresh state.
    qbus.dmaWrite(cfg.inputBase, std::move(words), [](IoStatus) {});
    sim.events().schedule(sim.now() + inputPeriodCycles,
                          [this] { depositInput(); },
                          "mdc input deposit");
}

void
Mdc::executeEntry(const WorkQueue::Command &entry)
{
    ++commandsExecuted;
    const auto opcode = static_cast<MdcOpcode>(entry[0]);
    Cycle busy = commandOverheadCycles;

    switch (opcode) {
      case MdcOpcode::Nop:
        break;

      case MdcOpcode::Fill: {
        const auto op = static_cast<RasterOp>(entry[5]);
        const auto pixels =
            fb.fill({entry[1], entry[2], entry[3], entry[4]}, op);
        pixelsPainted += pixels;
        busy += static_cast<Cycle>(pixels / pixelsPerCycle);
        break;
      }

      case MdcOpcode::CopyRect: {
        const auto op = static_cast<RasterOp>(entry[7]);
        const auto pixels =
            fb.blt({entry[1], entry[2], entry[5], entry[6]}, entry[3],
                   entry[4], op);
        pixelsPainted += pixels;
        busy += static_cast<Cycle>(pixels / pixelsPerCycle);
        break;
      }

      case MdcOpcode::PaintChars: {
        const unsigned count = entry[3];
        const unsigned words = (count + 3) / 4;
        const unsigned x = entry[1], y = entry[2];
        qbus.dmaRead(entry[4], words,
                     [this, x, y, count](IoStatus st,
                                         std::vector<Word> packed) {
                         if (st != IoStatus::Ok) {
                             workQueue.finish(commandOverheadCycles);
                             return;
                         }
                         paintCharsFromCodes(packed, x, y, count);
                     });
        return;
      }

      case MdcOpcode::BltFromMemory: {
        const unsigned stride = entry[2];
        const unsigned w = entry[5], h = entry[6];
        const unsigned dx = entry[3], dy = entry[4];
        const unsigned words = stride * h;
        qbus.dmaRead(entry[1], words,
                     [this, stride, w, h, dx, dy](
                         IoStatus st, std::vector<Word> data) {
                         if (st != IoStatus::Ok) {
                             workQueue.finish(commandOverheadCycles);
                             return;
                         }
                         const auto pixels = fb.bltFrom(
                             data.data(), stride, {0, 0, w, h}, dx,
                             dy, RasterOp::Copy);
                         pixelsPainted += pixels;
                         workQueue.finish(
                             commandOverheadCycles +
                             static_cast<Cycle>(pixels /
                                                pixelsPerCycle));
                     });
        return;
      }

      default:
        warn("MDC: unknown opcode %u", entry[0]);
        break;
    }
    workQueue.finish(busy);
}

void
Mdc::paintCharsFromCodes(const std::vector<Word> &packed, unsigned x,
                         unsigned y, unsigned count)
{
    Cycle busy = commandOverheadCycles;
    for (unsigned i = 0; i < count; ++i) {
        const Word word = packed[i / 4];
        const unsigned code = (word >> (8 * (i % 4))) & 0xff;
        const auto pixels =
            fb.blt(glyphRect(code), x + 8 * i, y, RasterOp::Copy);
        pixelsPainted += pixels;
        ++charsPainted;
        busy += charOverheadCycles +
                static_cast<Cycle>(pixels / pixelsPerCycle);
    }
    workQueue.finish(busy);
}

} // namespace firefly
