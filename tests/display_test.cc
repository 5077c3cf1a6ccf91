/**
 * @file
 * Frame buffer / BitBlt / MDC tests: raster-op semantics, overlap
 * handling, the work-queue protocol, font painting, input deposits,
 * the paper's display timing claims, and the multi-display
 * configuration the paper highlights ("It is easy to plug multiple
 * display controllers into a single Firefly... Many SRC researchers
 * now have multiple displays").
 */

#include <gtest/gtest.h>

#include "check/rig.hh"
#include "io/mdc.hh"

using namespace firefly;
using firefly::check::Rig;

namespace
{

constexpr Addr kIoLimit = 16 * 1024 * 1024;
constexpr Addr kQueueBase = 0x0010'0000;
constexpr Addr kInputBase = 0x0011'0000;
constexpr Addr kCharsBase = 0x0012'0000;
constexpr Addr kSecondQueueBase = 0x0014'0000;
constexpr Addr kSecondInputBase = 0x0015'0000;

struct MdcRig : Rig
{
    QBus qbus;
    Mdc mdc;

    MdcRig()
        : Rig(ProtocolKind::Firefly, 1),
          qbus(sim, *caches[0], kIoLimit),
          mdc(sim, qbus, makeConfig())
    {
        qbus.identityMap();
        mdc.start();
    }

    static Mdc::Config
    makeConfig()
    {
        Mdc::Config cfg;
        cfg.queueBase = kQueueBase;
        cfg.inputBase = kInputBase;
        return cfg;
    }

    void
    enqueue(const WorkQueue::Command &command)
    {
        mdc.queue().enqueue(memory, command);
    }

    /** Run until `display`'s consumer index catches the producer. */
    void
    drain(Mdc &display)
    {
        const Cycle deadline = sim.now() + 30'000'000;
        while (!display.queue().drained(memory) && sim.now() < deadline)
            sim.run(1000);
        ASSERT_TRUE(display.queue().drained(memory))
            << "MDC did not drain the work queue";
    }

    void drain() { drain(mdc); }
};

} // namespace

TEST(FrameBuffer, PixelSetAndGet)
{
    FrameBuffer fb;
    EXPECT_FALSE(fb.pixel(10, 10));
    fb.setPixel(10, 10, true);
    EXPECT_TRUE(fb.pixel(10, 10));
    EXPECT_FALSE(fb.pixel(11, 10));
    fb.setPixel(10, 10, false);
    EXPECT_FALSE(fb.pixel(10, 10));
}

TEST(FrameBuffer, FillAndCount)
{
    FrameBuffer fb;
    const auto pixels = fb.fill({100, 100, 50, 40}, RasterOp::Set);
    EXPECT_EQ(pixels, 2000u);
    EXPECT_EQ(fb.litPixels({100, 100, 50, 40}), 2000u);
    EXPECT_EQ(fb.litPixels({0, 0, 100, 100}), 0u);
    fb.fill({100, 100, 50, 40}, RasterOp::Clear);
    EXPECT_EQ(fb.litPixels({100, 100, 50, 40}), 0u);
}

TEST(FrameBuffer, XorFillInverts)
{
    FrameBuffer fb;
    fb.fill({0, 0, 10, 10}, RasterOp::Set);
    fb.fill({5, 5, 10, 10}, RasterOp::Xor);
    EXPECT_TRUE(fb.pixel(0, 0));    // untouched lit
    EXPECT_FALSE(fb.pixel(6, 6));   // inverted from lit
    EXPECT_TRUE(fb.pixel(12, 12));  // inverted from clear
}

TEST(FrameBuffer, RasterOpsCombineCorrectly)
{
    FrameBuffer fb;
    // src pattern at (0,0): pixel (0,0) lit, (1,0) clear.
    fb.setPixel(0, 0, true);
    // dst at (10,0): (10,0) lit, (11,0) lit.
    fb.setPixel(10, 0, true);
    fb.setPixel(11, 0, true);

    FrameBuffer copy = fb;
    copy.blt({0, 0, 2, 1}, 10, 0, RasterOp::Copy);
    EXPECT_TRUE(copy.pixel(10, 0));
    EXPECT_FALSE(copy.pixel(11, 0));

    FrameBuffer orfb = fb;
    orfb.blt({0, 0, 2, 1}, 10, 0, RasterOp::Or);
    EXPECT_TRUE(orfb.pixel(10, 0));
    EXPECT_TRUE(orfb.pixel(11, 0));

    FrameBuffer andnot = fb;
    andnot.blt({0, 0, 2, 1}, 10, 0, RasterOp::AndNot);
    EXPECT_FALSE(andnot.pixel(10, 0));  // erased under src
    EXPECT_TRUE(andnot.pixel(11, 0));
}

TEST(FrameBuffer, OverlappingBltIsCorrect)
{
    FrameBuffer fb;
    // A recognisable diagonal.
    for (unsigned i = 0; i < 16; ++i)
        fb.setPixel(20 + i, 20 + i, true);
    // Shift right by 4 with overlap.
    fb.blt({20, 20, 16, 16}, 24, 20, RasterOp::Copy);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_TRUE(fb.pixel(24 + i, 20 + i)) << i;
}

TEST(FrameBuffer, ClipsAtEdges)
{
    FrameBuffer fb;
    const auto pixels =
        fb.fill({FrameBuffer::widthPx - 10, 5, 100, 3}, RasterOp::Set);
    EXPECT_EQ(pixels, 30u);  // clipped to 10 wide
    EXPECT_EQ(fb.litPixels({0, 0, FrameBuffer::widthPx,
                            FrameBuffer::heightPx}), 30u);
}

TEST(FrameBuffer, AsciiRendering)
{
    FrameBuffer fb;
    fb.setPixel(0, 0, true);
    fb.setPixel(2, 1, true);
    const std::string art = fb.ascii({0, 0, 4, 2});
    EXPECT_EQ(art, "#...\n..#.\n");
}

TEST(Mdc, FillCommandThroughWorkQueue)
{
    // Enqueue by hand at the documented ring offsets (producer at +0,
    // consumer at +4, 8-word blocks from +8), so the layout is pinned
    // independently of WorkQueue::enqueue.
    MdcRig rig;
    const auto command = Mdc::encodeFill(10, 10, 20, 20, RasterOp::Set);
    for (unsigned i = 0; i < command.size(); ++i)
        rig.memory.write(kQueueBase + 8 + 4 * i, command[i]);
    rig.memory.write(kQueueBase, 1);
    rig.drain();
    EXPECT_EQ(rig.memory.read(kQueueBase + 4), 1u);
    EXPECT_EQ(rig.mdc.frameBuffer().litPixels({10, 10, 20, 20}), 400u);
    EXPECT_EQ(rig.mdc.commandsExecuted.value(), 1u);
    EXPECT_EQ(rig.mdc.pixelsPainted.value(), 400u);
}

TEST(Mdc, CommandsExecuteInOrder)
{
    MdcRig rig;
    rig.enqueue(Mdc::encodeFill(0, 0, 32, 32, RasterOp::Set));
    rig.enqueue(Mdc::encodeFill(8, 8, 16, 16, RasterOp::Clear));
    rig.drain();
    EXPECT_EQ(rig.mdc.frameBuffer().litPixels({0, 0, 32, 32}),
              32u * 32 - 16 * 16);
}

TEST(Mdc, RingWrapsAcrossDrains)
{
    // Three times round the 16-entry ring: every slot is reused, and
    // each command still lands exactly once.
    MdcRig rig;
    const unsigned commands = 3 * WorkQueue::entries;
    for (unsigned i = 0; i < commands; ++i) {
        rig.enqueue(Mdc::encodeFill(i, 0, 1, 1, RasterOp::Set));
        if (i % 5 == 4)
            rig.drain();
    }
    rig.drain();
    EXPECT_EQ(rig.mdc.commandsExecuted.value(), commands);
    EXPECT_EQ(rig.mdc.frameBuffer().litPixels({0, 0, 64, 1}), commands);
}

TEST(MdcDeathTest, EnqueueOnAFullRingPanics)
{
    MdcRig rig;
    const unsigned entries = WorkQueue::entries;
    for (unsigned i = 0; i < entries; ++i)
        rig.enqueue(Mdc::encodeFill(i, 0, 1, 1, RasterOp::Set));
    EXPECT_DEATH(
        rig.enqueue(Mdc::encodeFill(0, 1, 1, 1, RasterOp::Set)),
        "full");
}

TEST(Mdc, CopyRectMovesScreenContents)
{
    MdcRig rig;
    rig.enqueue(Mdc::encodeFill(0, 0, 8, 8, RasterOp::Set));
    rig.enqueue(
        Mdc::encodeCopyRect(0, 0, 100, 100, 8, 8, RasterOp::Copy));
    rig.drain();
    EXPECT_EQ(rig.mdc.frameBuffer().litPixels({100, 100, 8, 8}), 64u);
}

TEST(Mdc, PaintCharsUsesFontCache)
{
    MdcRig rig;
    rig.mdc.loadBuiltinFont();
    // "Hi" packed little-endian into one word.
    rig.memory.write(kCharsBase, 'H' | ('i' << 8));
    rig.enqueue(Mdc::encodePaintChars(100, 100, 2, kCharsBase));
    rig.drain();
    EXPECT_EQ(rig.mdc.charsPainted.value(), 2u);
    // 'H' has lit pixels in its cell; the cell right of 'i' is blank.
    EXPECT_GT(rig.mdc.frameBuffer().litPixels({100, 100, 8, 16}), 10u);
    EXPECT_EQ(rig.mdc.frameBuffer().litPixels({116, 100, 8, 16}), 0u);
}

TEST(Mdc, BltFromMemoryUploadsBitmap)
{
    MdcRig rig;
    // A 32x2 bitmap: first word all ones, second all zeros.
    rig.memory.write(kCharsBase, 0xffffffff);
    rig.memory.write(kCharsBase + 4, 0x00000000);
    rig.enqueue(Mdc::encodeBltFromMemory(kCharsBase, 1, 200, 200, 32, 2));
    rig.drain();
    EXPECT_EQ(rig.mdc.frameBuffer().litPixels({200, 200, 32, 1}), 32u);
    EXPECT_EQ(rig.mdc.frameBuffer().litPixels({200, 201, 32, 1}), 0u);
}

TEST(Mdc, LargeFillApproaches16MegapixelsPerSecond)
{
    MdcRig rig;
    const Cycle start = rig.sim.now();
    rig.enqueue(Mdc::encodeFill(0, 0, 1024, 768, RasterOp::Set));
    rig.drain();
    const double seconds = (rig.sim.now() - start) * 100e-9;
    const double mpix_per_s = 1024.0 * 768 / seconds / 1e6;
    EXPECT_GT(mpix_per_s, 12.0);
    EXPECT_LT(mpix_per_s, 16.5);
}

TEST(Mdc, CharacterRateNearTwentyThousandPerSecond)
{
    MdcRig rig;
    rig.mdc.loadBuiltinFont();
    for (unsigned i = 0; i < 64; ++i)
        rig.memory.write(kCharsBase + 4 * i, 0x41414141);  // "AAAA"
    const Cycle start = rig.sim.now();
    // 8 commands of 256 chars = 2048 characters.
    for (int cmd = 0; cmd < 8; ++cmd) {
        rig.enqueue(Mdc::encodePaintChars(0, 16 * cmd, 256,
                                          kCharsBase));
    }
    rig.drain();
    const double seconds = (rig.sim.now() - start) * 100e-9;
    const double chars_per_s = 2048.0 / seconds;
    EXPECT_GT(chars_per_s, 15000.0);
    EXPECT_LT(chars_per_s, 26000.0);
}

TEST(Mdc, InputDepositsAtSixtyHertz)
{
    MdcRig rig;
    rig.mdc.setMouse(123, 456);
    rig.mdc.keyEvent(65, true);
    rig.sim.run(secondsToCycles(0.1));  // ~6 deposit periods
    EXPECT_GE(rig.mdc.deposits.value(), 5u);
    EXPECT_LE(rig.mdc.deposits.value(), 7u);
    EXPECT_EQ(rig.memory.read(kInputBase), 123u);
    EXPECT_EQ(rig.memory.read(kInputBase + 4), 456u);
    // Key 65 lives in keyboard word 2 (bits 64..95), bit 1.
    EXPECT_EQ(rig.memory.read(kInputBase + 8 + 4 * 2), 2u);
}

TEST(Mdc, GlyphRectLayout)
{
    const auto rect = Mdc::glyphRect('A');
    EXPECT_EQ(rect.x, static_cast<unsigned>('A') * 8);
    EXPECT_EQ(rect.y, FrameBuffer::visibleRows);
    EXPECT_EQ(rect.width, 8u);
    EXPECT_EQ(rect.height, 16u);
}

TEST(MultiDisplay, TwoMdcsShareOneQBus)
{
    // Two MDCs, each polling its own ring in the same main memory
    // over the same QBus.
    MdcRig rig;
    Mdc::Config second_cfg;
    second_cfg.queueBase = kSecondQueueBase;
    second_cfg.inputBase = kSecondInputBase;
    Mdc second(rig.sim, rig.qbus, second_cfg);
    second.start();

    rig.enqueue(Mdc::encodeFill(0, 0, 128, 128, RasterOp::Set));
    second.queue().enqueue(
        rig.memory, Mdc::encodeFill(256, 256, 64, 64, RasterOp::Set));
    rig.drain();
    rig.drain(second);

    // Each frame buffer holds its own fill and not the other's.
    EXPECT_EQ(rig.mdc.frameBuffer().litPixels({0, 0, 128, 128}),
              128u * 128);
    EXPECT_EQ(rig.mdc.frameBuffer().litPixels({256, 256, 64, 64}), 0u);
    EXPECT_EQ(second.frameBuffer().litPixels({256, 256, 64, 64}),
              64u * 64);
    EXPECT_EQ(second.frameBuffer().litPixels({0, 0, 128, 128}), 0u);

    // Both controllers shared the one DMA path.  Every poll reads the
    // 2-word ring header (each ring's newest poll may still be in
    // flight), and each command adds its 8-word block and the 2-word
    // header reread before the consumer advances.
    const std::uint64_t polls =
        rig.mdc.queue().polls.value() + second.queue().polls.value();
    EXPECT_GE(rig.qbus.engine().wordsRead.value(),
              2 * (polls - 2) + 2 * (8 + 2));
}
