/**
 * @file
 * Color display controller tests, including the multi-display
 * configuration the paper highlights ("It is easy to plug multiple
 * display controllers into a single Firefly... Many SRC researchers
 * now have multiple displays").
 */

#include <gtest/gtest.h>

#include "io/color_display.hh"
#include "io/mdc.hh"
#include "test_util.hh"

using namespace firefly;
using firefly::test::TestRig;

namespace
{

constexpr Addr kQueueA = 0x0010'0000;
constexpr Addr kQueueB = 0x0014'0000;
constexpr Addr kDataBase = 0x0018'0000;

struct ColorRig : TestRig
{
    QBus qbus;
    ColorDisplayController cdc;

    ColorRig()
        : TestRig(ProtocolKind::Firefly, 1),
          qbus(sim, *caches[0], 16 * 1024 * 1024), cdc(sim, qbus,
                                                       config())
    {
        qbus.identityMap();
        cdc.queue().start();
    }

    static ColorDisplayController::Config
    config()
    {
        ColorDisplayController::Config cfg;
        cfg.queue.base = kQueueA;
        return cfg;
    }

    void
    enqueue(const WorkQueue::Command &command)
    {
        cdc.queue().enqueue(memory, command);
    }

    void
    drain(WorkQueue &queue)
    {
        Cycle deadline = sim.now() + 50'000'000;
        while (!queue.drained(memory) && sim.now() < deadline)
            sim.run(1000);
        ASSERT_TRUE(queue.drained(memory));
    }
};

} // namespace

TEST(ColorFrameBuffer, FillAndCount)
{
    ColorFrameBuffer fb;
    EXPECT_EQ(fb.fill({10, 10, 20, 10}, 42), 200u);
    EXPECT_EQ(fb.countIndex({10, 10, 20, 10}, 42), 200u);
    EXPECT_EQ(fb.pixel(10, 10), 42u);
    EXPECT_EQ(fb.pixel(9, 10), 0u);
}

TEST(ColorFrameBuffer, OverlappingCopy)
{
    ColorFrameBuffer fb;
    for (unsigned i = 0; i < 8; ++i)
        fb.setPixel(100 + i, 50, static_cast<std::uint8_t>(i + 1));
    fb.copy({100, 50, 8, 1}, 102, 50);  // overlap to the right
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(fb.pixel(102 + i, 50), i + 1) << i;
}

TEST(ColorFrameBuffer, ColorMapResolvesPixels)
{
    ColorFrameBuffer fb;
    fb.setColor(7, 0xff8000);
    fb.setPixel(1, 1, 7);
    EXPECT_EQ(fb.rgbAt(1, 1), 0xff8000u);
    // Default map is a grey ramp.
    fb.setPixel(2, 2, 0x80);
    EXPECT_EQ(fb.rgbAt(2, 2), 0x808080u);
}

TEST(ColorFrameBuffer, ClipsAtEdges)
{
    ColorFrameBuffer fb;
    EXPECT_EQ(fb.fill({1020, 766, 100, 100}, 1), 4u * 2);
}

TEST(ColorDisplay, FillThroughWorkQueue)
{
    ColorRig rig;
    rig.enqueue(ColorDisplayController::encodeFill(0, 0, 64, 64, 9));
    rig.drain(rig.cdc.queue());
    EXPECT_EQ(rig.cdc.frameBuffer().countIndex({0, 0, 64, 64}, 9),
              64u * 64);
    EXPECT_EQ(rig.cdc.commandsExecuted.value(), 1u);
}

TEST(ColorDisplay, LoadColorMapFromMemory)
{
    ColorRig rig;
    rig.memory.write(kDataBase, 0x123456);
    rig.memory.write(kDataBase + 4, 0xabcdef);
    rig.enqueue(
        ColorDisplayController::encodeLoadColorMap(16, 2, kDataBase));
    rig.drain(rig.cdc.queue());
    EXPECT_EQ(rig.cdc.frameBuffer().color(16), 0x123456u);
    EXPECT_EQ(rig.cdc.frameBuffer().color(17), 0xabcdefu);
}

TEST(ColorDisplay, PutImageUploadsPixels)
{
    ColorRig rig;
    // A 4x2 image: indices 1..4 then 5..8, packed 4 per word.
    rig.memory.write(kDataBase, 0x04030201);
    rig.memory.write(kDataBase + 4, 0x08070605);
    rig.enqueue(ColorDisplayController::encodePutImage(kDataBase, 1, 200,
                                                       100, 4, 2));
    rig.drain(rig.cdc.queue());
    EXPECT_EQ(rig.cdc.frameBuffer().pixel(200, 100), 1u);
    EXPECT_EQ(rig.cdc.frameBuffer().pixel(203, 100), 4u);
    EXPECT_EQ(rig.cdc.frameBuffer().pixel(200, 101), 5u);
    EXPECT_EQ(rig.cdc.frameBuffer().pixel(203, 101), 8u);
}

TEST(ColorDisplay, CopyRectThroughQueue)
{
    ColorRig rig;
    rig.enqueue(ColorDisplayController::encodeFill(0, 0, 8, 8, 3));
    rig.enqueue(
        ColorDisplayController::encodeCopyRect(0, 0, 500, 300, 8, 8));
    rig.drain(rig.cdc.queue());
    EXPECT_EQ(rig.cdc.frameBuffer().countIndex({500, 300, 8, 8}, 3),
              64u);
}

TEST(ColorDisplay, RingWrapsAcrossDrains)
{
    // Three times round the 16-entry ring, each command painting its
    // own pixel with its own color index.
    ColorRig rig;
    const unsigned commands = 3 * ColorRig::config().queue.entries;
    for (unsigned i = 0; i < commands; ++i) {
        rig.enqueue(ColorDisplayController::encodeFill(
            i, 0, 1, 1, static_cast<std::uint8_t>(i + 1)));
        if (i % 5 == 4)
            rig.drain(rig.cdc.queue());
    }
    rig.drain(rig.cdc.queue());
    EXPECT_EQ(rig.cdc.commandsExecuted.value(), commands);
    for (unsigned i = 0; i < commands; ++i)
        EXPECT_EQ(rig.cdc.frameBuffer().pixel(i, 0), i + 1) << i;
}

TEST(MultiDisplay, MonochromeAndColorShareOneQBus)
{
    // The paper's multi-display configuration: an MDC and a color
    // controller both polling work queues in the same main memory
    // over the same QBus.
    ColorRig rig;
    Mdc::Config mdc_cfg;
    mdc_cfg.queue.base = kQueueB;
    mdc_cfg.inputBase = kDataBase + 0x1000;
    Mdc mdc(rig.sim, rig.qbus, mdc_cfg);
    mdc.start();

    rig.enqueue(ColorDisplayController::encodeFill(0, 0, 128, 128, 5));
    mdc.queue().enqueue(rig.memory,
                        Mdc::encodeFill(0, 0, 128, 128, RasterOp::Set));
    rig.drain(rig.cdc.queue());
    rig.drain(mdc.queue());

    EXPECT_EQ(rig.cdc.frameBuffer().countIndex({0, 0, 128, 128}, 5),
              128u * 128);
    EXPECT_EQ(mdc.frameBuffer().litPixels({0, 0, 128, 128}),
              128u * 128);
    // Both controllers really shared the DMA path.
    EXPECT_GT(rig.qbus.engine().wordsRead.value(), 20u);
}
