/**
 * @file
 * Unit tests for the storage subsystem.
 */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"
#include "mem/sparse_memory.hh"

using namespace firefly;

TEST(SparseMemory, ReadsZeroWhenUntouched)
{
    SparseMemory mem(1 << 20);
    EXPECT_EQ(mem.read(0), 0u);
    EXPECT_EQ(mem.read(12345), 0u);
    EXPECT_EQ(mem.allocatedChunks(), 0u);
}

TEST(SparseMemory, WriteThenRead)
{
    SparseMemory mem(1 << 20);
    mem.write(7, 0xdeadbeef);
    EXPECT_EQ(mem.read(7), 0xdeadbeefu);
    EXPECT_EQ(mem.read(8), 0u);
}

TEST(SparseMemory, AllocatesLazily)
{
    SparseMemory mem(1 << 24);  // 64 MB worth of words
    mem.write(0, 1);
    mem.write((1 << 24) - 1, 2);
    // Two distant words touch exactly two chunks.
    EXPECT_EQ(mem.allocatedChunks(), 2u);
    EXPECT_EQ(mem.read(0), 1u);
    EXPECT_EQ(mem.read((1 << 24) - 1), 2u);
}

TEST(SparseMemoryDeathTest, OutOfBoundsPanics)
{
    SparseMemory mem(16);
    EXPECT_DEATH(mem.read(16), "beyond end");
    EXPECT_DEATH(mem.write(100, 1), "beyond end");
}

TEST(MemoryModule, ContainsAndAccess)
{
    MemoryModule mod("m", 0x1000, 0x1000);
    EXPECT_FALSE(mod.contains(0xfff));
    EXPECT_TRUE(mod.contains(0x1000));
    EXPECT_TRUE(mod.contains(0x1ffc));
    EXPECT_FALSE(mod.contains(0x2000));

    mod.write(0x1004, 42);
    EXPECT_EQ(mod.read(0x1004), 42u);
    EXPECT_EQ(mod.stats().get("reads"), 1.0);
    EXPECT_EQ(mod.stats().get("writes"), 1.0);
}

TEST(MainMemory, ModulesStackContiguously)
{
    MainMemory mem;
    // The original Firefly: one master + three slave 4 MB modules.
    for (int i = 0; i < 4; ++i)
        mem.addModule(4 * 1024 * 1024);
    EXPECT_EQ(mem.sizeBytes(), 16u * 1024 * 1024);
    EXPECT_EQ(mem.moduleCount(), 4u);
}

TEST(MainMemory, DecodeRoutesToRightModule)
{
    MainMemory mem;
    mem.addModule(4 * 1024 * 1024);
    mem.addModule(4 * 1024 * 1024);

    mem.write(0x0000'0004, 1);            // module 0
    mem.write(0x0040'0000, 2);            // module 1 (4 MB boundary)
    EXPECT_EQ(mem.read(0x0000'0004), 1u);
    EXPECT_EQ(mem.read(0x0040'0000), 2u);
    EXPECT_EQ(mem.module(0).stats().get("writes"), 1.0);
    EXPECT_EQ(mem.module(1).stats().get("writes"), 1.0);
}

TEST(MainMemory, CvaxConfigurationReaches128Mb)
{
    MainMemory mem;
    for (int i = 0; i < 4; ++i)
        mem.addModule(32 * 1024 * 1024);
    EXPECT_EQ(mem.sizeBytes(), 128u * 1024 * 1024);
    const Addr last = 128 * 1024 * 1024 - 4;
    mem.write(last, 0xabcd);
    EXPECT_EQ(mem.read(last), 0xabcdu);
}

TEST(MainMemoryDeathTest, UnmappedAddressPanics)
{
    MainMemory mem;
    mem.addModule(1024);
    EXPECT_DEATH(mem.read(4096), "no storage module");
}
