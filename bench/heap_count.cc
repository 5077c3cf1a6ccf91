/**
 * @file
 * A counting replacement of the global operator new, linked into
 * firefly_perf only: heap allocations per reference are one of its
 * work counters.  Every other form of operator new and delete
 * forwards to these two.  It lives in its own translation unit so the
 * compiler never inlines the malloc/free pair into a caller.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{
std::atomic<std::uint64_t> allocations{0};
} // namespace

std::uint64_t
heapAllocations()
{
    return allocations.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
