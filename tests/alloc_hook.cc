#include "alloc_hook.hh"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>

namespace {

std::uint64_t g_allocs = 0;
std::int64_t g_liveBytes = 0;
std::int64_t g_peakBytes = 0;

std::int64_t
usableBytes(void *p)
{
    return static_cast<std::int64_t>(malloc_usable_size(p));
}

void
addLive(std::int64_t bytes)
{
    g_liveBytes += bytes;
    g_peakBytes = std::max(g_peakBytes, g_liveBytes);
}

/** Count a block from malloc (null passes through). */
void *
counted(void *p)
{
    ++g_allocs;
    if (p)
        addLive(usableBytes(p));
    return p;
}

// The binaries that link this file also link with --wrap=realloc and
// --wrap=free, so the calls that the repository's own code makes reach
// __wrap_realloc and __wrap_free below, and __real_* is the allocator's
// own. Blocks that realloc made are counted from that realloc to the
// free that ends them; the table below tells them apart in free. A
// block that moves in a realloc is counted once: the C library moves a
// large block with mremap, not a copy.

/** Live blocks made by realloc; null entries are free. */
std::array<void *, 16> g_reallocBlocks{};

/** The entry holding @p p (a free entry for null), else null. */
void **
reallocEntry(void *p)
{
    for (void *&b : g_reallocBlocks) {
        if (b == p)
            return &b;
    }
    return nullptr;
}

} // namespace

std::uint64_t
minos::test::allocCount()
{
    return g_allocs;
}

std::int64_t
minos::test::liveBytes()
{
    return g_liveBytes;
}

std::int64_t
minos::test::peakBytes()
{
    return g_peakBytes;
}

void
minos::test::resetPeakBytes()
{
    g_peakBytes = g_liveBytes;
}

extern "C" void *__real_realloc(void *p, std::size_t n);
extern "C" void __real_free(void *p);

extern "C" void *
__wrap_realloc(void *p, std::size_t n)
{
    void **entry = p ? reallocEntry(p) : nullptr;
    const std::int64_t before = entry ? usableBytes(p) : 0;
    void *q = __real_realloc(p, n);
    if (!q) // failed: p is unchanged
        return q;
    if (!entry)
        entry = reallocEntry(nullptr);
    if (entry) { // else the table is full: q goes uncounted
        *entry = q;
        addLive(usableBytes(q) - before);
    }
    return q;
}

extern "C" void
__wrap_free(void *p)
{
    if (void **entry = p ? reallocEntry(p) : nullptr) {
        g_liveBytes -= usableBytes(p);
        *entry = nullptr;
    }
    __real_free(p);
}

void *
operator new(std::size_t n)
{
    if (void *p = counted(std::malloc(n)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The nothrow forms must come from the same malloc as the deletes below:
// std::stable_sort's temporary buffer is a nothrow new freed by a plain
// delete, which a sanitizer runtime's own nothrow new would not match.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return counted(std::malloc(n));
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return ::operator new(n, std::nothrow);
}

void
operator delete(void *p) noexcept
{
    if (p)
        g_liveBytes -= static_cast<std::int64_t>(malloc_usable_size(p));
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}
