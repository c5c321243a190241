#include "alloc_hook.hh"

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <new>

namespace {

std::uint64_t g_allocs = 0;
std::int64_t g_liveBytes = 0;
std::int64_t g_peakBytes = 0;

/** Count a block from malloc (null passes through). */
void *
counted(void *p)
{
    ++g_allocs;
    if (p) {
        g_liveBytes += static_cast<std::int64_t>(malloc_usable_size(p));
        g_peakBytes = std::max(g_peakBytes, g_liveBytes);
    }
    return p;
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
