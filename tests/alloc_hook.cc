#include "alloc_hook.hh"

#include <cstdlib>
#include <new>

namespace {

std::uint64_t g_allocs = 0;

} // namespace

std::uint64_t
minos::test::allocCount()
{
    return g_allocs;
}

void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n))
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
    ++g_allocs;
    return std::malloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return ::operator new(n, std::nothrow);
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

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
