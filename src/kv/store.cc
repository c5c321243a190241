#include "kv/store.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace minos::kv {

namespace {

/**
 * Fault in the whole pages of [p, p + bytes) writable in one call. A
 * kernel without MADV_POPULATE_WRITE (before Linux 5.14) refuses it,
 * and the pages then fault in one by one as they are written.
 */
void
prefault(void *p, std::size_t bytes)
{
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t begin = (at + page - 1) & ~(page - 1);
    const std::uintptr_t end = (at + bytes) & ~(page - 1);
    if (end > begin)
        (void)madvise(reinterpret_cast<void *>(begin), end - begin,
                      MADV_POPULATE_WRITE);
}

} // namespace

SimStore::SimStore(std::size_t num_records)
{
    recs_.reserve(num_records);
    prefault(recs_.data(), num_records * sizeof(Record));
    recs_.resize(num_records);
}

} // namespace minos::kv
