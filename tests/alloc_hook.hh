/**
 * @file
 * Counting allocation hook shared by the test binaries that pin "this
 * region allocates zero times" (obs_test, sim_test) or bound the memory
 * a region holds at its peak (check_test).
 *
 * Linking alloc_hook.cc into a binary replaces the global operator
 * new/delete with malloc/free wrappers that count every new and the
 * bytes of the blocks alive (malloc_usable_size); tests read the
 * counters before and after the region under test. The binaries also
 * link with --wrap=realloc and --wrap=free, so a block that the
 * repository's own code grows with realloc (the model checker's
 * fingerprint table) counts as live until it is freed. The counters are
 * not atomic: the regions they measure run on one thread.
 */

#ifndef MINOS_TESTS_ALLOC_HOOK_HH
#define MINOS_TESTS_ALLOC_HOOK_HH

#include <cstdint>

namespace minos::test {

/** Number of global operator new calls (every form) so far. */
std::uint64_t allocCount();

/** Bytes held by operator new blocks not yet deleted, and by realloc
 *  blocks not yet freed. */
std::int64_t liveBytes();

/** Highest liveBytes() since the last resetPeakBytes(). */
std::int64_t peakBytes();

/** Restart peakBytes() from the current liveBytes(). */
void resetPeakBytes();

} // namespace minos::test

#endif // MINOS_TESTS_ALLOC_HOOK_HH
