/**
 * @file
 * Counting allocation hook shared by the test binaries that pin "this
 * region allocates zero times" (obs_test, sim_test).
 *
 * Linking alloc_hook.cc into a binary replaces the global operator
 * new/delete with malloc/free wrappers that count every new; tests read
 * the count before and after the region under test. The counter is not
 * atomic: the regions it measures run on one thread.
 */

#ifndef MINOS_TESTS_ALLOC_HOOK_HH
#define MINOS_TESTS_ALLOC_HOOK_HH

#include <cstdint>

namespace minos::test {

/** Number of global operator new calls (every form) so far. */
std::uint64_t allocCount();

} // namespace minos::test

#endif // MINOS_TESTS_ALLOC_HOOK_HH
