/**
 * @file
 * Emulated non-volatile memory timing (paper Table II: 1295 ns to persist
 * 1 KB of data).
 *
 * The paper has no real persistent-memory device either; it emulates NVM
 * with exactly this latency model, so this substitution is faithful by
 * construction. Fig. 14 sweeps the per-KB latency from 100 ns (Optane
 * cache line) to 100 us (SSD block). The SmartNIC FIFOs (Table III) are
 * timed by the same rule with their own per-KB write latency.
 */

#ifndef MINOS_NVM_MODEL_HH
#define MINOS_NVM_MODEL_HH

#include <cstdint>

#include "common/units.hh"

namespace minos::nvm {

/** Latency to write @p bytes to a medium that takes @p ns_per_kb per
 *  KB, scaled linearly, minimum 1 tick. */
inline Tick
persistLatency(Tick ns_per_kb, std::uint64_t bytes)
{
    if (bytes == 0)
        return 0;
    Tick t = static_cast<Tick>((static_cast<double>(bytes) / 1024.0) *
                               static_cast<double>(ns_per_kb));
    return t > 0 ? t : 1;
}

} // namespace minos::nvm

#endif // MINOS_NVM_MODEL_HH
