/**
 * @file
 * MINOS-KV store used by the discrete-event models.
 *
 * Every node replicates all records (paper §II-A), so each simulated node
 * owns one SimStore. Keys are dense in [0, size), which lets the store be
 * a flat array; the threaded runtime keeps the same key space in a flat
 * array of kv::AtomicRecord (proto/tnode.hh).
 */

#ifndef MINOS_KV_STORE_HH
#define MINOS_KV_STORE_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "kv/record.hh"

namespace minos::kv {

/** Flat replicated record store for simulated nodes. */
class SimStore
{
  public:
    /** Create @p num_records records, all at version <-1,-1>. The
     *  store's pages are faulted in by one call before the records are
     *  written, rather than one fault per page. */
    explicit SimStore(std::size_t num_records);

    /** Access the record for @p k. @pre k < size() */
    Record &
    at(Key k)
    {
        MINOS_ASSERT(k < recs_.size(), "key out of range: ", k);
        return recs_[k];
    }

    const Record &
    at(Key k) const
    {
        MINOS_ASSERT(k < recs_.size(), "key out of range: ", k);
        return recs_[k];
    }

    std::size_t size() const { return recs_.size(); }

  private:
    std::vector<Record> recs_;
};

} // namespace minos::kv

#endif // MINOS_KV_STORE_HH
