#include "kv/record.hh"

namespace minos::kv {

AtomicRecord::AtomicRecord()
    : rdLockOwner(Timestamp::none().pack()),
      volatileTs(Timestamp::none().pack()),
      glbVolatileTs(Timestamp::none().pack()),
      glbDurableTs(Timestamp::none().pack()),
      wrLock(false),
      value(0)
{
}

Timestamp
AtomicRecord::loadRdLockOwner() const
{
    return Timestamp::unpack(rdLockOwner.load(std::memory_order_acquire));
}

Timestamp
AtomicRecord::loadVolatileTs() const
{
    return Timestamp::unpack(volatileTs.load(std::memory_order_acquire));
}

Timestamp
AtomicRecord::loadGlbVolatileTs() const
{
    return Timestamp::unpack(
        glbVolatileTs.load(std::memory_order_acquire));
}

Timestamp
AtomicRecord::loadGlbDurableTs() const
{
    return Timestamp::unpack(glbDurableTs.load(std::memory_order_acquire));
}

bool
AtomicRecord::raiseTs(std::atomic<std::uint64_t> &field,
                      const Timestamp &ts)
{
    std::uint64_t desired = ts.pack();
    std::uint64_t cur = field.load(std::memory_order_acquire);
    while (cur < desired) {
        if (field.compare_exchange_weak(cur, desired,
                                        std::memory_order_acq_rel))
            return true;
    }
    return false;
}

} // namespace minos::kv
