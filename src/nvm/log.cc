#include "log.hh"

namespace minos::nvm {

std::size_t
DurableLog::append(const LogEntry &entry)
{
    std::lock_guard<std::mutex> guard(mutex_);
    entries_.push_back(entry);
    return entries_.size() - 1;
}

std::size_t
DurableLog::size() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return entries_.size();
}

} // namespace minos::nvm
