/**
 * @file
 * Real-time microbenchmarks of the threaded MINOS-B runtime (the §IV
 * "distributed machine"): blocking client write/read cost per model on
 * a 3-node in-process cluster with real thread concurrency. Unlike the
 * figure harnesses, these measure actual wall-clock time: each case
 * prints its mean cost per client operation. Takes no arguments.
 */

#include <atomic>
#include <string>
#include <thread>

#include "proto/tnode.hh"
#include "wall_clock.hh"

using namespace minos;
using namespace minos::proto;

namespace {

ThreadedConfig
benchConfig(PersistModel model)
{
    ThreadedConfig cfg;
    cfg.numNodes = 3;
    cfg.model = model;
    cfg.numRecords = 1024;
    cfg.persistNsPerKb = 300; // keep the emulated persist short
    cfg.wireLatency = std::chrono::microseconds(1);
    return cfg;
}

void
threadedWrite(PersistModel model)
{
    ThreadedCluster cluster(benchConfig(model));
    kv::Key key = 0;
    const std::string name =
        "Threaded/write/" + std::string(simproto::shortModelName(model));
    bench::timeOps(name.c_str(), bench::Unit::Us, [&] {
        cluster.node(0).write(key, 1);
        key = (key + 1) % 512;
    });
}

void
threadedRead()
{
    ThreadedCluster cluster(benchConfig(PersistModel::Synch));
    cluster.node(0).write(7, 42);
    bench::timeOps("Threaded/read", bench::Unit::Us, [&] {
        bench::doNotOptimize(cluster.node(1).read(7));
    });
}

void
threadedConflictingWriters()
{
    // Two client threads on different nodes hammering one key: measures
    // snatch/WRLock contention end to end.
    ThreadedCluster cluster(benchConfig(PersistModel::Synch));
    std::atomic<bool> stop{false};
    std::thread rival([&] {
        while (!stop.load(std::memory_order_acquire))
            cluster.node(1).write(0, 2);
    });
    bench::timeOps("Threaded/conflicting_writers", bench::Unit::Us,
                   [&] { cluster.node(0).write(0, 1); });
    stop.store(true, std::memory_order_release);
    rival.join();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::rejectArguments(argc, argv);
    for (PersistModel m : simproto::allModels)
        threadedWrite(m);
    threadedRead();
    threadedConflictingWriters();
    return 0;
}
