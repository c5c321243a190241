/**
 * @file
 * Tables II & III: the simulated-machine parameter set, printed for the
 * record, plus genuine microbenchmarks of the substrate primitives the
 * protocols lean on (timestamp packing/CAS, zipfian generation,
 * hashtable lookup). The host cost of the durable log and the event
 * core is measured by perfbench/ (nvm.append_ns, sim.*).
 */

#include "bench_util.hh"

#include "kv/hashtable.hh"

using namespace minos;
using namespace minos::bench;

namespace {

void
printParameterTables()
{
    simproto::ClusterConfig cfg = paperConfig();
    printBanner("Tables II/III", "simulated system parameters");
    stats::Table t({"parameter", "value"});
    t.addRow({"nodes (default)", std::to_string(cfg.numNodes)});
    t.addRow({"host cores / SNIC cores",
              std::to_string(cfg.hostCores) + " / " +
                  std::to_string(cfg.snicCores)});
    t.addRow({"host / SNIC sync latency",
              std::to_string(cfg.hostSyncNs) + " / " +
                  std::to_string(cfg.snicSyncNs) + " ns"});
    t.addRow({"PCIe latency / BW",
              std::to_string(cfg.pcieLatencyNs) + " ns / 6.25 GB/s"});
    t.addRow({"network latency / BW",
              std::to_string(cfg.netLatencyNs) + " ns / 7 GB/s"});
    t.addRow({"send one INV / one ACK",
              std::to_string(cfg.sendInvNs) + " / " +
                  std::to_string(cfg.sendAckNs) + " ns"});
    t.addRow({"inter-message gap (no bcast)",
              std::to_string(cfg.interMsgGapNs) + " ns"});
    t.addRow({"vFIFO / dFIFO write (1KB)",
              std::to_string(cfg.vfifoWriteNs) + " / " +
                  std::to_string(cfg.dfifoWriteNs) + " ns"});
    t.addRow({"vFIFO / dFIFO entries",
              std::to_string(cfg.vfifoEntries) + " / " +
                  std::to_string(cfg.dfifoEntries)});
    t.addRow({"emulated NVM persist (1KB)",
              std::to_string(cfg.persistNsPerKb) + " ns"});
    t.addRow({"record size",
              std::to_string(cfg.recordBytes) + " B"});
    t.addRow({"records per node", std::to_string(cfg.numRecords)});
    std::printf("%s\n", t.str().c_str());
}

void
timestampPack(benchmark::State &state)
{
    kv::Timestamp ts{123456, 7};
    std::uint64_t acc = 0;
    for (auto _ : state) {
        acc += ts.pack();
        ts.version += 1;
        benchmark::DoNotOptimize(acc);
    }
}

void
timestampRaise(benchmark::State &state)
{
    kv::AtomicRecord rec;
    std::int64_t v = 0;
    for (auto _ : state) {
        kv::AtomicRecord::raiseTs(rec.volatileTs,
                                  kv::Timestamp{v++, 0});
    }
}

void
zipfianNext(benchmark::State &state)
{
    Rng rng(1);
    ZipfianKeys keys(100'000);
    std::uint64_t acc = 0;
    for (auto _ : state) {
        acc += keys.next(rng);
        benchmark::DoNotOptimize(acc);
    }
}

void
hashtableFind(benchmark::State &state)
{
    kv::HashTable table(1 << 16);
    for (kv::Key k = 0; k < 100'000; ++k)
        table.getOrCreate(k);
    Rng rng(2);
    for (auto _ : state) {
        auto *rec = table.find(rng.nextUint(100'000));
        benchmark::DoNotOptimize(rec);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    minosRegisterBench("Micro/timestamp_pack", timestampPack);
    minosRegisterBench("Micro/timestamp_raise_cas",
                                 timestampRaise);
    minosRegisterBench("Micro/zipfian_next", zipfianNext);
    minosRegisterBench("Micro/hashtable_find", hashtableFind);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printParameterTables();
    printMetricsBlob("tables");
    return 0;
}
