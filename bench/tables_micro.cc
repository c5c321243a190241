/**
 * @file
 * Tables II & III: the simulated-machine parameter set, printed for the
 * record, plus wall-clock microbenchmarks of the substrate primitives
 * the protocols lean on (timestamp packing/CAS, zipfian generation).
 * The host cost of the store, the durable log and the event core is
 * measured by perfbench/ (kv.store_at_ns, nvm.append_ns, sim.*).
 * Takes no arguments.
 */

#include <cstdio>

#include "common/random.hh"
#include "kv/record.hh"
#include "simproto/config.hh"
#include "stats/stats.hh"
#include "wall_clock.hh"

using namespace minos;

namespace {

void
printParameterTables()
{
    simproto::ClusterConfig cfg; // the defaults are Tables II/III
    std::printf("\n=== Tables II/III: simulated system parameters ===\n"
                "(simulated machine, Tables II/III parameters; "
                "shape-level reproduction)\n\n");
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
timestampPack()
{
    kv::Timestamp ts{123456, 7};
    std::uint64_t acc = 0;
    bench::timeOps("Micro/timestamp_pack", bench::Unit::Ns, [&] {
        acc += ts.pack();
        // maxVersion is all ones: wrap inside the 24-bit field.
        ts.version = (ts.version + 1) & kv::Timestamp::maxVersion;
        bench::doNotOptimize(acc);
    });
}

void
timestampRaise()
{
    kv::AtomicRecord rec;
    std::int64_t v = 0;
    bench::timeOps("Micro/timestamp_raise_cas", bench::Unit::Ns, [&] {
        // Start over below the 24-bit version limit, so every raise
        // still succeeds.
        if (v > kv::Timestamp::maxVersion) {
            v = 0;
            rec.volatileTs.store(kv::Timestamp::none().pack());
        }
        kv::AtomicRecord::raiseTs(rec.volatileTs,
                                  kv::Timestamp{v++, 0});
    });
}

void
zipfianNext()
{
    Rng rng(1);
    ZipfianKeys keys(100'000);
    std::uint64_t acc = 0;
    bench::timeOps("Micro/zipfian_next", bench::Unit::Ns, [&] {
        acc += keys.next(rng);
        bench::doNotOptimize(acc);
    });
}

} // namespace

int
main(int argc, char **argv)
{
    bench::rejectArguments(argc, argv);
    timestampPack();
    timestampRaise();
    zipfianNext();
    printParameterTables();
    return 0;
}
