#include "sim/metrics.h"

#include <algorithm>
#include <sstream>

#include "support/strings.h"

namespace npp {

uint64_t
SimReport::heapBytes() const
{
    return stats.siteTraffic.capacity() * sizeof(SiteTraffic) +
           stats.classReason.capacity();
}

std::string
SimReport::toString() const
{
    return fmt("total {} ms (compute {}, mem {}, launch {}, blocks {}, "
               "malloc {}, combiner {}, compaction {}, queue {}); "
               "bw {} GB/s, warps {}, trans {}, warpInstr {}",
               fixed(totalMs, 4), fixed(computeMs, 4), fixed(memoryMs, 4),
               fixed(launchMs, 4), fixed(blockOverheadMs, 4),
               fixed(mallocMs, 4), fixed(combinerMs, 4),
               fixed(compactionMs, 4), fixed(queueBuildMs, 4),
               fixed(achievedBandwidth, 1), fixed(residentWarps, 0),
               fixed(stats.transactions, 0),
               fixed(stats.warpInstructions, 0));
}

std::string
SimReport::toJson(int64_t transactionBytes) const
{
    const double total = std::max(totalMs, 1e-12);
    std::ostringstream os;
    os << "{";
    os << "\"total_ms\":" << precise(totalMs, 17);
    os << ",\"compute_ms\":" << precise(computeMs, 17);
    os << ",\"memory_ms\":" << precise(memoryMs, 17);
    os << ",\"launch_ms\":" << precise(launchMs, 17);
    os << ",\"block_overhead_ms\":" << precise(blockOverheadMs, 17);
    os << ",\"malloc_ms\":" << precise(mallocMs, 17);
    os << ",\"combiner_ms\":" << precise(combinerMs, 17);
    os << ",\"compaction_ms\":" << precise(compactionMs, 17);
    os << ",\"queue_build_ms\":" << precise(queueBuildMs, 17);
    os << ",\"launch_share\":" << precise(launchMs / total, 17);
    os << ",\"block_overhead_share\":" << precise(blockOverheadMs / total, 17);
    os << ",\"achieved_bandwidth_gbs\":" << precise(achievedBandwidth, 17);
    os << ",\"resident_warps\":" << precise(residentWarps, 17);
    os << ",\"blocks_per_sm\":" << blocksPerSM;
    os << ",\"occupancy\":" << precise(occupancy, 17);
    os << ",\"coalescing_efficiency\":" << precise(coalescingEfficiency, 17);
    os << ",\"coalesce_model\":\"" << kCoalesceModelVersion << "\"";
    os << ",\"stats\":{";
    os << "\"warp_instructions\":" << precise(stats.warpInstructions, 17);
    os << ",\"transactions\":" << precise(stats.transactions, 17);
    os << ",\"useful_bytes\":" << precise(stats.usefulBytes, 17);
    os << ",\"smem_accesses\":" << precise(stats.smemAccesses, 17);
    os << ",\"syncs\":" << precise(stats.syncs, 17);
    os << ",\"mallocs\":" << precise(stats.mallocs, 17);
    os << ",\"total_blocks\":" << stats.totalBlocks;
    os << ",\"threads_per_block\":" << stats.threadsPerBlock;
    os << ",\"shared_mem_per_block\":" << stats.sharedMemPerBlock;
    os << ",\"has_combiner\":" << (stats.hasCombiner ? "true" : "false");
    os << ",\"combiner_transactions\":"
       << precise(stats.combinerTransactions, 17);
    os << ",\"combiner_ops\":" << precise(stats.combinerOps, 17);
    os << ",\"combiner_threads\":" << stats.combinerThreads;
    os << ",\"has_compaction\":"
       << (stats.hasCompaction ? "true" : "false");
    os << ",\"compaction_transactions\":"
       << precise(stats.compactionTransactions, 17);
    os << ",\"compaction_ops\":" << precise(stats.compactionOps, 17);
    os << ",\"compaction_threads\":" << stats.compactionThreads;
    os << ",\"has_consolidation\":"
       << (stats.hasConsolidation ? "true" : "false");
    os << ",\"queue_build_transactions\":"
       << precise(stats.queueBuildTransactions, 17);
    os << ",\"queue_build_ops\":" << precise(stats.queueBuildOps, 17);
    os << ",\"queue_build_threads\":" << stats.queueBuildThreads;
    os << ",\"consolidation_groups\":" << stats.consolidationGroups;
    os << ",\"consolidation_parents\":" << stats.consolidationParents;
    os << ",\"consolidation_entries\":" << stats.consolidationEntries;
    os << ",\"consolidation_waves\":" << stats.consolidationWaves;
    os << ",\"bin_fill\":" << precise(stats.binFill, 17);
    os << ",\"sampled_fraction\":" << precise(stats.sampledFraction, 17);
    os << ",\"classed_blocks\":" << stats.classedBlocks;
    os << ",\"class_reason\":\"" << jsonEscape(stats.classReason) << "\"";
    os << "}";
    if (!stats.siteTraffic.empty()) {
        os << ",\"sites\":[";
        bool first = true;
        for (const SiteTraffic &st : stats.siteTraffic) {
            if (!first)
                os << ",";
            first = false;
            const double moved =
                st.transactions * static_cast<double>(transactionBytes);
            os << "{\"site\":" << st.site
               << ",\"transactions\":" << precise(st.transactions, 17)
               << ",\"useful_bytes\":" << precise(st.usefulBytes, 17)
               << ",\"accesses\":" << precise(st.accesses, 17)
               << ",\"coalescing_efficiency\":"
               << precise(moved > 0.0
                          ? std::min(st.usefulBytes / moved, 1.0)
                          : 1.0, 17)
               << "}";
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

bool
reportsBitIdentical(const SimReport &a, const SimReport &b)
{
    const KernelStats &s = a.stats;
    const KernelStats &t = b.stats;
    return a.totalMs == b.totalMs && a.computeMs == b.computeMs &&
           a.memoryMs == b.memoryMs && a.launchMs == b.launchMs &&
           a.blockOverheadMs == b.blockOverheadMs &&
           a.mallocMs == b.mallocMs && a.combinerMs == b.combinerMs &&
           a.compactionMs == b.compactionMs &&
           a.achievedBandwidth == b.achievedBandwidth &&
           a.residentWarps == b.residentWarps &&
           a.blocksPerSM == b.blocksPerSM && a.occupancy == b.occupancy &&
           a.coalescingEfficiency == b.coalescingEfficiency &&
           s.warpInstructions == t.warpInstructions &&
           s.transactions == t.transactions &&
           s.usefulBytes == t.usefulBytes &&
           s.smemAccesses == t.smemAccesses && s.syncs == t.syncs &&
           s.mallocs == t.mallocs && s.totalBlocks == t.totalBlocks &&
           s.threadsPerBlock == t.threadsPerBlock &&
           s.sharedMemPerBlock == t.sharedMemPerBlock &&
           s.hasCombiner == t.hasCombiner &&
           s.combinerTransactions == t.combinerTransactions &&
           s.combinerOps == t.combinerOps &&
           s.combinerThreads == t.combinerThreads &&
           s.hasCompaction == t.hasCompaction &&
           s.compactionTransactions == t.compactionTransactions &&
           s.compactionOps == t.compactionOps &&
           s.compactionThreads == t.compactionThreads &&
           a.queueBuildMs == b.queueBuildMs &&
           s.hasConsolidation == t.hasConsolidation &&
           s.queueBuildTransactions == t.queueBuildTransactions &&
           s.queueBuildOps == t.queueBuildOps &&
           s.queueBuildThreads == t.queueBuildThreads &&
           s.consolidationGroups == t.consolidationGroups &&
           s.consolidationParents == t.consolidationParents &&
           s.consolidationEntries == t.consolidationEntries &&
           s.consolidationWaves == t.consolidationWaves &&
           s.binFill == t.binFill &&
           s.sampledFraction == t.sampledFraction &&
           s.siteTraffic == t.siteTraffic;
}

} // namespace npp
