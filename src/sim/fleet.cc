#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "runtime/eval.h"
#include "sim/sweep.h"
#include "sim/timing.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

int64_t
rootDomainSize(const KernelSpec &spec, const Bindings &args)
{
    EvalCtx ctx(*spec.prog);
    args.seed(ctx);
    const double v = evalExpr(spec.prog->root().size, ctx);
    return v < 0.0 ? 0 : static_cast<int64_t>(std::llround(v));
}

/** Bytes each device ships to the combining device: one scalar partial
 *  for a reduction root, otherwise the shard's proportional share of
 *  every bound output array. */
std::vector<double>
shardOutputBytes(const KernelSpec &spec, const Bindings &args,
                 const ShardPlan &plan, bool reduceRoot)
{
    std::vector<double> bytes(plan.shards.size(), 0.0);
    if (reduceRoot) {
        std::fill(bytes.begin(), bytes.end(), 8.0);
        return bytes;
    }
    double outBytes = 0.0;
    const Program &prog = *spec.prog;
    for (int v = 0; v < prog.numVars(); v++) {
        const VarInfo &var = prog.var(v);
        if (var.role != VarRole::ArrayParam || !var.isOutput)
            continue;
        const ArraySlot &slot = args.arraySlot(v);
        if (slot.data)
            outBytes += static_cast<double>(slot.size) * 8.0;
    }
    const double total = std::max<double>(
        static_cast<double>(plan.outerSize), 1.0);
    for (size_t d = 0; d < plan.shards.size(); d++) {
        bytes[d] = outBytes *
                   (static_cast<double>(plan.shards[d].size()) / total);
    }
    return bytes;
}

} // namespace

FleetReport
runOnFleet(const Gpu &gpu, const KernelSpec &spec, const Bindings &args,
           const FleetConfig &fleet, const ExecOptions &eopts,
           int64_t splitPoint, uint64_t specSeed)
{
    NPP_TRACE_SCOPE("fleet.run");
    // A functional fleet run folds shard partials into the bound output.
    NPP_ASSERT(eopts.metricsOnly || !args.frozen(),
               "functional fleet run inside a frozen bindings window");
    FleetReport report;
    report.fleet = fleet;

    const Program &prog = *spec.prog;
    const int64_t outerSize = rootDomainSize(spec, args);
    report.plan = partitionOuter(prog, spec.mapping, outerSize,
                                 fleet.deviceCount, splitPoint);
    if (!report.plan.valid)
        return report;

    const bool reduceRoot = prog.root().kind == PatternKind::Reduce;
    const bool single = fleet.deviceCount == 1;
    // Cached replay is metrics-only territory: a shard entry captures
    // whole output arrays, which must not clobber other shards' ranges
    // on a functional fleet run.
    const bool useCache =
        specSeed != 0 && (eopts.metricsOnly || single);

    double combined = reduceRoot && !eopts.metricsOnly
                          ? combinerIdentity(prog.root().combiner)
                          : 0.0;
    double worst = -1.0;
    for (size_t d = 0; d < report.plan.shards.size(); d++) {
        const ShardRange &shard = report.plan.shards[d];
        ExecOptions shardOpts = eopts;
        if (!single) {
            // N=1 keeps the options byte-identical to the unsharded
            // path (same behavior, same EvalCache key).
            shardOpts.rootShardLo = shard.lo;
            shardOpts.rootShardHi = shard.hi;
        }
        SimReport r =
            useCache
                ? cachedRun(gpu, spec, args, shardOpts, specSeed,
                            /*wantOutputs=*/!eopts.metricsOnly)
                : gpu.run(spec, args, shardOpts);
        if (reduceRoot && !single && !eopts.metricsOnly) {
            // Each shard's launch left its partial in the root output
            // slot; fold it before the next shard overwrites it.
            const ArraySlot &out = args.arraySlot(prog.rootOutput());
            combined = applyOp(prog.root().combiner, combined,
                               out.data[0]);
        }
        if (r.totalMs > worst) {
            worst = r.totalMs;
            report.criticalDevice = static_cast<int>(d);
        }
        report.perDevice.push_back(std::move(r));
    }
    if (reduceRoot && !single && !eopts.metricsOnly)
        args.arraySlot(prog.rootOutput()).data[0] = combined;

    if (!single) {
        report.interMs = interDeviceMs(
            shardOutputBytes(spec, args, report.plan, reduceRoot), fleet,
            reduceRoot);
    }
    report.fleetMs = std::max(worst, 0.0) + report.interMs;
    return report;
}

FleetChoice
searchFleet(const Gpu &gpu, const KernelSpec &spec, const Bindings &args,
            const FleetConfig &maxFleet, const ExecOptions &eopts,
            uint64_t specSeed)
{
    NPP_TRACE_SCOPE("fleet.search");
    const Bindings::Freeze frozen(args);
    FleetChoice choice;

    // Scoring never needs materialized outputs; metrics-only runs also
    // unlock block classing and cache sharing with the mapping search.
    ExecOptions scoreOpts = eopts;
    scoreOpts.metricsOnly = true;

    const int64_t outerSize = rootDomainSize(spec, args);
    const int64_t unit = outerShardUnit(spec.mapping);
    const int maxDevices = std::max(maxFleet.deviceCount, 1);

    // Generator: (deviceCount, split) pairs with their partition
    // verdicts, settled before any simulation.
    std::vector<SweepSlot> slots;
    std::vector<int64_t> requested; //!< split handed to runOnFleet
    for (int n = 1; n <= maxDevices; n++) {
        const std::vector<int64_t> splits =
            n == 1 ? std::vector<int64_t>{-1}
                   : splitPointCandidates(outerSize, n, unit);
        for (int64_t sp : splits) {
            const ShardPlan plan =
                partitionOuter(*spec.prog, spec.mapping, outerSize, n, sp);
            FleetCandidate cand;
            cand.deviceCount = n;
            cand.splitPoint = plan.valid ? plan.splitPoint : sp;
            cand.feasible = plan.valid;
            cand.verdict = plan.verdict;
            // The balanced (-1) request resolves to a concrete split
            // that one of the unit-rounded candidates may repeat; keep
            // only the first occurrence.
            bool dup = false;
            for (const FleetCandidate &prev : choice.candidates)
                dup |= cand.feasible && prev.feasible &&
                       prev.deviceCount == n &&
                       prev.splitPoint == cand.splitPoint;
            if (dup)
                continue;
            choice.candidates.push_back(cand);
            slots.push_back({plan.valid, true});
            requested.push_back(sp);
            // One infeasible candidate per device count is enough: the
            // hard filter (domain too small, cross-outer dependence)
            // does not depend on the split point.
            if (!plan.valid)
                break;
        }
    }

    SweepRun<FleetReport> run = runSweep<FleetReport>(
        std::move(slots),
        [&](size_t i) {
            FleetConfig fleet = maxFleet;
            fleet.deviceCount = choice.candidates[i].deviceCount;
            return runOnFleet(gpu, spec, args, fleet, scoreOpts,
                              requested[i], specSeed);
        },
        [](const FleetReport &r) { return r.fleetMs; });

    for (size_t i = 0; i < choice.candidates.size(); i++) {
        if (run.results[i])
            choice.candidates[i].fleetMs = run.results[i]->fleetMs;
    }
    if (!choice.candidates.empty() && choice.candidates[0].feasible)
        choice.singleMs = choice.candidates[0].fleetMs;
    if (run.best >= 0) {
        const FleetCandidate &win =
            choice.candidates[static_cast<size_t>(run.best)];
        choice.deviceCount = win.deviceCount;
        choice.splitPoint = win.deviceCount == 1 ? -1 : win.splitPoint;
        choice.fleetMs = win.fleetMs;
        choice.best = std::move(*run.results[static_cast<size_t>(run.best)]);
    }
    if (choice.fleetMs > 0.0)
        choice.speedup = choice.singleMs / choice.fleetMs;
    return choice;
}

ExplainSection
FleetChoice::section() const
{
    ExplainSection out;
    out.key = "fleet";

    std::ostringstream os;
    os << "multi-device sweep (peer " << best.fleet.peerBandwidthGBs
       << " GB/s, " << best.fleet.peerLatencyUs << " us/transfer):\n";
    for (const FleetCandidate &c : candidates) {
        os << "  devices=" << c.deviceCount;
        if (c.deviceCount > 1 && c.feasible)
            os << " split=" << c.splitPoint;
        if (c.feasible) {
            os << "  " << fixed(c.fleetMs, 4) << " ms";
            if (singleMs > 0.0 && c.fleetMs > 0.0)
                os << "  (" << fixed(singleMs / c.fleetMs, 4)
                   << "x vs one device)";
        } else {
            os << "  hard-filtered: " << c.verdict;
        }
        os << "\n";
    }
    os << "selected: devices=" << deviceCount;
    if (deviceCount > 1) {
        os << " split=" << splitPoint << " — " << fixed(speedup, 4)
           << "x over one device (" << fixed(best.interMs, 4)
           << " ms inter-device)";
    } else {
        os << " (sharding does not pay off here)";
    }
    os << "\n";
    out.text = os.str();

    std::ostringstream js;
    js << "{\"devices\":" << deviceCount << ",\"split\":" << splitPoint
       << ",\"fleet_ms\":" << fleetMs << ",\"single_ms\":" << singleMs
       << ",\"speedup\":" << speedup << ",\"inter_ms\":" << best.interMs
       << ",\"candidates\":[";
    for (size_t i = 0; i < candidates.size(); i++) {
        const FleetCandidate &c = candidates[i];
        js << (i ? "," : "") << "{\"devices\":" << c.deviceCount
           << ",\"split\":" << c.splitPoint << ",\"feasible\":"
           << (c.feasible ? "true" : "false");
        if (c.feasible)
            js << ",\"fleet_ms\":" << c.fleetMs;
        else
            js << ",\"verdict\":" << jsonQuote(c.verdict);
        js << "}";
    }
    js << "]}";
    out.json = js.str();
    return out;
}

} // namespace npp
