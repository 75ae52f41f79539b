#include "sim/consolidation.h"

#include <algorithm>
#include <sstream>

#include "analysis/consolidate.h"
#include "sim/sweep.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

/** Compile + metrics-only cached evaluation of one candidate. */
ConsolidationCandidate
evalCandidate(const Gpu &gpu, const Program &prog, const Bindings &args,
              CompileOptions copts, const ExecOptions &eopts,
              ConsolidationCandidate cand)
{
    copts.keepCandidates = false;
    copts.explainSearch = false;

    const CompileResult compiled = compileProgram(prog, gpu.config(), copts);
    ExecOptions scoreOpts = eopts;
    scoreOpts.metricsOnly = true;
    const SimReport r =
        cachedRun(gpu, compiled.spec, args, scoreOpts,
                  EvalCache::specSeed(prog, copts, gpu.config()),
                  /*wantOutputs=*/false, &cand.tier);
    cand.feasible = true;
    cand.totalMs = r.totalMs;
    cand.queueBuildMs = r.queueBuildMs;
    cand.binFill = r.stats.binFill;
    cand.verdict = compiled.spec.consolidation.verdict;
    return cand;
}

} // namespace

ConsolidationChoice
searchConsolidation(const Gpu &gpu, const Program &prog,
                    const Bindings &args, const CompileOptions &base,
                    const ExecOptions &eopts)
{
    NPP_TRACE_SCOPE("consolidation.search");
    ConsolidationChoice choice;

    // Generator. The static baseline: the mapping the caller's options
    // would launch (the searched multi-dim mapping unless a fixed one
    // was given).
    std::vector<CompileOptions> opts(1, base);
    if (opts[0].strategy == Strategy::Consolidate)
        opts[0].strategy = Strategy::MultiDim;
    ConsolidationCandidate baseline;
    baseline.label = fmt("static ({})", strategyName(opts[0].strategy));
    baseline.strategy = opts[0].strategy;
    baseline.granularity = opts[0].binGranularity;
    choice.candidates.push_back(baseline);

    // Then the bin granularities, or the eligibility verdict that
    // hard-filters them.
    const bool dynamic = hasDynamicInnerExtent(prog);
    const std::string reason =
        dynamic ? consolidationEligibility(prog) : std::string();
    if (dynamic && !reason.empty()) {
        ConsolidationCandidate cand;
        cand.label = "consolidate";
        cand.strategy = Strategy::Consolidate;
        cand.verdict = reason;
        choice.candidates.push_back(cand);
    } else if (dynamic) {
        for (BinGranularity g :
             {BinGranularity::Warp, BinGranularity::Block}) {
            CompileOptions copts = base;
            copts.strategy = Strategy::Consolidate;
            copts.binGranularity = g;
            opts.push_back(copts);
            ConsolidationCandidate cand;
            cand.label = fmt("{}-bin queues", binGranularityName(g));
            cand.strategy = Strategy::Consolidate;
            cand.granularity = g;
            choice.candidates.push_back(cand);
        }
    }
    std::vector<SweepSlot> slots(choice.candidates.size());
    if (!reason.empty())
        slots[1].feasible = false;

    const SweepRun<ConsolidationCandidate> run =
        runSweep<ConsolidationCandidate>(
            std::move(slots),
            [&](size_t i) {
                return evalCandidate(gpu, prog, args, opts[i], eopts,
                                     choice.candidates[i]);
            },
            [](const ConsolidationCandidate &c) { return c.totalMs; });
    for (size_t i = 0; i < choice.candidates.size(); i++) {
        if (run.results[i])
            choice.candidates[i] = *run.results[i];
    }
    choice.staticMs = choice.candidates[0].totalMs;
    choice.bestMs = choice.staticMs;

    if (!dynamic) {
        choice.verdict = "not consolidated: no runtime-sized inner "
                         "domain (every extent is known at launch)";
        return choice;
    }
    if (!reason.empty()) {
        choice.verdict = "not consolidated: " + reason;
        return choice;
    }

    // The fold's winner beats the baseline strictly (the baseline is
    // first in list order, so it keeps ties).
    if (run.best > 0) {
        const ConsolidationCandidate &best =
            choice.candidates[static_cast<size_t>(run.best)];
        choice.consolidated = true;
        choice.granularity = best.granularity;
        choice.bestMs = best.totalMs;
        choice.speedup = choice.staticMs / std::max(best.totalMs, 1e-12);
        choice.verdict =
            fmt("consolidated: {}-bin queues beat the best static "
                "mapping ({}x; bin fill {}, queue build {} ms)",
                binGranularityName(best.granularity),
                fixed(choice.speedup, 4), fixed(best.binFill, 3),
                fixed(best.queueBuildMs, 4));
    } else {
        const double bestConsMs = std::min(choice.candidates[1].totalMs,
                                           choice.candidates[2].totalMs);
        choice.verdict = fmt(
            "not consolidated: queue build outweighs the skew savings "
            "(best static {} ms vs consolidated {} ms)",
            fixed(choice.staticMs, 4), fixed(bestConsMs, 4));
        choice.speedup =
            choice.bestMs > 0.0 ? choice.staticMs / choice.bestMs : 1.0;
    }
    return choice;
}

ExplainSection
ConsolidationChoice::section() const
{
    ExplainSection out;
    out.key = "consolidation";

    std::ostringstream os;
    os << "consolidation sweep (runtime-sized inner domains):\n";
    for (const ConsolidationCandidate &c : candidates) {
        os << "  " << c.label;
        if (c.feasible) {
            os << "  " << fixed(c.totalMs, 4) << " ms";
            if (c.strategy == Strategy::Consolidate) {
                os << "  (bin fill " << fixed(c.binFill, 3)
                   << ", queue build " << fixed(c.queueBuildMs, 4)
                   << " ms)";
            }
        } else {
            os << "  hard-filtered: " << c.verdict;
        }
        os << "\n";
    }
    os << "selected: " << verdict << "\n";
    out.text = os.str();

    std::ostringstream js;
    js << "{\"consolidated\":" << (consolidated ? "true" : "false");
    if (consolidated)
        js << ",\"granularity\":" << jsonQuote(binGranularityName(granularity));
    js << ",\"verdict\":" << jsonQuote(verdict)
       << ",\"static_ms\":" << staticMs << ",\"best_ms\":" << bestMs
       << ",\"speedup\":" << speedup << ",\"candidates\":[";
    for (size_t i = 0; i < candidates.size(); i++) {
        const ConsolidationCandidate &c = candidates[i];
        js << (i ? "," : "") << "{\"label\":" << jsonQuote(c.label)
           << ",\"feasible\":" << (c.feasible ? "true" : "false");
        if (c.feasible) {
            js << ",\"total_ms\":" << c.totalMs
               << ",\"queue_build_ms\":" << c.queueBuildMs
               << ",\"bin_fill\":" << c.binFill;
        } else {
            js << ",\"verdict\":" << jsonQuote(c.verdict);
        }
        js << "}";
    }
    js << "]}";
    out.json = js.str();
    return out;
}

} // namespace npp
