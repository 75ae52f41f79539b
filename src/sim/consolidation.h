/**
 * @file
 * Consolidation sweep for programs with runtime-sized inner domains:
 * score the searched static mapping against the warp- and block-bin
 * consolidated mappings (analysis/consolidate.h) and report which one
 * wins and why. The sweep is the consolidation analogue of the
 * multi-device fleet sweep (sim/fleet.h) and runs on the same sweep
 * engine (sim/sweep.h): its explain section shows the queue-build
 * cost, bin fill, and the margin by which consolidation beat — or lost
 * to — the best static mapping.
 */

#ifndef NPP_SIM_CONSOLIDATION_H
#define NPP_SIM_CONSOLIDATION_H

#include <string>
#include <vector>

#include "sim/evalcache.h"
#include "sim/gpu.h"

namespace npp {

/** One scored entry of the sweep: the static baseline or one bin
 *  granularity. */
struct ConsolidationCandidate
{
    std::string label;   //!< "static (searched)", "warp bins", ...
    Strategy strategy = Strategy::MultiDim;
    BinGranularity granularity = BinGranularity::Warp;
    bool feasible = false;
    std::string verdict; //!< eligibility reason when infeasible
    double totalMs = 0.0;
    double queueBuildMs = 0.0;
    double binFill = 1.0;
    EvalTier tier = EvalTier::Simulated;
};

/** Sweep outcome: the winning mapping plus every candidate's verdict. */
struct ConsolidationChoice
{
    /** True when a consolidated candidate beat the static baseline. */
    bool consolidated = false;
    /** Winning granularity (meaningful when consolidated). */
    BinGranularity granularity = BinGranularity::Warp;
    /** One-line verdict: why consolidation won or lost. */
    std::string verdict;
    double staticMs = 0.0; //!< best static mapping's modeled time
    double bestMs = 0.0;   //!< winner's modeled time
    double speedup = 1.0;  //!< staticMs / bestMs
    std::vector<ConsolidationCandidate> candidates;

    /** The "consolidation" explain section: every candidate's time or
     *  eligibility verdict, and the selection. */
    ExplainSection section() const;
};

/**
 * Run the sweep: the static baseline plus, for an eligible program,
 * the warp- and block-bin candidates, evaluated concurrently through
 * the sweep engine. Evaluations are metrics-only and EvalCache-memoized;
 * `base` carries the caller's compile options (prealloc, objective,
 * raw pointers) so the static baseline matches what the caller would
 * have launched. A program without a runtime-sized inner domain — or
 * one the eligibility filter rejects — yields a not-consolidated
 * choice whose verdict names the reason.
 */
ConsolidationChoice searchConsolidation(const Gpu &gpu,
                                        const Program &prog,
                                        const Bindings &args,
                                        const CompileOptions &base,
                                        const ExecOptions &eopts);

} // namespace npp

#endif // NPP_SIM_CONSOLIDATION_H
