/**
 * @file
 * The sweep engine behind every empirical exploration of the mapping
 * space (the paper's "auto-tuners to explore the mapping space",
 * Section IV-B):
 *
 *   generator -> hard-filter verdicts -> pruner -> parallel evaluate
 *             -> serial fold in list order -> explain section
 *
 * The generators (autotune, predictiveSweep, searchFleet,
 * searchConsolidation) lay out their candidates and verdicts before
 * anything is simulated; an optional pruner (the learned cost model)
 * clears `survived` on candidates not worth simulating; the engine
 * evaluates every feasible survivor through one parallelMap and folds
 * serially in list order, so the winner — lowest cost, earliest on
 * ties — is the same on any thread count. Evaluators run concurrently
 * (metrics-only runs through the EvalCache are safe to).
 */

#ifndef NPP_SIM_SWEEP_H
#define NPP_SIM_SWEEP_H

#include <functional>
#include <optional>
#include <vector>

#include "codegen/compile.h"
#include "support/parallel.h"

namespace npp {

class Bindings;
class Gpu;

/** Where one candidate stands before evaluation. */
struct SweepSlot
{
    bool feasible = true; //!< hard-filter verdict (generator keeps why)
    bool survived = true; //!< cleared by the pruner
};

using SweepPruner = std::function<void(std::vector<SweepSlot> &)>;

template <typename R>
struct SweepRun
{
    /** Per slot, in list order; empty when filtered or pruned. */
    std::vector<std::optional<R>> results;
    /** Lowest-cost slot (earliest wins ties); -1 when none ran. */
    int best = -1;
};

template <typename R>
SweepRun<R>
runSweep(std::vector<SweepSlot> slots,
         const std::function<R(size_t)> &evaluate,
         const std::function<double(const R &)> &cost,
         const SweepPruner &prune = {})
{
    if (prune)
        prune(slots);
    std::vector<size_t> runs;
    for (size_t i = 0; i < slots.size(); i++) {
        if (slots[i].feasible && slots[i].survived)
            runs.push_back(i);
    }
    std::vector<R> measured = parallelMap<R>(
        static_cast<int64_t>(runs.size()),
        [&](int64_t k) { return evaluate(runs[static_cast<size_t>(k)]); });

    SweepRun<R> run;
    run.results.resize(slots.size());
    for (size_t k = 0; k < runs.size(); k++) {
        const size_t i = runs[k];
        if (run.best < 0 ||
            cost(measured[k]) <
                cost(*run.results[static_cast<size_t>(run.best)]))
            run.best = static_cast<int>(i);
        run.results[i] = std::move(measured[k]);
    }
    return run;
}

/** Algorithm 1's score-ranked pick list: the score-based selection
 *  first (ControlDOP may have rewritten it beyond the raw candidates),
 *  then distinct candidates by descending score, at most `limit` in
 *  all. `compiled` must carry its candidates (keepCandidates). */
std::vector<ScoredMapping> scoreRankedPicks(const CompileResult &compiled,
                                            int limit);

/** Sweep mapping picks, each run under Strategy::Fixed, metrics-only
 *  through the EvalCache; a result is its simulated time. */
SweepRun<double> sweepMappings(const Gpu &gpu, const Program &prog,
                               const Bindings &args,
                               const CompileOptions &base,
                               const std::vector<ScoredMapping> &picks,
                               const SweepPruner &prune = {});

} // namespace npp

#endif // NPP_SIM_SWEEP_H
