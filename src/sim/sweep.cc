#include "sim/sweep.h"

#include <algorithm>
#include <unordered_set>

#include "sim/evalcache.h"

namespace npp {

std::vector<ScoredMapping>
scoreRankedPicks(const CompileResult &compiled, int limit)
{
    std::vector<ScoredMapping> cands = compiled.candidates;
    std::sort(cands.begin(), cands.end(),
              [](const ScoredMapping &a, const ScoredMapping &b) {
                  return a.score > b.score;
              });
    std::vector<ScoredMapping> picks;
    std::unordered_set<MappingDecision> seen;
    picks.push_back({compiled.spec.mapping, compiled.spec.score,
                     compiled.spec.dop, 0.0});
    seen.insert(compiled.spec.mapping);
    for (const auto &c : cands) {
        if (static_cast<int>(picks.size()) >= limit)
            break;
        if (seen.insert(c.decision).second)
            picks.push_back(c);
    }
    return picks;
}

SweepRun<double>
sweepMappings(const Gpu &gpu, const Program &prog, const Bindings &args,
              const CompileOptions &base,
              const std::vector<ScoredMapping> &picks,
              const SweepPruner &prune)
{
    CompileOptions fixed = base;
    fixed.keepCandidates = false;
    fixed.explainSearch = false;
    fixed.strategy = Strategy::Fixed;
    return runSweep<double>(
        std::vector<SweepSlot>(picks.size()),
        [&](size_t i) {
            CompileOptions copts = fixed;
            copts.fixedMapping = picks[i].decision;
            return cachedCompileAndRun(gpu, prog, args, copts, {},
                                       /*wantOutputs=*/false)
                .totalMs;
        },
        [](const double &ms) { return ms; }, prune);
}

} // namespace npp
