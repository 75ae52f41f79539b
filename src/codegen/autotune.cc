#include "codegen/autotune.h"

#include "sim/gpu.h"
#include "sim/sweep.h"
#include "support/logging.h"
#include "support/trace.h"

namespace npp {

AutotuneResult
autotune(const Program &prog, const Gpu &gpu, const Bindings &args,
         CompileOptions base, const AutotuneOptions &options)
{
    NPP_TRACE_SCOPE("codegen.autotune");
    AutotuneResult result;

    base.strategy = Strategy::MultiDim;
    base.keepCandidates = true;
    CompileResult compiled = compileProgram(prog, gpu.config(), base);
    result.scoreChoice = compiled.spec.mapping;

    // The score choice plus the top-scoring distinct runners-up.
    const std::vector<ScoredMapping> picks =
        scoreRankedPicks(compiled, options.topCandidates + 1);
    const SweepRun<double> run =
        sweepMappings(gpu, prog, args, base, picks);
    NPP_ASSERT(run.best >= 0, "autotune executed no candidates");

    for (size_t i = 0; i < picks.size(); i++) {
        const double ms = *run.results[i];
        result.trials.push_back({picks[i].decision, picks[i].score, ms});
        if (picks[i].decision == result.scoreChoice)
            result.scoreChoiceMs = ms;
    }
    NPP_TRACE_COUNT("autotune.trials", static_cast<double>(picks.size()));
    result.bestMs = *run.results[static_cast<size_t>(run.best)];

    CompileOptions fixed = base;
    fixed.keepCandidates = false;
    fixed.strategy = Strategy::Fixed;
    fixed.fixedMapping = picks[static_cast<size_t>(run.best)].decision;
    CompileResult winner = compileProgram(prog, gpu.config(), fixed);
    result.best = winner.spec;
    result.ownedProgram = winner.ownedProgram;
    return result;
}

} // namespace npp
