/**
 * @file
 * tune: mapping decisions made the way `nppc <p> --predict --devices=4`
 * makes them, one op at a time, over the seven demo programs at
 * seed-drawn sizes. Setup harvests exact-simulation samples from full
 * sweeps at a training size no op uses and trains the ridge model; each
 * op then starts from an empty memory tier (a fresh process) and runs
 *   1. a predictive sweep: 48 scored candidates, the top 12 simulated
 *      metrics-only;
 *   2. a Fixed compile of the winner;
 *   3. a fleet sweep up to 4 devices;
 *   4. a consolidation sweep when the program has runtime-sized inner
 *      domains.
 * Checked outside the timed op: the winner is no slower than the score
 * choice, and a direct (uncached) Fixed run of the winner reproduces the
 * sweep's winning time bit for bit.
 */

#include <filesystem>

#include "analysis/consolidate.h"
#include "perfbench.h"
#include "predict/predict.h"
#include "server/programs.h"
#include "sim/consolidation.h"
#include "sim/fleet.h"
#include "support/rng.h"
#include "support/trace.h"

namespace perfbench {
namespace {

using namespace npp;

struct TuneOp
{
    std::string program;
    std::map<std::string, int64_t> sizes;
    std::unique_ptr<DemoProgram> demo;
};

std::unique_ptr<DemoProgram>
build(const std::string &name, const std::map<std::string, int64_t> &sizes)
{
    std::string error;
    std::unique_ptr<DemoProgram> demo = buildDemoProgram(name, sizes, &error);
    if (!demo)
        throw std::runtime_error("tune: " + name + ": " + error);
    return demo;
}

CompileOptions
baseOptions(const DemoProgram &demo)
{
    CompileOptions copts;
    copts.paramValues = demo.params;
    copts.fuseMapReduce = demo.fuse;
    return copts;
}

class Tune : public Workload
{
  public:
    explicit Tune(const Args &args) : args_(args)
    {
        // One cycle: every demo program at ten size tiers, in seeded
        // order. Tier t draws the sums edge from the multiples of 32 in
        // the t-th tenth of [256, 768]; the other programs follow at the
        // same linear scale. Stratifying keeps each cycle's work and its
        // median op close across seeds while every size stays seed-drawn.
        constexpr int kTiers = 10;
        Rng rng(mix(args.seed ^ 0x70e5ull));
        for (const std::string &name : demoProgramNames())
            for (int t = 0; t < kTiers; t++) {
                std::vector<int64_t> edges;
                for (int64_t e = 256; e <= 768; e += 32)
                    if (e * kTiers >= 256 * kTiers + 512 * t &&
                        (e * kTiers < 256 * kTiers + 512 * (t + 1) ||
                         (t == kTiers - 1 && e == 768)))
                        edges.push_back(e);
                const int64_t edge = edges[rng.below(edges.size())];
                TuneOp op;
                op.program = name;
                const double scale = args.quick ? 2048.0 : 512.0;
                op.sizes = demoSizes(name, static_cast<double>(edge) / scale);
                cycle_.push_back(std::move(op));
            }
        for (size_t i = cycle_.size(); i > 1; i--)
            std::swap(cycle_[i - 1], cycle_[rng.below(i)]);
    }

    void
    setup() override
    {
        // Training set: full sweeps at 3/8 scale (sums 192^2), a size no
        // op draws, harvested through the exact-evaluation observer.
        const std::string sampleDir = args_.workDir + "/tune-samples";
        std::filesystem::remove_all(sampleDir);
        EvalCache::instance().setDiskDir("");
        EvalCache::instance().clear();
        PredictRuntime::instance().setSampleDir(sampleDir);
        for (const std::string &name : demoProgramNames()) {
            auto demo =
                build(name, demoSizes(name, args_.quick ? 0.125 : 0.375));
            Bindings bound(*demo->prog);
            demo->bind(bound);
            predictiveSweep(gpu_, *demo->prog, bound, baseOptions(*demo),
                            nullptr, kPredictDefaultTopK);
        }
        PredictRuntime::instance().setSampleDir("");
        const auto t0 = Clock::now();
        const std::vector<PredictSample> samples =
            loadPredictSamples(sampleDir);
        model_ = trainPredictModel(samples);
        trainMs_ = msSince(t0);
        std::filesystem::remove_all(sampleDir);
        if (!model_)
            throw std::runtime_error("tune: no model from " +
                                     std::to_string(samples.size()) +
                                     " harvested samples");
        for (TuneOp &op : cycle_)
            op.demo = build(op.program, op.sizes);
    }

    Phase
    measure(int seconds) override
    {
        Phase phase;
        EvalCache::instance().setDiskDir("");
        std::vector<uint64_t> firstCycle(cycle_.size(), 0);
        double cudaBytes = 0.0;
        // Whole cycles only, so every run measures the same op mix.
        for (size_t i = 0; phase.timedS < seconds || i % cycle_.size() != 0;
             i++) {
            const TuneOp &op = cycle_[i % cycle_.size()];
            const DemoProgram &demo = *op.demo;
            Bindings bound(*demo.prog);
            demo.bind(bound);
            const CompileOptions base = baseOptions(demo);

            EvalCache::instance().clear(); // a fresh nppc process
            const double cpu0 = processCpuS();
            const auto t0 = Clock::now();
            PredictSweep sweep;
            CompileResult winner;
            FleetChoice fleet;
            ConsolidationChoice cons;
            {
                NPP_TRACE_SCOPE("bench.op");
                sweep = predictiveSweep(gpu_, *demo.prog, bound, base,
                                        &*model_, kPredictDefaultTopK);
                CompileOptions fixed = base;
                fixed.strategy = Strategy::Fixed;
                fixed.fixedMapping = sweep.best;
                winner = compileProgram(*demo.prog, gpu_.config(), fixed);
                const uint64_t specSeed = EvalCache::combine(
                    EvalCache::combine(EvalCache::hashProgram(*demo.prog),
                                       EvalCache::hashCompileOptions(fixed)),
                    EvalCache::hashDevice(gpu_.config()));
                ExecOptions eopts;
                eopts.metricsOnly = true;
                fleet = searchFleet(gpu_, winner.spec, bound, fleetK20c(4),
                                    eopts, specSeed);
                if (hasDynamicInnerExtent(*demo.prog))
                    cons = searchConsolidation(gpu_, *demo.prog, bound, base,
                                               eopts);
            }
            const double ms = msSince(t0);
            phase.cpuS += processCpuS() - cpu0;
            phase.timedS += ms / 1000.0;
            phase.opMs.push_back(ms);
            phase.attempted++;
            cudaBytes += static_cast<double>(winner.spec.cudaSource.size());

            // Checks, outside the timed op.
            const std::string what = op.program + " op " + std::to_string(i);
            const PredictCandidate *scoreChoice = nullptr;
            for (const PredictCandidate &c : sweep.candidates)
                if (c.isScoreChoice)
                    scoreChoice = &c;
            ExecOptions direct;
            direct.metricsOnly = true;
            const SimReport report = gpu_.run(winner.spec, bound, direct);
            Digest one;
            one.add(report);
            one.add(sweep.best.toString());
            one.add(static_cast<uint64_t>(fleet.deviceCount));
            one.add(static_cast<uint64_t>(fleet.splitPoint));
            one.add(fleet.fleetMs);
            one.add(static_cast<uint64_t>(cons.consolidated));
            one.add(cons.bestMs);
            if (!scoreChoice || !scoreChoice->survived)
                phase.fail(what + ": the score choice was not simulated");
            else if (sweep.bestMs > scoreChoice->exactMs)
                phase.fail(what + ": winner is slower than the score choice");
            else if (report.totalMs != sweep.bestMs)
                phase.fail(what + ": a direct Fixed run of the winner "
                                  "differs from the sweep's time");
            else if (!(fleet.fleetMs > 0.0) || fleet.deviceCount < 1 ||
                     fleet.deviceCount > 4)
                phase.fail(what + ": fleet sweep gave no usable choice");
            else if (i < cycle_.size())
                firstCycle[i] = one.value();
            else if (firstCycle[i % cycle_.size()] != 0 &&
                     firstCycle[i % cycle_.size()] != one.value())
                phase.fail(what + ": decision differs from the first cycle");
        }
        Digest digest;
        for (uint64_t v : firstCycle)
            digest.add(v);
        phase.digest = digest.hex();
        phase.layer["predict.train_ms"] = trainMs_;
        phase.layer["evalcache.bytes"] =
            static_cast<double>(EvalCache::instance().stats().bytes);
        phase.layer["codegen.cuda_bytes"] =
            phase.opMs.empty() ? 0.0 : cudaBytes / phase.opMs.size();
        return phase;
    }

  private:
    Args args_;
    Gpu gpu_;
    std::vector<TuneOp> cycle_;
    std::optional<PredictModel> model_;
    double trainMs_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeTune(const Args &args)
{
    return std::make_unique<Tune>(args);
}

} // namespace perfbench
