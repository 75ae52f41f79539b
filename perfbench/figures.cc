/**
 * @file
 * figures_cold: the Fig 12 and Fig 13 application sweeps, run cold. The
 * 16 Rodinia-derived apps (8 for Fig 12: Manual / MultiDim / 1D; 8 for
 * Fig 13: MultiDim / TBT / Warp) give 48 ops, each a pool task on its
 * own App instance, run on the task pool at the pool's default thread
 * count. The EvalCache memory tier is cleared at the
 * start of every pass and no disk tier is attached, so every pass
 * simulates (exact and classed block interpretation) and writes the
 * cache. The seed picks each app's size from a small set around its
 * figure size and the order the apps enter the pool.
 *
 * One op is one App::run or App::runManualMs. Checked outside the timed
 * pass: MultiDim output within 1e-6 of the reference interpreter, every
 * model value finite, and every later pass bit-identical to the first.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>

#include "apps/rodinia.h"
#include "perfbench.h"
#include "sim/evalcache.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/trace.h"

namespace perfbench {
namespace {

using namespace npp;

enum class Op { Manual, MultiDimValidated, OneD, Tbt, Warp };

const char *
opName(Op op)
{
    switch (op) {
    case Op::Manual: return "manual";
    case Op::MultiDimValidated: return "multidim";
    case Op::OneD: return "1d";
    case Op::Tbt: return "tbt";
    case Op::Warp: return "warp";
    }
    return "?";
}

struct AppSpec
{
    std::function<std::unique_ptr<App>()> make;
    Op ops[3];
};

struct OpOut
{
    double ms = 0.0;
    AppResult result;
    std::string error;
};

/** Pathfinder's MultiDim and 1D ops (task index app * 3 + op): each
 *  alone is over a third of a pass on 4 threads. */
constexpr size_t kLongTasks[] = {5 * 3 + 1, 5 * 3 + 2};

class FiguresCold : public Workload
{
  public:
    explicit FiguresCold(const Args &args)
    {
        Rng rng(mix(args.seed ^ 0xf16f16ull));
        // Each size is its figure size times one of three steps 1/32
        // apart (--quick: a quarter of it), rounded to a multiple of 32;
        // the 2D edges (192..256) round back to their figure size, so the
        // seed moves the 1D lengths, the Mandelbrot width and the order.
        const auto size = [&](int64_t base) {
            const int64_t step = static_cast<int64_t>(rng.below(3)) - 1;
            const double f = (args.quick ? 0.25 : 1.0) * (32 + step) / 32.0;
            return std::max<int64_t>(
                32, static_cast<int64_t>(std::llround(base * f / 32.0)) * 32);
        };
        const Op fig12[3] = {Op::Manual, Op::MultiDimValidated, Op::OneD};
        const Op fig13[3] = {Op::MultiDimValidated, Op::Tbt, Op::Warp};
        const auto add = [&](std::function<std::unique_ptr<App>()> make,
                             const Op (&ops)[3]) {
            specs_.push_back({std::move(make), {ops[0], ops[1], ops[2]}});
        };
        const int64_t nn = size(1 << 20), gauss = size(192),
                      hot = size(256), mandH = size(256),
                      mandW = size(1024), srad = size(224),
                      pathCols = size(131072), lud = size(224),
                      bfs = size(32768);
        add([=] { return makeNearestNeighbor(nn); }, fig12);
        add([=] { return makeGaussian(gauss); }, fig12);
        add([=] { return makeHotspot(hot, 4); }, fig12);
        add([=] { return makeMandelbrot(mandH, mandW, 24); }, fig12);
        add([=] { return makeSrad(srad, 2); }, fig12);
        add([=] { return makePathfinder(48, pathCols); }, fig12);
        add([=] { return makeLud(lud); }, fig12);
        add([=] { return makeBfs(bfs, 24); }, fig12);
        for (bool colMajor : {false, true}) {
            const int64_t g = size(192), h = size(256), mh = size(256),
                          mw = size(1024), s = size(224);
            add([=] { return makeGaussian(g, colMajor); }, fig13);
            add([=] { return makeHotspot(h, 4, colMajor); }, fig13);
            add([=] { return makeMandelbrot(mh, mw, 24, colMajor); }, fig13);
            add([=] { return makeSrad(s, 2, colMajor); }, fig13);
        }
        // The seed orders the tasks, except that the two long ones
        // always enter first: otherwise the pass time would measure where
        // the seed put them rather than the work.
        for (size_t t : kLongTasks)
            order_.push_back(t);
        for (size_t t = 0; t < specs_.size() * 3; t++)
            if (std::find(order_.begin(), order_.end(), t) == order_.end())
                order_.push_back(t);
        for (size_t i = order_.size(); i > std::size(kLongTasks) + 1; i--)
            std::swap(order_[i - 1],
                      order_[std::size(kLongTasks) +
                             rng.below(i - std::size(kLongTasks))]);
    }

    void
    setup() override
    {
        apps_.clear();
        for (const AppSpec &spec : specs_)
            for (int k = 0; k < 3; k++)
                apps_.push_back(spec.make());
    }

    Phase
    measure(int seconds) override
    {
        Phase phase;
        EvalCache::instance().setDiskDir("");
        std::vector<uint64_t> firstPass; // per-op digest of pass 1
        double poolWaitMs = 0.0;
        int64_t tasks = 0;
        while (phase.timedS < seconds || firstPass.empty()) {
            EvalCache::instance().clear();
            std::vector<OpOut> outs(apps_.size());
            std::vector<double> waits(apps_.size());
            const double cpu0 = processCpuS();
            const auto submit = Clock::now();
            parallelFor(
                0, static_cast<int64_t>(order_.size()),
                [&](int64_t i) {
                    const size_t t = order_[static_cast<size_t>(i)];
                    waits[t] = msSince(submit);
                    runOp(t, &outs[t]);
                },
                /*grain=*/1);
            phase.timedS += msSince(submit) / 1000.0;
            phase.cpuS += processCpuS() - cpu0;
            for (double w : waits)
                poolWaitMs += w;
            tasks += static_cast<int64_t>(waits.size());

            // Checks and digest, outside the timed pass, in spec order.
            const bool first = firstPass.empty();
            Digest digest;
            for (size_t i = 0; i < outs.size(); i++) {
                const OpOut &o = outs[i];
                phase.attempted++;
                phase.opMs.push_back(o.ms);
                Digest one;
                one.add(o.result);
                digest.add(one.value());
                const Op op = specs_[i / 3].ops[i % 3];
                const std::string what =
                    apps_[i]->name() + " " + opName(op);
                if (const std::string why = check(op, o); !why.empty())
                    phase.fail(what + ": " + why);
                else if (first)
                    firstPass.push_back(one.value());
                else if (firstPass[i] != one.value())
                    phase.fail(what + ": model result differs from the "
                                      "first pass");
            }
            if (first)
                phase.digest = digest.hex();
            if (firstPass.size() != outs.size())
                break; // a failed op: no complete reference pass
        }
        phase.layer["evalcache.bytes"] =
            static_cast<double>(EvalCache::instance().stats().bytes);
        phase.layer["apps.pool_wait_ms"] = tasks ? poolWaitMs / tasks : 0;
        phase.info["passes"] =
            static_cast<double>(phase.opMs.size() / apps_.size());
        return phase;
    }

  private:
    void
    runOp(size_t t, OpOut *out)
    {
        App &app = *apps_[t];
        const Op op = specs_[t / 3].ops[t % 3];
        const auto t0 = Clock::now();
        try {
            NPP_TRACE_SCOPE("apps.run");
            switch (op) {
            case Op::Manual: out->result.gpuMs = app.runManualMs(gpu_); break;
            case Op::MultiDimValidated:
                out->result = app.run(gpu_, Strategy::MultiDim, true);
                break;
            case Op::OneD: out->result = app.run(gpu_, Strategy::OneD); break;
            case Op::Tbt:
                out->result = app.run(gpu_, Strategy::ThreadBlockThread);
                break;
            case Op::Warp:
                out->result = app.run(gpu_, Strategy::WarpBased);
                break;
            }
        } catch (const std::exception &e) {
            out->error = e.what();
        }
        out->ms = msSince(t0);
    }

    /** Why an op's result is wrong; empty when it is right. */
    static std::string
    check(Op op, const OpOut &out)
    {
        const AppResult &r = out.result;
        if (!out.error.empty())
            return out.error;
        if (!std::isfinite(r.gpuMs) || r.gpuMs <= 0.0 ||
            !std::isfinite(r.transferMs) || !std::isfinite(r.cpuMs))
            return "non-finite or empty model time";
        if (op == Op::MultiDimValidated && !(r.maxError <= 1e-6))
            return "differs from the reference interpreter by " +
                   std::to_string(r.maxError); // NaN fails too
        return "";
    }

    Gpu gpu_;
    std::vector<AppSpec> specs_;
    std::vector<size_t> order_;
    std::vector<std::unique_ptr<App>> apps_;
};

} // namespace

std::unique_ptr<Workload>
makeFiguresCold(const Args &args)
{
    return std::make_unique<FiguresCold>(args);
}

} // namespace perfbench
