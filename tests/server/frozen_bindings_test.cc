/**
 * @file
 * Frozen bindings windows (Bindings::Freeze): inside a window the
 * content fingerprint is computed once and equals the unfrozen one;
 * windows nest and may be opened concurrently on one Bindings; and
 * everything that would write the bound storage inside a window —
 * rebinding, address shifts, functional cached evaluations, functional
 * fleet runs — dies on an assertion instead of invalidating the reused
 * fingerprint.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "apps/sums.h"
#include "codegen/compile.h"
#include "sim/evalcache.h"
#include "sim/fleet.h"
#include "support/trace.h"

namespace npp {
namespace {

constexpr int64_t kRows = 64, kCols = 64;

/** sumRows on deterministic inputs, with the storage it binds. */
struct Bound
{
    SumsProgram sp = buildSum(/*byCols=*/false, /*weighted=*/false);
    std::vector<double> m = std::vector<double>(kRows * kCols);
    std::vector<double> out = std::vector<double>(kRows, 0.0);
    std::unique_ptr<Bindings> args;

    Bound()
    {
        for (size_t i = 0; i < m.size(); i++)
            m[i] = static_cast<double>(i % 17) * 0.5;
        args = std::make_unique<Bindings>(*sp.prog);
        args->scalar(sp.r, static_cast<double>(kRows));
        args->scalar(sp.c, static_cast<double>(kCols));
        args->array(sp.m, m);
        args->array(sp.out, out);
    }
};

/** Fingerprints computed while `body` runs (the bindings.fingerprints
 *  trace counter). */
template <typename Body>
double
fingerprintsDuring(const Body &body)
{
    Trace &trace = Trace::instance();
    const bool was = trace.enabled();
    trace.clear();
    trace.setEnabled(true);
    body();
    trace.setEnabled(was);
    return trace.counterValue("bindings.fingerprints");
}

TEST(FrozenBindings, FrozenKeyEqualsUnfrozenKeyAndIsComputedOnce)
{
    Bound b;
    const uint64_t open = b.args->fingerprint();
    EXPECT_EQ(EvalCache::hashBindings(*b.args), open);
    const double n = fingerprintsDuring([&] {
        const Bindings::Freeze frozen(*b.args);
        EXPECT_TRUE(b.args->frozen());
        for (int i = 0; i < 3; i++) {
            EXPECT_EQ(b.args->fingerprint(), open);
            EXPECT_EQ(EvalCache::hashBindings(*b.args), open);
        }
    });
    EXPECT_EQ(n, 1.0);
    EXPECT_FALSE(b.args->frozen());

    // Closing the window drops the value: new contents, new key.
    b.m[0] += 1.0;
    EXPECT_NE(b.args->fingerprint(), open);
}

TEST(FrozenBindings, CopyOfAFrozenBindingsStartsUnfrozen)
{
    Bound b;
    const Bindings::Freeze frozen(*b.args);
    const Bindings copy(*b.args);
    EXPECT_TRUE(b.args->frozen());
    EXPECT_FALSE(copy.frozen());
    EXPECT_EQ(copy.fingerprint(), b.args->fingerprint());
}

TEST(FrozenBindings, NestedAndConcurrentWindowsShareOneFingerprint)
{
    Bound b;
    const uint64_t want = b.args->fingerprint();
    constexpr int kThreads = 4;
    std::vector<uint64_t> got(kThreads, 0);
    const double n = fingerprintsDuring([&] {
        const Bindings::Freeze outer(*b.args);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; t++)
            threads.emplace_back([&, t] {
                for (int i = 0; i < 50; i++) {
                    const Bindings::Freeze inner(*b.args);
                    const Bindings::Freeze nested(*b.args);
                    got[t] = b.args->fingerprint();
                }
            });
        for (std::thread &t : threads)
            t.join();
        EXPECT_TRUE(b.args->frozen());
    });
    EXPECT_EQ(n, 1.0);
    for (uint64_t g : got)
        EXPECT_EQ(g, want);

    // Windows that open and close concurrently, with no outer one: every
    // reader still sees the same key.
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back([&, t] {
            for (int i = 0; i < 20; i++) {
                const Bindings::Freeze frozen(*b.args);
                got[t] = b.args->fingerprint();
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (uint64_t g : got)
        EXPECT_EQ(g, want);
    EXPECT_FALSE(b.args->frozen());
}

TEST(FrozenBindings, MetricsOnlyEvaluationsRunInsideAWindow)
{
    Bound b;
    Gpu gpu;
    const CompileResult compiled = compileProgram(*b.sp.prog, gpu.config(), {});
    ExecOptions eopts;
    eopts.metricsOnly = true;
    const SimReport open = gpu.run(compiled.spec, *b.args, eopts);
    const Bindings::Freeze frozen(*b.args);
    const SimReport inside = cachedRun(gpu, compiled.spec, *b.args, eopts,
                                       /*specSeed=*/7, /*wantOutputs=*/false);
    EXPECT_EQ(inside.totalMs, open.totalMs);
    const FleetReport fleet =
        runOnFleet(gpu, compiled.spec, *b.args, fleetK20c(2), eopts);
    EXPECT_TRUE(fleet.plan.valid);
}

// Death tests re-execute the binary ("threadsafe"), so a task pool left
// running by an earlier test never meets fork().
class FrozenBindingsDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
};

TEST_F(FrozenBindingsDeathTest, RebindingAScalarDies)
{
    Bound b;
    const Bindings::Freeze frozen(*b.args);
    EXPECT_DEATH(b.args->scalar(b.sp.r, 1.0), "frozen window");
}

TEST_F(FrozenBindingsDeathTest, RebindingAnArrayDies)
{
    Bound b;
    const Bindings::Freeze frozen(*b.args);
    EXPECT_DEATH(b.args->array(b.sp.m, b.m), "frozen window");
}

TEST_F(FrozenBindingsDeathTest, ShiftingAddressBasesDies)
{
    Bound b;
    const Bindings::Freeze frozen(*b.args);
    EXPECT_DEATH(b.args->shiftAddrBases(128), "frozen window");
}

TEST_F(FrozenBindingsDeathTest, FunctionalCachedEvaluationDies)
{
    Bound b;
    Gpu gpu;
    const CompileResult compiled = compileProgram(*b.sp.prog, gpu.config(), {});
    const Bindings::Freeze frozen(*b.args);
    EXPECT_DEATH(cachedRun(gpu, compiled.spec, *b.args, {}, /*specSeed=*/7,
                           /*wantOutputs=*/true),
                 "frozen bindings window");
    EXPECT_DEATH(cachedCompileAndRun(gpu, *b.sp.prog, *b.args, {}, {},
                                     /*wantOutputs=*/true),
                 "frozen bindings window");
}

TEST_F(FrozenBindingsDeathTest, FunctionalFleetRunDies)
{
    Bound b;
    Gpu gpu;
    const CompileResult compiled = compileProgram(*b.sp.prog, gpu.config(), {});
    const Bindings::Freeze frozen(*b.args);
    EXPECT_DEATH(runOnFleet(gpu, compiled.spec, *b.args, fleetK20c(2), {}),
                 "frozen bindings window");
}

} // namespace
} // namespace npp
