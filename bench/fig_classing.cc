/**
 * @file
 * Block-equivalence classing payoff: wall-clock of full (every-block)
 * vs classed metrics-only simulation, on the shapes classing was built
 * for. Two sections:
 *
 *   1. Variable-size programs (the Fig 16 family): a class-invariant
 *      nested filter (bandCompact) sweeps the outer size — classed
 *      simulation visits two representative blocks per class while the
 *      full run visits all of them, so the speedup grows with the outer
 *      size. A data-dependent variant (sumPositiveRows) rides along to
 *      show the exact fallback costs ~1x.
 *
 *   2. Per-site attribution (--stats): dense sum kernels with
 *      siteStats on — the sweep that used to force exact simulation
 *      and now classes.
 *
 * Each section's table holds the model columns: identical (1 = reports
 * bit-identical, checked by reportsBitIdentical; a 0 aborts the binary)
 * and the number of blocks replicated from class representatives, so
 * those rows are byte-identical run to run. A last section holds the
 * wall-clock columns of every row: full ms, classed ms, speedup
 * (full/classed). Both modes run through the uncached Gpu::run path, so
 * every timing is a true re-simulation.
 */

#include <functional>
#include <memory>

#include "apps/sums.h"
#include "common.h"
#include "ir/builder.h"
#include "pipeline.h"
#include "support/rng.h"

namespace npp {
namespace {

/** A program plus its bound inputs and (metrics-only, never written)
 *  outputs, ready to time. */
struct BenchCase
{
    std::string label;
    std::shared_ptr<Program> prog;
    std::function<void(Bindings &)> bind;
};

std::shared_ptr<std::vector<double>>
signedData(int64_t n, uint64_t seed)
{
    auto m = std::make_shared<std::vector<double>>(std::max<int64_t>(n, 1));
    Rng rng(seed);
    for (auto &x : *m)
        x = rng.uniform(-1, 1);
    return m;
}

/** The classable variable-size kernel from the differential suite: the
 *  filter predicate depends only on the inner index and a launch
 *  parameter, so every block walks the compaction cursor identically. */
BenchCase
bandCompactCase(int64_t R, int64_t C)
{
    ProgramBuilder b("bandCompact");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    Arr cnts = b.outF64("counts");
    b.foreach(r, [&](Body &outer, Ex i) {
        Filtered kept = outer.filter(cc, [&](Body &, Ex j) {
            return FilterItem{Ex(j) * 2 < cc, m(i * cc + j) * 2.0};
        });
        outer.store(cnts, i, kept.count);
        outer.foreach(cc, [&](Body &fn, Ex j) {
            fn.branch(Ex(j) < kept.count, [&](Body &t) {
                t.store(out, i * cc + j, kept.items(j));
            });
        });
    });
    BenchCase c;
    c.label = "bandCompact " + std::to_string(R) + "x" + std::to_string(C);
    c.prog = std::make_shared<Program>(b.build());
    auto mData = signedData(R * C, 0x5eedULL);
    auto outData = std::make_shared<std::vector<double>>(R * C, 0.0);
    auto cntData = std::make_shared<std::vector<double>>(R, 0.0);
    c.bind = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, *mData);
        args.array(out, *outData);
        args.array(cnts, *cntData);
    };
    return c;
}

/** Fig 16's data-dependent variable-size kernel: the predicate reads
 *  the matrix, classing falls back, speedup ~1x. */
BenchCase
sumPositivesCase(int64_t R, int64_t C)
{
    SumsProgram sp = buildSumPositives(/*byCols=*/false);
    BenchCase c;
    c.label = sp.prog->name() + " " + std::to_string(R) + "x" +
              std::to_string(C) + " (fallback)";
    c.prog = sp.prog;
    auto mData = signedData(R * C, 0xfeedULL);
    auto outData =
        std::make_shared<std::vector<double>>(sp.outputSize(R, C), 0.0);
    c.bind = [=](Bindings &args) {
        args.scalar(sp.r, static_cast<double>(R));
        args.scalar(sp.c, static_cast<double>(C));
        args.array(sp.m, *mData);
        args.array(sp.out, *outData);
    };
    return c;
}

/** Dense sum kernel (Fig 1 / Fig 15) for the per-site attribution
 *  sweep. */
BenchCase
sumCase(bool byCols, bool weighted, int64_t R, int64_t C)
{
    SumsProgram sp = buildSum(byCols, weighted);
    BenchCase c;
    c.label = sp.prog->name() + " " + std::to_string(R) + "x" +
              std::to_string(C);
    c.prog = sp.prog;
    auto mData = signedData(R * C, 0xfeedULL);
    auto vData = signedData(std::max(R, C), 0xbeefULL);
    auto outData =
        std::make_shared<std::vector<double>>(sp.outputSize(R, C), 0.0);
    c.bind = [=](Bindings &args) {
        args.scalar(sp.r, static_cast<double>(R));
        args.scalar(sp.c, static_cast<double>(C));
        args.array(sp.m, *mData);
        if (sp.weighted)
            args.array(sp.v, *vData);
        args.array(sp.out, *outData);
    };
    return c;
}

/** Fixed two-level mapping matching the differential suite: outer
 *  partitioned across blocks, inner span-all — many blocks, so
 *  classing has real work to skip. (The relative-base coalescing model
 *  is invariant under the per-block output shifts regardless of their
 *  alignment, so the block size no longer has to keep shifts at 128B
 *  multiples.) */
CompileOptions
partitionedOuter()
{
    CompileOptions copts;
    copts.strategy = Strategy::Fixed;
    copts.fixedMapping.levels = {{0, 16, SpanType::one()},
                                 {1, 32, SpanType::all()}};
    return copts;
}

/** Classed rows (classReason empty) that ran slower than 0.95x the full
 *  simulation — classing must never cost wall-clock; any entry here
 *  fails the binary. */
std::vector<std::string> slowClassedRows;

/** Wall-clock rows of every case, printed after the model sections. */
std::vector<Row> wallRows;

/** Time one case; returns its model row and appends its wall row. */
Row
timeCase(const Gpu &gpu, const BenchCase &c, const CompileOptions &copts,
         bool siteStats)
{
    CompileResult compiled = compileProgram(*c.prog, gpu.config(), copts);
    Bindings args(*c.prog);
    c.bind(args);
    ClassedTiming t = timeClassedVsFull(gpu, compiled.spec, args, siteStats);
    if (!t.identical) {
        std::fprintf(stderr,
                     "fig_classing: %s: classed report is NOT bit-identical "
                     "to the full simulation\n",
                     c.label.c_str());
        std::exit(4);
    }
    if (!t.classReason.empty()) {
        std::printf("  %-34s every block simulated (%s)\n", c.label.c_str(),
                    t.classReason.c_str());
    } else {
        std::printf("  %-34s %lld blocks replicated from class "
                    "representatives\n",
                    c.label.c_str(),
                    static_cast<long long>(t.classedBlocks));
        if (t.fullMs / t.classedMs < 0.95)
            slowClassedRows.push_back(c.label);
    }
    wallRows.push_back(
        Row{c.label, {t.fullMs, t.classedMs, t.fullMs / t.classedMs}});
    return Row{c.label, {t.identical ? 1.0 : 0.0,
                         static_cast<double>(t.classedBlocks)}};
}

void
runFigure()
{
    Gpu gpu;
    const std::vector<std::string> series = {"Identical", "Replicated"};

    banner("Classing payoff: variable-size programs (Fig 16 shapes)",
           "Full vs classed metrics-only simulation; identical=1 means "
           "bit-identical reports.");
    std::vector<Row> varRows;
    for (int64_t R : {2048, 8192, 32768})
        varRows.push_back(
            timeCase(gpu, bandCompactCase(R, 64), partitionedOuter(),
                     /*siteStats=*/false));
    varRows.push_back(timeCase(gpu, sumPositivesCase(2048, 64),
                               partitionedOuter(), /*siteStats=*/false));
    std::printf("\n");
    table(series, varRows, 34);

    banner("Classing payoff: per-site attribution (--stats sweep)",
           "siteStats no longer forces exact simulation; reports stay "
           "bit-identical.");
    // All four dense shapes class under the relative-base coalescing
    // model. Two of them (sumWeightedRows at 512^2, sumCols at 1024^2)
    // used to trip the runtime divergence probes: the old probe's
    // hashed group keys could merge simultaneously-alive warp groups in
    // a block-dependent way, making a handful of blocks look different.
    // Exact keys plus min-base segment counting removed the artifact.
    std::vector<Row> siteRows;
    siteRows.push_back(timeCase(gpu, sumCase(false, false, 1024, 1024),
                                partitionedOuter(), /*siteStats=*/true));
    siteRows.push_back(timeCase(gpu, sumCase(false, true, 512, 512),
                                partitionedOuter(), /*siteStats=*/true));
    siteRows.push_back(timeCase(gpu, sumCase(true, true, 256, 256),
                                partitionedOuter(), /*siteStats=*/true));
    siteRows.push_back(timeCase(gpu, sumCase(true, false, 1024, 1024),
                                partitionedOuter(), /*siteStats=*/true));
    std::printf("\n");
    table(series, siteRows, 34);

    banner("Classing payoff: wall clock",
           "Host wall time of the same rows, best of 3 (varies run to "
           "run).");
    table({"Full (ms)", "Classed (ms)", "Speedup"}, wallRows, 34);

    std::printf(
        "\nShapes to check:\n"
        "  - bandCompact speedup grows with the outer size (more blocks\n"
        "    skipped per class) and Identical stays 1;\n"
        "  - the data-dependent fallback row costs ~1x (classing probes\n"
        "    a block spread, then simulates all blocks exactly);\n"
        "  - every --stats row classes with per-site attribution on,\n"
        "    including the two shapes the old absolute-address model\n"
        "    refused (sumWeightedRows 512^2, sumCols 1024^2).\n");

    if (!slowClassedRows.empty()) {
        std::fprintf(stderr, "fig_classing: classed rows slower than 0.95x "
                             "the full simulation:\n");
        for (const auto &label : slowClassedRows)
            std::fprintf(stderr, "  %s\n", label.c_str());
        std::exit(5);
    }
}

} // namespace
} // namespace npp

int
main(int argc, char **argv)
{
    if (int rc = npp::benchInit(argc, argv))
        return rc;
    npp::runFigure();
    return npp::benchFinish();
}
