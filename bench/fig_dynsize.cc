/**
 * @file
 * Consolidation payoff on runtime-sized nested domains: CSR SpMV and
 * BFS frontier expansion over synthetic matrices whose row-length
 * distribution is controlled (uniform, skewed, empty-heavy). For each
 * workload the best static mapping (minimum over the four fixed
 * strategies the search enumerates) is raced against both consolidation
 * granularities (warp-bin and block-bin queues).
 *
 * Columns: best static ms, warp-bin ms, block-bin ms, bin fill and
 * queue-build ms of the better granularity, speedup (static / best
 * consolidated).
 *
 * Two gates make this binary a regression check, not just a figure:
 *   - every row's consolidated outputs (both granularities) must be
 *     bit-identical to the sequential reference interpreter, or the
 *     binary exits 4 — the parent-major queue order is the reference
 *     fold order by construction, so even float reductions must match;
 *   - consolidation must beat the best static mapping on the skewed
 *     SpMV and skewed BFS rows, or the cost model has regressed and the
 *     binary exits 6. Uniform rows are expected to stay static (full
 *     warps have nothing to rebalance, and the queue build is pure
 *     overhead).
 */

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "apps/dynsize.h"
#include "common.h"
#include "sim/gpu.h"
#include "sim/metrics.h"
#include "support/rng.h"

namespace npp {
namespace {

struct StaticPoint
{
    const char *name;
    Strategy strategy;
};

const StaticPoint kStatic[] = {
    {"multidim", Strategy::MultiDim},
    {"1d", Strategy::OneD},
    {"tbt", Strategy::ThreadBlockThread},
    {"warp", Strategy::WarpBased},
};

/** Outputs of one consolidated run, checked against the reference. */
struct ConsRun
{
    double totalMs = 0.0;
    double queueBuildMs = 0.0;
    double binFill = 0.0;
};

void
dieParity(const std::string &label, const char *granularity,
          const char *which)
{
    std::fprintf(stderr,
                 "fig_dynsize: %s: %s-bin consolidated %s output is NOT "
                 "bit-identical to the reference interpreter\n",
                 label.c_str(), granularity, which);
    std::exit(4);
}

/** Output vectors of one run, one per program output. */
using Outputs = std::vector<std::vector<double>>;

/** Binds a workload's inputs plus the given output vectors. */
using Binder = std::function<Bindings(Outputs &)>;

/** One workload: race the static strategies against both consolidation
 *  granularities, gate every output's bit parity against the
 *  reference, and return the figure row. */
Row
raceRow(const Gpu &gpu, const std::string &label, const Program &prog,
        int64_t outLen, const std::vector<const char *> &outNames,
        const Binder &bind, double *staticMs, double *consMs)
{
    const auto fresh = [&] {
        return Outputs(outNames.size(), std::vector<double>(outLen, 0.0));
    };
    Outputs ref = fresh();
    {
        Bindings args = bind(ref);
        ReferenceInterp().run(prog, args);
    }

    double bestStatic = 0.0;
    bool haveStatic = false;
    for (const StaticPoint &sp : kStatic) {
        Outputs outs = fresh();
        Bindings args = bind(outs);
        CompileOptions copts;
        copts.strategy = sp.strategy;
        ExecOptions eopts;
        eopts.metricsOnly = true;
        const SimReport r = gpu.compileAndRun(prog, args, copts, eopts);
        if (!haveStatic || r.totalMs < bestStatic)
            bestStatic = r.totalMs;
        haveStatic = true;
    }

    ConsRun cons[2];
    const char *granNames[2] = {"warp", "block"};
    const BinGranularity grans[2] = {BinGranularity::Warp,
                                     BinGranularity::Block};
    for (int g = 0; g < 2; g++) {
        Outputs outs = fresh();
        Bindings args = bind(outs);
        CompileOptions copts;
        copts.strategy = Strategy::Consolidate;
        copts.binGranularity = grans[g];
        const SimReport r = gpu.compileAndRun(prog, args, copts);
        for (size_t o = 0; o < outNames.size(); o++) {
            if (maxAbsDiff(ref[o], outs[o]) > 0.0)
                dieParity(label, granNames[g], outNames[o]);
        }
        cons[g] = {r.totalMs, r.queueBuildMs, r.stats.binFill};
    }
    const ConsRun &best =
        cons[0].totalMs <= cons[1].totalMs ? cons[0] : cons[1];

    *staticMs = bestStatic;
    *consMs = best.totalMs;
    return Row{label,
               {bestStatic, cons[0].totalMs, cons[1].totalMs, best.binFill,
                best.queueBuildMs, bestStatic / best.totalMs}};
}

std::string
rowLabel(const char *kind, int64_t rows, int64_t avgDeg, RowDist dist)
{
    return std::string(kind) + " " + rowDistName(dist) + " " +
           std::to_string(rows) + "x" + std::to_string(avgDeg);
}

/** One SpMV workload (random x in [-1, 1]). */
Row
spmvRow(const Gpu &gpu, int64_t rows, int64_t avgDeg, RowDist dist,
        uint64_t seed, double *staticMs, double *consMs)
{
    CsrMatrix m = makeCsr(rows, avgDeg, dist, seed);
    SpmvProgram s = buildSpmv();
    std::vector<double> x(m.rows);
    Rng rng(seed ^ 0xd15e);
    for (auto &v : x)
        v = rng.uniform(-1, 1);
    return raceRow(
        gpu, rowLabel("spmv", rows, avgDeg, dist), *s.prog, m.rows, {"y"},
        [&](Outputs &outs) { return s.bind(m, x, outs[0]); }, staticMs,
        consMs);
}

/** One BFS frontier-expansion workload (frontier = every vertex once). */
Row
bfsRow(const Gpu &gpu, int64_t rows, int64_t avgDeg, RowDist dist,
       uint64_t seed, double *staticMs, double *consMs)
{
    CsrMatrix g = makeCsr(rows, avgDeg, dist, seed);
    BfsFrontierProgram b = buildBfsFrontier();
    std::vector<double> frontier(g.rows);
    for (int64_t i = 0; i < g.rows; i++)
        frontier[i] = static_cast<double>(i);
    return raceRow(
        gpu, rowLabel("bfs", rows, avgDeg, dist), *b.prog, g.rows,
        {"next", "deg"},
        [&](Outputs &outs) {
            return b.bind(g, frontier, outs[0], outs[1]);
        },
        staticMs, consMs);
}

void
runFigure()
{
    Gpu gpu;
    const std::vector<std::string> series = {
        "Static (ms)", "WarpBin (ms)", "BlockBin (ms)",
        "Bin fill",    "QBuild (ms)",  "Speedup"};

    banner("Consolidation payoff on runtime-sized nested domains "
           "(simulated K20c)",
           "Best static mapping vs warp-/block-bin consolidated queues; "
           "every\nconsolidated output is gated bit-identical to the "
           "reference interpreter.");

    double sMs = 0.0, cMs = 0.0;
    std::vector<Row> rows;
    double skewSpmvStatic = 0.0, skewSpmvCons = 0.0;
    double skewBfsStatic = 0.0, skewBfsCons = 0.0;

    rows.push_back(
        spmvRow(gpu, 32768, 8, RowDist::Uniform, 0xa11ce, &sMs, &cMs));
    rows.push_back(
        spmvRow(gpu, 32768, 8, RowDist::Skewed, 0xb0b, &sMs, &cMs));
    rows.push_back(
        spmvRow(gpu, 65536, 8, RowDist::Skewed, 0xcafe, &sMs, &cMs));
    skewSpmvStatic = sMs;
    skewSpmvCons = cMs;
    // Small domain: 32-lane consolidated blocks launch too few warps to
    // hide latency, so static keeps the ticket — the sweep's cost model
    // must keep catching this.
    rows.push_back(
        spmvRow(gpu, 2048, 8, RowDist::Skewed, 0xb0b, &sMs, &cMs));
    rows.push_back(
        spmvRow(gpu, 32768, 8, RowDist::EmptyHeavy, 0xdead, &sMs, &cMs));
    rows.push_back(
        bfsRow(gpu, 65536, 8, RowDist::Skewed, 0xf00d, &sMs, &cMs));
    skewBfsStatic = sMs;
    skewBfsCons = cMs;
    rows.push_back(
        bfsRow(gpu, 32768, 8, RowDist::Uniform, 0xfeed, &sMs, &cMs));

    std::printf("\n");
    table(series, rows, 26);

    std::printf(
        "\nShapes to check:\n"
        "  - skewed rows: a few heavy rows leave most static warps\n"
        "    half-empty; the consolidated queue packs the short rows\n"
        "    into full waves and wins despite paying the queue build —\n"
        "    bin fill near 1.0 is the mechanism (wave occupancy no\n"
        "    longer tracks the longest row in the bin);\n"
        "  - the margin grows with imbalance: empty-heavy and skewed\n"
        "    BFS rows gain the most, uniform rows the least (block-bin\n"
        "    still smooths their residual degree jitter);\n"
        "  - the small skewed domain stays static (speedup < 1): 32-lane\n"
        "    consolidated blocks launch too few warps to hide memory\n"
        "    latency, which is exactly what the sweep's cost model\n"
        "    charges.\n");

    // Gate 2: the figure's reason to exist — consolidation must beat
    // the best static mapping on the skewed SpMV and BFS rows.
    if (skewSpmvCons >= skewSpmvStatic) {
        std::fprintf(stderr,
                     "fig_dynsize: consolidation no longer beats the best "
                     "static mapping on skewed SpMV (%.4f ms vs %.4f ms)\n",
                     skewSpmvCons, skewSpmvStatic);
        std::exit(6);
    }
    if (skewBfsCons >= skewBfsStatic) {
        std::fprintf(stderr,
                     "fig_dynsize: consolidation no longer beats the best "
                     "static mapping on skewed BFS (%.4f ms vs %.4f ms)\n",
                     skewBfsCons, skewBfsStatic);
        std::exit(6);
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
