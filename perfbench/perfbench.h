/**
 * @file
 * Shared pieces of the repository benchmark (perfbench): command-line
 * arguments, the per-phase result every workload returns, the model
 * digest, and the trace analysis that turns recorded spans and counters
 * into per-layer metrics.
 *
 * A workload is set up several times (setup_s is the median), then runs
 * one measured phase with tracing off; `--trace 1` adds a second phase
 * with tracing on, from the same starting state, and reports per-layer
 * metrics from it. Model time is a correctness property here: every
 * phase hashes its simulated reports into a digest that must not depend
 * on tracing, timing or thread interleaving.
 */

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "sim/metrics.h"

namespace perfbench {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** Smallest inputs (the smoke test); never used for measurements. */
    bool quick = false;
    /** Scratch directory for disk tiers, samples and the socket. */
    std::string workDir;
    /** Where a traced run writes its chrome trace and self-time table. */
    std::string outDir;
    std::string gitRevision = "unknown";
    std::string sourceDigest = "unknown";
};

/** FNV-1a over the bits of simulated results, in op order. */
class Digest
{
  public:
    void add(uint64_t v);
    void add(double v);
    void add(const std::string &s);
    void add(const npp::SimReport &report);
    void add(const npp::AppResult &result);
    uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** What one measured phase produced. */
struct Phase
{
    std::vector<double> opMs;      //!< every op's latency
    int64_t attempted = 0;
    int64_t failed = 0;
    double timedS = 0.0;           //!< wall time the ops were measured over
    double cpuS = 0.0;             //!< process user+sys over the same time
    /** Peak resident MB at the end of the timed work, for a workload
     *  whose checks after it must not count; 0: read after measure(). */
    double peakRssMb = 0.0;
    std::string digest;            //!< model digest over the first cycle
    std::vector<std::string> failures; //!< first few failure descriptions
    /** Layer values the workload measures itself (not from spans, e.g.
     *  predictor training during setup): name -> value, in the units
     *  BENCHMARK.json gives. */
    std::map<std::string, double> layer;
    /** Extra facts for the report line (sample counts, tail latency). */
    std::map<std::string, double> info;

    void fail(const std::string &why);
    double opsPerS() const;
};

/** One workload: set up from scratch, then run measured phases. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build every input from the seed; may be called repeatedly, each
     *  call starting over (setup_s is the median of several). */
    virtual void setup() = 0;
    /** Run ops for at least `seconds` of timed work, from the state the
     *  last setup() left (a second call starts from that state again). */
    virtual Phase measure(int seconds) = 0;
};

std::unique_ptr<Workload> makeFiguresCold(const Args &args);
std::unique_ptr<Workload> makeTune(const Args &args);
std::unique_ptr<Workload> makeServeMixed(const Args &args);

using Clock = std::chrono::steady_clock;
double msSince(Clock::time_point t0);
/** Process user+sys CPU seconds so far. */
double processCpuS();
/** Trim the heap and restart the peak-resident mark from the current
 *  resident set; false when the kernel does not allow it (the peak then
 *  covers the whole process lifetime). */
bool resetPeakRss();
/** Peak resident set (MB) since the last resetPeakRss(). */
double peakRssMb();

/** Linear-interpolated percentile (q in [0,1]) of unsorted samples. */
double percentile(std::vector<double> v, double q);

/** Split-mix step for deriving independent streams from one seed. */
uint64_t mix(uint64_t x);

/** Size hints for demo program `name` at linear scale `r`: 1.0 is the
 *  sums at 512^2, and the other programs at the matching scale. */
std::map<std::string, int64_t> demoSizes(const std::string &name, double r);

struct LayerMetric
{
    double value = 0.0;
    std::string unit;
};

/**
 * Per-layer metrics of a traced phase. Reads the spans and counters the
 * registry holds, computes self time per span name (span time minus the
 * part of it covered by child spans on the same thread), writes the
 * chrome trace and the self-time table under `outDir`, and returns every
 * per-layer metric by name. Sets `error` when the record is incomplete.
 */
std::map<std::string, LayerMetric>
layerMetrics(const Phase &untraced, const Phase &traced,
             const std::string &outDir, std::string *error);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
