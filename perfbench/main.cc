/**
 * @file
 * perfbench entry point: parses the arguments perfbench/run.py
 * forwards, sets the chosen workload up several times, runs its measured
 * phase(s) and prints two lines: a report line (machine header, model
 * digest, failures, sample counts) and, last, the result line with the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run).
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench.h"
#include "server/json.h"
#include "support/parallel.h"
#include "support/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; i++) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<uint64_t>(s.size()));
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(const npp::SimReport &r)
{
    // Every model field; classedBlocks/classReason record how the
    // result was obtained and may differ between execution modes.
    const npp::KernelStats &s = r.stats;
    for (double v :
         {r.totalMs, r.computeMs, r.memoryMs, r.launchMs,
          r.blockOverheadMs, r.mallocMs, r.combinerMs, r.compactionMs,
          r.queueBuildMs, r.achievedBandwidth, r.residentWarps,
          r.occupancy, r.coalescingEfficiency, s.warpInstructions,
          s.transactions, s.usefulBytes, s.smemAccesses, s.syncs,
          s.mallocs, s.combinerTransactions, s.combinerOps,
          s.compactionTransactions, s.compactionOps,
          s.queueBuildTransactions, s.queueBuildOps, s.binFill,
          s.sampledFraction})
        add(v);
    for (int64_t v :
         {r.blocksPerSM, s.totalBlocks, s.threadsPerBlock,
          s.sharedMemPerBlock, s.combinerThreads, s.compactionThreads,
          s.queueBuildThreads, s.consolidationGroups,
          s.consolidationParents, s.consolidationEntries,
          s.consolidationWaves})
        add(static_cast<uint64_t>(v));
    add(static_cast<uint64_t>(s.hasCombiner) |
        static_cast<uint64_t>(s.hasCompaction) << 1 |
        static_cast<uint64_t>(s.hasConsolidation) << 2);
    for (const npp::SiteTraffic &t : s.siteTraffic) {
        add(static_cast<uint64_t>(t.site));
        add(t.transactions);
        add(t.usefulBytes);
        add(t.accesses);
    }
}

void
Digest::add(const npp::AppResult &r)
{
    add(r.gpuMs);
    add(r.transferMs);
    add(r.maxError);
    add(r.cpuMs);
    add(r.referenceWork.computeOps);
    add(r.referenceWork.bytesRead);
    add(r.referenceWork.bytesWritten);
    add(r.referenceWork.iterations);
}

std::string
Digest::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
Phase::fail(const std::string &why)
{
    failed++;
    if (failures.size() < 8)
        failures.push_back(why);
}

double
Phase::opsPerS() const
{
    return timedS > 0.0 ? static_cast<double>(opMs.size()) / timedS : 0.0;
}

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
processCpuS()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

bool
resetPeakRss()
{
    // Hand freed heap pages back first, so the new mark starts from what
    // is live rather than from what earlier work happened to leave.
    ::malloc_trim(0);
    std::ofstream refs("/proc/self/clear_refs");
    refs << "5"; // reset the resident high-water mark (VmHWM)
    refs.flush();
    return static_cast<bool>(refs);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::map<std::string, int64_t>
demoSizes(const std::string &name, double r)
{
    const auto at = [&](double base) {
        return static_cast<int64_t>(std::llround(base * r));
    };
    if (name == "pagerank")
        return {{"nodes", at(4096 * r)}};
    if (name == "mandelbrot")
        return {{"height", at(128)}, {"width", at(256)}};
    if (name == "spmv")
        return {{"rows", at(2048 * r)}, {"avgdeg", 8}};
    return {{"rows", at(512)}, {"cols", at(512)}};
}

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "figures_cold|tune|serve_mixed --seed N --seconds S "
                 "--trace 0|1 --work DIR [--out DIR] [--quick] "
                 "[--git-rev REV] [--source-digest HEX]\n",
                 msg);
    std::exit(2);
}

int64_t
parseInt(const std::string &flag, const char *text, int64_t lo, int64_t hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (errno || end == text || *end != '\0' || v < lo || v > hi)
        usage((flag + " wants an integer in range").c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (flag == "--quick") {
            a.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        if (flag == "--workload")
            a.workload = val;
        else if (flag == "--seed")
            a.seed = static_cast<uint64_t>(
                parseInt(flag, val, 0, int64_t(1) << 62));
        else if (flag == "--seconds")
            a.seconds = static_cast<int>(parseInt(flag, val, 1, 3600));
        else if (flag == "--trace")
            a.trace = parseInt(flag, val, 0, 1) == 1;
        else if (flag == "--work")
            a.workDir = val;
        else if (flag == "--out")
            a.outDir = val;
        else if (flag == "--git-rev")
            a.gitRevision = val;
        else if (flag == "--source-digest")
            a.sourceDigest = val;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workDir.empty())
        usage("--work is required");
    return a;
}

/**
 * CPUs the workload runs on; 0 for every CPU the process may use.
 * serve_mixed's two closed-loop clients each hand every request to a
 * server connection thread and wait for the reply. Spread over all CPUs,
 * the waiting side's CPU goes idle, and on a virtual machine the host
 * decides how soon an idle CPU runs again; on a shared 4-vCPU guest,
 * runs of one seed then differed by up to a third in ops_per_s. Pinned
 * to two CPUs (one per client), the hand-offs stay on busy CPUs and the
 * runs agreed within a tenth.
 */
int
workloadCpus(const std::string &workload)
{
    return workload == "serve_mixed" ? 2 : 0;
}

/** Restrict this thread (and every thread it starts later) to the first
 *  `n` CPUs it may use; returns how many it may use afterwards. */
int
pinToCpus(int n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return 0;
    if (n > 0 && CPU_COUNT(&allowed) > n) {
        cpu_set_t pinned;
        CPU_ZERO(&pinned);
        for (int cpu = 0, kept = 0; cpu < CPU_SETSIZE && kept < n; cpu++)
            if (CPU_ISSET(cpu, &allowed)) {
                CPU_SET(cpu, &pinned);
                kept++;
            }
        if (::sched_setaffinity(0, sizeof pinned, &pinned) == 0)
            allowed = pinned;
    }
    return CPU_COUNT(&allowed);
}

/** Setups per run: setup_s is their median. */
int
setupRepeats(const std::string &workload)
{
    return workload == "figures_cold" ? 5 : 3;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, LayerMetric> &metrics)
{
    std::string out = "{";
    for (const auto &[name, m] : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": {\"value\": " + num(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

int
run(const Args &args, int cpus)
{
    std::unique_ptr<Workload> w;
    if (args.workload == "figures_cold")
        w = makeFiguresCold(args);
    else if (args.workload == "tune")
        w = makeTune(args);
    else if (args.workload == "serve_mixed")
        w = makeServeMixed(args);
    else
        usage(("unknown workload '" + args.workload + "'").c_str());

    std::vector<double> setupS;
    for (int i = 0; i < setupRepeats(args.workload); i++) {
        const auto t0 = Clock::now();
        w->setup();
        setupS.push_back(msSince(t0) / 1000.0);
    }

    const bool rssWindowed = resetPeakRss();
    const Phase plain = w->measure(args.seconds);
    const double peakRss =
        plain.peakRssMb > 0.0 ? plain.peakRssMb : peakRssMb();
    Phase traced;
    std::map<std::string, LayerMetric> metrics;
    std::vector<std::string> problems;
    int64_t attempted = plain.attempted, failed = plain.failed;
    if (args.trace) {
        npp::Trace::instance().clear();
        npp::Trace::instance().setEnabled(true);
        traced = w->measure(args.seconds);
        npp::Trace::instance().setEnabled(false);
        attempted += traced.attempted;
        failed += traced.failed;
        std::string error;
        metrics = layerMetrics(plain, traced, args.outDir, &error);
        if (!error.empty())
            problems.push_back(error);
        if (traced.digest != plain.digest)
            problems.push_back("model digest differs between the traced "
                               "and untraced phases");
    } else {
        const auto e2e = [&](const char *name, double v, const char *unit) {
            metrics[name] = LayerMetric{v, unit};
        };
        e2e("setup_s", percentile(setupS, 0.5), "s");
        e2e("ops_per_s", plain.opsPerS(), "1/s");
        e2e("op_p50_ms", percentile(plain.opMs, 0.5), "ms");
        e2e("cpu_ms_per_op",
            plain.opMs.empty() ? 0.0
                               : plain.cpuS * 1000.0 / plain.opMs.size(),
            "ms");
        e2e("peak_rss_mb", peakRss, "MB");
    }
    for (const auto &[name, m] : metrics)
        if (!std::isfinite(m.value))
            problems.push_back("metric " + name + " is not finite");
    if (plain.opMs.empty())
        problems.push_back("no op completed in the measured phase");

    // Report line: the machine header and everything a reader needs to
    // trust (or reject) the result line that follows.
    std::ostringstream rep;
    rep << "{\"perfbench_report\": {\"workload\": \"" << args.workload
        << "\", \"seed\": " << args.seed << ", \"seconds\": "
        << args.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"quick\": " << (args.quick ? "true" : "false")
        << ", \"machine\": {\"nproc\": "
        << std::thread::hardware_concurrency()
        << ", \"cpus\": " << cpus
        << ", \"pool_threads\": " << npp::parallelThreadCount()
        << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"compiler\": \"" << npp::jsonEscape(PERFBENCH_COMPILER)
        << "\", \"git_revision\": \"" << npp::jsonEscape(args.gitRevision)
        << "\", \"source_digest\": \""
        << npp::jsonEscape(args.sourceDigest)
        << "\", \"coalesce_model\": \"" << npp::kCoalesceModelVersion
        << "\"}, \"model_digest\": \"" << plain.digest << "\"";
    if (args.trace)
        rep << ", \"model_digest_traced\": \"" << traced.digest << "\"";
    rep << ", \"error_rate\": "
        << num(attempted ? static_cast<double>(failed) / attempted : 0.0)
        << ", \"setup_runs\": " << setupS.size()
        << ", \"rss_window\": \"" << (rssWindowed ? "phase" : "process")
        << "\""
        << ", \"op_samples\": " << plain.opMs.size();
    for (const auto &[name, v] : plain.info)
        rep << ", \"" << name << "\": " << num(v);
    rep << ", \"failures\": [";
    std::vector<std::string> all = plain.failures;
    all.insert(all.end(), traced.failures.begin(), traced.failures.end());
    all.insert(all.end(), problems.begin(), problems.end());
    for (size_t i = 0; i < all.size(); i++)
        rep << (i ? ", " : "") << "\"" << npp::jsonEscape(all[i]) << "\"";
    rep << "]}}";
    std::printf("%s\n", rep.str().c_str());

    const bool correct = failed == 0 && problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(std::max<int64_t>(attempted, 1)),
                static_cast<long long>(failed),
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    // One malloc arena for every thread, set before any other starts.
    // With glibc's per-thread arenas the peak resident set also counts
    // the free slack of however many arenas the scheduler spread the
    // work over, which differs from run to run; with one arena it tracks
    // live memory.
    ::mallopt(M_ARENA_MAX, 1);
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    const int cpus =
        perfbench::pinToCpus(perfbench::workloadCpus(args.workload));
    if (perfbench::workloadCpus(args.workload) > 0)
        npp::setParallelThreadCount(cpus); // one pool thread per CPU
    try {
        std::filesystem::create_directories(args.workDir);
        if (!args.outDir.empty())
            std::filesystem::create_directories(args.outDir);
        return perfbench::run(args, cpus);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
