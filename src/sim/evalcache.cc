#include "sim/evalcache.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ir/printer.h"
#include "support/env.h"
#include "support/logging.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t
fnvBytes(const void *data, size_t n, uint64_t h = kFnvBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
mix(uint64_t h, uint64_t v)
{
    return fnvBytes(&v, sizeof(v), h);
}

uint64_t
mixDouble(uint64_t h, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return mix(h, bits);
}

/** Order-independent digest of an unordered int->double map. */
uint64_t
mixMap(uint64_t h, const std::unordered_map<int, double> &m)
{
    uint64_t acc = 0;
    for (const auto &[k, v] : m) {
        uint64_t one = mix(kFnvBasis, static_cast<uint64_t>(k));
        one = mixDouble(one, v);
        acc += one; // commutative fold: iteration order must not matter
    }
    h = mix(h, static_cast<uint64_t>(m.size()));
    return mix(h, acc);
}

int64_t
readCapacityBytes()
{
    // NPP_EVAL_CACHE=0/false/off/no disables the cache entirely (any
    // other spelling warns and keeps it enabled).
    if (!parseEnvBool("NPP_EVAL_CACHE", true))
        return 0;
    // Upper bound keeps mb * 2^20 comfortably inside int64 (8 EB would
    // overflow); use NPP_EVAL_CACHE=off — not a zero/negative size — to
    // disable the cache.
    const int64_t mb =
        parseEnvInt("NPP_EVAL_CACHE_MB", 4096, 1, int64_t(1) << 32);
    return mb * 1024 * 1024;
}

std::string
readDiskDirEnv()
{
    // Hardened read: unset, empty, and whitespace-only all mean "no
    // disk tier" (a raw getenv used to accept whitespace-only values
    // and root the disk cache at a junk path).
    const std::string dir = parseEnvString("NPP_EVAL_CACHE_DIR");
    if (dir.empty())
        return {};
    // NPP_EVAL_CACHE_DISK=off keeps the memory tier but detaches the
    // directory (e.g. to quarantine a shared cache without losing the
    // in-process one).
    if (!parseEnvBool("NPP_EVAL_CACHE_DISK", true))
        return {};
    return dir;
}

/** Best-effort single-level mkdir; existing directory is fine. */
void
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        NPP_WARN("eval cache: cannot create {} ({}); disk tier will "
                 "miss/fail open",
                 dir, std::strerror(errno));
}

/** @name Disk-entry serialization
 *
 * One file per entry:
 *
 *     magic[8] "NPPEVC1\n"
 *     u32 format version (kEvalCacheDiskFormatVersion)
 *     u32 coalesce-model tag length, then the tag bytes
 *     u64 key (must match the probe key — guards renamed files)
 *     u64 payload byte count
 *     u64 payload FNV-1a checksum (guards torn/bit-rotted payloads)
 *     payload: serialized SimReport + optional output arrays
 *
 * Numbers are raw little-endian host encoding (the cache directory is a
 * same-machine artifact, not an interchange format); doubles travel as
 * their bit patterns, so replayed reports are bit-identical. Any header
 * or payload mismatch rejects the file as a miss — never trusts it.
 * @{
 */

constexpr char kDiskMagic[8] = {'N', 'P', 'P', 'E', 'V', 'C', '1', '\n'};

struct ByteWriter
{
    std::string buf;

    void
    u64(uint64_t v)
    {
        buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void
    u32(uint32_t v)
    {
        buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void u8(uint8_t v) { buf.push_back(static_cast<char>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf.append(s);
    }
};

/** Bounds-checked reader: any overrun latches ok=false and returns
 *  zeros, so a truncated payload can never index out of range. */
struct ByteReader
{
    const char *p;
    size_t n;
    size_t off = 0;
    bool ok = true;

    bool
    take(void *out, size_t count)
    {
        if (!ok || n - off < count) {
            ok = false;
            return false;
        }
        std::memcpy(out, p + off, count);
        off += count;
        return true;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        take(&v, sizeof(v));
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        take(&v, sizeof(v));
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    uint8_t
    u8()
    {
        uint8_t v = 0;
        take(&v, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const uint64_t len = u64();
        if (!ok || n - off < len) {
            ok = false;
            return {};
        }
        std::string s(p + off, len);
        off += len;
        return s;
    }

    bool exhausted() const { return ok && off == n; }
};

void
putReport(ByteWriter &w, const SimReport &r)
{
    w.f64(r.totalMs);
    w.f64(r.computeMs);
    w.f64(r.memoryMs);
    w.f64(r.launchMs);
    w.f64(r.blockOverheadMs);
    w.f64(r.mallocMs);
    w.f64(r.combinerMs);
    w.f64(r.compactionMs);
    w.f64(r.achievedBandwidth);
    w.f64(r.residentWarps);
    w.i64(r.blocksPerSM);
    w.f64(r.occupancy);
    w.f64(r.coalescingEfficiency);

    const KernelStats &s = r.stats;
    w.f64(s.warpInstructions);
    w.f64(s.transactions);
    w.f64(s.usefulBytes);
    w.f64(s.smemAccesses);
    w.f64(s.syncs);
    w.f64(s.mallocs);
    w.i64(s.totalBlocks);
    w.i64(s.threadsPerBlock);
    w.i64(s.sharedMemPerBlock);
    w.u8(s.hasCombiner ? 1 : 0);
    w.f64(s.combinerTransactions);
    w.f64(s.combinerOps);
    w.i64(s.combinerThreads);
    w.u8(s.hasCompaction ? 1 : 0);
    w.f64(s.compactionTransactions);
    w.f64(s.compactionOps);
    w.i64(s.compactionThreads);
    w.f64(r.queueBuildMs);
    w.u8(s.hasConsolidation ? 1 : 0);
    w.f64(s.queueBuildTransactions);
    w.f64(s.queueBuildOps);
    w.i64(s.queueBuildThreads);
    w.i64(s.consolidationGroups);
    w.i64(s.consolidationParents);
    w.i64(s.consolidationEntries);
    w.i64(s.consolidationWaves);
    w.f64(s.binFill);
    w.f64(s.sampledFraction);
    w.i64(s.classedBlocks);
    w.str(s.classReason);
    w.u64(s.siteTraffic.size());
    for (const SiteTraffic &st : s.siteTraffic) {
        w.i64(st.site);
        w.f64(st.transactions);
        w.f64(st.usefulBytes);
        w.f64(st.accesses);
    }
}

SimReport
getReport(ByteReader &r)
{
    SimReport rep;
    rep.totalMs = r.f64();
    rep.computeMs = r.f64();
    rep.memoryMs = r.f64();
    rep.launchMs = r.f64();
    rep.blockOverheadMs = r.f64();
    rep.mallocMs = r.f64();
    rep.combinerMs = r.f64();
    rep.compactionMs = r.f64();
    rep.achievedBandwidth = r.f64();
    rep.residentWarps = r.f64();
    rep.blocksPerSM = r.i64();
    rep.occupancy = r.f64();
    rep.coalescingEfficiency = r.f64();

    KernelStats &s = rep.stats;
    s.warpInstructions = r.f64();
    s.transactions = r.f64();
    s.usefulBytes = r.f64();
    s.smemAccesses = r.f64();
    s.syncs = r.f64();
    s.mallocs = r.f64();
    s.totalBlocks = r.i64();
    s.threadsPerBlock = r.i64();
    s.sharedMemPerBlock = r.i64();
    s.hasCombiner = r.u8() != 0;
    s.combinerTransactions = r.f64();
    s.combinerOps = r.f64();
    s.combinerThreads = r.i64();
    s.hasCompaction = r.u8() != 0;
    s.compactionTransactions = r.f64();
    s.compactionOps = r.f64();
    s.compactionThreads = r.i64();
    rep.queueBuildMs = r.f64();
    s.hasConsolidation = r.u8() != 0;
    s.queueBuildTransactions = r.f64();
    s.queueBuildOps = r.f64();
    s.queueBuildThreads = r.i64();
    s.consolidationGroups = r.i64();
    s.consolidationParents = r.i64();
    s.consolidationEntries = r.i64();
    s.consolidationWaves = r.i64();
    s.binFill = r.f64();
    s.sampledFraction = r.f64();
    s.classedBlocks = r.i64();
    s.classReason = r.str();
    const uint64_t sites = r.u64();
    if (r.ok && sites <= (r.n - r.off) / (4 * sizeof(uint64_t))) {
        s.siteTraffic.resize(sites);
        for (uint64_t i = 0; i < sites; i++) {
            s.siteTraffic[i].site = r.i64();
            s.siteTraffic[i].transactions = r.f64();
            s.siteTraffic[i].usefulBytes = r.f64();
            s.siteTraffic[i].accesses = r.f64();
        }
    } else {
        r.ok = false;
    }
    return rep;
}

} // namespace

const char *
evalTierName(EvalTier tier)
{
    switch (tier) {
    case EvalTier::Simulated: return "simulated";
    case EvalTier::Memory: return "memory";
    case EvalTier::Disk: return "disk";
    }
    return "?";
}

namespace {

/** One memoized evaluation (either tier). */
struct CacheEntry
{
    uint64_t key = 0;
    SimReport report;
    bool hasOutputs = false;
    /** (varId, contents) per output array, captured from a functional
     *  run so wantOutputs hits can replay them. */
    std::vector<std::pair<int, std::vector<double>>> outputs;
    uint64_t bytes = 0;
};

} // namespace

struct EvalCache::Impl
{
    using Entry = CacheEntry;

    mutable std::mutex mu;
    std::list<Entry> lru; // front = most recent
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    std::string diskDir; // empty = no disk tier
    uint64_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t diskHits = 0;
    uint64_t diskMisses = 0;
    uint64_t diskStores = 0;
    uint64_t diskRejects = 0;

    void
    evictTo(uint64_t capacity)
    {
        while (bytes > capacity && !lru.empty()) {
            const Entry &victim = lru.back();
            bytes -= victim.bytes;
            index.erase(victim.key);
            lru.pop_back();
            evictions++;
            NPP_TRACE_COUNT("evalcache.evictions", 1);
        }
    }

    /** Insert (or refresh) an entry; caller holds mu. */
    void
    insertLocked(Entry &&entry, uint64_t capacity)
    {
        auto it = index.find(entry.key);
        if (it != index.end()) {
            // Concurrent misses can race to store the same evaluation;
            // keep whichever entry carries outputs (otherwise equal).
            if (it->second->hasOutputs && !entry.hasOutputs) {
                lru.splice(lru.begin(), lru, it->second);
                return;
            }
            bytes -= it->second->bytes;
            lru.erase(it->second);
            index.erase(it);
        }
        const uint64_t key = entry.key;
        bytes += entry.bytes;
        lru.push_front(std::move(entry));
        index[key] = lru.begin();
        evictTo(capacity);
    }
};

namespace {

/** Actual footprint of a cache entry: struct + index/list overhead, the
 *  report's heap payload (per-site traffic tables, diagnostics), and the
 *  captured output arrays. The old estimate (sizeof(Entry) + 64) let a
 *  stats-heavy sweep blow far past the byte budget before any eviction
 *  fired. */
uint64_t
entryFootprint(const CacheEntry &entry)
{
    uint64_t b = sizeof(CacheEntry) + 64;
    b += entry.report.heapBytes();
    b += entry.outputs.capacity() *
         sizeof(std::pair<int, std::vector<double>>);
    for (const auto &[varId, contents] : entry.outputs) {
        (void)varId;
        b += contents.capacity() * sizeof(double);
    }
    return b;
}

std::string
diskPathFor(const std::string &dir, uint64_t key)
{
    char name[32];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(key));
    return dir + "/" + name + ".nppeval";
}

std::string
serializeEntry(const CacheEntry &entry)
{
    ByteWriter w;
    putReport(w, entry.report);
    w.u8(entry.hasOutputs ? 1 : 0);
    w.u64(entry.outputs.size());
    for (const auto &[varId, contents] : entry.outputs) {
        w.i64(varId);
        w.u64(contents.size());
        w.buf.append(reinterpret_cast<const char *>(contents.data()),
                     contents.size() * sizeof(double));
    }
    return std::move(w.buf);
}

bool
deserializeEntry(const std::string &payload, CacheEntry *out)
{
    ByteReader r{payload.data(), payload.size()};
    out->report = getReport(r);
    out->hasOutputs = r.u8() != 0;
    const uint64_t count = r.u64();
    if (!r.ok || count > (r.n - r.off) / (2 * sizeof(uint64_t)))
        return false;
    out->outputs.clear();
    out->outputs.reserve(count);
    for (uint64_t i = 0; i < count; i++) {
        const int64_t varId = r.i64();
        const uint64_t elems = r.u64();
        if (!r.ok || elems > (r.n - r.off) / sizeof(double))
            return false;
        std::vector<double> contents(elems);
        if (!r.take(contents.data(), elems * sizeof(double)))
            return false;
        out->outputs.emplace_back(static_cast<int>(varId),
                                  std::move(contents));
    }
    return r.exhausted();
}

enum class DiskRead { Ok, NotFound, Reject };

/** Read + validate one disk entry. Every failure mode past "file does
 *  not exist" — short header, bad magic, version or model-tag mismatch,
 *  key mismatch (renamed file), size or checksum mismatch, payload that
 *  under- or over-runs — is a Reject: counted, treated as a miss, and
 *  never allowed to crash or corrupt the caller. */
DiskRead
readDiskEntry(const std::string &path, uint64_t key, CacheEntry *out)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return DiskRead::NotFound;
    std::string data;
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        data.append(buf, got);
    const bool readErr = std::ferror(f) != 0;
    std::fclose(f);
    if (readErr)
        return DiskRead::Reject;

    ByteReader r{data.data(), data.size()};
    char magic[sizeof kDiskMagic];
    if (!r.take(magic, sizeof magic) ||
        std::memcmp(magic, kDiskMagic, sizeof magic) != 0)
        return DiskRead::Reject;
    if (r.u32() != kEvalCacheDiskFormatVersion)
        return DiskRead::Reject;
    const uint32_t tagLen = r.u32();
    const std::string tag = kCoalesceModelVersion;
    if (!r.ok || tagLen != tag.size() || r.n - r.off < tagLen ||
        std::memcmp(r.p + r.off, tag.data(), tagLen) != 0)
        return DiskRead::Reject;
    r.off += tagLen;
    if (r.u64() != key)
        return DiskRead::Reject;
    const uint64_t payloadSize = r.u64();
    const uint64_t payloadFnv = r.u64();
    if (!r.ok || r.n - r.off != payloadSize)
        return DiskRead::Reject;
    if (fnvBytes(r.p + r.off, payloadSize) != payloadFnv)
        return DiskRead::Reject;

    std::string payload(r.p + r.off, payloadSize);
    if (!deserializeEntry(payload, out))
        return DiskRead::Reject;
    out->key = key;
    out->bytes = entryFootprint(*out);
    return DiskRead::Ok;
}

/** Write one disk entry via temp file + atomic rename: a concurrent
 *  reader either sees no file or a complete one, never a partial
 *  write. Returns false (with a one-line warning) on I/O failure. */
bool
writeDiskEntry(const std::string &dir, uint64_t key,
               const std::string &payload)
{
    ByteWriter header;
    header.buf.append(kDiskMagic, sizeof kDiskMagic);
    header.u32(kEvalCacheDiskFormatVersion);
    const std::string tag = kCoalesceModelVersion;
    header.u32(static_cast<uint32_t>(tag.size()));
    header.buf.append(tag);
    header.u64(key);
    header.u64(payload.size());
    header.u64(fnvBytes(payload.data(), payload.size()));

    std::string tmpPath = dir + "/.nppeval.XXXXXX";
    const int fd = ::mkstemp(tmpPath.data());
    if (fd < 0) {
        NPP_WARN("eval cache: cannot create temp file in {} ({})", dir,
                 std::strerror(errno));
        return false;
    }
    const auto writeAll = [&](const char *p, size_t n) {
        while (n > 0) {
            const ssize_t w = ::write(fd, p, n);
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            p += w;
            n -= static_cast<size_t>(w);
        }
        return true;
    };
    const bool wrote = writeAll(header.buf.data(), header.buf.size()) &&
                       writeAll(payload.data(), payload.size());
    ::close(fd);
    if (!wrote || std::rename(tmpPath.c_str(),
                              diskPathFor(dir, key).c_str()) != 0) {
        NPP_WARN("eval cache: cannot write entry under {} ({})", dir,
                 std::strerror(errno));
        ::unlink(tmpPath.c_str());
        return false;
    }
    return true;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace

EvalCache::EvalCache()
    : impl_(new Impl),
      capacityBytes_(readCapacityBytes())
{
    impl_->diskDir = readDiskDirEnv();
    if (!impl_->diskDir.empty())
        ensureDir(impl_->diskDir);
}

EvalCache &
EvalCache::instance()
{
    // Intentionally leaked: outlives every static destructor that might
    // still evaluate programs.
    static EvalCache *cache = new EvalCache();
    return *cache;
}

uint64_t
EvalCache::hashProgram(const Program &prog)
{
    const std::string text = printProgram(prog);
    uint64_t h = fnvBytes(text.data(), text.size());
    return mixMap(h, prog.sizeHints());
}

uint64_t
EvalCache::hashCompileOptions(const CompileOptions &copts)
{
    uint64_t h = kFnvBasis;
    h = mix(h, static_cast<uint64_t>(copts.strategy));
    h = mix(h, copts.fixedMapping.hashValue());
    // Consolidation granularity changes the launch geometry (lanes per
    // bin), so the two variants must never share an entry.
    h = mix(h, static_cast<uint64_t>(copts.binGranularity));
    h = mix(h, copts.prealloc.enable ? 1 : 0);
    h = mix(h, copts.prealloc.layoutFromMapping ? 1 : 0);
    h = mix(h, copts.smemPrefetch ? 1 : 0);
    h = mixMap(h, copts.paramValues);
    h = mix(h, static_cast<uint64_t>(copts.objective));
    h = mix(h, copts.rawPointers ? 1 : 0);
    h = mix(h, copts.fuseMapReduce ? 1 : 0);
    // keepCandidates and explainSearch only add diagnostics; they cannot
    // change the spec, so they are deliberately excluded from the key.
    return h;
}

uint64_t
EvalCache::hashDevice(const DeviceConfig &d)
{
    uint64_t h = fnvBytes(d.name.data(), d.name.size());
    h = mix(h, static_cast<uint64_t>(d.numSMs));
    h = mix(h, static_cast<uint64_t>(d.warpSize));
    h = mix(h, static_cast<uint64_t>(d.maxThreadsPerBlock));
    h = mix(h, static_cast<uint64_t>(d.maxThreadsPerSM));
    h = mix(h, static_cast<uint64_t>(d.maxBlocksPerSM));
    for (int dim : d.maxBlockDim)
        h = mix(h, static_cast<uint64_t>(dim));
    h = mix(h, static_cast<uint64_t>(d.dpLanesPerSM));
    h = mixDouble(h, d.clockGHz);
    h = mix(h, static_cast<uint64_t>(d.sharedMemPerSM));
    h = mix(h, static_cast<uint64_t>(d.sharedMemPerBlockLimit));
    h = mixDouble(h, d.dramBandwidthGBs);
    h = mixDouble(h, d.memLatencyCycles);
    h = mix(h, static_cast<uint64_t>(d.transactionBytes));
    h = mix(h, static_cast<uint64_t>(d.sharedMemBanks));
    h = mix(h, static_cast<uint64_t>(d.l1CacheBytes));
    h = mixDouble(h, d.pcieBandwidthGBs);
    h = mixDouble(h, d.kernelLaunchOverheadUs);
    h = mixDouble(h, d.blockScheduleCycles);
    h = mixDouble(h, d.deviceMallocCycles);
    h = mixDouble(h, d.mallocParallelism);
    h = mixDouble(h, d.syncthreadsCycles);
    h = mixDouble(h, d.wrapperTrafficFactor);
    h = mix(h, static_cast<uint64_t>(d.minBlockSize));
    h = mix(h, static_cast<uint64_t>(d.maxLogicalDims));
    return h;
}

uint64_t
EvalCache::hashBindings(const Bindings &args)
{
    return args.fingerprint();
}

uint64_t
EvalCache::hashExec(const ExecOptions &eopts)
{
    // metricsOnly and blockClasses are excluded on purpose: they are
    // report-identical execution modes (determinism test + the classed
    // differential suite), so trials in any mode can share entries; the
    // classedBlocks/classReason diagnostics of a replayed report may
    // therefore reflect the mode that originally populated the cache.
    // siteStats is NOT report-identical (it adds the per-site table), so
    // it is keyed.
    uint64_t h = mix(kFnvBasis, static_cast<uint64_t>(eopts.maxSampledBlocks));
    h = mix(h, eopts.siteStats ? 1 : 0);
    // Root shards are mixed in only when requested so every key of an
    // unsharded run — including all pre-existing disk-tier entries —
    // stays byte-identical to before the multi-device layer existed.
    if (eopts.sharded()) {
        h = mix(h, 0x5da4dull); // shard tag: distinct from the flat tail
        h = mix(h, static_cast<uint64_t>(eopts.rootShardLo));
        h = mix(h, static_cast<uint64_t>(eopts.rootShardHi));
    }
    return h;
}

uint64_t
EvalCache::hashFleet(const FleetConfig &fleet)
{
    uint64_t h = mix(kFnvBasis, hashDevice(fleet.device));
    h = mix(h, static_cast<uint64_t>(fleet.deviceCount));
    h = mixDouble(h, fleet.peerBandwidthGBs);
    h = mixDouble(h, fleet.peerLatencyUs);
    return h;
}

uint64_t
EvalCache::combine(uint64_t a, uint64_t b)
{
    return mix(mix(kFnvBasis, a), b);
}

uint64_t
EvalCache::specSeed(const Program &prog, const CompileOptions &copts,
                    const DeviceConfig &device)
{
    return combine(combine(hashProgram(prog), hashCompileOptions(copts)),
                   hashDevice(device));
}

std::optional<SimReport>
EvalCache::find(uint64_t key, bool wantOutputs, const Bindings *args,
                EvalTier *tierOut)
{
    if (!enabled())
        return std::nullopt;

    std::string diskDir;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        auto it = impl_->index.find(key);
        if (it != impl_->index.end()) {
            Impl::Entry &entry = *it->second;
            bool usable = true;
            if (wantOutputs) {
                // A report-only entry cannot satisfy a functional
                // request; neither can one whose captured outputs no
                // longer match the bound storage shape.
                usable = entry.hasOutputs;
                for (const auto &[varId, contents] : entry.outputs) {
                    if (!usable)
                        break;
                    const ArraySlot &slot = args->arraySlot(varId);
                    usable = slot.data &&
                             slot.physSize ==
                                 static_cast<int64_t>(contents.size());
                }
            }
            if (usable) {
                if (wantOutputs) {
                    for (const auto &[varId, contents] : entry.outputs) {
                        const ArraySlot &slot = args->arraySlot(varId);
                        std::memcpy(const_cast<double *>(slot.data),
                                    contents.data(),
                                    contents.size() * sizeof(double));
                    }
                }
                impl_->hits++;
                NPP_TRACE_COUNT("evalcache.hits", 1);
                impl_->lru.splice(impl_->lru.begin(), impl_->lru,
                                  it->second);
                if (tierOut)
                    *tierOut = EvalTier::Memory;
                return entry.report;
            }
        }
        impl_->misses++;
        NPP_TRACE_COUNT("evalcache.misses", 1);
        diskDir = impl_->diskDir;
    }

    if (diskDir.empty())
        return std::nullopt;

    // Memory missed: probe the disk tier outside the lock (atomic
    // renames guarantee any file we open is complete).
    CacheEntry entry;
    const DiskRead rd = readDiskEntry(diskPathFor(diskDir, key), key,
                                      &entry);
    if (rd != DiskRead::Ok) {
        std::lock_guard<std::mutex> lock(impl_->mu);
        if (rd == DiskRead::Reject) {
            impl_->diskRejects++;
            NPP_TRACE_COUNT("evalcache.disk_rejects", 1);
        }
        impl_->diskMisses++;
        NPP_TRACE_COUNT("evalcache.disk_misses", 1);
        return std::nullopt;
    }

    bool usable = true;
    if (wantOutputs) {
        usable = entry.hasOutputs;
        for (const auto &[varId, contents] : entry.outputs) {
            if (!usable)
                break;
            const ArraySlot &slot = args->arraySlot(varId);
            usable = slot.data &&
                     slot.physSize == static_cast<int64_t>(contents.size());
        }
        if (usable) {
            for (const auto &[varId, contents] : entry.outputs) {
                const ArraySlot &slot = args->arraySlot(varId);
                std::memcpy(const_cast<double *>(slot.data),
                            contents.data(),
                            contents.size() * sizeof(double));
            }
        }
    }

    SimReport report = entry.report;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        // Promote into memory either way — a later metrics-only probe
        // of the same key should not pay the disk read again.
        impl_->insertLocked(std::move(entry),
                            static_cast<uint64_t>(capacityBytes_));
        if (usable) {
            impl_->diskHits++;
            NPP_TRACE_COUNT("evalcache.disk_hits", 1);
        } else {
            impl_->diskMisses++;
            NPP_TRACE_COUNT("evalcache.disk_misses", 1);
        }
    }
    if (!usable)
        return std::nullopt;
    if (tierOut)
        *tierOut = EvalTier::Disk;
    return report;
}

void
EvalCache::store(uint64_t key, const SimReport &report,
                 const Bindings *outputsOf)
{
    if (!enabled())
        return;
    CacheEntry entry;
    entry.key = key;
    entry.report = report;
    if (outputsOf) {
        entry.hasOutputs = true;
        const Program &prog = outputsOf->program();
        for (const auto &v : prog.vars()) {
            if (v.role != VarRole::ArrayParam || !v.isOutput)
                continue;
            const ArraySlot &slot = outputsOf->arraySlot(v.id);
            if (!slot.data)
                continue;
            entry.outputs.emplace_back(
                v.id,
                std::vector<double>(slot.data, slot.data + slot.physSize));
        }
    }
    entry.bytes = entryFootprint(entry);

    std::string diskDir;
    std::string payload;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        diskDir = impl_->diskDir;
        if (!diskDir.empty())
            payload = serializeEntry(entry);
        impl_->insertLocked(std::move(entry),
                            static_cast<uint64_t>(capacityBytes_));
    }

    if (diskDir.empty())
        return;
    // Write-through. A report-only evaluation never clobbers an existing
    // file (it might carry outputs from a functional run); an evaluation
    // with outputs always refreshes it.
    const std::string path = diskPathFor(diskDir, key);
    if (!outputsOf && fileExists(path))
        return;
    if (writeDiskEntry(diskDir, key, payload)) {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->diskStores++;
        NPP_TRACE_COUNT("evalcache.disk_stores", 1);
    }
}

EvalCacheStats
EvalCache::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    EvalCacheStats s;
    s.hits = impl_->hits;
    s.misses = impl_->misses;
    s.evictions = impl_->evictions;
    s.entries = impl_->lru.size();
    s.bytes = impl_->bytes;
    s.diskHits = impl_->diskHits;
    s.diskMisses = impl_->diskMisses;
    s.diskStores = impl_->diskStores;
    s.diskRejects = impl_->diskRejects;
    return s;
}

std::string
EvalCacheStats::toJson() const
{
    return fmt("{\"hits\":{},\"misses\":{},\"evictions\":{},"
               "\"entries\":{},\"bytes\":{},\"hit_rate\":{},"
               "\"disk_hits\":{},\"disk_misses\":{},\"disk_stores\":{},"
               "\"disk_rejects\":{}}",
               hits, misses, evictions, entries, bytes,
               fixed(hitRate(), 6), diskHits, diskMisses, diskStores,
               diskRejects);
}

void
EvalCache::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->lru.clear();
    impl_->index.clear();
    impl_->bytes = 0;
    impl_->hits = 0;
    impl_->misses = 0;
    impl_->evictions = 0;
    impl_->diskHits = 0;
    impl_->diskMisses = 0;
    impl_->diskStores = 0;
    impl_->diskRejects = 0;
}

void
EvalCache::setCapacityBytes(int64_t bytes)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    capacityBytes_ = bytes;
    impl_->evictTo(static_cast<uint64_t>(bytes > 0 ? bytes : 0));
}

void
EvalCache::setDiskDir(const std::string &dir)
{
    if (!dir.empty())
        ensureDir(dir);
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->diskDir = dir;
}

std::string
EvalCache::diskDir() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->diskDir;
}

void
EvalCache::resetCounters()
{
    // Every effectiveness counter resets together: a per-phase report
    // must not show phase N's evictions or disk traffic next to phase
    // N+1's hit rate.
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->hits = 0;
    impl_->misses = 0;
    impl_->evictions = 0;
    impl_->diskHits = 0;
    impl_->diskMisses = 0;
    impl_->diskStores = 0;
    impl_->diskRejects = 0;
}

namespace {

std::mutex gObserverMutex;
ExactEvalObserver gObserver;

/** Copy-then-call: a concurrent setExactEvalObserver never races a
 *  running callback, and the callback runs outside the lock. */
void
notifyExactEval(const ExactEvalInfo &info)
{
    ExactEvalObserver obs;
    {
        std::lock_guard<std::mutex> lock(gObserverMutex);
        obs = gObserver;
    }
    if (obs)
        obs(info);
}

/** Keys whose lookup-or-simulate is running, one caller per key: a
 *  concurrent caller for the same key waits and then replays what the
 *  first one stored. Parallel sweeps whose candidates share an
 *  evaluation (fleet candidates sharing a shard) so simulate it once,
 *  and the hit/miss counters read as in a serial run. */
std::mutex gClaimMutex;
std::condition_variable gClaimReleased;
std::unordered_set<uint64_t> gClaimedKeys;

class KeyClaim
{
  public:
    explicit KeyClaim(uint64_t key) : key_(key)
    {
        std::unique_lock<std::mutex> lock(gClaimMutex);
        while (!gClaimedKeys.insert(key_).second)
            gClaimReleased.wait(lock);
    }

    ~KeyClaim()
    {
        {
            std::lock_guard<std::mutex> lock(gClaimMutex);
            gClaimedKeys.erase(key_);
        }
        gClaimReleased.notify_all();
    }

    KeyClaim(const KeyClaim &) = delete;
    KeyClaim &operator=(const KeyClaim &) = delete;

  private:
    uint64_t key_;
    /** A claim holder never waits on the shared pool, whose workers
     *  may be waiting on this claim. */
    InlineParallelScope inlineOnly_;
};

} // namespace

void
setExactEvalObserver(ExactEvalObserver observer)
{
    std::lock_guard<std::mutex> lock(gObserverMutex);
    gObserver = std::move(observer);
}

namespace {

/** The memoized evaluation behind both entry points: probe the tiers
 *  under a claim on the key, else simulate, store, and tell the
 *  observer. `seed` runs only with the cache on (hashing a program is
 *  not free). */
template <typename Seed, typename Simulate>
SimReport
memoized(const Gpu &gpu, const Bindings &args, ExecOptions eo,
         bool wantOutputs, EvalTier *tierOut, ExactEvalInfo info,
         const Seed &seed, const Simulate &simulate)
{
    // A functional run writes (or replays) outputs into the bound
    // storage, which a frozen window promises nobody does.
    NPP_ASSERT(!wantOutputs || !args.frozen(),
               "functional evaluation inside a frozen bindings window");
    EvalCache &cache = EvalCache::instance();
    eo.metricsOnly = !wantOutputs;
    if (tierOut)
        *tierOut = EvalTier::Simulated;
    const bool cached = cache.enabled();
    uint64_t key = 0;
    std::optional<KeyClaim> claim;
    if (cached) {
        key = EvalCache::combine(
            EvalCache::combine(seed(), EvalCache::hashBindings(args)),
            EvalCache::hashExec(eo));
        claim.emplace(key);
        if (auto hit = cache.find(key, wantOutputs, &args, tierOut))
            return *hit;
    }
    SimReport report = simulate(eo);
    if (cached)
        cache.store(key, report, wantOutputs ? &args : nullptr);
    info.eopts = &eo;
    info.device = &gpu.config();
    info.report = &report;
    notifyExactEval(info);
    return report;
}

} // namespace

SimReport
cachedCompileAndRun(const Gpu &gpu, const Program &prog,
                    const Bindings &args, const CompileOptions &copts,
                    const ExecOptions &eopts, bool wantOutputs,
                    EvalTier *tierOut)
{
    // The executed mapping is nameable without compiling only under
    // Strategy::Fixed (compile may still apply hard spans; our own
    // sweeps enumerate hard-feasible candidates, so the two agree).
    const MappingDecision *mapping =
        copts.strategy == Strategy::Fixed ? &copts.fixedMapping : nullptr;
    return memoized(
        gpu, args, eopts, wantOutputs, tierOut,
        {&prog, mapping, &copts.paramValues},
        [&] { return EvalCache::specSeed(prog, copts, gpu.config()); },
        [&](const ExecOptions &eo) {
            return gpu.compileAndRun(prog, args, copts, eo);
        });
}

SimReport
cachedRun(const Gpu &gpu, const KernelSpec &spec, const Bindings &args,
          const ExecOptions &eopts, uint64_t specSeed, bool wantOutputs,
          EvalTier *tierOut)
{
    return memoized(
        gpu, args, eopts, wantOutputs, tierOut,
        {spec.prog, &spec.mapping, nullptr}, [&] { return specSeed; },
        [&](const ExecOptions &eo) { return gpu.run(spec, args, eo); });
}

} // namespace npp
